"""Brute-force spectrum oracle: explicit adjacency matrix + LAPACK eigensolver.

This route never touches the character formulas, so it serves as independent
ground truth for them.  The adjacency matrix is read off `group.cayley_table`,
one call of `group.multiply` on index arrays, so the group law keeps a single
definition; eigenvalues come from `numpy.linalg.eigvalsh` (LAPACK), batched.
"""

from __future__ import annotations

import numpy as np

from .group import cayley_table, element_index
from .subsets import CayleySubset
from .spectra import full_spectrum


def adjacency_matrix(subset: CayleySubset) -> np.ndarray:
    """0/1 adjacency matrix of X(S): vertices g, edges g ~ g*s for s in S."""
    m = subset.m
    order = 4 * m
    table = np.frombuffer(cayley_table(m), dtype=np.uint16).reshape(order, order)
    gens = [element_index(s, m) for s in subset.elements()]
    a = np.zeros((order, order), dtype=np.float64)
    a[np.arange(order)[:, None], table[:, gens]] = 1.0
    return a


def symmetric_eigenvalues(a: np.ndarray) -> list[float]:
    """All eigenvalues of a symmetric matrix, descending."""
    vals = symmetric_eigenvalues_batch(np.asarray(a, dtype=np.float64)[None, :, :])
    return [float(v) for v in vals[0]]


def symmetric_eigenvalues_batch(batch: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of same-size symmetric matrices, each descending.

    The solver reads one triangle only, so an asymmetric input would give
    silently wrong eigenvalues; it is rejected instead.
    """
    a = np.asarray(batch, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (batch, n, n) stack, got shape {a.shape}")
    if not np.array_equal(a, np.swapaxes(a, 1, 2)):
        raise ValueError("matrices must be exactly symmetric")
    return np.linalg.eigvalsh(a)[:, ::-1]


def oracle_max_delta(subset: CayleySubset) -> float:
    """max |a - b| over the sorted formula spectrum and the sorted dense spectrum of X(S)."""
    formula = sorted(full_spectrum(subset).values)
    dense = sorted(symmetric_eigenvalues(adjacency_matrix(subset)))
    return max(abs(a - b) for a, b in zip(formula, dense))
