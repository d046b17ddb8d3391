"""Brute-force spectrum oracle: explicit adjacency matrix + LAPACK eigensolver.

This route never touches the character formulas, so it serves as independent
ground truth for them.  The adjacency matrix is read off a Cayley table built
by `group.multiply`, so the group law keeps a single definition; eigenvalues
come from `numpy.linalg.eigvalsh` (LAPACK), batched over a stack of matrices.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .group import GroupElement, all_elements, multiply
from .subsets import CayleySubset
from .spectra import full_spectrum

MAX_ORACLE_ORDER = 4096


def _index(g: GroupElement, m: int) -> int:
    """Position of g in `all_elements(m)`."""
    return g.e * 2 * m + g.k


@lru_cache(maxsize=1)
def _cayley_table(m: int) -> np.ndarray:
    """Read-only table[i, j] = index of g_i * g_j, over `all_elements(m)`.

    int16 holds every index below MAX_ORACLE_ORDER and keeps the largest
    table at 32 MB.  Only the latest m is cached: callers work one m at a time.
    """
    elems = all_elements(m)
    table = np.empty((len(elems), len(elems)), dtype=np.int16)
    for i, g in enumerate(elems):
        table[i] = [_index(multiply(g, h, m), m) for h in elems]
    table.flags.writeable = False
    return table


def adjacency_matrix(subset: CayleySubset) -> np.ndarray:
    """0/1 adjacency matrix of X(S): vertices g, edges g ~ g*s for s in S."""
    m = subset.m
    order = 4 * m
    if order > MAX_ORACLE_ORDER:
        raise ValueError(f"oracle capped at {MAX_ORACLE_ORDER} vertices, got 4m={order}")
    gens = [_index(s, m) for s in subset.elements()]
    a = np.zeros((order, order), dtype=np.float64)
    a[np.arange(order)[:, None], _cayley_table(m)[:, gens]] = 1.0
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


def spectra_match(subset: CayleySubset, tol: float = 1e-8) -> bool:
    """Formula spectrum == dense eigensolver spectrum, as sorted lists, elementwise."""
    formula = np.array(sorted(full_spectrum(subset).values))
    dense = np.array(sorted(symmetric_eigenvalues(adjacency_matrix(subset))))
    return bool(np.max(np.abs(formula - dense)) <= tol)
