import math
import random

import numpy as np
import pytest

from rqgraph.dense import (
    adjacency_matrix,
    oracle_max_delta,
    symmetric_eigenvalues,
    symmetric_eigenvalues_batch,
)
from rqgraph.group import multiply
from rqgraph.spectra import full_spectrum
from rqgraph.subsets import CayleySubset, parse_subset_literal, random_subset

from conftest import full_subset, group_elements, structural_subsets

COCKTAIL = parse_subset_literal("m=3;pairs=1,2;delta=0;ypairs=0,1,2")


def test_adjacency_complete_graph():
    a = adjacency_matrix(full_subset(3))
    assert np.array_equal(a, np.ones((12, 12)) - np.eye(12))


def test_adjacency_regularity_and_symmetry():
    rng = random.Random(7)
    for m in (2, 4, 6, 9):
        s = random_subset(m, rng.choice(range(1, 2 * m)), rng, "s")
        a = adjacency_matrix(s)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert np.all(a.sum(axis=1) == s.size)


def test_adjacency_cocktail_party():
    # K_{6x2}: zero exactly on the diagonal and the 6 antipodal pairs
    a = adjacency_matrix(COCKTAIL)
    zero_offdiag = [(i, j) for i in range(12) for j in range(12) if i != j and a[i, j] == 0]
    assert len(zero_offdiag) == 12
    for i, j in zero_offdiag:
        assert a[j, i] == 0


def test_adjacency_size_cap():
    with pytest.raises(ValueError):
        adjacency_matrix(full_subset(2048))


def _adjacency_by_vertex_loop(subset):
    """Reference construction: one multiply per vertex and generator."""
    m = subset.m
    idx = {g: i for i, g in enumerate(group_elements(m))}
    gens = subset.elements()
    a = np.zeros((4 * m, 4 * m))
    for g in idx:
        for s in gens:
            a[idx[g], idx[multiply(g, s, m)]] = 1.0
    return a


def test_adjacency_matches_per_vertex_loop():
    cases = [s for m in (1, 2, 3) for s in structural_subsets(m)]
    rng = random.Random(17)
    for m in range(1, 13):
        for _ in range(8):
            pairs = frozenset(k for k in range(1, m) if rng.random() < 0.5)
            ypairs = frozenset(k for k in range(m) if rng.random() < 0.5)
            cases.append(CayleySubset(m, pairs, rng.randrange(2), ypairs))
    for s in cases:
        assert np.array_equal(adjacency_matrix(s), _adjacency_by_vertex_loop(s)), s


def test_eigensolver_small_examples():
    vals = symmetric_eigenvalues(np.ones((12, 12)) - np.eye(12))
    assert abs(vals[0] - 11) < 1e-9
    assert all(abs(v + 1) < 1e-9 for v in vals[1:])
    assert symmetric_eigenvalues(np.diag([3.0, 1.0])) == pytest.approx([3.0, 1.0])
    vals = symmetric_eigenvalues(adjacency_matrix(COCKTAIL))
    assert vals == pytest.approx(sorted([10] + [0] * 6 + [-2] * 5, reverse=True), abs=1e-9)


def test_eigensolver_closed_form_spectra():
    for n in (2, 3, 5, 8, 13):
        eye = np.eye(n)
        cycle = np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1)
        expected = sorted((2 * math.cos(2 * math.pi * k / n) for k in range(n)), reverse=True)
        assert symmetric_eigenvalues(cycle) == pytest.approx(expected, abs=1e-12)
    k44 = np.block([[np.zeros((4, 4)), np.ones((4, 4))], [np.ones((4, 4)), np.zeros((4, 4))]])
    assert symmetric_eigenvalues(k44) == pytest.approx([4.0] + [0.0] * 6 + [-4.0], abs=1e-12)


def test_eigensolver_batch_matches_scalar():
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(6, 10, 10))
    batch = (batch + np.swapaxes(batch, 1, 2)) / 2
    out = symmetric_eigenvalues_batch(batch)
    assert out.shape == (6, 10)
    for i in range(6):
        assert out[i].tolist() == pytest.approx(symmetric_eigenvalues(batch[i]), abs=1e-10)


def test_eigensolver_rejects_asymmetric():
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))
    # within numpy's default rtol, but not exactly symmetric
    near = np.array([[0.0, 1.0], [1.0 + 1e-7, 0.0]])
    with pytest.raises(ValueError):
        symmetric_eigenvalues(near)
    with pytest.raises(ValueError):
        symmetric_eigenvalues_batch(np.stack([np.eye(2), near]))
    with pytest.raises(ValueError, match="expected a \\(batch, n, n\\) stack"):
        symmetric_eigenvalues_batch(np.zeros((2, 2)))


def test_eigensolver_permutation_invariance():
    rng = np.random.default_rng(5)
    s = random_subset(4, 5, random.Random(5), "s")
    a = adjacency_matrix(s)
    base = symmetric_eigenvalues(a)
    for _ in range(3):
        perm = rng.permutation(len(a))
        p = a[np.ix_(perm, perm)]
        assert symmetric_eigenvalues(p) == pytest.approx(base, abs=1e-9)


def test_moment_identity_dense():
    s = random_subset(5, 4, random.Random(1), "s")
    a = adjacency_matrix(s)
    vals = np.array(symmetric_eigenvalues(a))
    assert np.sum(vals) == pytest.approx(0.0, abs=1e-9)
    assert np.sum(vals**2) == pytest.approx(len(a) * s.size, abs=1e-7)


def test_oracle_max_delta_examples():
    assert oracle_max_delta(full_subset(3)) <= 1e-8
    assert oracle_max_delta(COCKTAIL) <= 1e-8
    # covalency-3 subset at m=5: formula multiset == dense multiset to 1e-9
    s = parse_subset_literal("m=5;pairs=1,2,3,4;delta=1;ypairs=0,1,2,3")
    assert s.covalency() == 3
    assert oracle_max_delta(s) <= 1e-9
    rng = random.Random(11)
    for m in (2, 5, 7):
        s = random_subset(m, rng.choice(range(2, 2 * m)), rng, "sprime")
        assert oracle_max_delta(s) <= 1e-8
    # the largest elementwise gap of the two sorted spectra, not a pass/fail flag
    formula = np.sort(full_spectrum(s).values)
    dense = np.sort(symmetric_eigenvalues(adjacency_matrix(s)))
    assert oracle_max_delta(s) == np.max(np.abs(formula - dense))


def test_lambda_max_of_extremal_subset_vs_dense():
    from rqgraph.subsets import extremal_subset
    from rqgraph.spectra import lambda_max_nontrivial

    s = extremal_subset(5, 1, 2)
    lam = lambda_max_nontrivial(s)
    ev = np.array(symmetric_eigenvalues(adjacency_matrix(s)))
    interior = ev[np.abs(np.abs(ev) - s.size) > 1e-9]
    assert lam == pytest.approx(float(np.max(np.abs(interior))), abs=1e-9)


def test_formula_route_matches_dense_route():
    rng = random.Random(23)
    for m in (3, 6, 8, 10):
        for _ in range(5):
            s = random_subset(m, rng.choice(range(1, 2 * m)), rng, "s")
            formula = sorted(full_spectrum(s).values)
            dense = sorted(symmetric_eigenvalues(adjacency_matrix(s)))
            assert formula == pytest.approx(dense, abs=1e-8)
