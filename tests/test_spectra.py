import math
import random

import mpmath
import numpy as np
import pytest

from rqgraph import spectra
from rqgraph.spectra import (
    EPS,
    TIE_TOL,
    at_or_below,
    full_spectrum,
    is_ramanujan,
    lambda_max_nontrivial,
    mu_abs,
    one_dim_eigenvalues,
    ramanujan_bound,
    two_dim_eigenvalues,
)
from rqgraph.subsets import CayleySubset, enumerate_family, full_subset, parse_subset_literal, random_subset
from conftest import structural_subsets

COCKTAIL = parse_subset_literal("m=3;pairs=1,2;delta=0;ypairs=0,1,2")


def test_one_dim_examples():
    assert one_dim_eigenvalues(full_subset(3)) == (11, -1, -1, -1)
    # complete graph minus a perfect matching on 12 vertices
    assert one_dim_eigenvalues(COCKTAIL) == (10, -2, 0, 0)
    assert one_dim_eigenvalues(full_subset(4)) == (15, -1, -1, -1)


def test_one_dim_against_character_sums():
    """Recompute the four linear characters by explicit summation over elements."""
    for m in (3, 4, 5, 6):
        for subset in structural_subsets(m):
            els = subset.elements()
            lam1 = len(els)
            lam2 = sum(1 if g.e == 0 else -1 for g in els)
            if m % 2 == 1:
                # y-coset values are +-i and cancel pairwise on symmetric sets
                lam3 = sum((-1) ** g.k for g in els if g.e == 0)
                lam4 = lam3
            else:
                lam3 = sum((-1) ** g.k for g in els)
                lam4 = sum((-1) ** g.k if g.e == 0 else (-1) ** (g.k + 1) for g in els)
            assert one_dim_eigenvalues(subset) == (lam1, lam2, lam3, lam4), subset.literal()


def test_two_dim_examples():
    ev = two_dim_eigenvalues(full_subset(3), 1)
    assert ev.offdiag_abs == 0.0
    assert abs(ev.diag + 1) < 1e-12 and abs(ev.plus + 1) < 1e-12

    ev = two_dim_eigenvalues(COCKTAIL, 2)
    assert abs(ev.diag + 2) < 1e-12 and ev.offdiag_abs < 1e-12


@pytest.mark.parametrize("m", (3, 5, 8))
def test_two_dim_odd_frequency_has_no_cross_term(m):
    rng = random.Random(m)
    for _ in range(20):
        s = random_subset(m, rng.choice(range(1, 2 * m)), rng, "s")
        for j in range(1, m, 2):
            assert two_dim_eigenvalues(s, j).offdiag_abs == 0.0


def test_two_dim_against_exponential_sums():
    """Brute-force z_j and w_j as raw exponential sums over all 2m exponents."""
    for m in (3, 4, 5, 7):
        for subset in structural_subsets(m):
            els = subset.elements()
            for j in range(1, m):
                w = 2 * math.pi * j / (2 * m)
                z = sum(math.cos(w * g.k) for g in els if g.e == 0)
                zi = sum(math.sin(w * g.k) for g in els if g.e == 0)
                wre = sum(math.cos(w * g.k) for g in els if g.e == 1)
                wim = sum(math.sin(w * g.k) for g in els if g.e == 1)
                ev = two_dim_eigenvalues(subset, j)
                assert abs(zi) < 1e-9  # z_j is real on symmetric sets
                assert abs(ev.diag - z) < 1e-9
                assert abs(ev.offdiag_abs - math.hypot(wre, wim)) < 1e-9


def test_two_dim_frequency_validation():
    with pytest.raises(ValueError):
        two_dim_eigenvalues(full_subset(5), 0)
    with pytest.raises(ValueError):
        two_dim_eigenvalues(full_subset(5), 5)


def test_full_spectrum_examples():
    spec = full_spectrum(full_subset(3))
    assert [(round(v), k) for v, k in spec.entries] == [(11, 1), (-1, 11)]
    spec = full_spectrum(COCKTAIL)
    assert [(round(v), k) for v, k in spec.entries] == [(10, 1), (0, 6), (-2, 5)]


def test_full_spectrum_structure():
    for m in (1, 2, 5, 9):
        s = full_subset(m)
        spec = full_spectrum(s)
        assert spec.order == 4 * m
        assert sum(k for _, k in spec.entries) == 4 * m
        assert max(spec.values) == s.size


def test_trace_and_moment_identities_exhaustive():
    for m in (1, 2, 3, 4, 5, 6):
        for subset in structural_subsets(m):
            vals = full_spectrum(subset).values
            assert abs(math.fsum(vals)) < 1e-7
            assert abs(math.fsum(v * v for v in vals) - 4 * m * subset.size) < 1e-6


@pytest.mark.parametrize("m", (9, 17, 25, 32))
def test_trace_and_moment_identities_random(m):
    rng = random.Random(m)
    for _ in range(25):
        s = random_subset(m, rng.choice(range(1, 2 * m)), rng, "s")
        vals = full_spectrum(s).values
        assert abs(math.fsum(vals)) < 1e-6
        assert abs(math.fsum(v * v for v in vals) - 4 * m * s.size) < 1e-5


def test_mu_abs_examples():
    assert abs(mu_abs(full_subset(3), 1) - 1) < 1e-12
    assert abs(mu_abs(COCKTAIL, 2) - 2) < 1e-12
    ev = two_dim_eigenvalues(COCKTAIL, 1)
    assert mu_abs(COCKTAIL, 1) == abs(ev.diag)


def test_lambda_max_and_bound_examples():
    assert abs(lambda_max_nontrivial(full_subset(3)) - 1) < 1e-9
    assert abs(lambda_max_nontrivial(COCKTAIL) - 2) < 1e-9
    assert abs(ramanujan_bound(full_subset(3)) - 2 * math.sqrt(10)) < 1e-12
    assert is_ramanujan(full_subset(3))
    assert is_ramanujan(COCKTAIL)


def test_lambda_max_excludes_both_signs_of_degree():
    # S = <x>y at m = 2 gives K_{4,4}: spectrum {4, 0 x6, -4}; both +-4 drop out
    s = CayleySubset(2, frozenset(), 0, frozenset({0, 1}))
    assert s.generates()
    spec = full_spectrum(s)
    assert [(round(v), k) for v, k in spec.entries] == [(4, 1), (0, 6), (-4, 1)]
    assert lambda_max_nontrivial(s) == 0.0
    assert is_ramanujan(s)


def test_non_ramanujan_witness_at_covalency_l0_plus_1():
    # m = 9: l0 = 10; the (11, 0) split forces |second eigenvalue| = 11 > RB
    m = 9
    witnesses = [
        s for s in enumerate_family(m, 11, "s") if s.profile().l2 == 0
    ]
    assert witnesses
    s = witnesses[0]
    lam2 = one_dim_eigenvalues(s)[1]
    assert abs(lam2) == 11
    assert abs(lam2) > ramanujan_bound(s)
    assert not is_ramanujan(s)


def test_eigenvalue_bound_by_covalency_exhaustive():
    """Every non-trivial |eigenvalue| is at most l(S) when |S| >= 2m."""
    for m in (2, 3, 4, 5, 6):
        for subset in structural_subsets(m):
            l = subset.covalency()
            if subset.size < 2 * m:
                continue
            deg = subset.size
            for v in full_spectrum(subset).values:
                if abs(abs(v) - deg) <= 1e-9:
                    continue
                assert abs(v) <= l + 1e-9, (subset.literal(), v)


def test_float_and_mp_character_sums_agree():
    """The one block formula gives the same sums in math and in mpmath."""
    rng = random.Random(3)
    cases = [full_subset(7), COCKTAIL] + [
        random_subset(m, rng.randrange(1, 2 * m), rng, "s") for m in (2, 5, 12, 31, 64) for _ in range(4)
    ]
    for s in cases:
        for j in range(1, s.m):
            z, w = spectra._block(math, s, j)
            ev = two_dim_eigenvalues(s, j)
            assert (z, w) == (ev.diag, ev.offdiag_abs)
            with mpmath.workdps(50):
                z_mp, w_mp = spectra._block(mpmath, s, j)
            assert abs(z - z_mp) <= 1e-12 and abs(w - w_mp) <= 1e-12, (s.literal(), j)
            if j % 2:
                assert w == 0.0 and math.copysign(1.0, w) == 1.0 and w_mp == 0


def test_character_sum_error_is_under_its_stated_bound():
    """|double - mpf| of every block eigenvalue, and of the Ramanujan margin,
    stays under EPS * sums_error_scale, the scale is_ramanujan hands the rule."""
    rng = random.Random(11)
    m = 500
    for l in (1800, 1950, 1990):
        s = random_subset(m, l, rng, "s")
        bound = EPS * spectra.sums_error_scale(s)
        with mpmath.workdps(50):
            for j in range(1, m):
                ev = two_dim_eigenvalues(s, j)
                z, w = spectra._block(mpmath, s, j)
                assert abs(ev.plus - (z + w)) <= bound and abs(ev.minus - (z - w)) <= bound
            exact = spectra._margin_mp(s)
        margin = lambda_max_nontrivial(s) - ramanujan_bound(s)
        assert abs(margin - exact) <= bound, (l, float(margin - exact), bound)


# An exact tie: lambda = 10 = 2 sqrt(25) at |S| = 26, mpf margin about +2e-50.
M9_TIE = parse_subset_literal("m=9;pairs=1,2,4,5,7,8;delta=0;ypairs=0,1,2,3,5,6,8")


def test_exact_tie_is_ramanujan():
    """The tie is at or below the bound by the rule and by a dense eigensolve;
    a bare `<= 0` on the mpf margin would call it non-Ramanujan."""
    from rqgraph.dense import adjacency_matrix, symmetric_eigenvalues

    s = M9_TIE
    assert (s.size, s.covalency()) == (26, 10)
    with mpmath.workdps(50):
        exact = spectra._margin_mp(s)
    assert 0 < exact <= TIE_TOL
    assert is_ramanujan(s)
    dense = np.array(symmetric_eigenvalues(adjacency_matrix(s)))
    interior = dense[np.abs(np.abs(dense) - s.size) > 1e-9]
    assert abs(np.max(np.abs(interior)) - 10) < 1e-9


def test_near_tie_rule_decides_on_the_mpf():
    """Inside the window the mpf decides, by its own value and not its double;
    outside it the double decides and mpmath is never called."""
    seen = []

    def exact(value):
        def thunk():
            seen.append(mpmath.mp.dps)
            return mpmath.mpf(value)
        return thunk

    with mpmath.workdps(50):
        just_above = mpmath.mpf(TIE_TOL) + mpmath.mpf("1e-55")   # its double is TIE_TOL
    assert float(just_above) <= TIE_TOL
    assert not at_or_below(1e-12, 1.0, lambda: just_above)
    assert at_or_below(1e-12, 1.0, exact("-1e-400"))            # its double is -0.0
    assert at_or_below(-1e-12, 1.0, exact("1e-40"))            # a tie
    assert not at_or_below(-1e-12, 1.0, exact("1e-20"))
    assert seen == [spectra._MP_DPS] * 3
    assert at_or_below(-2e-6, 1.0, exact("1"))                  # outside: the double decides
    assert not at_or_below(2e-6, 1.0, exact("-1"))
    assert seen == [spectra._MP_DPS] * 3
    # the window widens with the error scale: EPS * 1e11 is about 2.2e-5
    assert spectra.tie_window(1.0) == spectra.NEAR_TIE_MARGIN
    assert spectra.tie_window(1e11) == EPS * 1e11
    assert at_or_below(1e-5, 1e11, exact("-1"))
    assert len(seen) == 4
