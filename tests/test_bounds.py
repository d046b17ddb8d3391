import math

import mpmath
import numpy as np
import pytest

from rqgraph import bounds
from rqgraph.bounds import (
    SPLIT_SHIFT,
    asymptotic_coefficient,
    critical_lambda,
    exact_safe_covalency,
    extremal_mu2,
    interpolated_gap,
    is_exceptional_spectral,
    maximizing_split,
    ramanujan_bound_at,
    trivial_bound,
)
from rqgraph.spectra import mu_abs
from rqgraph.subsets import covalency_splits, extremal_subset


def test_trivial_bound_examples():
    assert trivial_bound(9) == 10
    assert trivial_bound(63) == 29
    assert trivial_bound(65) == 30
    assert trivial_bound(67) == 30
    # exactness at perfect squares: floor(4 sqrt(m)) must not lose to fp error
    for m in (1, 4, 9, 16, 25, 100, 10**6):
        assert trivial_bound(m) == 4 * math.isqrt(m) - 2
    with pytest.raises(ValueError):
        trivial_bound(0)


def test_exact_safe_covalency_examples():
    assert exact_safe_covalency(3, "s") == 4
    assert exact_safe_covalency(4, "sprime") == 6
    assert exact_safe_covalency(5, "s") == 6
    with pytest.raises(ValueError):
        exact_safe_covalency(13, "s")


def test_extremal_mu2_against_subset_spectrum():
    """Closed form == honest |mu_2| of the constructed subset."""
    for m in (5, 8, 13, 21, 30):
        for l1 in range(1, 8):
            for l2 in range(2, 8, 2):
                delta = (l1 + l2) % 2
                if (l1 - 2 + delta) // 2 > m - 1 or l2 // 2 > m:
                    continue
                closed = extremal_mu2(m, l1, l2)
                honest = mu_abs(extremal_subset(m, l1, l2), 2)
                assert closed == pytest.approx(honest, abs=1e-9), (m, l1, l2)


def test_extremal_mu2_window_examples():
    # one step past the trivial bound plus one: tight but positive gap at m=65
    gap65 = extremal_mu2(65, 12, 20) - ramanujan_bound_at(65, 32)
    assert extremal_mu2(65, 12, 20) == pytest.approx(30.731023000425, abs=1e-9)
    assert ramanujan_bound_at(65, 32) == pytest.approx(2 * math.sqrt(227), abs=1e-12)
    assert gap65 > 0
    # and the same profile fails to clear the bound at m=63
    sp = maximizing_split(trivial_bound(63) + 2)
    gap63 = extremal_mu2(63, sp.l1, sp.l2) - ramanujan_bound_at(63, trivial_bound(63) + 2)
    assert gap63 < 0


def test_extremal_mu2_validation():
    with pytest.raises(ValueError):
        extremal_mu2(10, 3, 3)
    with pytest.raises(ValueError):
        extremal_mu2(10, 0, 2)
    with pytest.raises(ValueError):
        extremal_mu2(10, 25, 2)


def test_maximizing_split_examples():
    assert (maximizing_split(33).l1, maximizing_split(33).l2) == (11, 22)
    assert (maximizing_split(31).l1, maximizing_split(31).l2) == (11, 20)
    assert (maximizing_split(32).l1, maximizing_split(32).l2) == (12, 20)
    assert SPLIT_SHIFT == {0: 0, 1: 2, 2: 4, 3: 0, 4: 2, 5: -2}
    with pytest.raises(ValueError):
        maximizing_split(2)


def test_maximizing_split_is_admissible_and_integral():
    for l in range(3, 200):
        sp = maximizing_split(l)
        assert sp.l1 + sp.l2 == l
        assert sp.l1 > 0 and sp.l2 > 0 and sp.l2 % 2 == 0
        assert sp.l1 % 2 == l % 2


def test_maximizing_split_beats_all_splits():
    for m in (31, 47, 63, 85, 101):
        for l in range(3, trivial_bound(m) + 3):
            sp = maximizing_split(l)
            best = max(extremal_mu2(m, l1, l2) for (l1, l2) in covalency_splits(m, l, "sprime"))
            assert extremal_mu2(m, sp.l1, sp.l2) == pytest.approx(best, abs=1e-9), (m, l)


def test_mu2_unimodal_in_l2():
    """Along fixed l, the closed form rises to a single peak and then falls."""
    for m, l in ((51, 26), (67, 31), (85, 34), (99, 39)):
        seq = [extremal_mu2(m, l - l2, l2) for (l1, l2) in covalency_splits(m, l, "sprime")]
        diffs = [b - a for a, b in zip(seq, seq[1:])]
        switched = False
        for d in diffs:
            if d < -1e-12:
                switched = True
            elif d > 1e-12:
                assert not switched, (m, l, seq)


def test_critical_lambda_profiles():
    # l0(67) = 30 -> covalency 31 peaks at split (11, 20)
    sp = maximizing_split(trivial_bound(67) + 1)
    assert (sp.l1, sp.l2) == (11, 20)
    assert critical_lambda(67) == pytest.approx(extremal_mu2(67, 11, 20), abs=0)
    # l0(151) = 47 -> covalency 48 peaks at split (16, 32)
    sp = maximizing_split(trivial_bound(151) + 1)
    assert (sp.l1, sp.l2) == (16, 32)


def test_critical_lambda_scope_errors():
    with pytest.raises(ValueError):
        critical_lambda(61)  # below the established threshold
    with pytest.raises(ValueError):
        critical_lambda(69)  # not prime
    with pytest.raises(ValueError):
        critical_lambda(68)


def test_is_exceptional_spectral_examples():
    v = is_exceptional_spectral(67)
    assert v.exceptional and v.l0 == 30 and v.route == "spectral"
    assert (v.witness["l1"], v.witness["l2"]) == (11, 20)
    assert v.witness["mu2_abs"] < v.witness["ramanujan_bound"]

    assert not is_exceptional_spectral(151).exceptional
    assert is_exceptional_spectral(7177).exceptional


def test_interpolated_gap_signs():
    assert interpolated_gap(6, 4, 1) < 0          # p = 67 is exceptional
    assert interpolated_gap(0, -5, 2) > 0         # p = 157 is ordinary
    # double and extended precision agree away from ties
    for (r, c, k) in ((6, 4, 1), (0, -5, 2), (9, 7, 3), (23, 41, 5)):
        a = interpolated_gap(r, c, k)
        with mpmath.workdps(50):
            b = bounds._gap_mp(r, c, k)
        assert a == pytest.approx(float(b), abs=1e-9)
    with pytest.raises(ValueError):
        interpolated_gap(24, 0, 1)
    with pytest.raises(ValueError):
        interpolated_gap(0, -5, 0)


def _admissible_families():
    from rqgraph.primes import candidate_constants

    return [(r, c) for r in range(24) for c in candidate_constants(r)[1]]


def test_interpolated_gap_array_matches_scalar_calls():
    """One numpy pass gives, bit for bit, what one call per k gives."""
    families = _admissible_families()
    assert len(families) == 54
    cases = [(r, c, 10_000) for (r, c) in ((0, -5), (11, 7), (23, 41))]
    cases += [(r, c, 50) for (r, c) in families]
    for r, c, horizon in cases:
        ks = np.arange(1, horizon + 1)
        gaps = interpolated_gap(r, c, ks)
        assert gaps.shape == ks.shape
        assert gaps.tolist() == [interpolated_gap(r, c, k) for k in range(1, horizon + 1)], (r, c)
    with pytest.raises(ValueError):
        interpolated_gap(0, -5, np.array([3, 0, 5]))
    with pytest.raises(ValueError):                 # f(k) would overflow int64
        interpolated_gap(0, -5, 1 << 29)


def test_broken_shift_table_is_caught(monkeypatch):
    broken = np.array([0, 2, 4, 0, 2, 0])      # residue 5 loses its -2
    monkeypatch.setattr(bounds, "_SHIFTS", broken)
    assert interpolated_gap(0, -5, np.arange(1, 100)).shape == (99,)  # l = 1 mod 6 only
    with pytest.raises(AssertionError, match="shift table broken"):
        interpolated_gap(4, 1, np.arange(1, 100))                     # l = 5 mod 6
    with pytest.raises(AssertionError, match="shift table broken"):
        interpolated_gap(4, 1, 7)


def test_gap_sign_matches_spectral_margin_at_primes():
    """At a prime argument the interpolant's sign is the exceptionality margin's sign."""
    from rqgraph.primes import is_prime, window_coordinates

    for p in (67, 157, 179, 347, 1087, 2371, 7177):
        assert is_prime(p)
        r, c, k = window_coordinates(p)
        v = is_exceptional_spectral(p)
        margin = v.witness["mu2_abs"] - v.witness["ramanujan_bound"]
        assert (interpolated_gap(r, c, k) < 0) == (margin < 0) == v.exceptional


def _sampled_primes(lo, count, rng):
    """count primes from [lo, 2 lo), each the first prime after a random start."""
    from rqgraph.primes import is_prime

    out = []
    while len(out) < count:
        p = rng.randrange(lo, 2 * lo) | 1
        while not is_prime(p):
            p += 2
        out.append(p)
    return out


def test_gap_error_is_under_its_stated_bound():
    """|double - mpf| of the closed-form margin and of the interpolated gap stays
    under EPS * gap_error_scale(t), for primes near 1e10 .. 1e17."""
    import random

    from rqgraph.primes import window_coordinates
    from rqgraph.spectra import EPS

    rng = random.Random(5)
    worst = 0.0
    for e in range(10, 18):
        for p in _sampled_primes(10**e, 4, rng):
            l = trivial_bound(p) + 1
            split = maximizing_split(l)
            bound = EPS * bounds.gap_error_scale(p)
            with mpmath.workdps(50):
                exact = bounds._gap(mpmath, p, l, split.l1, split.l2)
                r, c, k = window_coordinates(p)
                assert bounds._gap_mp(r, c, k) == exact
            for double in (extremal_mu2(p, split.l1, split.l2) - ramanujan_bound_at(p, l),
                           interpolated_gap(r, c, k)):
                err = abs(double - exact)
                assert err <= bound, (p, err, bound)
                worst = max(worst, err / bound)
    assert worst > 1e-3     # the sampled errors are not all vanishingly small


def test_asymptotic_coefficient():
    # ceiling identity pinning the candidate-constant window
    for r in range(24):
        lhs = math.ceil((27 * (r + 3) ** 2 - 256 * math.pi**2) / 432)
        assert lhs == (r + 3) ** 2 // 16 - 5
    assert asymptotic_coefficient(0, -5) < 0
    assert asymptotic_coefficient(0, -5) == pytest.approx(
        (27 * 9 + 2160 - 256 * math.pi**2) / 1296, abs=1e-12
    )


def test_asymptotic_coefficient_predicts_large_k_sign():
    for (r, c) in ((0, -5), (5, 1), (12, 13), (23, 41)):
        coeff = asymptotic_coefficient(r, c)
        assert (interpolated_gap(r, c, 1000) < 0) == (coeff < 0)
        # and the scaled gap approaches the coefficient
        assert 1000 * interpolated_gap(r, c, 1000) == pytest.approx(coeff, rel=0.02)
