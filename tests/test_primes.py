import math
import random

import mpmath
import numpy as np
import pytest

from rqgraph import primes
from rqgraph.bounds import _gap_mp, gap_error_scale, interpolated_gap, trivial_bound
from rqgraph.spectra import TIE_TOL, at_or_below
from rqgraph.primes import (
    THRESHOLD_SCAN_HORIZON,
    all_families,
    candidate_constants,
    density_divisor,
    derive_k_threshold,
    family,
    family_primes,
    hardy_littlewood_admissible,
    hardy_littlewood_constant,
    hardy_littlewood_density,
    is_exceptional_arithmetic,
    is_prime,
    legendre_symbol,
    scan_families,
    window_coordinates,
)

SMALL_PRIMES = [p for p in range(2, 3000) if all(p % q for q in range(2, p))]


def test_is_prime_small_range():
    small = set(SMALL_PRIMES)
    for n in range(-3, 3000):
        assert is_prime(n) == (n in small), n


def test_is_prime_examples():
    assert is_prime(2)
    assert is_prime(7177)
    assert not is_prime(2992)  # 36*81 + 81 - 5, even
    assert is_prime(999999999989)
    assert not is_prime(10**12 + 1)


def test_is_prime_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(0)
    for _ in range(500):
        n = rng.randrange(10**9, 10**13)
        assert is_prime(n) == sympy.isprime(n), n
    # strong-pseudoprime stress: products of two close primes
    for _ in range(100):
        a = sympy.nextprime(rng.randrange(10**5, 10**6))
        b = sympy.nextprime(a)
        assert not is_prime(a * b)


def test_legendre_examples():
    assert legendre_symbol(1, 7) == 1
    assert legendre_symbol(89, 5) == 1  # 89 = 4 mod 5, a square
    assert legendre_symbol(10, 5) == 0
    with pytest.raises(ValueError):
        legendre_symbol(3, 4)


def test_legendre_against_euler_criterion():
    rng = random.Random(1)
    for _ in range(2000):
        p = rng.choice([q for q in SMALL_PRIMES if q > 2])
        a = rng.randrange(-300, 300)
        euler = pow(a % p, (p - 1) // 2, p)
        euler = -1 if euler == p - 1 else euler
        assert legendre_symbol(a, p) == euler, (a, p)


def test_legendre_square_factor_invariance():
    rng = random.Random(2)
    for _ in range(500):
        p = rng.choice([q for q in SMALL_PRIMES if q > 2])
        d = rng.randrange(-200, 200)
        k = rng.randrange(1, 50)
        if k % p == 0:
            continue
        assert legendre_symbol(k * k * d, p) == legendre_symbol(d, p)


def test_candidate_constants():
    total = 0
    for r in range(24):
        cand, allowed = candidate_constants(r)
        assert len(cand) == 6
        assert cand == [(r + 3) ** 2 // 16 + s for s in range(-5, 1)]
        assert set(allowed) <= set(cand)
        total += len(allowed)
    assert total == 54
    assert candidate_constants(0)[1] == [-5, -4, -2]
    assert candidate_constants(1)[1] == [-1]
    assert candidate_constants(9)[1] == [7]
    with pytest.raises(ValueError):
        candidate_constants(24)


def test_candidate_constants_match_fixture_rows(table2_fixture):
    derived = {(f.r, f.c) for f in all_families()}
    assert derived == set(table2_fixture.keys())


def test_irreducibility_filter_details():
    # content 3 must be rejected even though the discriminant is non-square
    _, allowed0 = candidate_constants(0)
    assert -3 not in allowed0 and -1 not in allowed0 and 0 not in allowed0
    # square discriminant rejected: (r+3)^2 - 16c = 0 for r=1, c=1
    _, allowed1 = candidate_constants(1)
    assert 1 not in allowed1


def _gap_at_or_below(r, c, k, scale):
    """The near-tie rule on the interpolated gap at one k."""
    return at_or_below(interpolated_gap(r, c, k), scale, lambda: _gap_mp(r, c, k))


def _scan_scale(r, c):
    """The derivation's error scale: that of the largest f(k) in the scan."""
    k = THRESHOLD_SCAN_HORIZON
    return gap_error_scale(36 * k * k + 3 * (r + 3) * k + c)


def test_derive_k_threshold_is_the_gap_switch_point():
    """Self-consistency: the threshold is the first k passing both conditions."""
    for (r, c) in ((6, 4), (9, 7), (0, -5), (16, 17), (23, 37)):
        k0 = derive_k_threshold(r, c)
        scale = _scan_scale(r, c)
        assert 36 * k0 * k0 + 3 * (r + 3) * k0 + c >= 67
        assert _gap_at_or_below(r, c, k0, scale)
        if k0 > 1:
            value = 36 * (k0 - 1) ** 2 + 3 * (r + 3) * (k0 - 1) + c
            assert value < 67 or not _gap_at_or_below(r, c, k0 - 1, scale)
    with pytest.raises(ValueError):
        derive_k_threshold(0, -3)


def test_derive_k_threshold_spot_values():
    assert derive_k_threshold(6, 4) == 1
    assert derive_k_threshold(9, 7) == 1
    assert derive_k_threshold(1, -1) == 2
    assert derive_k_threshold(7, 1) == 4


def _threshold_by_loop(r, c):
    """The per-k scan: first k where f(k) >= 67 and the gap is at or below 0,
    which must then hold up to the horizon.  Gap values come from one array
    call (pinned to scalar calls in test_bounds); every one goes through the
    near-tie rule."""
    gaps = interpolated_gap(r, c, np.arange(1, THRESHOLD_SCAN_HORIZON + 1)).tolist()
    scale = _scan_scale(r, c)
    threshold = None
    for k, g in enumerate(gaps, start=1):
        negative = at_or_below(g, scale, lambda: _gap_mp(r, c, k))
        holds = 36 * k * k + 3 * (r + 3) * k + c >= 67 and negative
        if threshold is None:
            if holds:
                threshold = k
        elif not holds:
            return ("broke", k)
    return threshold


def test_derive_k_threshold_matches_per_k_loop():
    families = [(f.r, f.c) for f in all_families()]
    assert len(families) == 54
    for r, c in families:
        assert derive_k_threshold(r, c) == _threshold_by_loop(r, c), (r, c)


def _fake_gap(values):
    """A stand-in gap: values[k] where given, -1 elsewhere; scalar or array k."""

    def gap(r, c, k):
        k = np.asarray(k)
        out = np.full(k.shape, -1.0)
        for key, v in values.items():
            out[k == key] = v
        return out if out.ndim else float(out)

    return gap


def test_threshold_premise_checks_still_raise(monkeypatch):
    derive = derive_k_threshold.__wrapped__
    # (6, 4): f(1) = 67, so the condition holds from k = 1 until the gap turns
    monkeypatch.setattr(primes, "interpolated_gap", _fake_gap({5: 0.5, 9: 0.5}))
    broke = r"^threshold condition for \(r=6, c=4\) broke at k={} after first holding at k={}$"
    with pytest.raises(ArithmeticError, match=broke.format(5, 1)):
        derive(6, 4)
    last = THRESHOLD_SCAN_HORIZON
    monkeypatch.setattr(primes, "interpolated_gap", _fake_gap({1: 0.5, 2: 0.5, last: 0.5}))
    with pytest.raises(ArithmeticError, match=broke.format(last, 3)):
        derive(6, 4)
    monkeypatch.setattr(primes, "interpolated_gap", lambda r, c, k: np.ones(len(k)))
    with pytest.raises(ArithmeticError, match=r"^no threshold found for \(r=6, c=4\) within the horizon$"):
        derive(6, 4)
    # f(k) >= 67 still gates the threshold: (0, -5) has f(1) = 40
    monkeypatch.setattr(primes, "interpolated_gap", _fake_gap({}))
    assert derive(0, -5) == 2
    assert derive(6, 4) == 1


def test_threshold_near_zero_gap_is_decided_in_mpmath(monkeypatch):
    """A gap inside the near-tie window is decided by the mpf, not by its
    double; gaps outside the window (2e-6 here) never reach mpmath."""
    fake = _fake_gap({1: 1.0, 2: 2e-6, 3: 1e-12, 5: -2e-6})
    monkeypatch.setattr(primes, "interpolated_gap", fake)
    escalated = []

    def mp_gap(r, c, k):
        escalated.append(k)
        return mpmath.mpf(-1) if k == 3 else mpmath.mpf(1)

    monkeypatch.setattr(primes, "_gap_mp", mp_gap)
    assert derive_k_threshold.__wrapped__(6, 4) == 3
    assert escalated == [3]
    fake = _fake_gap({1: 1.0, 2: 1.0, 4: -1e-12})
    monkeypatch.setattr(primes, "interpolated_gap", fake)
    with pytest.raises(ArithmeticError, match="broke at k=4 after first holding at k=3"):
        derive_k_threshold.__wrapped__(6, 4)
    assert escalated == [3, 4]
    # decided on the mpf: just above TIE_TOL is above, though its double is not
    fake = _fake_gap({1: 1.0, 2: 1.0, 3: 1.0, 4: 1e-12})
    monkeypatch.setattr(primes, "interpolated_gap", fake)
    monkeypatch.setattr(primes, "_gap_mp", lambda r, c, k: mpmath.mpf(TIE_TOL) + mpmath.mpf("1e-55"))
    assert derive_k_threshold.__wrapped__(6, 4) == 5


def test_window_coordinates_roundtrip():
    for p in (67, 157, 347, 7177, 2371, 49999):
        r, c, k = window_coordinates(p)
        assert 0 <= r <= 23
        assert p == 36 * k * k + 3 * (r + 3) * k + c
        assert trivial_bound(p) == 24 * k + r


def test_window_decomposition_unique():
    """l0 determines (r, k) and hence c; re-deriving from any other k fails."""
    for p in (347, 1087, 7177):
        r, c, k = window_coordinates(p)
        for k2 in range(max(1, k - 3), k + 4):
            if k2 == k:
                continue
            for r2 in range(24):
                c2 = p - 36 * k2 * k2 - 3 * (r2 + 3) * k2
                if trivial_bound(p) == 24 * k2 + r2:
                    assert (r2, k2) == (r, k)


def test_is_exceptional_arithmetic_examples():
    v = is_exceptional_arithmetic(67)
    assert v.exceptional and v.witness == {"r": 6, "c": 4, "k": 1}
    v = is_exceptional_arithmetic(157)
    assert not v.exceptional and v.witness == {"r": 0, "c": -5, "k": 2}
    v = is_exceptional_arithmetic(347)
    assert v.exceptional and v.witness == {"r": 0, "c": -4, "k": 3}
    with pytest.raises(ValueError):
        is_exceptional_arithmetic(61)
    with pytest.raises(ValueError):
        is_exceptional_arithmetic(93)


def test_family_primes_heads_with_explicit_kmin(table2_fixture):
    """Scan machinery vs the reference lists, pinning k_min from the fixture."""
    for (r, c) in ((0, -5), (9, 7), (3, -1), (16, 17)):
        ref = table2_fixture[(r, c)]
        rep = family_primes(r, c, 10**7, k_min=ref["k_threshold"])
        assert rep.first_primes == ref["first_primes"][: len(rep.first_primes)]
        assert rep.window_mismatches == 0


def test_family_primes_window_filter():
    # below the window-respecting range, f(k) can be prime yet belong to
    # another window; the scan must drop nothing for admissible thresholds
    rep = family_primes(0, -5, 10**6, k_min=9)
    assert rep.first_primes == (7177, 11821, 20947, 52321, 121621)
    assert rep.count == 18
    with pytest.raises(ValueError):
        family_primes(0, -5, 2**63 + 1)


def test_scan_families_parallel_matches_serial():
    rows = [(0, -5), (9, 7), (21, 31)]
    serial = scan_families(10**6, rows=rows, processes=1)
    parallel = scan_families(10**6, rows=rows, processes=2)
    assert serial == parallel


def test_hl_constant_depends_only_on_reduced_discriminant():
    # (0,-5) and (2,-4) share (r+3)^2 - 16c = 89
    assert family(0, -5).reduced_discriminant == 89
    assert family(2, -4).reduced_discriminant == 89
    a = hardy_littlewood_constant(0, -5, 10**5)
    b = hardy_littlewood_constant(2, -4, 10**5)
    assert a == b
    with pytest.raises(ValueError):
        hardy_littlewood_constant(1, 1, 10**5)  # square discriminant
    with pytest.raises(ValueError):
        hardy_littlewood_constant(0, -5, 100)


def test_hl_constant_against_direct_product():
    """Character-table product == naive per-prime Legendre product."""
    bound = 20000
    primes = [p for p in SMALL_PRIMES if p >= 5] + [
        p for p in range(3000, bound) if is_prime(p)
    ]
    for (r, c) in ((0, -5), (1, -1), (9, 7)):
        d = (r + 3) ** 2 - 16 * c
        direct = 1.0
        for p in primes:
            chi = legendre_symbol(d, p)
            if chi:
                direct *= 1.0 - chi / (p - 1)
        assert hardy_littlewood_constant(r, c, bound) == pytest.approx(direct, abs=1e-12)


def test_hl_density_examples(table2_fixture):
    assert density_divisor(0) == 4 and density_divisor(1) == 2
    assert hardy_littlewood_density(1, -1, 10**6) == pytest.approx(0.61666, abs=0.01)
    assert hardy_littlewood_density(0, -4, 10**6) == pytest.approx(0.45086, abs=0.01)
    # identical reduced discriminants show identical densities in the fixture
    assert table2_fixture[(0, -5)]["density"] == table2_fixture[(2, -4)]["density"]


def test_density_predicts_counts_within_15_percent(table2_fixture):
    # sqrt(x)/log(x) = 36191.20... at x = 1e12; the reference counts should
    # sit within 15% of density * that factor on every row
    factor = math.sqrt(10**12) / math.log(10**12)
    assert factor == pytest.approx(36191.20, abs=0.01)
    for (r, c), ref in sorted(table2_fixture.items()):
        predicted = ref["density"] * factor
        assert abs(predicted - ref["count"]) <= 0.15 * ref["count"], (r, c)


def test_spectral_margin_negative_one_past_safe_covalency_for_primes():
    """For primes >= 67 the peak eigenvalue exceeds the bound at l0 + 2."""
    from rqgraph.bounds import extremal_mu2, maximizing_split, ramanujan_bound_at

    for p in range(67, 1000, 2):
        if not is_prime(p):
            continue
        l = trivial_bound(p) + 2
        sp = maximizing_split(l)
        assert extremal_mu2(p, sp.l1, sp.l2) > ramanujan_bound_at(p, l), p


def test_hardy_littlewood_admissible():
    for fam in all_families():
        assert hardy_littlewood_admissible(*fam.coefficients), (fam.r, fam.c)
    assert not hardy_littlewood_admissible(4, 2, 2)       # common factor 2
    assert not hardy_littlewood_admissible(1, 0, -1)      # square discriminant
    assert not hardy_littlewood_admissible(-1, 0, 1)      # negative leading term
    assert not hardy_littlewood_admissible(2, 2, 4)       # all values even
