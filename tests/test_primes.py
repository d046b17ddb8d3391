import bisect
import functools
import hashlib
import itertools
import math
import random

import mpmath
import numpy as np
import pytest

from rqgraph import cli, primes
from rqgraph.bounds import _gap_at_mp, gap_error_scale, is_exceptional_spectral, trivial_bound
from rqgraph.spectra import EPS, at_or_below
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
    scan_families,
    window_coordinates,
)
from conftest import family_gap, family_point

SMALL_PRIMES = [p for p in range(2, 3000) if all(p % q for q in range(2, p))]


def test_is_prime_small_range():
    """Every n in [-3, 257^2], where the gcd screen decides all but 257^2, by trial division."""
    top = 257**2
    for n in range(-3, top + 1):
        assert is_prime(n) == (n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))), n
    for n in (251, 257, 65_521, 65_537):
        assert is_prime(n), n
    for n in (253, 64_507):                         # 11 * 23, 251 * 257
        assert not is_prime(n), n
    assert math.gcd(top, primes._SMALL_PRIME_PRODUCT) == 1 and not is_prime(top)   # Miller-Rabin rejects it


def test_is_prime_examples():
    assert is_prime(2)
    assert is_prime(7177)
    assert not is_prime(2992)  # 36*81 + 81 - 5, even
    assert is_prime(999999999989)
    assert not is_prime(10**12 + 1)
    assert is_prime(2**64 - 59)                      # the largest prime below 2^64
    # primes dividing one of the seven 2^64 witnesses (9780504 = 24 * 407521,
    # 1795265022 = 6 * 299210837): below 1,122,004,669,633 they take a smaller
    # row, whose witnesses are all below n, so no witness is 0 mod n
    assert is_prime(407521) and is_prime(299210837)
    for n in (2**64, 2**64 + 13, 2**65):            # 2^64 + 13 is prime
        with pytest.raises(ValueError, match="2\\^64"):
            is_prime(n)


def test_is_prime_matches_a_sieve_past_the_gcd_screen():
    """Every odd n in [257^2, 6e5], where Miller-Rabin decides, against the odd-number sieve."""
    top = 600_000
    sieve = np.zeros(top + 1, dtype=bool)
    sieve[primes._odd_primes_from_5(top)] = True
    for n in range(257**2, top + 1, 2):
        assert is_prime(n) == sieve[n], n


def test_is_prime_rejects_each_witness_row_limit():
    """Each witness row's limit is composite and a strong pseudoprime to that
    row's witnesses, so only the next row's witnesses reject it."""
    for limit in (1_373_653, 4_759_123_141, 1_122_004_669_633):
        assert math.gcd(limit, primes._SMALL_PRIME_PRODUCT) == 1   # past the gcd screen
        assert not is_prime(limit), limit


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


def _jacobi(a, n):
    """Jacobi symbol (a/n) for odd positive n, by binary reciprocity: the character of `_hl_products`."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def test_legendre_examples():
    assert _jacobi(1, 7) == 1
    assert _jacobi(89, 5) == 1  # 89 = 4 mod 5, a square
    assert _jacobi(10, 5) == 0


def test_legendre_against_euler_criterion():
    rng = random.Random(1)
    for _ in range(2000):
        p = rng.choice([q for q in SMALL_PRIMES if q > 2])
        a = rng.randrange(-300, 300)
        euler = pow(a % p, (p - 1) // 2, p)
        euler = -1 if euler == p - 1 else euler
        assert _jacobi(a, p) == euler, (a, p)


def test_legendre_square_factor_invariance():
    rng = random.Random(2)
    for _ in range(500):
        p = rng.choice([q for q in SMALL_PRIMES if q > 2])
        d = rng.randrange(-200, 200)
        k = rng.randrange(1, 50)
        if k % p == 0:
            continue
        assert _jacobi(k * k * d, p) == _jacobi(d, p)


def test_candidate_constants():
    total = 0
    for r in range(24):
        cand, allowed = candidate_constants(r)
        assert len(cand) == 6
        assert cand == tuple((r + 3) ** 2 // 16 + s for s in range(-5, 1))
        assert set(allowed) <= set(cand)
        total += len(allowed)
    assert total == 54
    assert candidate_constants(0)[1] == (-5, -4, -2)
    assert candidate_constants(1)[1] == (-1,)
    assert candidate_constants(9)[1] == (7,)
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


def _gap_mp(r, c, k):
    """The interpolated gap at one k as an mpf, at mpmath's working precision."""
    return _gap_at_mp(*family_point(r, c, k))


def _gap_at_or_below(r, c, k, scale):
    """The near-tie rule on the interpolated gap at one k."""
    return at_or_below(family_gap(r, c, k), scale, lambda: _gap_mp(r, c, k))


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
    gaps = family_gap(r, c, np.arange(1, THRESHOLD_SCAN_HORIZON + 1)).tolist()
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


def _admissible():
    """The 54 admissible (r, c), in (r, c) order, from `candidate_constants`."""
    return [(r, c) for r in range(24) for c in candidate_constants(r)[1]]


def test_threshold_table_is_the_derivation():
    """`_K_THRESHOLDS` holds every admissible (r, c), in (r, c) order, with its derived threshold."""
    assert list(primes._K_THRESHOLDS) == _admissible()
    for r, c in _admissible():
        assert primes._K_THRESHOLDS[(r, c)] == derive_k_threshold(r, c), (r, c)


def test_runtime_derives_no_threshold(monkeypatch, capsys):
    """table2, the arithmetic route and the densities read the pinned thresholds:
    with the derivation and the gap refused, from an empty family cache, table2's
    CSV keeps its digest and both classification routes still agree."""

    def refuse(*args):
        raise AssertionError(f"threshold derived at run time: {args}")

    family.cache_clear()
    monkeypatch.setattr(primes, "derive_k_threshold", refuse)
    monkeypatch.setattr(primes, "_gap", refuse)
    try:
        assert cli.main(["table2", "--xmax", "3000000000"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "5b6671dd3ac7f205425eb941014591b208869772425b18f0b2c7bc764f87c6ab"
        for p in filter(is_prime, range(67, 5001)):
            assert is_exceptional_arithmetic(p).exceptional == is_exceptional_spectral(p).exceptional, p
        for r, c in _admissible():
            want = primes._HL_PRODUCTS[(r + 3) ** 2 - 16 * c] / density_divisor(r)
            assert hardy_littlewood_density(r, c) == want, (r, c)
    finally:
        family.cache_clear()


def _fake_gap(values):
    """A stand-in for bounds._gap(np, t, l) over the scan: values[k] where
    given, -1 elsewhere.  k = l // 24, as l = 24 k + r + 1 with r <= 22."""

    def gap(xp, t, l):
        k = l // 24
        out = np.full(k.shape, -1.0)
        for key, v in values.items():
            out[k == key] = v
        return out

    return gap


def test_threshold_premise_checks_still_raise(monkeypatch):
    # (6, 4): f(1) = 67, so the condition holds from k = 1 until the gap turns
    monkeypatch.setattr(primes, "_gap", _fake_gap({5: 0.5, 9: 0.5}))
    broke = r"^threshold condition for \(r=6, c=4\) broke at k={} after first holding at k={}$"
    with pytest.raises(ArithmeticError, match=broke.format(5, 1)):
        derive_k_threshold(6, 4)
    last = THRESHOLD_SCAN_HORIZON
    monkeypatch.setattr(primes, "_gap", _fake_gap({1: 0.5, 2: 0.5, last: 0.5}))
    with pytest.raises(ArithmeticError, match=broke.format(last, 3)):
        derive_k_threshold(6, 4)
    monkeypatch.setattr(primes, "_gap", lambda xp, t, l: np.ones(len(l)))
    with pytest.raises(ArithmeticError, match=r"^no threshold found for \(r=6, c=4\) within the horizon$"):
        derive_k_threshold(6, 4)
    # f(k) >= 67 still gates the threshold: (0, -5) has f(1) = 40
    monkeypatch.setattr(primes, "_gap", _fake_gap({}))
    assert derive_k_threshold(0, -5) == 2
    assert derive_k_threshold(6, 4) == 1


def test_threshold_near_zero_gap_is_decided_in_mpmath(monkeypatch):
    """A gap within EPS * scale of 0 is decided by the mpf, not by its double;
    gaps from EPS * scale on never reach mpmath.  The mpf at (t, l) is asked
    for k = l // 24, as in _fake_gap."""
    window = EPS * _scan_scale(6, 4)                 # about 8.5e-10
    fake = _fake_gap({1: 1.0, 2: window, 3: window / 2, 5: -window})
    monkeypatch.setattr(primes, "_gap", fake)
    escalated = []

    def mp_gap(t, l):
        escalated.append(l // 24)
        return mpmath.mpf(-1) if l // 24 == 3 else mpmath.mpf(1)

    monkeypatch.setattr(primes, "_gap_at_mp", mp_gap)
    assert derive_k_threshold(6, 4) == 3
    assert escalated == [3]
    fake = _fake_gap({1: 1.0, 2: 1.0, 4: -window / 2})
    monkeypatch.setattr(primes, "_gap", fake)
    with pytest.raises(ArithmeticError, match="broke at k=4 after first holding at k=3"):
        derive_k_threshold(6, 4)
    assert escalated == [3, 4]
    # decided on the mpf: a tie, up to mp.eps * scale, is at or below; just above it is above
    def tie_at_3(t, l):
        """mp.eps * scale at k = 3, and just above it elsewhere, though its double is the same."""
        return mpmath.mp.eps * _scan_scale(6, 4) * (1 if l // 24 == 3 else mpmath.mpf("1.00000000000000000001"))

    monkeypatch.setattr(primes, "_gap_at_mp", tie_at_3)
    monkeypatch.setattr(primes, "_gap", _fake_gap({1: 1.0, 2: 1.0, 3: window / 2}))
    assert derive_k_threshold(6, 4) == 3
    monkeypatch.setattr(primes, "_gap", _fake_gap({1: 1.0, 2: 1.0, 3: 1.0, 4: window / 2}))
    assert derive_k_threshold(6, 4) == 5


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
    for x_max in (10**14 + 1, 2**63 + 1, -1, -10):
        with pytest.raises(ValueError, match="x_max"):
            family_primes(0, -5, x_max)
    assert family_primes(0, -5, 0).count == 0
    assert family_primes(0, -5, 10**6, k_min=10**30).count == 0
    with pytest.raises(ValueError, match="k_min must be >= 0, got -1"):
        family_primes(9, 7, 1000, k_min=-1)


def _family_primes_by_loop(r, c, x_max, k_min):
    """The per-k Miller-Rabin scan: first five window primes, count, mismatches."""
    fam = family(r, c)
    found, mismatches = [], 0
    k = k_min
    while (value := fam.value(k)) <= x_max:
        if is_prime(value):
            if trivial_bound(value) == 24 * k + r:
                found.append(value)
            else:
                mismatches += 1
        k += 1
    return tuple(found[:5]), len(found), mismatches


def test_family_sieve_matches_miller_rabin():
    """The sieve and Miller-Rabin are independent primality routes.

    k_min = 0 and 1 reach f(k) < 2, f(k) equal to a sieving prime and
    primes outside their window; below x_max = 25 no q >= 5 sieves.
    """
    cases = [(10**6, 0), (10**6, 1), (0, 0)] + [(x_max, 0) for x_max in range(1, 200, 7)]
    for fam in all_families():
        for x_max, k_min in [(10**8, fam.k_threshold), *cases]:
            rep = family_primes(fam.r, fam.c, x_max, k_min=k_min)
            got = (rep.first_primes, rep.count, rep.window_mismatches)
            assert got == _family_primes_by_loop(fam.r, fam.c, x_max, k_min), (fam, x_max, k_min)


FAMILY_DISCRIMINANTS = sorted({fam.reduced_discriminant for fam in all_families()})
TABLE2_BOUND = math.isqrt(3 * 10**9)      # the sieving primes of table2 --xmax 3000000000


def test_chi_is_the_legendre_symbol():
    """`_chi` against `_jacobi` at every sieving prime up to 54,772, for the family discriminants and a = 2..70."""
    q = primes._odd_primes_from_5(TABLE2_BOUND)
    plain = q.tolist()
    for d in [*FAMILY_DISCRIMINANTS, *range(2, 71)]:
        assert primes._chi(d, q).tolist() == [_jacobi(d, u) for u in plain], d


def test_sieve_table_holds_inverse_split_and_generator():
    """For every q <= 10^6: 24^-1, q - 1 = Q 2^S with Q odd, and g = z^Q of order 2^S where S >= 2, else 1.

    z is the least a with (a/q) = -1, by `_jacobi`; Tonelli-Shanks reads g only where S >= 2.
    """
    q, inv24, s_exp, odd, g = primes._sieve_table(10**6)
    assert ((0 < inv24) & (inv24 < q) & (24 * inv24 % q == 1)).all()
    assert ((odd % 2 == 1) & (odd << s_exp == q - 1)).all()
    assert (g[s_exp == 1] == 1).all()
    for u, big_s, big_q, gen in zip(*(a[s_exp >= 2].tolist() for a in (q, s_exp, odd, g))):
        z = next(a for a in itertools.count(2) if _jacobi(a, u) == -1)
        assert gen == pow(z, big_q, u) and pow(gen, 1 << (big_s - 1), u) == u - 1, u


def test_roots_are_the_square_roots_of_each_discriminant():
    """Each root s = 24 u mod q has s^2 = d (mod q), no root repeats, and q has 1 + (d/q) of them by `_jacobi`."""
    for bound in (TABLE2_BOUND, 10**6):
        q_all = primes._sieve_table(bound)[0]
        for d in FAMILY_DISCRIMINANTS:
            idx, u = primes._roots(d, bound)
            assert idx.dtype == u.dtype == np.int32, d
            q = q_all[idx]
            s = 24 * u.astype(np.int64) % q
            assert (s * s % q == d % q).all(), (d, bound)
            assert len(set(zip(idx.tolist(), u.tolist()))) == idx.size, (d, bound)
            if bound == TABLE2_BOUND:
                counts = np.bincount(idx, minlength=q_all.size).tolist()
                assert counts == [1 + _jacobi(d, p) for p in q_all.tolist()], d


def test_scan_families_rejects_bad_input_before_starting_workers(monkeypatch):
    def no_scan(*args, **kwargs):
        pytest.fail("a family was scanned for input that cannot be scanned")

    monkeypatch.setattr(primes, "family_primes", no_scan)
    for x_max in (-10, 10**14 + 1):
        with pytest.raises(ValueError, match="x_max"):
            scan_families(x_max, rows=[(0, -5), (9, 7)])
    with pytest.raises(ValueError, match="not an admissible constant"):
        scan_families(10**6, rows=[(9, 7), (9, 99)])
    with pytest.raises(ValueError, match="r must be in"):
        scan_families(10**6, rows=[(9, 7), (24, 0)])


def test_hl_constant_depends_only_on_reduced_discriminant():
    # (0,-5) and (2,-4) share (r+3)^2 - 16c = 89
    assert family(0, -5).reduced_discriminant == 89
    assert family(2, -4).reduced_discriminant == 89
    assert hardy_littlewood_constant(0, -5) == hardy_littlewood_constant(2, -4)
    # d = 20 and d = 80 give the same symbol (5/p) for p >= 5; only rounding differs
    assert family(19, 29).reduced_discriminant == 20
    assert family(21, 31).reduced_discriminant == 80
    assert abs(hardy_littlewood_constant(19, 29) - hardy_littlewood_constant(21, 31)) <= 1e-12
    for r, c in ((1, 1), (0, 1)):       # d = 0, a square; d = -7, outside the families
        with pytest.raises(ValueError):
            hardy_littlewood_constant(r, c)


@functools.lru_cache(maxsize=None)
def _hl_products(bound):
    """Product of (1 - chi_d(p)/(p-1)) over primes 5 <= p <= bound, per family d.

    The reference `primes._HL_PRODUCTS` is checked against.  chi_d(p) = (d / p)
    has period 4d in p (d is 0 or 1 mod 4), so one table of Jacobi symbols over
    a period gives it for every p, including those dividing d; chi * fl(1/(p-1))
    == fl(chi/(p-1)) as chi is -1, 0 or 1.  The rounding order is the table's:
    a sequential product over p <= 2d times a sequential product of the rest.
    """
    p = primes._odd_primes_from_5(bound)
    recip = 1.0 / (p - 1.0)
    out = {}
    for d in {fam.reduced_discriminant for fam in all_families()}:
        table = np.array([_jacobi(d, u) if u % 2 else 0 for u in range(4 * d)], float)
        f = 1.0 - table[p % table.size] * recip
        n_small = int(np.searchsorted(p, 2 * d, side="right"))
        out[d] = float(np.multiply.reduce(f[:n_small])) * float(np.multiply.reduce(f[n_small:]))
    return out


def _hl(r, c, bound):
    """The family's Hardy-Littlewood product truncated at bound."""
    return _hl_products(bound)[family(r, c).reduced_discriminant]


def test_hl_constant_rounding_is_pinned():
    """Exact values, one family per reduced discriminant, at prime_bound 10^5.

    table2 prints these products to 15 digits, so a change in the order of
    multiplication changes its output; this test shows it without a 10^7 run.
    """
    expected = {
        (4, 2): "0x1.92d045f849e8cp+0",  # d = 17
        (3, 1): "0x1.2e92b1c2cdc03p+0",  # d = 20
        (1, -1): "0x1.3ba0544299c5ap+0",  # d = 32
        (4, 1): "0x1.9a745a9069067p+0",  # d = 33
        (0, -2): "0x1.1fe3febf63d5bp+0",  # d = 41
        (5, 1): "0x1.621cb391f40e4p+0",  # d = 48
        (3, -1): "0x1.9d24b8265d37fp+0",  # d = 52
        (2, -2): "0x1.5d2a24f5c07aep+0",  # d = 57
        (4, -1): "0x1.133b4adb2fe76p+0",  # d = 65
        (0, -4): "0x1.cd84974c94ac6p+0",  # d = 73
        (5, -1): "0x1.2e92b1c2cdbe2p+0",  # d = 80
        (7, 1): "0x1.db1a3891a4c05p-1",  # d = 84
        (0, -5): "0x1.f5a5d0f6e7d30p-1",  # d = 89
    }
    assert sorted(family(r, c).reduced_discriminant for r, c in expected) == sorted(
        {fam.reduced_discriminant for fam in all_families()}
    )
    for (r, c), value in expected.items():
        assert _hl(r, c, 10**5) == float.fromhex(value), (r, c)


# Every reduced discriminant's product at prime_bound 10^6 (78,496 primes).
HL_PINS_1E6 = {
    17: "0x1.92dd8c05d5155p+0",
    20: "0x1.2e9f52d29097ap+0",
    32: "0x1.3bb63a9d5880bp+0",
    33: "0x1.9a6f5992fb95dp+0",
    41: "0x1.1fffc242eb8eap+0",
    48: "0x1.6220e36295bd2p+0",
    52: "0x1.9d3e615eb39b6p+0",
    57: "0x1.5d4636ecf6446p+0",
    65: "0x1.1366d09088bafp+0",
    73: "0x1.cda0ec79fad1fp+0",
    80: "0x1.2e9f52d29093bp+0",
    84: "0x1.db0671d3e3871p-1",
    89: "0x1.f5d1a119e66afp-1",
}


def test_hl_table_is_the_reference_product_bit_for_bit():
    """The pinned table holds the reference products at PRIME_BOUND, one per family discriminant."""
    ds = {fam.reduced_discriminant for fam in all_families()}
    assert sorted(HL_PINS_1E6) == sorted(ds)
    for fam in all_families():
        assert _hl(fam.r, fam.c, 10**6) == float.fromhex(HL_PINS_1E6[fam.reduced_discriminant]), (fam.r, fam.c)
    assert primes.PRIME_BOUND == 10**7
    assert set(primes._HL_PRODUCTS) == ds
    want = _hl_products(primes.PRIME_BOUND)
    assert {d: v.hex() for d, v in primes._HL_PRODUCTS.items()} == {d: v.hex() for d, v in want.items()}
    assert all(hardy_littlewood_constant(fam.r, fam.c) == want[fam.reduced_discriminant] for fam in all_families())


def test_hl_density_needs_no_prime_sieve(monkeypatch):
    """table2's densities come from the table: neither the prime sieve nor numpy runs for them."""
    fams = all_families()

    def refuse(bound):
        raise AssertionError(f"prime sieve to {bound} called")

    monkeypatch.setattr(primes, "_odd_primes_from_5", refuse)
    monkeypatch.setattr(primes, "np", None)
    for fam in fams:
        want = primes._HL_PRODUCTS[fam.reduced_discriminant] / density_divisor(fam.r)
        assert hardy_littlewood_density(fam.r, fam.c) == want, (fam.r, fam.c)


def test_hl_constant_matches_plain_python_product_bit_for_bit():
    """math.prod over p <= 2d times math.prod over the rest, without numpy."""
    bound = 10**6
    sieve = bytearray([1]) * (bound + 1)
    for q in range(2, math.isqrt(bound) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, bound + 1, q)))
    plain = [p for p in range(5, bound + 1) if sieve[p]]
    for (r, c) in ((0, -5), (3, 1)):                      # d = 89 and 20
        d = (r + 3) ** 2 - 16 * c
        factors = [1.0 - _jacobi(d, p) / (p - 1) for p in plain]
        n_small = sum(p <= 2 * d for p in plain)
        direct = math.prod(factors[:n_small]) * math.prod(factors[n_small:])
        assert _hl(r, c, bound) == direct, (r, c)
        assert direct == float.fromhex(HL_PINS_1E6[d])


def test_odd_prime_sieve_matches_miller_rabin():
    bounds = list(range(401)) + [q * q + e for q in (5, 7, 11, 31, 1021) for e in (-1, 0, 1)]
    bounds += [10**4 + 7, 10**6] + [(k << 19) + e for k in (1, 2) for e in (-1, 0, 1, 2)]
    want = [p for p in range(5, max(bounds) + 1, 2) if is_prime(p)]
    for b in bounds:
        got = primes._odd_primes_from_5(b)
        assert got.dtype == np.int64, b
        assert got.tolist() == want[: bisect.bisect_right(want, b)], b


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
            chi = _jacobi(d, p)
            if chi:
                direct *= 1.0 - chi / (p - 1)
        assert _hl(r, c, bound) == pytest.approx(direct, abs=1e-12)


def test_hl_density_examples(table2_fixture):
    assert density_divisor(0) == 4 and density_divisor(1) == 2
    assert hardy_littlewood_density(1, -1) == pytest.approx(0.61666, abs=0.01)
    assert hardy_littlewood_density(0, -4) == pytest.approx(0.45086, abs=0.01)
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
        assert hardy_littlewood_admissible(36, 3 * (fam.r + 3), fam.c), (fam.r, fam.c)
    assert not hardy_littlewood_admissible(4, 2, 2)       # common factor 2
    assert not hardy_littlewood_admissible(1, 0, -1)      # square discriminant
    assert not hardy_littlewood_admissible(-1, 0, 1)      # negative leading term
    assert not hardy_littlewood_admissible(2, 2, 4)       # common factor 2
    assert not hardy_littlewood_admissible(1, 1, 2)       # coprime, but x^2 + x + 2 is always even
