import math
import random

import mpmath
import numpy as np
import pytest

from rqgraph import spectra
from rqgraph.spectra import (
    EPS,
    at_or_below,
    full_spectrum,
    is_ramanujan,
    lambda_max_nontrivial,
    one_dim_eigenvalues,
    ramanujan_bound,
)
from rqgraph.group import generates_fast
from rqgraph.subsets import CayleySubset, enumerate_family, parse_subset_literal, random_subset
from conftest import full_subset, structural_subsets

COCKTAIL = parse_subset_literal("m=3;pairs=1,2;delta=0;ypairs=0,1,2")


def _block(s, j, xp=math):
    """(z_j, |w_j|) of s at frequency j, from `spectra._block`, the formula's one copy."""
    return spectra._block(xp, s.m, s.pair_bits, s.delta, s.ypair_bits, j)


def _one_dim(s):
    """The four linear eigenvalues of s, from `spectra.one_dim_eigenvalues` on its parity counts."""
    return one_dim_eigenvalues(s.m, s.delta, s.sigma_counts())


def test_one_dim_examples():
    assert _one_dim(full_subset(3)) == (11, -1, -1, -1)
    # complete graph minus a perfect matching on 12 vertices
    assert _one_dim(COCKTAIL) == (10, -2, 0, 0)
    assert _one_dim(full_subset(4)) == (15, -1, -1, -1)


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
            assert _one_dim(subset) == (lam1, lam2, lam3, lam4), subset.literal()


def test_two_dim_examples():
    z, w = _block(full_subset(3), 1)
    assert w == 0.0
    assert abs(z + 1) < 1e-12 and abs(z + w + 1) < 1e-12

    z, w = _block(COCKTAIL, 2)
    assert abs(z + 2) < 1e-12 and w < 1e-12


@pytest.mark.parametrize("m", (3, 5, 8))
def test_two_dim_odd_frequency_has_no_cross_term(m):
    rng = random.Random(m)
    for _ in range(20):
        s = random_subset(m, rng.choice(range(1, 2 * m)), rng, "s")
        for j in range(1, m, 2):
            assert _block(s, j)[1] == 0.0


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
                z_j, w_j = _block(subset, j)
                assert abs(zi) < 1e-9  # z_j is real on symmetric sets
                assert abs(z_j - z) < 1e-9
                assert abs(w_j - math.hypot(wre, wim)) < 1e-9


def test_full_spectrum_examples():
    spec = full_spectrum(full_subset(3))
    assert [(round(v), k) for v, k in spec.entries] == [(11, 1), (-1, 11)]
    spec = full_spectrum(COCKTAIL)
    assert [(round(v), k) for v, k in spec.entries] == [(10, 1), (0, 6), (-2, 5)]


def test_full_spectrum_structure():
    for m in (1, 2, 5, 9):
        s = full_subset(m)
        spec = full_spectrum(s)
        assert len(spec.values) == 4 * m
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


def _scalar_spectrum(s):
    """full_spectrum's values built from the scalar route, `spectra._values` in math, one frequency at a time."""
    raw = spectra._values(math, s)
    return tuple(sorted(raw[:4] + 2 * raw[4:], reverse=True))


def test_full_spectrum_is_bit_identical_to_the_scalar_sums(monkeypatch):
    """The batched doubles equal `_block`'s math.fsum doubles with ==,
    not within a tolerance: CLI output prints 15 significant digits.  Every
    case takes the batched path, however few its angles."""
    monkeypatch.setattr(spectra, "MIN_BLOCK_ANGLES", 0)
    spectra._raw_values.cache_clear()
    rng = random.Random(13)
    cases = []
    for m in range(1, 41):
        for delta in (0, 1):
            pairs = frozenset(rng.sample(range(1, m), rng.randrange(m)))
            ypairs = frozenset(rng.sample(range(m), rng.randrange(m + 1)))
            cases += [
                CayleySubset(m, pairs, delta, ypairs),
                CayleySubset(m, frozenset(), delta, ypairs),
                CayleySubset(m, pairs, delta, frozenset()),
            ]
    big = full_subset(600)
    assert (big.m - 1) * big.size > 50 * spectra.BLOCK_ENTRIES    # many blocks per parity
    for s in cases + [big, random_subset(521, 900, rng, "s")]:
        assert full_spectrum(s).values == _scalar_spectrum(s), s.literal()


def test_row_sums_equal_fsum_to_the_bit(monkeypatch):
    """spectra._row_fsums against math.fsum row by row, compared as bit
    patterns (so +0.0 and -0.0 differ); the 1e-300 row is off the last
    extraction level's grid and must be the only one summed by math.fsum itself."""
    rows = [
        [0.75, -1.5, 0.75],                       # cancels to an exact zero
        [1.0, 2.0 ** -53],                        # half-ulp tie, to even: 1.0
        [1.0, 2.0 ** -53, 2.0 ** -105],           # just above the tie
        [-1.0, -(2.0 ** -53)],
        [2.0, 2.0, -2.0, 2.0],
        [-2.0, -2.0, -2.0, -2.0],
        [math.cos(1.0)],
    ]
    rng = np.random.default_rng(14)
    wide = rng.uniform(-2, 2, (300, 40)) * np.ldexp(1.0, rng.integers(-60, 1, (300, 40)))
    cases = [np.array([row]) for row in rows] + [np.empty((3, 0)), wide]

    def fsums(matrix):
        return np.array([math.fsum(row) for row in matrix.tolist()])[:, None]

    for matrix in cases:
        got = spectra._row_fsums([matrix])
        assert got.shape == (len(matrix), 1)
        assert (got.view(np.int64) == fsums(matrix).view(np.int64)).all(), matrix

    fallback = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda row: fallback.append(row) or fsum(row))
    off_grid = np.array([[1.0, 2.0 ** -53, 0.0], [0.5, 1e-300, -0.5], [1.5, -0.25, 0.0]])
    got = spectra._row_fsums([off_grid])
    assert fallback == [[0.5, 1e-300, -0.5]]
    assert got.view(np.int64).tolist() == np.array([[1.0], [1e-300], [1.25]]).view(np.int64).tolist()


def _random_rows(rng, rows, n):
    """rows x n entries +-2 2^-e, e in 0..80: a third powers of two, the rest full 53-bit mantissas."""
    e = rng.integers(0, 81, (rows, n))
    mantissa = np.where(rng.random((rows, n)) < 1 / 3, 1.0, rng.uniform(0.5, 1.0, (rows, n)))
    return rng.choice([-2.0, 2.0], (rows, n)) * mantissa * np.ldexp(1.0, -e)


def _tie_rows(rng, n):
    """Five rows of n entries summing exactly to a double, to half-ulp ties either side of it, or
    one unit g of the last extraction level's grid above or below a tie; cancelling pairs fill each row.
    A positive entry is extracted exactly on the grid 2g, a negative one on g."""
    out = np.zeros((5, n))
    g = 2.0 ** (3 * (n + 1).bit_length() - 158)
    for i, row in enumerate(out):
        head = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0) * 2.0 ** -int(rng.integers(0, 30))
        half = math.ulp(head) / 2
        tail = [[], [half], [-half], [half, 2 * g, -g], [half, -g]][i]
        pairs = _random_rows(rng, 1, max(0, n - 1 - len(tail)) // 2)[0]
        terms = [head, *tail, *pairs, *-pairs][:n]
        row[:len(terms)] = rng.permutation(terms)
    return out


def test_row_sums_equal_fsum_on_seeded_rows(monkeypatch):
    """spectra._row_fsums against math.fsum, bit for bit, on seeded rows of
    n = 0, 1, 2^b - 3, 2^b - 2, 2^b - 1 (each side of the least b with
    2^b >= n + 2) and 4096 entries: random ones, half-ulp ties and exact
    cancellations.  The last level extracts on the grid 2^(3b - 158) below
    sigma and twice that above, so math.fsum must be called on every row
    with an entry off the finer grid, on no row on the coarser one, and on
    some rows but not all."""
    rng = np.random.default_rng(27)
    fallback, fell, total = [], 0, 0
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda row: fallback.append(row) or fsum(row))

    def off_grid(matrix, exponent):
        scaled = np.ldexp(matrix, -exponent)
        return set(np.flatnonzero((scaled != np.trunc(scaled)).any(axis=1)).tolist())

    for n in [0, 1, *(2**b + d for b in range(2, 13) for d in (-3, -2, -1)), 4096]:
        half = _random_rows(rng, 3, n // 2)
        cancelling = rng.permutation(np.hstack([half, -half, np.zeros((3, n % 2))]), axis=1)
        for matrix in (_random_rows(rng, 6, n), _tie_rows(rng, n), cancelling):
            want = np.array([fsum(row) for row in matrix.tolist()])[:, None]
            fallback.clear()
            got = spectra._row_fsums([matrix])
            assert got.shape == (len(matrix), 1)
            assert (got.view(np.int64) == want.view(np.int64)).all(), (n, matrix)
            rows = {i for i, row in enumerate(matrix.tolist()) if row in fallback}
            assert len(rows) == len(fallback)
            grid = 3 * (n + 1).bit_length() - 158
            assert off_grid(matrix, grid) <= rows <= off_grid(matrix, grid + 1), n
            fell, total = fell + len(rows), total + len(matrix)
    assert 0 < fell < total


def test_mu_abs_examples():
    """max |mu_j^+-| = max |z_j +- |w_j||, which is |z_j| at odd j."""
    for s, j, mu in ((full_subset(3), 1, 1), (COCKTAIL, 2, 2)):
        z, w = _block(s, j)
        assert abs(max(abs(z + w), abs(z - w)) - mu) < 1e-12
    z, w = _block(COCKTAIL, 1)
    assert max(abs(z + w), abs(z - w)) == abs(z)


def test_lambda_max_and_bound_examples():
    assert abs(lambda_max_nontrivial(full_subset(3)) - 1) < 1e-9
    assert abs(lambda_max_nontrivial(COCKTAIL) - 2) < 1e-9
    assert abs(ramanujan_bound(full_subset(3)) - 2 * math.sqrt(10)) < 1e-12
    assert is_ramanujan(full_subset(3))
    assert is_ramanujan(COCKTAIL)


def test_lambda_max_excludes_both_signs_of_degree():
    # S = <x>y at m = 2 gives K_{4,4}: spectrum {4, 0 x6, -4}; both +-4 drop out
    s = CayleySubset(2, frozenset(), 0, frozenset({0, 1}))
    assert generates_fast(s.m, s.pair_bits, s.ypair_bits)
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
    lam2 = _one_dim(s)[1]
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
            z, w = _block(s, j)
            with mpmath.workdps(50):
                z_mp, w_mp = _block(s, j, mpmath)
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
        bound = EPS * spectra.sums_error_scale(s.m, s.size)
        with mpmath.workdps(50):
            for j in range(1, m):
                zf, wf = _block(s, j)
                z, w = _block(s, j, mpmath)
                assert abs(zf + wf - (z + w)) <= bound and abs(zf - wf - (z - w)) <= bound
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
        assert 0 < exact <= mpmath.mp.eps * spectra.sums_error_scale(s.m, s.size)
    assert is_ramanujan(s)
    dense = np.array(symmetric_eigenvalues(adjacency_matrix(s)))
    interior = dense[np.abs(np.abs(dense) - s.size) > 1e-9]
    assert abs(np.max(np.abs(interior)) - 10) < 1e-9


def test_near_tie_rule_decides_on_the_mpf():
    """Within EPS * scale the mpf decides, by its own value and not its double,
    a margin up to mp.eps * scale being a tie; from EPS * scale on the double
    decides and mpmath is never called."""
    seen = []

    def exact(times_tie):
        """A thunk for the mpf margin times_tie * mp.eps * scale, as at_or_below calls it."""
        def thunk():
            seen.append(mpmath.mp.dps)
            return mpmath.mpf(times_tie) * mpmath.mp.eps * scale
        return thunk

    scale = 1e4
    window = EPS * scale                                     # about 2.2e-12; mp.eps * scale is about 2.7e-47
    assert at_or_below(window / 2, scale, exact(1))          # a tie
    assert not at_or_below(window / 2, scale, exact("1.00000000000000000001"))    # its double is the tie's
    assert at_or_below(-window / 2, scale, exact(-1e30))
    assert not at_or_below(math.nextafter(-window, 0), scale, exact(1e30))
    assert at_or_below(1e-14, scale, exact("-1e-400"))       # its double is -0.0
    assert seen == [spectra._MP_DPS] * 5
    assert at_or_below(-window, scale, exact(1e30))          # from EPS * scale on: the double decides
    assert not at_or_below(window, scale, exact(-1e30))
    assert len(seen) == 5
    # the window scales with the error scale: |margin| = 2.2e-12 is near at 1e5, not at 1e3
    scale = 1e5
    assert at_or_below(window, scale, exact(-1e30))
    assert len(seen) == 6
    scale = 1e3
    assert not at_or_below(window, scale, exact(-1e30))
    assert len(seen) == 6
