import hashlib
import itertools
import math
import sys

import mpmath
import numpy as np
import pytest

from rqgraph import bounds, spectra
from rqgraph.bounds import (
    asymptotic_coefficient,
    exact_safe_covalency,
    extremal_mu2,
    is_exceptional_spectral,
    maximizing_split,
    ramanujan_bound_at,
    split_worst,
    trivial_bound,
)
from rqgraph.dense import oracle_max_delta
from rqgraph.group import generates_fast
from rqgraph.spectra import at_or_below, is_ramanujan, lambda_max_nontrivial, ramanujan_bound
from rqgraph.subsets import (
    SigmaCounts,
    covalency_splits,
    enumerate_family,
    extremal_subset,
    parse_subset_literal,
    split_sizes,
)
from conftest import family_gap, family_point


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
    for m, family in ((21, "s"), (0, "s"), (-3, "s"), (-3, "bogus"), (5, "bogus")):
        with pytest.raises(ValueError):
            exact_safe_covalency(m, family)


# Both families at m = 1..EXACT_SCAN_MAX_M, as an exhaustive enumeration of
# every pair and y-pair index set of every split gave them.
EXACT_SAFE_COVALENCY = {
    "s": {1: 2, 2: 4, 3: 4, 4: 6, 5: 6, 6: 7, 7: 8, 8: 9, 9: 10, 10: 10, 11: 11, 12: 11,
          13: 12, 14: 12, 15: 13, 16: 14, 17: 14, 18: 14, 19: 15, 20: 15},
    "sprime": {1: 0, 2: 4, 3: 8, 4: 6, 5: 8, 6: 7, 7: 10, 8: 9, 9: 10, 10: 10, 11: 12, 12: 11,
               13: 13, 14: 12, 15: 13, 16: 14, 17: 15, 18: 14, 19: 16, 20: 15},
}


def test_exact_safe_covalency_table():
    for table in EXACT_SAFE_COVALENCY.values():
        assert list(table) == list(range(1, bounds.EXACT_SCAN_MAX_M + 1))
    for family, table in EXACT_SAFE_COVALENCY.items():
        for m, want in table.items():
            assert exact_safe_covalency(m, family) == want, (family, m)
    # past m = 12: s stays at l0; sprime is l0 + 1 at the primes 13, 17, 19 and l0 at the other m
    l0 = {m: trivial_bound(m) for m in range(13, 21)}
    assert [EXACT_SAFE_COVALENCY["s"][m] - l0[m] for m in l0] == [0, 0, 0, 0, 0, 0, 0, 0]
    assert [EXACT_SAFE_COVALENCY["sprime"][m] - l0[m] for m in l0] == [1, 0, 0, 0, 1, 0, 1, 0]


def _members_by_split(m, l):
    members = {}
    for s in enumerate_family(m, l, "s"):
        members.setdefault((s.profile().l1, s.profile().l2), []).append(s)
    return members


def _check_split_worst(m, l1, l2, worst, split):
    """`split_worst` against the members of the split one by one.

    Up to covalency 2m every index set generates, so the verdict and the
    worst lambda are the members', lambda within EPS * sums_error_scale (at
    exact ties too, where mpmath decides the verdict); above it they bound
    the members: lambda from above, and "Ramanujan" only if every member is.
    """
    if split is None:
        assert worst is None, (m, l1, l2)
        return
    ramanujan = all(is_ramanujan(s) for s in split)
    lam = max(lambda_max_nontrivial(s) for s in split)
    if l1 + l2 <= 2 * m:
        assert worst.ramanujan == ramanujan, (m, l1, l2)
        scale = spectra.sums_error_scale(split[0].m, split[0].size)
        assert abs(worst.lam - lam) <= sys.float_info.epsilon * scale, (m, l1, l2)
    else:
        assert ramanujan or not worst.ramanujan, (m, l1, l2)
        assert worst.lam >= lam - 1e-9, (m, l1, l2)


def test_split_worst_matches_per_subset_route(monkeypatch):
    """Per split, the verdict and worst lambda are those of its members one by one (bounds above l = 2m).

    Every covalency for m <= 7 (m = 1 has no degree-2 blocks), up to l0 + 2
    for m = 8 and 9, which holds the exact ties at m = 9, covalency 10.
    Every sprime split is an s split, so the s splits cover both families.
    The exact ties at m = 16, covalency 14, have 191,100 members per split,
    so there the kernel is held to one member that attains the tie.
    """
    escalations = []

    def counting(margin, scale, exact_margin):
        def exact():
            escalations.append(margin)
            return exact_margin()
        return at_or_below(margin, scale, exact)

    monkeypatch.setattr(spectra, "at_or_below", counting)
    kernel_escalations = 0
    for m in range(1, 10):
        top = 4 * m - 1 if m <= 7 else trivial_bound(m) + 2
        for l in range(1, top + 1):
            members = _members_by_split(m, l)
            for l1, l2 in covalency_splits(m, l, "s"):
                before = len(escalations)
                worst = split_worst(m, l1, l2)
                kernel_escalations += len(escalations) - before
                _check_split_worst(m, l1, l2, worst, members.get((l1, l2)))
    for l1, l2, pairs, ypairs in ((6, 8, "1,2,3,5,6,7,9,10,11,12,13,14,15", "1,2,3,5,6,7,9,10,11,13,14,15"),
                                  (8, 6, "1,2,3,5,6,7,9,10,11,13,14,15", "1,2,3,5,6,7,9,10,11,12,13,14,15")):
        tie = parse_subset_literal(f"m=16;pairs={pairs};delta=0;ypairs={ypairs}")
        assert (tie.profile().l1, tie.profile().l2) == (l1, l2) and abs(lambda_max_nontrivial(tie) - 14) <= 1e-12
        _check_split_worst(16, l1, l2, split_worst(16, l1, l2), [tie])
    assert kernel_escalations > 0    # split_worst's mpmath path ran


def test_split_worst_is_pinned_to_the_bit():
    """Every s split's `split_worst` at m = 1..16, l = 1..4m - 1, in `covalency_splits` order,
    as "-" for None or lam.hex():ramanujan, hashes as when the digest was recorded: a change
    in the last bit of any lam, or in any verdict, shows here."""
    entries = []
    for m in range(1, 17):
        for l in range(1, 4 * m):
            for l1, l2 in covalency_splits(m, l, "s"):
                worst = split_worst(m, l1, l2)
                entries.append("-" if worst is None else f"{worst.lam.hex()}:{int(worst.ramanujan)}")
    assert len(entries) == 2992
    digest = hashlib.sha256(",".join(entries).encode()).hexdigest()
    assert digest == "4b067c9b5e644fb3c81ef3d8eca084316d9b19036377cb992a8cd864529ab4bd"


def test_split_worst_verdicts_are_pinned():
    """The same 2,992 s splits as `test_split_worst_is_pinned_to_the_bit`, as "-" for None
    or int(ramanujan): the verdicts alone, which a change in lam's last bits leaves alone."""
    entries = []
    for m in range(1, 17):
        for l in range(1, 4 * m):
            for l1, l2 in covalency_splits(m, l, "s"):
                worst = split_worst(m, l1, l2)
                entries.append("-" if worst is None else str(int(worst.ramanujan)))
    assert len(entries) == 2992
    digest = hashlib.sha256(",".join(entries).encode()).hexdigest()
    assert digest == "56a908c57e5541f28ffe00a5ba3a7780857d056e1ee0b8130e91dbad0e243b73"


def test_split_worst_near_ties_are_sound(monkeypatch):
    """With spectra.EPS at 0.05, split_worst's mpmath margin decides 168 of the 172 splits.

    Every window EPS * scale is then above 0.5 (scale >= 2 pi + 4), yet
    below the margins, 2 or more, of the m = 1 splits, which have no degree-2
    block to re-evaluate.  The results must still agree with the members one
    by one, as `_check_split_worst` states with the true EPS, for every s
    split with m <= 6 at every covalency: the mpmath margin re-evaluates
    every class whose double peak lies within 2 EPS * scale of the worst,
    in the same closed form.
    """
    monkeypatch.setattr(spectra, "EPS", 0.05)
    for m in range(1, 7):
        for l in range(1, 4 * m):
            members = _members_by_split(m, l)
            for l1, l2 in covalency_splits(m, l, "s"):
                _check_split_worst(m, l1, l2, split_worst(m, l1, l2), members.get((l1, l2)))


def test_exact_ties_sit_well_inside_both_error_scales(monkeypatch):
    """The stated scales, not a floor, send the known exact ties to mpmath.

    The m <= 20 scan of both families escalates 8 decisions, at m = 9,
    splits (4, 6) and (6, 4), and m = 16, splits (6, 8) and (8, 6), each with
    one near class; is_ramanujan escalates the m = 9 tie subset.  Each double
    margin is under a tenth of EPS * scale and each mpf margin under a tenth
    of mp.eps * scale (measured: 65-98 and 98-218 times under).
    """
    escalated = []

    def recording(margin, scale, exact_margin):
        def exact():
            value = exact_margin()
            escalated.append((margin, scale, value, mpmath.mp.eps * scale))
            return value
        return at_or_below(margin, scale, exact)

    monkeypatch.setattr(spectra, "at_or_below", recording)
    peak, near = bounds._peak, []

    def counting(xp, m, *args):
        if xp is mpmath:
            near.append(m)
        return peak(xp, m, *args)

    monkeypatch.setattr(bounds, "_peak", counting)
    for family in ("s", "sprime"):
        for m in range(1, bounds.EXACT_SCAN_MAX_M + 1):
            exact_safe_covalency(m, family)
    assert sorted(near) == [9] * 4 + [16] * 4
    assert is_ramanujan(parse_subset_literal("m=9;pairs=1,2,4,5,7,8;delta=0;ypairs=0,1,2,3,5,6,8"))
    assert len(escalated) == 9
    for margin, scale, exact, tie in escalated:
        assert abs(margin) < spectra.EPS * scale / 10, (margin, scale)
        assert abs(exact) < tie / 10, (exact, tie)


def test_split_worst_near_classes_span_twice_the_error_scale(monkeypatch):
    """Two classes whose double peaks differ by 1.5 EPS * scale, each within EPS * scale
    of its exact value: the lower one holds the exact maximum, above the bound, and the
    verdict follows it.  A width of EPS * scale would re-evaluate the higher class only.
    The other classes of m = 9, j = 3 and 6, peak at 0, far below both."""
    m, l1, l2 = 9, 4, 6
    size = 4 * m - l1 - l2
    unit = spectra.EPS * spectra.sums_error_scale(m, size)
    bound = 2.0 * math.sqrt(size - 1)
    doubles = {1: bound + 0.7 * unit, 2: bound - 0.8 * unit}
    with mpmath.workdps(50):
        exact_bound = 2 * mpmath.sqrt(size - 1)
        exacts = {1: exact_bound - mpmath.mpf("1e-30"), 2: exact_bound + mpmath.mpf("1e-30")}
    monkeypatch.setattr(bounds, "_peak", lambda xp, m, j, *sizes: (exacts if xp is mpmath else doubles).get(j, 0.0))
    worst = split_worst(m, l1, l2)
    assert worst == bounds.SplitWorst(bound + 0.7 * unit, False)


def test_exactness_lemma_of_exact_safe_covalency():
    """Up to covalency 2m every index set generates, and the first unsafe covalency is at most 2m.

    A subset S at covalency l <= 2m has |S| >= 2m elements, and a proper
    subgroup of Q_{4m} holds at most 2m, the identity included.  So
    `split_worst` is exact there, and `exact_safe_covalency` is exact when
    the first covalency with a non-Ramanujan split, if any, is at most 2m.
    """
    for m in range(1, 8):
        for l in range(1, 2 * m + 1):
            members = _members_by_split(m, l)
            for l1, l2 in covalency_splits(m, l, "s"):
                _, n_pairs, n_ypairs = split_sizes(m, l1, l2)
                assert len(members[l1, l2]) == math.comb(m - 1, n_pairs) * math.comb(m, n_ypairs), (m, l1, l2)
    for family in ("s", "sprime"):
        for m in range(1, bounds.EXACT_SCAN_MAX_M + 1):
            unsafe = (l for l in range(1, 4 * m) for l1, l2 in covalency_splits(m, l, family)
                      if (worst := split_worst(m, l1, l2)) is not None and not worst.ramanujan)
            first = next(unsafe, None)
            assert first is None or first <= 2 * m, (family, m, first)


def test_exact_safe_covalency_refuses_a_first_unsafe_split_above_2m(monkeypatch):
    """Above l = 2m `split_worst` only bounds the members, so a first
    non-Ramanujan split there gives no exact answer: the scan raises."""
    split_worst = bounds.split_worst

    def unsafe_above_2m(m, l1, l2):
        worst = split_worst(m, l1, l2)
        return None if worst is None else worst._replace(ramanujan=l1 + l2 <= 2 * m)

    monkeypatch.setattr(bounds, "split_worst", unsafe_above_2m)
    with pytest.raises(ArithmeticError, match="above l = 2m"):
        exact_safe_covalency(5, "s")


def _every_even_count(indices, n):
    """Every feasible count of even members of an n-element subset of indices."""
    evens, odds = [k for k in indices if k % 2 == 0], [k for k in indices if k % 2]
    return [e for e in range(len(evens) + 1) if 0 <= n - e <= len(odds)]


def _one_dim_peak(m, l1, l2, even_counts):
    """Largest one-dim |v| below |S| over the counts even_counts gives, and whether it is Ramanujan."""
    delta, n_pairs, n_ypairs = split_sizes(m, l1, l2)
    size = 4 * m - l1 - l2
    counts = [SigmaCounts(e, n_pairs - e, f, n_ypairs - f)
              for e in even_counts(range(1, m), n_pairs) for f in even_counts(range(m), n_ypairs)]
    top = max((abs(v) for c in counts for v in spectra.one_dim_eigenvalues(m, delta, c) if abs(v) != size), default=0)
    return top, top * top <= 4 * (size - 1)


def test_one_dim_values_come_from_the_end_even_counts():
    """`_even_counts`' end counts give the one-dim peak and verdict of every count, s splits at m <= 12.

    The corners of the count box alone do not: at m = 8, split (10, 8), they
    give 2 where all counts give 10, which is not Ramanujan.
    """
    for even_counts in (_every_even_count, bounds._even_counts):
        assert _one_dim_peak(8, 10, 8, even_counts) == (10, False)
    for m in range(1, 13):
        for l in range(1, 4 * m):
            for l1, l2 in covalency_splits(m, l, "s"):
                want = _one_dim_peak(m, l1, l2, _every_even_count)
                assert _one_dim_peak(m, l1, l2, bounds._even_counts) == want, (m, l1, l2)


def _best_window_arcs(xp, m, j):
    """Twice the largest |sum| of e^(i pi j k / m) over the m circular windows of each size n = 0..m."""
    ring = 2 * sorted(range(m), key=lambda k: j * k % (2 * m))
    re, im = [xp.cos(xp.pi * j * k / m) for k in ring], [xp.sin(xp.pi * j * k / m) for k in ring]
    x, y = [xp.fsum(re[:i]) for i in range(2 * m + 1)], [xp.fsum(im[:i]) for i in range(2 * m + 1)]    # prefix sums
    return [max(2 * xp.hypot(x[i + n] - x[i], y[i + n] - y[i]) for i in range(m)) for n in range(m + 1)]


def _sorted_peak(xp, m, j, delta, n_pairs, n_ypairs):
    """`bounds._peak`'s oracle at any frequency j: max |z_j| + max |w_j| from `spectra._block`
    on the extreme index sets.  z_j is largest (smallest) on the first (last) n_pairs
    indices in the integer order of min(jk, -jk) mod 2m = m - |m - jk mod 2m|, ties by k,
    in which 2 cos(pi j k / m) falls; |w_j| on the first n_ypairs points e^(i pi j k / m)
    in the order jk mod 2m, from angle 0."""
    pairs = sorted(range(1, m), key=lambda k: abs(m - j * k % (2 * m)), reverse=True)
    ring = sorted(range(m), key=lambda k: j * k % (2 * m))
    top, w = spectra._block(xp, m, pairs[:n_pairs], delta, ring[:n_ypairs], j)
    bottom, _ = spectra._block(xp, m, pairs[m - 1 - n_pairs:], delta, (), j)
    return max(top, -bottom) + w


def _classes(m):
    """The classes g = gcd(j, 2m) of the frequencies 1 <= j < m: the divisors of 2m below m."""
    return [g for g in range(1, m) if 2 * m % g == 0]


def _arcs(xp, m, j):
    """The oracle with no pairs and no x^m at every y-pair count n = 0..m: its largest |w_j| over n y-pairs."""
    return [_sorted_peak(xp, m, j, 0, 0, n) for n in range(m + 1)]


def test_arcs_are_prefixes_from_angle_0():
    """The oracle's arcs, prefixes of the ring from angle 0, equal the best circular windows.

    At 50 digits for every even j at m <= 16, in doubles for m <= 40; at m <= 8
    the best window is also the best of all y-pair sets.
    """
    with mpmath.workdps(50):
        for m in range(1, 17):
            for j in range(2, m, 2):
                got, want = _arcs(mpmath, m, j), _best_window_arcs(mpmath, m, j)
                assert max(abs(a - b) for a, b in zip(got, want)) <= mpmath.mpf("1e-40"), (m, j)
    for m in range(1, 41):
        for j in range(2, m, 2):
            got, want = _arcs(math, m, j), _best_window_arcs(math, m, j)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12, (m, j)
            if m <= 8:
                points = [complex(math.cos(math.pi * j * k / m), math.sin(math.pi * j * k / m)) for k in range(m)]
                best = [max(2 * abs(sum(c)) for c in itertools.combinations(points, n)) for n in range(m + 1)]
                assert max(abs(a - b) for a, b in zip(best, want)) <= 1e-12, (m, j)


def test_extremes_depend_on_j_only_through_its_gcd_class(monkeypatch):
    """`split_worst` evaluates one j per class gcd(j, 2m), and every j's oracle peaks equal its class's.

    At every pair count without x^m, every pair count with x^m and every
    y-pair count (the last two step together): within 1e-12 in doubles for
    m <= 40, and within 1e-40 at 50 digits for m <= 16.
    """
    def peaks(xp, m, j):
        sizes = [(0, n, 0) for n in range(m)] + [(1, n, n) for n in range(m)] + [(1, m - 1, m)]
        return [_sorted_peak(xp, m, j, *z) for z in sizes]

    def gap(xp, m):
        classes = {g: peaks(xp, m, g) for g in _classes(m)}
        return max((abs(a - b) for j in range(1, m) if 2 * m % j
                    for a, b in zip(peaks(xp, m, j), classes[math.gcd(j, 2 * m)])), default=0)

    for m in range(1, 41):
        assert gap(math, m) <= 1e-12, m
    with mpmath.workdps(50):
        for m in range(1, 17):
            assert gap(mpmath, m) <= mpmath.mpf("1e-40"), m
    peak, seen = bounds._peak, set()

    def recording(xp, m, j, *sizes):
        seen.add((m, j))
        return peak(xp, m, j, *sizes)

    monkeypatch.setattr(bounds, "_peak", recording)
    for m in range(1, 41):
        split_worst(m, *covalency_splits(m, 2 * m, "s")[0])
        assert {j for mm, j in seen if mm == m} == {math.gcd(j, 2 * m) for j in range(1, m)}, m


# `bounds._peak`'s stated error: the double is within PEAK_ERROR * EPS * m of the exact peak.
PEAK_ERROR = 8


def _peak_sizes(m):
    """(delta, n_pairs, n_ypairs) sweeping each count with the other at 0: z_j and |w_j| take their sizes apart."""
    return [(delta, n, 0) for delta in (0, 1) for n in range(m)] + [(delta, 0, k) for delta in (0, 1) for k in range(m + 1)]


def test_peak_equals_the_sorted_order_oracle():
    """`bounds._peak` at every class g and both delta equals the oracle's peak at j = g.

    In doubles within the oracle's and the closed form's stated errors at |S| <= 4m (measured:
    under 0.03 of EPS * sums_error_scale(m, 4m)): at every (n_pairs, n_ypairs) for m <= 16, and
    each count swept with the other at 0 for m <= 60.  At 50 digits within 1e-40, each count
    swept, for m <= 16.
    """
    for m in range(2, 61):
        tol = spectra.EPS * (spectra.sums_error_scale(m, 4 * m) + PEAK_ERROR * m)
        sizes = [(d, n, k) for d in (0, 1) for n in range(m) for k in range(m + 1)] if m <= 16 else _peak_sizes(m)
        for g in _classes(m):
            for z in sizes:
                assert abs(bounds._peak(math, m, g, *z) - _sorted_peak(math, m, g, *z)) <= tol, (m, g, z)
    with mpmath.workdps(50):
        for m in range(2, 17):
            for g in _classes(m):
                for z in _peak_sizes(m):
                    assert abs(bounds._peak(mpmath, m, g, *z) - _sorted_peak(mpmath, m, g, *z)) <= mpmath.mpf("1e-40")


def test_peak_error_is_under_its_stated_bound():
    """|double - mpf| of `bounds._peak` stays under PEAK_ERROR * EPS * m, against the same closed
    form at 50 digits: at every class argument for m <= 10, and at 200 seeded ones at m = 97,
    200 and 509 (measured: at most 0.26 of the bound at every argument for m <= 40)."""
    import random

    rng = random.Random(7)
    worst = 0.0
    for m in (*range(2, 11), 97, 200, 509):
        args = [(g, d, n, k) for g in _classes(m) for d in (0, 1) for n in range(m) for k in range(m + 1)]
        if m > 10:
            args = rng.sample(args, 200)
        bound = PEAK_ERROR * spectra.EPS * m
        with mpmath.workdps(50):
            for a in args:
                err = abs(bounds._peak(math, m, *a) - bounds._peak(mpmath, m, *a))
                assert err <= bound, (m, a, float(err), bound)
                worst = max(worst, float(err) / bound)
    assert worst > 0.1     # the sampled errors are not all vanishingly small


def test_split_worst_is_the_oracles_within_the_stated_errors(monkeypatch):
    """Every s split's `split_worst` at m <= 16 has the verdict and, within the closed form's and
    the oracle's stated errors, the lam that it gets with the sorted-order oracle in `_peak`'s place."""
    closed = {}
    for m in range(1, 17):
        for l in range(1, 4 * m):
            for l1, l2 in covalency_splits(m, l, "s"):
                closed[m, l1, l2] = split_worst(m, l1, l2)
    monkeypatch.setattr(bounds, "_peak", _sorted_peak)
    for (m, l1, l2), worst in closed.items():
        oracle = split_worst(m, l1, l2)
        if worst is None:
            assert oracle is None, (m, l1, l2)
            continue
        assert worst.ramanujan == oracle.ramanujan, (m, l1, l2)
        tol = spectra.EPS * (PEAK_ERROR * m + spectra.sums_error_scale(m, 4 * m - l1 - l2))
        assert abs(worst.lam - oracle.lam) <= tol, (m, l1, l2)


def test_extremal_mu2_against_subset_spectrum():
    """Closed form == honest |mu_2| of the constructed subset."""
    for m in (5, 8, 13, 21, 30):
        for l1 in range(1, 8):
            for l2 in range(2, 8, 2):
                delta = (l1 + l2) % 2
                if (l1 - 2 + delta) // 2 > m - 1 or l2 // 2 > m:
                    continue
                closed = extremal_mu2(m, l1, l2)
                s = extremal_subset(m, l1, l2)
                z, w = spectra._block(math, m, s.pair_bits, s.delta, s.ypair_bits, 2)
                honest = abs(z) + w
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
    with pytest.raises(ValueError):
        maximizing_split(2)


def test_maximizing_split_per_residue_mod_6():
    """One pinned split per l mod 6: l1 = (l + shift) / 3 with the shifts 0, 2, 4, 0, 2, -2."""
    pinned = {30: (10, 20), 31: (11, 20), 32: (12, 20), 33: (11, 22), 34: (12, 22), 35: (11, 24)}
    assert sorted(l % 6 for l in pinned) == list(range(6))
    for l, split in pinned.items():
        assert maximizing_split(l) == split, l


def test_maximizing_split_array_matches_scalar_calls():
    """The same arithmetic on an int64 array gives, value for value, the scalar splits."""
    ls = np.arange(3, 10**5)
    l1, l2 = maximizing_split(ls)
    assert l1.dtype == l2.dtype == np.int64
    assert list(zip(l1.tolist(), l2.tolist())) == [tuple(maximizing_split(l)) for l in range(3, 10**5)]
    with pytest.raises(ValueError):
        maximizing_split(np.array([5, 2, 7]))


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
    assert is_exceptional_spectral(67).witness["mu2_abs"] == extremal_mu2(67, sp.l1, sp.l2)
    # l0(151) = 47 -> covalency 48 peaks at split (16, 32)
    sp = maximizing_split(trivial_bound(151) + 1)
    assert (sp.l1, sp.l2) == (16, 32)


def test_is_exceptional_spectral_scope_errors():
    with pytest.raises(ValueError, match="out of theorem scope"):
        is_exceptional_spectral(61)  # below the established threshold
    with pytest.raises(ValueError, match="odd prime"):
        is_exceptional_spectral(69)  # not prime
    with pytest.raises(ValueError, match="odd prime"):
        is_exceptional_spectral(68)


def test_is_exceptional_spectral_examples():
    v = is_exceptional_spectral(67)
    assert v.exceptional and v.l0 == 30 and v.route == "spectral"
    assert (v.witness["l1"], v.witness["l2"]) == (11, 20)
    assert v.witness["mu2_abs"] < v.witness["ramanujan_bound"]

    assert not is_exceptional_spectral(151).exceptional
    assert is_exceptional_spectral(7177).exceptional


def test_closed_form_does_not_decide_the_restricted_family_at_73():
    """The closed form classifies the window-extremal subset, not every sprime member.

    p = 73 is exceptional by the closed form, yet this generating member of
    covalency l0 + 1 with a non-full y-coset drops pairs from both ends of
    the windows and is not Ramanujan.  The verdict is pinned as it stands.
    """
    pairs = ",".join(str(k) for k in range(1, 73) if k not in (14, 17, 28, 31, 42, 45, 56, 59))
    ypairs = ",".join(str(k) for k in range(73) if k not in (8, 11, 22, 25, 39, 53, 67, 70))
    s = parse_subset_literal(f"m=73;pairs={pairs};delta=1;ypairs={ypairs}")
    assert generates_fast(s.m, s.pair_bits, s.ypair_bits)
    assert s.covalency() == trivial_bound(73) + 1 == 33
    assert (s.profile().l1, s.profile().l2) == (17, 16)
    assert len(s.ypair_bits) == 65
    assert lambda_max_nontrivial(s) == pytest.approx(32.24936, abs=1e-5)
    assert ramanujan_bound(s) == pytest.approx(32.12476, abs=1e-5)
    assert not is_ramanujan(s)
    assert oracle_max_delta(s) < 1e-12
    assert is_exceptional_spectral(73).exceptional


def test_interpolated_gap_signs():
    assert family_gap(6, 4, 1) < 0          # p = 67 is exceptional
    assert family_gap(0, -5, 2) > 0         # p = 157 is ordinary
    # double and extended precision agree away from ties
    for (r, c, k) in ((6, 4, 1), (0, -5, 2), (9, 7, 3), (23, 41, 5)):
        a = family_gap(r, c, k)
        with mpmath.workdps(50):
            b = bounds._gap_at_mp(*family_point(r, c, k))
        assert a == pytest.approx(float(b), abs=1e-9)


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
        gaps = family_gap(r, c, ks)
        assert gaps.shape == ks.shape
        assert gaps.tolist() == [family_gap(r, c, k) for k in range(1, horizon + 1)], (r, c)


def test_gap_sign_matches_spectral_margin_at_primes():
    """At a prime argument the interpolant's sign is the exceptionality margin's sign."""
    from rqgraph.primes import is_prime, window_coordinates

    for p in (67, 157, 179, 347, 1087, 2371, 7177):
        assert is_prime(p)
        r, c, k = window_coordinates(p)
        v = is_exceptional_spectral(p)
        margin = v.witness["mu2_abs"] - v.witness["ramanujan_bound"]
        assert (family_gap(r, c, k) < 0) == (margin < 0) == v.exceptional


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
                exact = bounds._gap_at_mp(p, l)
            r, c, k = window_coordinates(p)
            assert family_point(r, c, k) == (p, l)
            for double in (extremal_mu2(p, split.l1, split.l2) - ramanujan_bound_at(p, l),
                           family_gap(r, c, k)):
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
        assert (family_gap(r, c, 1000) < 0) == (coeff < 0)
        # and the scaled gap approaches the coefficient
        assert 1000 * family_gap(r, c, 1000) == pytest.approx(coeff, rel=0.02)
