import collections
import functools
import random

import numpy as np
import pytest

from rqgraph.group import GroupElement, element_index, generates, generates_fast
from rqgraph.subsets import (
    CayleySubset,
    SigmaCounts,
    covalency_splits,
    enumerate_family,
    extremal_subset,
    parse_subset_literal,
    random_subset,
    split_sizes,
)
from conftest import full_subset, group_elements, inverse, inverse_orbits, structural_subsets


def test_elements_examples():
    full = full_subset(3)
    assert len(full.elements()) == 11
    assert full.elements() == set(
        GroupElement(k, e) for e in (0, 1) for k in range(6) if (k, e) != (0, 0)
    )
    assert CayleySubset(3, frozenset({1}), 0, frozenset()).elements() == {
        GroupElement(1, 0),
        GroupElement(5, 0),
    }
    assert CayleySubset(3, frozenset({2}), 1, frozenset({0})).elements() == {
        GroupElement(2, 0),
        GroupElement(4, 0),
        GroupElement(3, 0),
        GroupElement(0, 1),
        GroupElement(3, 1),
    }


def test_profile_examples():
    p = full_subset(3).profile()
    assert (p.l, p.l1, p.l2, p.delta) == (1, 1, 0, 1)
    p = CayleySubset(5, frozenset(range(1, 5)), 0, frozenset(range(5))).profile()
    assert (p.l, p.l1, p.l2, p.delta) == (2, 2, 0, 0)
    p = CayleySubset(5, frozenset({1, 2, 3}), 1, frozenset({0, 1, 2, 3})).profile()
    assert (p.l, p.l1, p.l2, p.delta) == (5, 3, 2, 1)


def test_sigma_counts_examples():
    assert full_subset(5).sigma_counts() == SigmaCounts(2, 2, 3, 2)
    assert CayleySubset(5, frozenset({2}), 0, frozenset()).sigma_counts() == SigmaCounts(1, 0, 0, 0)
    assert CayleySubset(4, frozenset({1, 3}), 1, frozenset({0, 2})).sigma_counts() == SigmaCounts(0, 2, 2, 0)


@pytest.mark.parametrize("m", range(1, 9))
def test_sigma_counts_match_element_scan_and_caps(m):
    """sigma_counts against the even and odd k of the elements x^k (k in 1..m-1) and x^k y
    (k in 0..m-1) of every structural subset, counted in one numpy pass over element
    bitmasks (bit `element_index(g)`), and the caps on the counts."""
    subsets = list(structural_subsets(m))

    @functools.cache
    def mask(pairs, delta, ypairs):
        return sum(1 << element_index(g, m) for g in CayleySubset(m, pairs, delta, ypairs).elements())

    none = frozenset()
    masks = np.array([mask(s.pair_bits, s.delta, none) | mask(none, 0, s.ypair_bits) for s in subsets], np.uint64)
    bits = masks[:, None] >> np.arange(4 * m, dtype=np.uint64) & np.uint64(1)
    counted = np.zeros((4 * m, 4), np.uint64)
    for column, (e, parity) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        for k in range(1 - e, m):
            counted[element_index(GroupElement(k, e), m), column] = k % 2 == parity
    scans = (bits @ counted).tolist()
    for subset, scan in zip(subsets, scans):
        sc = subset.sigma_counts()
        assert [sc.x_even, sc.x_odd, sc.y_even, sc.y_odd] == scan, subset.literal()
        assert subset.size_x == 2 * (sc.x_even + sc.x_odd) + subset.delta
        assert subset.size_y == 2 * (sc.y_even + sc.y_odd)
        if m % 2 == 1:
            assert sc.x_even <= (m - 1) // 2 and sc.x_odd <= (m - 1) // 2
            assert sc.y_even <= (m + 1) // 2 and sc.y_odd <= (m - 1) // 2
        else:
            assert sc.x_even <= m // 2 - 1 if m > 1 else sc.x_even == 0
            assert sc.x_odd <= m // 2 and sc.y_even <= m // 2 and sc.y_odd <= m // 2


def test_profile_invariants_exhaustive():
    for m in (1, 2, 3, 4, 5, 6):
        for subset in structural_subsets(m):
            p = subset.profile()
            assert p.l == p.l1 + p.l2
            assert 0 < p.l1 <= 2 * m
            assert 0 <= p.l2 <= 2 * m
            assert p.l2 % 2 == 0
            assert p.l1 % 2 == p.delta
            assert p.l == subset.covalency()


def test_literal_roundtrip_and_validation():
    s = parse_subset_literal("m=3;pairs=1,2;delta=0;ypairs=0,1,2")
    assert s == CayleySubset(3, frozenset({1, 2}), 0, frozenset({0, 1, 2}))
    assert parse_subset_literal(s.literal()) == s
    empty = parse_subset_literal("m=4;pairs=;delta=1;ypairs=0")
    assert empty.pair_bits == frozenset() and empty.ypair_bits == {0}
    with pytest.raises(ValueError):
        parse_subset_literal("m=3;pairs=3;delta=0;ypairs=0")  # pair index out of range
    with pytest.raises(ValueError):
        parse_subset_literal("m=3;pairs=1;delta=0;ypairs=3")  # y index out of range
    with pytest.raises(ValueError):
        parse_subset_literal("m=3;pairs=1,1;delta=0;ypairs=0")  # duplicate
    with pytest.raises(ValueError):
        parse_subset_literal("m=3;pairs=1;delta=2;ypairs=0")
    with pytest.raises(ValueError):
        parse_subset_literal("m=3;pairs=1;ypairs=0")  # missing delta
    with pytest.raises(ValueError, match="unknown fields"):
        parse_subset_literal("m=3;pairs=1,2;delta=0;ypairs=0,1,2;colour=red")


def test_enumerate_family_examples():
    ones = list(enumerate_family(3, 1, "s"))
    assert ones == [full_subset(3)]
    assert list(enumerate_family(3, 2, "sprime")) == []
    with pytest.raises(ValueError, match="covalency must satisfy"):
        list(enumerate_family(3, 0))    # a generator: it raises only when iterated
    threes = list(enumerate_family(3, 3, "sprime"))
    assert len(threes) == 3
    for s in threes:
        p = s.profile()
        assert (p.l1, p.l2, p.delta) == (1, 2, 1)
        assert generates_fast(s.m, s.pair_bits, s.ypair_bits)


def test_enumeration_is_deterministic_and_ordered():
    """Ascending l1, then lexicographic sorted pairs, then lexicographic sorted y-pairs."""
    for m, l, family in ((5, 4, "s"), (6, 7, "s"), (6, 9, "sprime")):
        runs = [list(enumerate_family(m, l, family)) for _ in range(2)]
        assert runs[0] == runs[1]
        keys = [(s.profile().l1, sorted(s.pair_bits), sorted(s.ypair_bits)) for s in runs[0]]
        assert all(a < b for a, b in zip(keys, keys[1:])), (m, l, family)
        assert len({k[0] for k in keys}) > 1, (m, l, family)    # more than one split


@pytest.mark.parametrize("m", range(1, 7))
def test_enumeration_counts_against_orbit_bruteforce(m):
    """The subsets per covalency, as literals, must match a from-scratch orbit-union enumeration."""
    orbits = inverse_orbits(m)
    assert len(orbits) == 2 * m

    def literal(els):
        pairs = ",".join(str(k) for k in range(1, m) if GroupElement(k, 0) in els)
        ypairs = ",".join(str(k) for k in range(m) if GroupElement(k, 1) in els)
        return f"m={m};pairs={pairs};delta={int(GroupElement(m, 0) in els)};ypairs={ypairs}"

    all_by_l = collections.defaultdict(set)
    nonfull_by_l = collections.defaultdict(set)
    for mask in range(1 << len(orbits)):
        els = set()
        for i, orb in enumerate(orbits):
            if mask >> i & 1:
                els |= orb
        if not els or not generates(els, m):
            continue
        l = 4 * m - len(els)
        all_by_l[l].add(literal(els))
        y_count = sum(1 for g in els if g.e == 1)
        if y_count != 2 * m:
            nonfull_by_l[l].add(literal(els))
    for l in range(1, 4 * m):
        for family, expected in (("s", all_by_l[l]), ("sprime", nonfull_by_l[l])):
            got = [s.literal() for s in enumerate_family(m, l, family)]
            assert len(got) == len(set(got)), (m, l, family)
            assert set(got) == expected, (m, l, family)


@pytest.mark.parametrize("m", range(2, 7))
def test_enumerated_subsets_are_wellformed(m):
    inv = {g: inverse(g, m) for g in group_elements(m)}
    for l in range(1, 4 * m):
        for s in enumerate_family(m, l, "s"):
            els = s.elements()
            assert GroupElement(0, 0) not in els
            assert all(inv[g] in els for g in els)  # symmetric
            assert s.covalency() == l
            assert generates(els, m)


def test_extremal_subset_examples():
    s = extremal_subset(5, 1, 2)
    p = s.profile()
    assert (p.l, p.l1, p.l2, p.delta) == (3, 1, 2, 1)
    assert s.elements() >= {GroupElement(5, 0)}  # x^m kept when delta = 1
    assert GroupElement(0, 1) not in s.elements() and GroupElement(5, 1) not in s.elements()

    s = extremal_subset(5, 2, 2)
    p = s.profile()
    assert (p.l, p.l1, p.l2, p.delta) == (4, 2, 2, 0)
    assert GroupElement(5, 0) not in s.elements()  # x^m removed when delta = 0

    p = extremal_subset(63, 12, 20).profile()
    assert (p.l, p.l1, p.l2, p.delta) == (32, 12, 20, 0)


def test_extremal_subset_profile_identity_and_generation():
    for m in (5, 9, 16, 29):
        for l1 in range(1, 9):
            for l2 in range(2, 9, 2):
                if (l1 - 2 + (l1 + l2) % 2) // 2 > m - 1 or l2 // 2 > m:
                    continue
                s = extremal_subset(m, l1, l2)
                p = s.profile()
                assert (p.l1, p.l2) == (l1, l2)
                assert generates_fast(s.m, s.pair_bits, s.ypair_bits)


def test_extremal_subset_validation():
    with pytest.raises(ValueError):
        extremal_subset(5, 1, 3)  # odd l2
    with pytest.raises(ValueError):
        extremal_subset(5, 1, 0)  # l2 = 0 not admissible here
    with pytest.raises(ValueError):
        extremal_subset(5, 0, 2)
    with pytest.raises(ValueError):
        extremal_subset(5, 1, 10)  # l2 = 2m
    with pytest.raises(ValueError):
        extremal_subset(5, 12, 2)  # l1 > 2m


def test_extremal_subset_matches_window_construction():
    """Every valid split at m <= 30 keeps the pairs above the centered x-window and the y-pairs from l2 / 2 on."""
    for m in range(1, 31):
        for l1 in range(1, 2 * m + 1):
            for l2 in range(2, 2 * m, 2):
                half_window = (l1 - 2 + l1 % 2) // 2
                window = CayleySubset(m, frozenset(range(half_window + 1, m)), (l1 + l2) % 2,
                                      frozenset(range(l2 // 2, m)))
                assert extremal_subset(m, l1, l2) == window, (m, l1, l2)


def test_covalency_splits():
    # l = 3 at m = 3: only (1, 2) has positive even l2
    assert covalency_splits(3, 3, "sprime") == [(1, 2)]
    assert covalency_splits(3, 3, "s") == [(1, 2), (3, 0)]
    assert covalency_splits(3, 2, "sprime") == []
    with pytest.raises(ValueError):
        covalency_splits(3, 3, "bogus")
    # every admissible split has block sizes that fit, so enumeration needs no guard
    for m in range(1, 21):
        for l in range(1, 4 * m):
            for l1, l2 in covalency_splits(m, l, "s"):
                delta, n_pairs, n_ypairs = split_sizes(m, l1, l2)
                assert 0 <= n_pairs <= m - 1 and 1 <= n_ypairs <= m, (m, l1, l2)
                assert 2 * n_pairs + delta + 2 * n_ypairs == 4 * m - l, (m, l1, l2)


def test_random_subset_raises_exactly_where_no_member_generates():
    """A generating member of covalency l wherever enumerate_family has one;
    ValueError wherever it has none (at m >= 2, l = 4m - 3 and 4m - 2 have
    splits but no member: these used to loop forever)."""
    rng = random.Random(4)
    for family in ("s", "sprime"):
        for m in range(1, 8):
            for l in range(1, 4 * m):
                if next(enumerate_family(m, l, family), None) is None:
                    with pytest.raises(ValueError):
                        random_subset(m, l, rng, family)
                    continue
                s = random_subset(m, l, rng, family)
                assert s.covalency() == l and generates_fast(m, s.pair_bits, s.ypair_bits), (family, m, l)
                assert family == "s" or s.profile().l2 > 0
