import functools
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

import rqgraph
from rqgraph.group import IDENTITY, GroupElement, element_index, generates, generates_fast, multiply
from rqgraph.subsets import CayleySubset
from conftest import group_elements, inverse, structural_subsets


def test_multiply_examples():
    m = 3
    assert multiply(GroupElement(1, 0), GroupElement(1, 0), m) == GroupElement(2, 0)
    # y * y = x^m
    assert multiply(GroupElement(0, 1), GroupElement(0, 1), m) == GroupElement(3, 0)
    # xy * x = y, via y x = x^-1 y
    assert multiply(GroupElement(1, 1), GroupElement(1, 0), m) == GroupElement(0, 1)


def test_inverse_examples():
    # (x^k)^-1 = x^(2m-k), (x^k y)^-1 = x^(m+k) y
    assert multiply(GroupElement(1, 0), GroupElement(5, 0), 3) == IDENTITY
    assert multiply(IDENTITY, IDENTITY, 5) == IDENTITY
    assert multiply(GroupElement(2, 1), GroupElement(5, 1), 3) == IDENTITY


@pytest.mark.parametrize("m", range(1, 17))
def test_identity_and_inverse_laws(m):
    els = group_elements(m)
    for g in els:
        assert multiply(g, IDENTITY, m) == g
        assert multiply(IDENTITY, g, m) == g
        assert [h for h in els if multiply(g, h, m) == IDENTITY] == [inverse(g, m)]    # one inverse
        assert multiply(inverse(g, m), g, m) == IDENTITY


@pytest.mark.parametrize("m", range(1, 17))
def test_associativity_random_triples(m):
    rng = random.Random(100 + m)
    els = group_elements(m)
    for _ in range(200):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert multiply(multiply(a, b, m), c, m) == multiply(a, multiply(b, c, m), m)


def test_x_powers_form_cyclic_group():
    m = 6
    for a in range(2 * m):
        for b in range(2 * m):
            prod = multiply(GroupElement(a, 0), GroupElement(b, 0), m)
            assert prod == GroupElement((a + b) % (2 * m), 0)


def conjugation_orbits(m):
    """The orbits of z under z -> g z g^-1, computed from `multiply` and `inverse`."""
    els = group_elements(m)
    inv = {g: inverse(g, m) for g in els}
    return {frozenset(multiply(multiply(g, z, m), inv[g], m) for g in els) for z in els}


@pytest.mark.parametrize("m", range(1, 13))
def test_conjugacy_classes_partition_and_sizes(m):
    # the class equation of the group law: m + 3 classes whose sizes divide 4m
    classes = conjugation_orbits(m)
    assert len(classes) == m + 3
    assert set().union(*classes) == set(group_elements(m))
    assert sum(len(c) for c in classes) == 4 * m
    for c in classes:
        assert (4 * m) % len(c) == 0


@pytest.mark.parametrize("m", range(1, 9))
def test_conjugacy_classes_against_bruteforce(m):
    # the known classes of Q_{4m}: {1}, {x^k, x^(2m-k)} for 1 <= k <= m-1,
    # {x^m}, and the even- and odd-exponent halves of <x>y
    n = 2 * m
    expected = {frozenset({IDENTITY}), frozenset({GroupElement(m, 0)})}
    expected |= {frozenset({GroupElement(k, 0), GroupElement(n - k, 0)}) for k in range(1, m)}
    expected |= {frozenset(GroupElement((2 * k + r) % n, 1) for k in range(m)) for r in (0, 1)}
    assert conjugation_orbits(m) == expected


def test_conjugacy_class_examples():
    assert sorted(len(c) for c in conjugation_orbits(3)) == [1, 1, 2, 2, 3, 3]
    assert sorted(len(c) for c in conjugation_orbits(1)) == [1, 1, 1, 1]
    assert len(conjugation_orbits(5)) == 8


def test_generates_examples():
    m = 3
    assert generates({GroupElement(1, 0), GroupElement(5, 0), GroupElement(0, 1), GroupElement(3, 1)}, m)
    assert not generates({GroupElement(2, 0), GroupElement(4, 0)}, m)
    # closure of {y, x^3 y} is {1, x^3, y, x^3 y}
    assert not generates({GroupElement(0, 1), GroupElement(3, 1)}, m)
    # exponents outside the normal form are reduced first: x^7 = x, x^6 y^3 = y
    assert generates({GroupElement(7, 0), GroupElement(6, 3)}, m)


def test_generates_rejects_empty():
    with pytest.raises(ValueError):
        generates(set(), 3)


def test_group_size_guard():
    from rqgraph.group import MAX_M, MAX_TABLE_ORDER, element

    assert element(2 * MAX_M + 5, 1, MAX_M) == GroupElement(5, 1)
    with pytest.raises(ValueError):
        element(0, 0, MAX_M + 1)
    with pytest.raises(ValueError):
        element(0, 0, 0)
    # the BFS reads the Cayley table, which is capped
    with pytest.raises(ValueError):
        generates({GroupElement(1, 0), GroupElement(0, 1)}, MAX_TABLE_ORDER // 4 + 1)


def test_cayley_table_matches_multiply():
    """The table, one evaluation of the group law on index arrays, equals
    scalar multiply on every pair for m <= 12, and on sampled pairs at the
    size cap, where the int16 intermediates come closest to overflowing."""
    import random

    from rqgraph.group import MAX_TABLE_ORDER, cayley_table, element_index

    for m in range(1, 13):
        elems = group_elements(m)
        expected = [element_index(multiply(g, h, m), m) for g in elems for h in elems]
        table = cayley_table(m)
        assert table.readonly and table.format == "H"
        assert table.tolist() == expected, m
    m = MAX_TABLE_ORDER // 4
    elems = group_elements(m)
    table = cayley_table(m)
    rng = random.Random(0)
    for i, j in [(4 * m - 1, 4 * m - 1), (2 * m - 1, 4 * m - 1)] + [
        (rng.randrange(4 * m), rng.randrange(4 * m)) for _ in range(2000)
    ]:
        assert table[4 * m * i + j] == element_index(multiply(elems[i], elems[j], m), m), (i, j)


def test_cayley_table_build_memory_is_capped():
    """The 32 MiB table at the size cap is built without full-size temporaries."""
    import tracemalloc

    from rqgraph.group import MAX_TABLE_ORDER, cayley_table

    cayley_table.cache_clear()
    tracemalloc.start()
    try:
        table = cayley_table(MAX_TABLE_ORDER // 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        cayley_table.cache_clear()
    assert table.nbytes == 2 * MAX_TABLE_ORDER**2
    assert peak < 48 * 2**20, peak


def _proper_subgroup_masks(m):
    """Element bitmask (bit `element_index(g)`) of every proper subgroup of Q_{4m}: from the
    trivial group up, each is a smaller one closed under `multiply` with one more element."""
    els = group_elements(m)
    table = [[element_index(multiply(g, h, m), m) for h in els] for g in els]
    found, todo = {1}, [1]      # bit 0 is IDENTITY
    while todo:
        mask = todo.pop()
        for g in range(4 * m):
            gens = [i for i in range(4 * m) if mask >> i & 1 or i == g]
            seen = frontier = {0}
            while frontier:
                frontier = {table[i][j] for i in frontier for j in gens} - seen
                seen = seen | frontier
            bigger = sum(1 << i for i in seen)
            if bigger not in found:
                found.add(bigger)
                todo.append(bigger)
    return np.array(sorted(found - {(1 << 4 * m) - 1}), dtype=np.uint64)


@pytest.mark.parametrize("m", range(1, 9))
def test_generates_fast_matches_bfs_closure(m):
    """A subset generates iff no proper subgroup holds it: generates_fast agrees on every symmetric
    subset, as element bitmasks against all proper subgroups in one numpy pass, BFS `generates` for m <= 6."""
    subsets = list(structural_subsets(m))

    @functools.cache
    def mask(pairs, delta, ypairs):
        return sum(1 << element_index(g, m) for g in CayleySubset(m, pairs, delta, ypairs).elements())

    none = frozenset()
    masks = np.array([mask(s.pair_bits, s.delta, none) | mask(none, 0, s.ypair_bits) for s in subsets], np.uint64)
    held = ((masks[:, None] & ~_proper_subgroup_masks(m)[None, :]) == 0).any(axis=1)
    expected = (~held).tolist()
    fast = [generates_fast(m, s.pair_bits, s.ypair_bits) for s in subsets]
    assert fast == expected, next(s.literal() for s, a, b in zip(subsets, fast, expected) if a != b)
    if m <= 6:
        bfs = [bool(s.size) and generates(s.elements(), m) for s in subsets]
        assert bfs == expected, next(s.literal() for s, a, b in zip(subsets, bfs, expected) if a != b)


def test_importing_group_loads_no_other_rqgraph_module():
    """The package root imports nothing, so `group` stands alone at the bottom."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(rqgraph.__file__).parents[1])}
    code = "import sys, rqgraph.group; print(*sorted(m for m in sys.modules if m.startswith('rqgraph')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["rqgraph", "rqgraph.group"]
