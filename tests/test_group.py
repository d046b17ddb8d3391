import random

import pytest

from rqgraph.group import (
    IDENTITY,
    GroupElement,
    all_elements,
    conjugacy_classes,
    generates,
    generates_fast,
    inverse,
    multiply,
)


def test_multiply_examples():
    m = 3
    assert multiply(GroupElement(1, 0), GroupElement(1, 0), m) == GroupElement(2, 0)
    # y * y = x^m
    assert multiply(GroupElement(0, 1), GroupElement(0, 1), m) == GroupElement(3, 0)
    # xy * x = y, via y x = x^-1 y
    assert multiply(GroupElement(1, 1), GroupElement(1, 0), m) == GroupElement(0, 1)


def test_inverse_examples():
    assert inverse(GroupElement(1, 0), 3) == GroupElement(5, 0)
    assert inverse(IDENTITY, 5) == IDENTITY
    assert inverse(GroupElement(2, 1), 3) == GroupElement(5, 1)


@pytest.mark.parametrize("m", range(1, 17))
def test_identity_and_inverse_laws(m):
    for g in all_elements(m):
        assert multiply(g, IDENTITY, m) == g
        assert multiply(IDENTITY, g, m) == g
        assert multiply(g, inverse(g, m), m) == IDENTITY
        assert multiply(inverse(g, m), g, m) == IDENTITY


@pytest.mark.parametrize("m", range(1, 17))
def test_associativity_random_triples(m):
    rng = random.Random(100 + m)
    els = all_elements(m)
    for _ in range(200):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert multiply(multiply(a, b, m), c, m) == multiply(a, multiply(b, c, m), m)


def test_x_powers_form_cyclic_group():
    m = 6
    for a in range(2 * m):
        for b in range(2 * m):
            prod = multiply(GroupElement(a, 0), GroupElement(b, 0), m)
            assert prod == GroupElement((a + b) % (2 * m), 0)


@pytest.mark.parametrize("m", range(1, 13))
def test_conjugacy_classes_partition_and_sizes(m):
    classes = conjugacy_classes(m)
    assert len(classes) == m + 3
    union = set().union(*classes)
    assert union == set(all_elements(m))
    assert sum(len(c) for c in classes) == 4 * m
    for c in classes:
        assert (4 * m) % len(c) == 0


@pytest.mark.parametrize("m", range(1, 9))
def test_conjugacy_classes_against_bruteforce(m):
    # orbit of z under g z g^-1 over all g
    els = all_elements(m)

    def orbit(z):
        return frozenset(multiply(multiply(g, z, m), inverse(g, m), m) for g in els)

    expected = {orbit(z) for z in els}
    assert set(map(frozenset, conjugacy_classes(m))) == expected


def test_conjugacy_class_examples():
    assert sorted(len(c) for c in conjugacy_classes(3)) == [1, 1, 2, 2, 3, 3]
    assert sorted(len(c) for c in conjugacy_classes(1)) == [1, 1, 1, 1]
    assert len(conjugacy_classes(5)) == 8


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
        conjugacy_classes(0)
    # the BFS reads the Cayley table, which is capped
    with pytest.raises(ValueError):
        generates({GroupElement(1, 0), GroupElement(0, 1)}, MAX_TABLE_ORDER // 4 + 1)


def test_cayley_table_matches_multiply():
    """The table, one evaluation of the group law on index arrays, equals
    scalar multiply on every pair for m <= 12, and on sampled pairs at the
    size cap, where the int16 intermediates come closest to overflowing."""
    import random

    from rqgraph.group import MAX_TABLE_ORDER, all_elements, cayley_table, element_index

    for m in range(1, 13):
        elems = all_elements(m)
        expected = [element_index(multiply(g, h, m), m) for g in elems for h in elems]
        table = cayley_table(m)
        assert table.readonly and table.format == "H"
        assert table.tolist() == expected, m
    m = MAX_TABLE_ORDER // 4
    elems = all_elements(m)
    table = cayley_table(m)
    rng = random.Random(0)
    for i, j in [(4 * m - 1, 4 * m - 1), (2 * m - 1, 4 * m - 1)] + [
        (rng.randrange(4 * m), rng.randrange(4 * m)) for _ in range(2000)
    ]:
        assert table[4 * m * i + j] == element_index(multiply(elems[i], elems[j], m), m), (i, j)


@pytest.mark.parametrize("m", range(1, 9))
def test_generates_fast_matches_bfs_closure(m):
    # gcd characterization == BFS closure for every symmetric subset
    from conftest import structural_subsets

    for subset in structural_subsets(m):
        els = subset.elements()
        expected = generates(els, m) if els else False
        assert generates_fast(m, subset.pair_bits, subset.ypair_bits) == expected
