import pathlib

import numpy as np
import pytest

from rqgraph import bounds, cli
from rqgraph.group import IDENTITY, GroupElement, multiply
from rqgraph.subsets import CayleySubset

DATA_DIR = pathlib.Path(__file__).parent / "data"


def structural_subsets(m):
    """Every symmetric identity-free subset of Q_{4m}, in structural form."""
    for pair_mask in range(1 << (m - 1)):
        pairs = frozenset(k + 1 for k in range(m - 1) if pair_mask >> k & 1)
        for delta in (0, 1):
            for ymask in range(1 << m):
                ys = frozenset(k for k in range(m) if ymask >> k & 1)
                yield CayleySubset(m, pairs, delta, ys)


def full_subset(m):
    """The whole group minus the identity: the complete-graph subset, covalency 1."""
    return CayleySubset(m, frozenset(range(1, m)), 1, frozenset(range(m)))


def group_elements(m):
    """The 4m elements in `group.element_index` order e * 2m + k: <x> first, then the coset <x>y."""
    return [GroupElement(k, e) for e in (0, 1) for k in range(2 * m)]


def inverse(g, m):
    """The h with g h = 1, found by searching with `multiply`."""
    return next(h for h in group_elements(m) if multiply(g, h, m) == IDENTITY)


def inverse_orbits(m):
    """{g, g^-1} blocks of the non-identity elements, built from group ops only.

    Independent of the structural encoding; used to cross-check enumeration.
    """
    return list(dict.fromkeys(frozenset({g, inverse(g, m)}) for g in group_elements(m) if g != IDENTITY))


def family_point(r, c, k):
    """(t, l) = (f(k), 24 k + r + 1) of family (r, c) at k, an int or an int64 array, as `primes.derive_k_threshold`."""
    return 36 * k * k + 3 * (r + 3) * k + c, 24 * k + r + 1


def family_gap(r, c, k):
    """`bounds._gap` in numpy at `family_point`: a float for an int k, an array for an array."""
    gap = bounds._gap(np, *family_point(r, c, k))
    return gap if isinstance(k, np.ndarray) else float(gap)


@pytest.fixture(scope="session")
def table2_fixture():
    rows = cli.load_fixture(str(DATA_DIR / "table2.csv"))
    assert len(rows) == 54
    return rows
