import pathlib

import pytest

from rqgraph import cli
from rqgraph.group import GroupElement, inverse
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


def inverse_orbits(m):
    """{g, g^-1} blocks of the non-identity elements, built from group ops only.

    Independent of the structural encoding; used to cross-check enumeration.
    """
    seen = set()
    orbits = []
    for e in (0, 1):
        for k in range(2 * m):
            g = GroupElement(k, e)
            if g == GroupElement(0, 0) or g in seen:
                continue
            orbit = frozenset({g, inverse(g, m)})
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


@pytest.fixture(scope="session")
def table2_fixture():
    rows = cli.load_fixture(str(DATA_DIR / "table2.csv"))
    assert len(rows) == 54
    return rows
