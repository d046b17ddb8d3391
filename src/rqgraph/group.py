"""Exact arithmetic in the generalized quaternion group of order 4m.

The group is presented as <x, y | x^(2m) = 1, x^m = y^2, y^-1 x y = x^-1>.
Every element has a unique normal form x^k * y^e with 0 <= k < 2m and
e in {0, 1}, so elements are stored as plain (k, e) pairs.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

# Sanity cap on the group parameter; all real uses are tiny compared to this.
MAX_M = 1 << 20
# Largest group order with a Cayley table: (4m)^2 uint16 entries, 32 MiB.
MAX_TABLE_ORDER = 4096
# Entries of the Cayley table computed per block of rows.
_TABLE_BLOCK = 1 << 18


class GroupElement(NamedTuple):
    """Normal form x^k * y^e; k is reduced mod 2m, e mod 2."""

    k: int
    e: int


IDENTITY = GroupElement(0, 0)


def _check_m(m: int) -> None:
    if not (1 <= m <= MAX_M):
        raise ValueError(f"group parameter m must be in [1, {MAX_M}], got {m}")


def element(k: int, e: int, m: int) -> GroupElement:
    """Canonical element x^(k mod 2m) * y^(e mod 2)."""
    _check_m(m)
    return GroupElement(k % (2 * m), e % 2)


def element_index(g: GroupElement, m: int) -> int:
    """Index e * 2m + k of the normal form g = x^k y^e: <x> first, then the coset <x>y."""
    return g.e * 2 * m + g.k


def multiply(a: GroupElement, b: GroupElement, m: int) -> GroupElement:
    """Product a*b in normal form.

    Moving y past x^k inverts the exponent, and y^2 = x^m:
        x^a * x^b       = x^(a+b)
        x^a * x^b y     = x^(a+b) y
        x^a y * x^b     = x^(a-b) y
        x^a y * x^b y   = x^(a-b+m)
    The four cases are one expression, so it also works elementwise on
    elements whose k and e are int arrays.
    """
    return GroupElement((a.k + (1 - 2 * a.e) * b.k + m * a.e * b.e) % (2 * m), a.e ^ b.e)


@lru_cache(maxsize=1)
def cayley_table(m: int) -> memoryview:
    """Read-only flat Cayley table: entry 4m * i + j is the index of g_i * g_j.

    Indices are `element_index`'s, e * 2m + k for x^k y^e.  Filled in
    blocks of rows, each one call of `multiply` on index arrays, so the group
    law keeps a single definition and the temporaries stay near _TABLE_BLOCK entries;
    uint16 holds every index below MAX_TABLE_ORDER.  Only the latest m is
    cached: callers work one m at a time.
    """
    _check_m(m)
    order = 4 * m
    if order > MAX_TABLE_ORDER:
        raise ValueError(f"Cayley table capped at {MAX_TABLE_ORDER} elements, got 4m={order}")
    e, k = np.divmod(np.arange(order, dtype=np.int16), 2 * m)    # |products| <= 5m fit int16
    table = np.empty((order, order), dtype=np.uint16)
    rows = max(1, _TABLE_BLOCK // order)
    for i in range(0, order, rows):
        block = slice(i, i + rows)
        product = multiply(GroupElement(k[block, None], e[block, None]), GroupElement(k, e), m)
        table[block] = element_index(product, m)
    return memoryview(table.ravel()).toreadonly()


def generates(subset: Iterable[GroupElement], m: int) -> bool:
    """True iff the closure of `subset` under multiplication is the whole group.

    Breadth-first closure over the 4m elements by lookups in `cayley_table`;
    O(|subset| * 4m) once the table for m exists, and capped with it.
    """
    _check_m(m)
    gens = [element_index(element(g.k, g.e, m), m) for g in subset]
    if not gens:
        raise ValueError("generation test needs a nonempty subset")
    table = cayley_table(m)
    order = 4 * m
    seen = bytearray(order)
    frontier = [element_index(IDENTITY, m)]
    seen[frontier[0]] = 1
    while frontier:
        nxt = []
        for i in frontier:
            row = i * order
            for j in gens:
                h = table[row + j]
                if not seen[h]:
                    seen[h] = 1
                    nxt.append(h)
        frontier = nxt
    return all(seen)


def gcd_class(m: int, indices: Iterable[int], origin: int = 0) -> int:
    """gcd of m and the differences k - origin over indices: a divisor of m (m itself for none).

    Scalar pure Python with an early exit at 1, because the generation test
    calls it per subset.
    """
    d = m
    for k in indices:
        if d == 1:
            break
        d = math.gcd(d, k - origin)
    return d


def generates_fast(m: int, pair_indices: Iterable[int], ypair_indices: Iterable[int]) -> bool:
    """Generation test on the structural encoding of a symmetric subset.

    The subgroup generated meets <x> in <x^d> where d is the gcd of m, the
    pair exponents, and the differences of the y-coset exponents (any two
    y-coset elements multiply into <x>, and any such element squares to x^m,
    which is why x^m itself never matters here).  The subset generates iff it
    touches the y-coset at all and d = 1; d is the `gcd_class` of the y-pairs
    taken over the `gcd_class` of the pairs.  Cross-validated against the BFS
    closure in the test suite.
    """
    ys = tuple(ypair_indices)
    return bool(ys) and gcd_class(gcd_class(m, pair_indices), ys, ys[0]) == 1
