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


def all_elements(m: int) -> list[GroupElement]:
    """The 4m elements, <x> first, then the coset <x>y."""
    _check_m(m)
    return [GroupElement(k, e) for e in (0, 1) for k in range(2 * m)]


def element_index(g: GroupElement, m: int) -> int:
    """Position of the normal form g in `all_elements(m)`."""
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


def inverse(g: GroupElement, m: int) -> GroupElement:
    """Inverse in normal form: (x^k)^-1 = x^(2m-k), (x^k y)^-1 = x^(m+k) y."""
    n = 2 * m
    if g.e == 0:
        return GroupElement(-g.k % n, 0)
    return GroupElement((m + g.k) % n, 1)


def conjugacy_classes(m: int) -> list[frozenset[GroupElement]]:
    """The m + 3 conjugacy classes, as a partition of the group.

    Classes: {1}, {x^k, x^(2m-k)} for 1 <= k <= m-1, {x^m}, the even-exponent
    half of <x>y, and the odd-exponent half of <x>y.
    """
    _check_m(m)
    n = 2 * m
    classes = [frozenset({IDENTITY})]
    for k in range(1, m):
        classes.append(frozenset({GroupElement(k, 0), GroupElement(n - k, 0)}))
    classes.append(frozenset({GroupElement(m, 0)}))
    classes.append(frozenset(GroupElement(2 * k, 1) for k in range(m)))
    classes.append(frozenset(GroupElement((2 * k + 1) % n, 1) for k in range(m)))
    return classes


@lru_cache(maxsize=1)
def cayley_table(m: int) -> memoryview:
    """Read-only flat Cayley table: entry 4m * i + j is the index of g_i * g_j.

    Indices are positions in `all_elements(m)`.  One call of `multiply` on
    index arrays, so the group law keeps a single definition; uint16 holds
    every index below MAX_TABLE_ORDER.  Only the latest m is cached: callers
    work one m at a time.
    """
    _check_m(m)
    if 4 * m > MAX_TABLE_ORDER:
        raise ValueError(f"Cayley table capped at {MAX_TABLE_ORDER} elements, got 4m={4 * m}")
    e, k = np.divmod(np.arange(4 * m, dtype=np.int16), 2 * m)    # |products| <= 5m fit int16
    product = multiply(GroupElement(k[:, None], e[:, None]), GroupElement(k, e), m)
    return memoryview(element_index(product, m).astype(np.uint16).ravel()).toreadonly()


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


def generates_fast(m: int, pair_indices: Iterable[int], ypair_indices: Iterable[int]) -> bool:
    """Generation test on the structural encoding of a symmetric subset.

    The subgroup generated meets <x> in <x^d> where d is the gcd of m, the
    pair exponents, and the differences of the y-coset exponents (any two
    y-coset elements multiply into <x>, and any such element squares to x^m,
    which is why x^m itself never matters here).  The subset generates iff it
    touches the y-coset at all and d = 1.  Cross-validated against the BFS
    closure in the test suite.
    """
    ys = list(ypair_indices)
    if not ys:
        return False
    d = math.gcd(m, *tuple(pair_indices))
    base = ys[0]
    for k2 in ys[1:]:
        d = math.gcd(d, k2 - base)
        if d == 1:
            return True
    return d == 1
