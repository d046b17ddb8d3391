"""Structural representation of symmetric Cayley subsets of Q_{4m}.

A symmetric subset avoiding the identity decomposes into inverse-closed
building blocks:

    {x^k1, x^(2m-k1)}   for 1 <= k1 <= m-1      (pair_bits)
    {x^m}               optional                 (delta)
    {x^k2 y, x^(m+k2) y} for 0 <= k2 <= m-1     (ypair_bits)

which makes the covalency split (l1, l2), the parity counts and the family
enumeration all O(1)-per-block, with no element sets materialized.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator

from .group import GroupElement, generates_fast

FAMILY_ALL = "s"
FAMILY_NONFULL_YCOSET = "sprime"
_FAMILIES = {FAMILY_ALL, FAMILY_NONFULL_YCOSET}


@dataclass(frozen=True)
class CovalencyProfile:
    """Covalency bookkeeping: l = l1 + l2, split across the two cosets."""

    l: int
    l1: int
    l2: int
    delta: int


@dataclass(frozen=True)
class SigmaCounts:
    """Counts of subset exponents by parity.

    x_even/x_odd count the pair representatives k1 in [1, m-1]; y_even/y_odd
    count the y-coset representatives k2 in [0, m-1].
    """

    x_even: int
    x_odd: int
    y_even: int
    y_odd: int


@dataclass(frozen=True)
class CayleySubset:
    """Symmetric identity-free subset of Q_{4m} in structural form."""

    m: int
    pair_bits: frozenset[int]
    delta: int
    ypair_bits: frozenset[int]

    def __post_init__(self):
        m = self.m
        if m < 1:
            raise ValueError(f"m must be positive, got {m}")
        if self.delta not in (0, 1):
            raise ValueError(f"delta must be 0 or 1, got {self.delta}")
        bad = [k for k in self.pair_bits if not 1 <= k <= m - 1]
        if bad:
            raise ValueError(f"pair indices out of range [1, {m - 1}]: {sorted(bad)}")
        bad = [k for k in self.ypair_bits if not 0 <= k <= m - 1]
        if bad:
            raise ValueError(f"y-pair indices out of range [0, {m - 1}]: {sorted(bad)}")

    # -- derived quantities -------------------------------------------------

    @property
    def size(self) -> int:
        return 2 * len(self.pair_bits) + self.delta + 2 * len(self.ypair_bits)

    @property
    def size_x(self) -> int:
        return 2 * len(self.pair_bits) + self.delta

    @property
    def size_y(self) -> int:
        return 2 * len(self.ypair_bits)

    def profile(self) -> CovalencyProfile:
        m = self.m
        l1 = 2 * m - self.size_x
        l2 = 2 * m - self.size_y
        return CovalencyProfile(l1 + l2, l1, l2, self.delta)

    def covalency(self) -> int:
        return 4 * self.m - self.size

    def elements(self) -> set[GroupElement]:
        """Expand to the explicit symmetric element set (size 4m - l)."""
        n = 2 * self.m
        out: set[GroupElement] = set()
        for k1 in self.pair_bits:
            out.add(GroupElement(k1, 0))
            out.add(GroupElement(n - k1, 0))
        if self.delta:
            out.add(GroupElement(self.m, 0))
        for k2 in self.ypair_bits:
            out.add(GroupElement(k2, 1))
            out.add(GroupElement(self.m + k2, 1))
        return out

    def sigma_counts(self) -> SigmaCounts:
        xe = sum(1 for k in self.pair_bits if k % 2 == 0)
        ye = sum(1 for k in self.ypair_bits if k % 2 == 0)
        return SigmaCounts(xe, len(self.pair_bits) - xe, ye, len(self.ypair_bits) - ye)

    def generates(self) -> bool:
        return generates_fast(self.m, self.pair_bits, self.ypair_bits)

    # -- textual literal, the CLI wire format --------------------------------

    def literal(self) -> str:
        return (
            f"m={self.m}"
            f";pairs={','.join(str(k) for k in sorted(self.pair_bits))}"
            f";delta={self.delta}"
            f";ypairs={','.join(str(k) for k in sorted(self.ypair_bits))}"
        )


def full_subset(m: int) -> CayleySubset:
    """The whole group minus the identity (complete-graph subset, l = 1)."""
    return CayleySubset(m, frozenset(range(1, m)), 1, frozenset(range(m)))


def parse_subset_literal(text: str) -> CayleySubset:
    """Parse `m=<int>;pairs=<list>;delta=<0|1>;ypairs=<list>` bit-exactly."""
    fields: dict[str, str] = {}
    for chunk in text.strip().split(";"):
        if "=" not in chunk:
            raise ValueError(f"malformed subset literal field {chunk!r}")
        key, _, value = chunk.partition("=")
        if key in fields:
            raise ValueError(f"duplicate field {key!r} in subset literal")
        fields[key] = value
    missing = {"m", "pairs", "delta", "ypairs"} - fields.keys()
    if missing:
        raise ValueError(f"subset literal missing fields: {sorted(missing)}")

    def int_list(value: str, name: str) -> list[int]:
        if value == "":
            return []
        items = [int(v) for v in value.split(",")]
        if len(set(items)) != len(items):
            raise ValueError(f"duplicate indices in {name}: {value!r}")
        return items

    m = int(fields["m"])
    delta = int(fields["delta"])
    return CayleySubset(
        m,
        frozenset(int_list(fields["pairs"], "pairs")),
        delta,
        frozenset(int_list(fields["ypairs"], "ypairs")),
    )


# -- enumeration -------------------------------------------------------------


def covalency_splits(m: int, l: int, family: str) -> list[tuple[int, int]]:
    """Admissible (l1, l2) splits of covalency l, ordered by ascending l1.

    l1 carries the parity of l, l2 is even; family "sprime" additionally
    requires l2 > 0 (the y-coset is not full).
    """
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {sorted(_FAMILIES)}, got {family!r}")
    lo2 = 2 if family == FAMILY_NONFULL_YCOSET else 0
    out = []
    for l2 in range(lo2, min(2 * m - 1, l) + 1, 2):
        l1 = l - l2
        if 0 < l1 <= 2 * m:
            out.append((l1, l2))
    return sorted(out)


def _masks_with_popcount(nbits: int, popcount: int) -> Iterator[int]:
    """All nbits-wide masks of given popcount, in ascending integer order."""
    if popcount == 0:
        yield 0
        return
    if popcount > nbits:
        return
    v = (1 << popcount) - 1
    top = 1 << nbits
    while v < top:
        yield v
        # Gosper's hack: next larger integer with the same popcount.
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r


def _bits(mask: int) -> frozenset[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def _block_stream(m: int, l1: int, l2: int) -> Iterator[tuple[int, int, int]]:
    """Stream (pair_mask, delta, ypair_mask) keys for the block S_{l1,l2}.

    pair_mask bit (k1 - 1) encodes pair k1; ypair_mask bit k2 encodes
    y-pair k2.  delta is forced by l1's parity.
    """
    delta = l1 % 2
    twice_pairs = 2 * m - l1 - delta
    if twice_pairs < 0 or twice_pairs % 2:
        return
    n_pairs = twice_pairs // 2
    n_ypairs = (2 * m - l2) // 2
    if n_pairs > m - 1 or n_ypairs > m:
        return
    for pair_mask in _masks_with_popcount(m - 1, n_pairs):
        for ypair_mask in _masks_with_popcount(m, n_ypairs):
            yield (pair_mask, delta, ypair_mask)


def enumerate_family(m: int, l: int, family: str = FAMILY_ALL) -> Iterator[CayleySubset]:
    """All generating subsets with covalency l, lazily.

    Order is ascending on (pair_mask, delta, ypair_mask), so golden tests are
    stable.  The stream is empty when l is not an achievable covalency.
    """
    if not 1 <= l < 4 * m:
        raise ValueError(f"covalency must satisfy 1 <= l < 4m, got l={l}, m={m}")
    streams = [_block_stream(m, l1, l2) for (l1, l2) in covalency_splits(m, l, family)]
    for pair_mask, delta, ypair_mask in heapq.merge(*streams):
        pair_bits = frozenset(k + 1 for k in _bits(pair_mask))
        ypair_bits = _bits(ypair_mask)
        if generates_fast(m, pair_bits, ypair_bits):
            yield CayleySubset(m, pair_bits, delta, ypair_bits)


def random_subset(m: int, l: int, rng, family: str = FAMILY_NONFULL_YCOSET) -> CayleySubset:
    """One uniformly-chosen-split random generating subset with covalency l."""
    splits = covalency_splits(m, l, family)
    if not splits:
        raise ValueError(f"no admissible (l1, l2) split for m={m}, l={l}, family={family}")
    while True:
        l1, l2 = splits[rng.randrange(len(splits))]
        delta = l1 % 2
        n_pairs = (2 * m - l1 - delta) // 2
        n_ypairs = (2 * m - l2) // 2
        if n_pairs > m - 1 or n_ypairs > m:
            continue
        pair_bits = frozenset(rng.sample(range(1, m), n_pairs))
        ypair_bits = frozenset(rng.sample(range(m), n_ypairs))
        if generates_fast(m, pair_bits, ypair_bits):
            return CayleySubset(m, pair_bits, delta, ypair_bits)


# -- extremal subsets ---------------------------------------------------------


def extremal_subset(m: int, l1: int, l2: int, delta: int | None = None) -> CayleySubset:
    """The window-extremal subset with covalency split (l1, l2).

    Removes from <x> the centered window {1, x^(+-1), ..., x^(+-(l1-2+delta)/2)}
    plus x^m when delta = 0, and from <x>y the aligned y-pair window
    {y, ..., x^(l2/2 - 1) y} and its inverse half.  delta is the parity of
    l = l1 + l2; passing it explicitly is allowed only for validation.
    """
    l = l1 + l2
    parity = l % 2
    if delta is not None and delta != parity:
        raise ValueError(f"delta={delta} inconsistent with parity of l={l}")
    delta = parity
    half_window = check_split(m, l1, l2)
    pair_bits = frozenset(range(half_window + 1, m))
    ypair_bits = frozenset(range(l2 // 2, m))
    return CayleySubset(m, pair_bits, delta, ypair_bits)


def check_split(m: int, l1: int, l2: int) -> int:
    """Half-width of the x-window of the split (l1, l2); ValueError unless both windows fit."""
    if l2 <= 0 or l2 % 2 or l2 >= 2 * m:
        raise ValueError(f"l2 must be even with 0 < l2 < 2m, got l2={l2}, m={m}")
    if not 0 < l1 <= 2 * m:
        raise ValueError(f"l1 must satisfy 0 < l1 <= 2m, got l1={l1}, m={m}")
    half_window = (l1 - 2 + l1 % 2) // 2
    if half_window > m - 1:
        raise ValueError(f"x-window {half_window} does not fit for m={m} (need <= m-1)")
    return half_window
