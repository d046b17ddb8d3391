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

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .group import MAX_M, GroupElement, generates_fast

FAMILY_ALL = "s"
FAMILY_NONFULL_YCOSET = "sprime"
_FAMILIES = {FAMILY_ALL, FAMILY_NONFULL_YCOSET}
_LITERAL_FIELDS = {"m", "pairs", "delta", "ypairs"}


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
        if not 1 <= m <= MAX_M:
            raise ValueError(f"m must be in [1, {MAX_M}], got {m}")
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

    # -- textual literal, the CLI wire format --------------------------------

    def literal(self) -> str:
        return (
            f"m={self.m}"
            f";pairs={','.join(str(k) for k in sorted(self.pair_bits))}"
            f";delta={self.delta}"
            f";ypairs={','.join(str(k) for k in sorted(self.ypair_bits))}"
        )


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
    missing = _LITERAL_FIELDS - fields.keys()
    if missing:
        raise ValueError(f"subset literal missing fields: {sorted(missing)}")
    unknown = fields.keys() - _LITERAL_FIELDS
    if unknown:
        raise ValueError(f"subset literal has unknown fields: {sorted(unknown)}")

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


def check_family(family: str) -> None:
    """ValueError unless family is "s" or "sprime"."""
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {sorted(_FAMILIES)}, got {family!r}")


def covalency_splits(m: int, l: int, family: str) -> list[tuple[int, int]]:
    """Admissible (l1, l2) splits of covalency l, ordered by ascending l1.

    l1 carries the parity of l, l2 is even; family "sprime" additionally
    requires l2 > 0 (the y-coset is not full).
    """
    check_family(family)
    lo2 = 2 if family == FAMILY_NONFULL_YCOSET else 0
    out = []
    for l2 in range(lo2, min(2 * m - 1, l) + 1, 2):
        l1 = l - l2
        if 0 < l1 <= 2 * m:
            out.append((l1, l2))
    return sorted(out)


def split_sizes(m: int, l1: int, l2: int) -> tuple[int, int, int]:
    """(delta, n_pairs, n_ypairs) of the block S_{l1,l2}: delta is forced by l1's parity.

    For every split that `covalency_splits` returns, 0 <= n_pairs <= m - 1
    and 1 <= n_ypairs <= m.
    """
    delta = l1 % 2
    return delta, m - (l1 + delta) // 2, m - l2 // 2


def enumerate_family(m: int, l: int, family: str = FAMILY_ALL) -> Iterator[CayleySubset]:
    """All generating subsets with covalency l, lazily.

    Order: by ascending l1 (the splits of `covalency_splits`), then by the
    sorted pair indices, then by the sorted y-pair indices, both
    lexicographic.  The stream is empty when l is not an achievable covalency.
    """
    if not 1 <= l < 4 * m:
        raise ValueError(f"covalency must satisfy 1 <= l < 4m, got l={l}, m={m}")
    for l1, l2 in covalency_splits(m, l, family):
        delta, n_pairs, n_ypairs = split_sizes(m, l1, l2)
        for pairs in combinations(range(1, m), n_pairs):
            for ypairs in combinations(range(m), n_ypairs):
                if generates_fast(m, pairs, ypairs):
                    yield CayleySubset(m, frozenset(pairs), delta, frozenset(ypairs))


def random_subset(m: int, l: int, rng, family: str = FAMILY_NONFULL_YCOSET) -> CayleySubset:
    """One uniformly-chosen-split random generating subset with covalency l.

    For m >= 2, covalencies 4m - 3 and 4m - 2 have a split but no generating
    member: the one y-pair there, with or without x^m, generates a subgroup
    of order 4.  They raise ValueError, like covalencies with no split.
    """
    splits = covalency_splits(m, l, family)
    if not splits:
        raise ValueError(f"no admissible (l1, l2) split for m={m}, l={l}, family={family}")
    if m >= 2 and l >= 4 * m - 3:
        raise ValueError(f"no generating subset of Q_{{4m}} has covalency l={l} >= 4m - 3, m={m}")
    while True:
        l1, l2 = splits[rng.randrange(len(splits))]
        delta, n_pairs, n_ypairs = split_sizes(m, l1, l2)
        pair_bits = frozenset(rng.sample(range(1, m), n_pairs))
        ypair_bits = frozenset(rng.sample(range(m), n_ypairs))
        if generates_fast(m, pair_bits, ypair_bits):
            return CayleySubset(m, pair_bits, delta, ypair_bits)


# -- extremal subsets ---------------------------------------------------------


def extremal_subset(m: int, l1: int, l2: int) -> CayleySubset:
    """The window-extremal subset with covalency split (l1, l2).

    Removes from <x> the centered window {1, x^(+-1), ..., x^(+-(l1-2+delta)/2)}
    plus x^m when delta = 0, and from <x>y the aligned y-pair window
    {y, ..., x^(l2/2 - 1) y} and its inverse half: it keeps the top n_pairs
    pair indices and the top n_ypairs y-pair indices of `split_sizes`.
    """
    check_split(m, l1, l2)
    delta, n_pairs, n_ypairs = split_sizes(m, l1, l2)
    pair_bits = frozenset(range(m - n_pairs, m))
    return CayleySubset(m, pair_bits, delta, frozenset(range(m - n_ypairs, m)))


def check_split(m: int, l1: int, l2: int) -> None:
    """ValueError unless (l1, l2) is a split with 0 < l1 <= 2m and even 0 < l2 < 2m."""
    if l2 <= 0 or l2 % 2 or l2 >= 2 * m:
        raise ValueError(f"l2 must be even with 0 < l2 < 2m, got l2={l2}, m={m}")
    if not 0 < l1 <= 2 * m:
        raise ValueError(f"l1 must satisfy 0 < l1 <= 2m, got l1={l1}, m={m}")
