"""Safe-covalency bounds and the spectral exceptional-prime test.

The trivial bound l0 = floor(4 sqrt(m)) - 2 keeps every covalency up to it
Ramanujan.  The exact safe covalency decides each split by prefix sums at one
j | 2m per class gcd(j, 2m), tabled for the latest m only.  "Exceptional"
primes keep the window-extremal subset at l0 + 1's maximizing split Ramanujan
(closed form); the restricted family (y-coset not full) can be worse (p = 73).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from . import spectra
from .group import generates_fast
from .subsets import FAMILY_ALL, CayleySubset, check_split, covalency_splits, split_sizes

EXACT_SCAN_MAX_M = 20    # the m range pinned against an exhaustive enumeration of index sets
MIN_EXCEPTIONAL_PRIME = 67     # theorem scope of both classification routes


class SplitWorst(NamedTuple):
    """The worst generating member of one covalency split; above l = 2m, a bound on it."""

    lam: float          # double peak of lambda_max_nontrivial (EPS * sums_error_scale close at ties), or more above 2m
    ramanujan: bool     # every member is Ramanujan; above l = 2m, False may be a false alarm


class SplitProfile(NamedTuple):
    """The covalency split (l1, l2) maximizing the closed-form eigenvalue."""

    l1: int
    l2: int


class ExceptionalVerdict(NamedTuple):
    p: int
    l0: int
    route: str                       # "spectral" or "arithmetic"
    exceptional: bool
    witness: Optional[dict] = None


def trivial_bound(m: int) -> int:
    """floor(4 sqrt(m)) - 2, in exact integer arithmetic."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    return math.isqrt(16 * m) - 2


def ramanujan_bound_at(m: int, l: int) -> float:
    """Ramanujan bound shared by every subset of covalency l: 2 sqrt(4m-l-1)."""
    return 2.0 * math.sqrt(4 * m - l - 1)


def exact_safe_covalency(m: int, family: str = FAMILY_ALL) -> int:
    """Largest covalency below which every family member is Ramanujan.

    Decides covalencies 1, 2, ... split by split (`split_worst`) and stops at
    the first with a non-Ramanujan split; returns the largest achievable
    covalency before it (empty ones are vacuously safe).  Exact by a lemma:
    at l <= 2m every index set of a split's sizes generates, since
    |S| = 4m - l >= 2m and a proper subgroup holds at most 2m elements, the
    identity included, so `split_worst` is exact there; above 2m it bounds
    the members from above, so its "safe" verdicts are sound, and a first
    non-Ramanujan split there raises ArithmeticError: it may be a false alarm.
    """
    if not 1 <= m <= EXACT_SCAN_MAX_M:
        raise ValueError(f"exhaustive scan needs 1 <= m <= {EXACT_SCAN_MAX_M}, got m={m}")
    last_achievable = 0
    for l in range(1, 4 * m):
        empty = True
        for l1, l2 in covalency_splits(m, l, family):
            worst = split_worst(m, l1, l2)
            if worst is None:
                continue
            if not worst.ramanujan:
                if l > 2 * m:
                    raise ArithmeticError(f"first non-Ramanujan split ({l1}, {l2}) at m={m} is above l = 2m: not exact")
                return last_achievable
            empty = False
        if not empty:
            last_achievable = l
    return last_achievable


def split_worst(m: int, l1: int, l2: int) -> Optional[SplitWorst]:
    """The worst of all index sets of the split (l1, l2); None when none generates.

    A set is P of pair and Y of y-pair indices, of the sizes `split_sizes`
    gives.  Its one-dim eigenvalues are integers affine in the even counts of
    P and Y; |v| is convex and is |S| (left out) only at corners of the count
    box, so the others peak at `_by_even_count`'s corners and edge-neighbours.
    Its two-dim ones peak at max_j (max_P |z_j| + max_Y |w_j|), j in
    `_double_extremes`, decided by `spectra.at_or_below`.  Non-generating sets
    (only above l = 2m) are kept: there the result bounds the generating ones.
    """
    delta, n_pairs, n_ypairs = split_sizes(m, l1, l2)
    if not generates_fast(m, range(1, n_pairs + 1), range(n_ypairs)):
        return None
    subsets = [CayleySubset(m, p, delta, y)
               for p in _by_even_count(range(1, m), n_pairs) for y in _by_even_count(range(m), n_ypairs)]
    size = subsets[0].size
    one_dim = [abs(v) for s in subsets for v in spectra.one_dim_eigenvalues(s) if abs(v) != size]
    ramanujan = all(v * v <= 4 * (size - 1) for v in one_dim)
    peaks = {j: zs[delta][n_pairs] + arcs[n_ypairs] for j, (zs, arcs) in _double_extremes(m).items()}
    worst = max(peaks.values(), default=0.0)     # 0.0 at m = 1, which has no degree-2 blocks
    scale = spectra.sums_error_scale(subsets[0])

    def exact_margin():
        import mpmath

        # each double peak is off by up to EPS * scale, worst too: the exact argmax is within twice that
        near = [_extremes(mpmath, m, j) for j, peak in peaks.items() if peak >= worst - 2 * spectra.EPS * scale]
        return max(zs[delta][n_pairs] + arcs[n_ypairs] for zs, arcs in near) - 2 * mpmath.sqrt(size - 1)

    ramanujan &= spectra.at_or_below(worst - spectra.ramanujan_bound(subsets[0]), scale, exact_margin)
    return SplitWorst(float(max(one_dim + [worst])), ramanujan)


def _by_even_count(indices: range, n: int) -> list[frozenset]:
    """One n-element subset of indices per end count of even members: lo, lo + 1, hi - 1 and hi."""
    evens, odds = [k for k in indices if k % 2 == 0], [k for k in indices if k % 2]
    lo, hi = max(0, n - len(odds)), min(n, len(evens))
    return [frozenset(evens[:e] + odds[:n - e]) for e in sorted({lo, lo + 1, hi - 1, hi}) if lo <= e <= hi]


def _extremes(xp, m: int, j: int):
    """(zs, arcs) at frequency j in the module xp: math for doubles, mpmath at its working precision.

    zs[delta][n] is the largest |z_j| over n pair indices, with x^m iff
    delta: z_j is largest (smallest) on the first (last) n indices in the
    integer order of min(jk, -jk) mod 2m, in which 2 cos(pi j k / m) falls.
    arcs[n], the largest |w_j| over n y-pair indices (0 at odd j), is twice
    |sum| of the first n points e^(i pi j k / m) in the order jk mod 2m.  A
    best n-set is an arc of these g-th roots of unity, g = m / gcd(j / 2, m),
    mu each, closed under conjugation.  Centred on angle 0, an arc with a <= mu
    points in its first class, b <= mu in its last and full classes of sum R
    between has |sum|^2 = (R + (a + b) cos t)^2 + ((b - a) sin t)^2, convex
    in a at fixed a + b: a best arc starts (or, conjugated, ends) at a class
    boundary, which a rotation moves to angle 0.  Terms: `spectra._block`'s.
    """
    step = xp.pi * j / m
    order = sorted(range(1, m), key=lambda k: min(j * k % (2 * m), -j * k % (2 * m)))
    values = [2.0 * xp.cos(step * k) for k in order]
    zs = tuple(tuple(max(xp.fsum(values[:n]) + xm, -(xp.fsum(values[m - 1 - n:]) + xm)) for n in range(m))
               for xm in (0, -1 if j % 2 else 1))
    if j % 2:
        return zs, (0 * step,) * (m + 1)
    ring = sorted(range(m), key=lambda k: j * k % (2 * m))
    re, im = [xp.cos(step * k) for k in ring], [xp.sin(step * k) for k in ring]
    return zs, tuple(2.0 * xp.hypot(xp.fsum(re[:n]), xp.fsum(im[:n])) for n in range(m + 1))


@lru_cache(maxsize=1)    # the latest m only: callers go m by m
def _double_extremes(m: int) -> dict:
    """`_extremes` in doubles at the j < m dividing 2m, one per class gcd(j, 2m): a unit mod 2m maps j to any j' of
    its gcd, permutes k in Z/2m and fixes 0 and m, so the pair multiset, x^m's sign and the y-pair ring agree."""
    return {j: _extremes(math, m, j) for j in range(1, m) if 2 * m % j == 0}


def extremal_mu2(m: int, l1: int, l2: int) -> float:
    """Closed form for the frequency-2 eigenvalue magnitude of the extremal subset.

    With d = parity of l1 + l2:

        |sin(pi (l1 - 1 + d) / m) / sin(pi / m) + (1 - d)|
        + 2 sin(pi l2 / (2m)) / sin(pi / m)

    The outer absolute value only matters for window sizes comparable to m
    (where the centered window's cosine sum goes negative); in the small-l
    regime the first term is positive as-is.  Agrees with |z_2| + |w_2| of
    extremal_subset(m, l1, l2), from `spectra._block` at j = 2, whenever the
    removed windows fit inside the group.
    """
    check_split(m, l1, l2)
    return _peak_mu2(math, m, l1, l2)


def _peak_mu2(xp, n, l1, l2):
    """extremal_mu2's formula in the module xp: math, mpmath, or numpy (integer arrays too)."""
    delta = (l1 + l2) % 2
    s = xp.sin(xp.pi / n)
    return (
        abs(xp.sin(xp.pi * (l1 - 1 + delta) / n) / s + (1 - delta))
        + 2 * xp.sin(xp.pi * l2 / (2 * n)) / s
    )


def _gap(xp, n, l):
    """Peak eigenvalue at the maximizing split of covalency l minus the Ramanujan bound there."""
    return _peak_mu2(xp, n, *maximizing_split(l)) - 2 * xp.sqrt(4 * n - l - 1)


def gap_error_scale(t: int) -> float:
    """spectra.EPS times this bounds a double gap's error at t or below; see `spectra.at_or_below`."""
    return 64 * math.sqrt(t)


def maximizing_split(l: int | np.ndarray) -> SplitProfile:
    """The (l1, l2) split at which the closed-form eigenvalue peaks.

    l1 = (l + 2 (l mod 3)) // 3, less 2 when l = 5 (mod 6), and l2 = l - l1:
    l1 is about l / 3, has the parity of l, and leaves l2 even.  l is an int
    or an int64 array (arrays of l1 and l2 come back).
    """
    if (l < 3).any() if isinstance(l, np.ndarray) else l < 3:
        raise ValueError(f"no admissible split with positive l2 exists for l={l}")
    l1 = (l + 2 * (l % 3)) // 3 - 2 * (l % 6 == 5)
    return SplitProfile(l1, l - l1)


def _check_scope(p: int, route: str) -> None:
    """ValueError unless p is an odd prime >= MIN_EXCEPTIONAL_PRIME, the scope of both routes."""
    if p < MIN_EXCEPTIONAL_PRIME:
        raise ValueError(
            f"{route} classification is out of theorem scope for p={p} "
            f"(requires p >= {MIN_EXCEPTIONAL_PRIME})"
        )
    primes.check_odd_prime(p)


def is_exceptional_spectral(p: int) -> ExceptionalVerdict:
    """Classify p by comparing the critical eigenvalue against the Ramanujan bound.

    p is exceptional iff the peak eigenvalue at covalency l0 + 1 still sits
    at or below 2 sqrt(4p - l0 - 2), decided by `spectra.at_or_below`.
    """
    _check_scope(p, "spectral")
    l0 = trivial_bound(p)
    l = l0 + 1
    split = maximizing_split(l)
    lam = extremal_mu2(p, *split)
    bound = ramanujan_bound_at(p, l)
    exceptional = spectra.at_or_below(lam - bound, gap_error_scale(p), lambda: _gap_at_mp(p, l))
    witness = {
        "l1": split.l1,
        "l2": split.l2,
        "mu2_abs": lam,
        "ramanujan_bound": bound,
    }
    return ExceptionalVerdict(p, l0, "spectral", exceptional, witness)


def _gap_at_mp(n: int, l: int):
    """`_gap` at (n, l) as an mpf, at mpmath's working precision."""
    import mpmath

    return _gap(mpmath, n, l)


def asymptotic_coefficient(r: int, c: int) -> float:
    """Limit of k * gap along the family: (27 (r+3)^2 - 432 c - 256 pi^2) / 1296."""
    return (27 * (r + 3) ** 2 - 432 * c - 256 * math.pi**2) / 1296.0


# Last, so that every name `primes` imports from this module exists, whichever loads first.
from . import primes  # noqa: E402
