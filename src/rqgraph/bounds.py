"""Safe-covalency bounds and the spectral exceptional-prime test.

The trivial bound l0 = floor(4 sqrt(m)) - 2 keeps every covalency up to it
Ramanujan.  The exact safe covalency decides each split by the closed-form
peak `_peak` of each frequency class g = gcd(j, 2m) < m.  "Exceptional"
primes keep the window-extremal subset at l0 + 1's maximizing split Ramanujan
(closed form); the restricted family (y-coset not full) can be worse (p = 73).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from . import spectra
from .group import generates_fast
from .subsets import FAMILY_ALL, SigmaCounts, check_split, covalency_splits, split_sizes

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
    box, so the others peak at `_even_counts`' corners and edge-neighbours.
    Its two-dim ones peak at max_j (max_P |z_j| + max_Y |w_j|), the `_peak`
    of each class g = gcd(j, 2m), decided by `spectra.at_or_below`.
    Non-generating sets (only above l = 2m) are kept: there the result bounds
    the generating ones.
    """
    delta, n_pairs, n_ypairs = split_sizes(m, l1, l2)
    if not generates_fast(m, range(1, n_pairs + 1), range(n_ypairs)):
        return None
    size = 4 * m - l1 - l2
    counts = [SigmaCounts(e, n_pairs - e, f, n_ypairs - f)
              for e in _even_counts(range(1, m), n_pairs) for f in _even_counts(range(m), n_ypairs)]
    one_dim = [abs(v) for c in counts for v in spectra.one_dim_eigenvalues(m, delta, c) if abs(v) != size]
    ramanujan = all(v * v <= 4 * (size - 1) for v in one_dim)
    peaks = {g: _peak(math, m, g, delta, n_pairs, n_ypairs) for g in range(1, m) if 2 * m % g == 0}
    worst = max(peaks.values(), default=0.0)     # 0.0 at m = 1, which has no degree-2 blocks
    scale = spectra.sums_error_scale(m, size)

    def exact_margin():
        import mpmath

        # each double peak is off by up to EPS * scale, worst too: the exact argmax is within twice that
        near = [g for g, peak in peaks.items() if peak >= worst - 2 * spectra.EPS * scale]
        return max(_peak(mpmath, m, g, delta, n_pairs, n_ypairs) for g in near) - 2 * mpmath.sqrt(size - 1)

    ramanujan &= spectra.at_or_below(worst - ramanujan_bound_at(m, l1 + l2), scale, exact_margin)
    return SplitWorst(float(max(one_dim + [worst])), ramanujan)


def _even_counts(indices: range, n: int) -> list[int]:
    """The end counts lo, hi - 1 and hi of even members over the n-element subsets of indices (step 1).

    lo + 1 never decides: lam3 and lam4 step by 4 in the even counts (e, f) of
    the N pairs and M >= 1 y-pairs, and reach +-|S| only at even m, at the
    corners (N, M), (N, 0) and, without x^m, (0, 0), (0, M).  Both neighbours
    of one give |S| - 4, and one is at hi - 1 except at (0, 0).  There, with
    x^m, N = 0 and lam2 = 1 - 2M is the largest odd |v| < |S|.  Without, all
    |v| are |S| mod 4; lo = 0 caps N and M at the odd indices, one more than
    the even ones among 1..m-1 and as many among 0..m-1, so hi >= N - 1 and
    hi = M, and lam4 at (N - 1, 0), or lam3 at (0, M - 1) if N = 0, is
    |S| - 4 (if M = 1, lo + 1 is hi).
    """
    evens = (indices.stop + 1) // 2 - (indices.start + 1) // 2
    lo, hi = max(0, n - (len(indices) - evens)), min(n, evens)
    return [lo, *range(max(lo + 1, hi - 1), hi + 1)]


def _peak(xp, m: int, g: int, delta: int, n_pairs: int, n_ypairs: int):
    """max |z_j| + max |w_j| over n_pairs pair and n_ypairs y-pair indices, x^m iff delta, at gcd(j, 2m) = g < m.

    In closed form, in the module xp (math or mpmath).  It depends on j only
    through g: a unit mod 2m maps j to any j' of its gcd, permutes k in Z/2m
    and fixes 0 and m, so the pair multiset, x^m's sign (-1)^g and the y-pair
    ring agree.  At j = g, M = 2m / g, the pair values 2 cos(2 pi k / M) fall
    in shells by the distance d of k mod M to 0: (g - 1) // 2 at d = 0, g at
    each 0 < d < M / 2, g // 2 at d = M / 2.  z_j is largest on the first
    shells (`_top_pairs`), smallest off the largest m - 1 - n_pairs, of total
    -1 - (-1)^g.  |w_j| (0 at odd g) is largest on the first n_ypairs points
    e^(2 pi i k / M) from angle 0, each root g / 2 times: a best set is an arc,
    and centred on angle 0, one with a <= g / 2 points at its first root,
    b <= g / 2 at its last and full roots of sum R between has |sum|^2 =
    (R + (a + b) cos t)^2 + ((b - a) sin t)^2, convex in a at fixed a + b, so
    a best arc starts (or, conjugated, ends) at a root, rotated to angle 0.
    The double is within 8 EPS m of the exact peak, inside EPS * `spectra.sums_error_scale`
    at |S| >= 2: each sine, of a whole multiple of pi / M reduced to [0, pi / 2],
    is off by a few ulps of its size, and no term it scales exceeds 2m.
    Measured: at most 2.1 EPS m at every argument for m <= 40.
    """
    M = 2 * m // g
    sign, unit = delta * (-1) ** g, _sin_pi(xp, 1, M)
    top = _top_pairs(xp, g, M, unit, n_pairs) + sign
    bottom = -1 - (-1) ** g - _top_pairs(xp, g, M, unit, m - 1 - n_pairs) + sign
    if g % 2:
        return max(top, -bottom)
    a, rem = divmod(n_ypairs, g // 2)       # |w_j| / 2 = |(g / 2) sum_{k < a} e^(2 pi i k / M) + rem e^(2 pi i a / M)|, turned by -(a - 1) pi / M
    re = g // 2 * _sin_pi(xp, a, M) / unit + rem * _sin_pi(xp, M - 2 * (a + 1), 2 * M)
    return max(top, -bottom) + 2 * xp.hypot(re, rem * _sin_pi(xp, a + 1, M))


def _top_pairs(xp, g: int, M: int, unit, n: int):
    """The sum of the n largest 2 cos(2 pi k / M), k = 1..gM/2 - 1, unit = sin(pi / M): whole shells, then rem of the next."""
    h0 = (g - 1) // 2
    if n <= h0:
        return 2 * n
    d, rem = divmod(n - h0, g)
    return 2 * h0 + g * (_sin_pi(xp, 2 * d + 1, M) / unit - 1) + 2 * rem * _sin_pi(xp, M - 4 * (d + 1), 2 * M)


def _sin_pi(xp, a: int, b: int):
    """sin(pi a / b) from a reduced to [0, b / 2], so that whole multiples of pi give exactly 0."""
    a %= 2 * b
    s = xp.sin(xp.pi * min(a % b, b - a % b) / b)
    return -s if a > b else s


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
