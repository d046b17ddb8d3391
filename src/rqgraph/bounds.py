"""Safe-covalency bounds and the spectral exceptional-prime test.

The trivial bound l0 = floor(4 sqrt(m)) - 2 guarantees the Ramanujan property
for every covalency up to it.  At l0 + 1, primes whose closed-form eigenvalue
stays under the Ramanujan bound are the "exceptional" ones.  It is that of the
window-extremal subset at the maximizing split, which need not be the worst
member of the restricted family (y-coset not full): p = 73 has a worse one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from typing import NamedTuple, Optional

import numpy as np

from . import spectra
from .group import gcd_class
from .subsets import FAMILY_ALL, CayleySubset, check_split, covalency_splits, split_sizes

EXACT_SCAN_MAX_M = 20
_SCAN_CHUNK = 1 << 14    # index sets per numpy pass of the exhaustive scan; bounds its memory
MIN_EXCEPTIONAL_PRIME = 67     # theorem scope of both classification routes
_MAX_GAP_K = 1 << 28    # keeps 36 k^2 + 3 (r + 3) k + c inside int64


class SplitWorst(NamedTuple):
    """The worst generating member of one covalency split."""

    lam: float          # largest lambda_max_nontrivial among the members
    ramanujan: bool     # every member is Ramanujan


class SplitProfile(NamedTuple):
    """The covalency split (l1, l2) maximizing the closed-form eigenvalue."""

    l1: int
    l2: int


@dataclass(frozen=True)
class ExceptionalVerdict:
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

    Exhaustive: decides every generating subset at covalencies 1, 2, ...,
    one split at a time by its worst member (`split_worst`), and stops at
    the first covalency carrying a non-Ramanujan graph; returns the largest
    achievable covalency before it.  Empty covalencies are vacuously safe.
    Capped at m <= EXACT_SCAN_MAX_M, where one family takes about a second.
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
                return last_achievable
            empty = False
        if not empty:
            last_achievable = l
    return last_achievable


def split_worst(m: int, l1: int, l2: int) -> Optional[SplitWorst]:
    """The worst generating member of the split (l1, l2); None when no member generates.

    A member is a set P of pair indices and a set Y of y-pair indices, of the
    sizes `split_sizes` gives.  It generates iff its classes
    g_P = gcd_class(m, P) and g_Y = gcd_class(m, Y, min Y) are coprime.  Its
    non-trivial eigenvalues are the one-dim integers, fixed by the counts of
    even indices in P and in Y, and |z_j(P)| + |w_j(Y)| for j = 1..m-1.  So
    the two-dim peak over the members of one coprime class pair is
    max_j (max_P |z_j| + max_Y |w_j|), at O((#P + #Y) m) cost, and one
    representative per (class, even count) gives every one-dim value.  The
    one-dim values are decided exactly, v^2 against 4 (|S| - 1); the two-dim
    peak by `spectra.at_or_below`.
    """
    delta, n_pairs, n_ypairs = split_sizes(m, l1, l2)
    pairs = _side(m, n_pairs, delta, False)
    ypairs = _side(m, n_ypairs, 0, True)
    classes = [(a, b) for a in pairs.maxima for b in ypairs.maxima if math.gcd(a, b) == 1]
    if not classes:
        return None
    members = {}
    for (a, xe), p in pairs.reps.items():
        for (b, ye), y in ypairs.reps.items():
            if math.gcd(a, b) == 1:
                members.setdefault((xe, ye), (p, y))
    subsets = [CayleySubset(m, frozenset(p), delta, frozenset(y)) for p, y in members.values()]
    size = subsets[0].size
    one_dim = [v for s in subsets for v in spectra.one_dim_eigenvalues(s)]
    ramanujan = all(v * v <= 4 * (size - 1) for v in one_dim if abs(v) != size)
    peaks = np.array([pairs.maxima[a] + ypairs.maxima[b] for a, b in classes])
    worst = float(peaks.max(initial=0.0))     # 0.0 at m = 1, which has no degree-2 blocks
    scale = spectra.sums_error_scale(subsets[0])
    window = spectra.tie_window(scale)

    def exact_margin():
        import mpmath

        # The member at the exact peak has double |z_j| and |w_j| within twice
        # their error of its class maxima, far inside the window; so every set
        # within the window of its class maximum, at every j whose double peak
        # is within the window, is evaluated in mpmath, the two sides apart.
        best = max(
            max(abs(spectra._block(mpmath, m, p, delta, (), j)[0])
                for p in _near(m, n_pairs, delta, False, a, j, pairs.maxima[a][j - 1] - window))
            + max(spectra._block(mpmath, m, (), 0, y, j)[1]
                  for y in _near(m, n_ypairs, 0, True, b, j, ypairs.maxima[b][j - 1] - window))
            for (a, b), row in zip(classes, peaks)
            for j, peak in enumerate(row.tolist(), 1) if peak >= worst - window
        )
        return best - 2 * mpmath.sqrt(size - 1)

    ramanujan &= spectra.at_or_below(worst - spectra.ramanujan_bound(subsets[0]), scale, exact_margin)
    return SplitWorst(float(spectra._interior_max(one_dim + [worst], size)), ramanujan)


class _Side(NamedTuple):
    """One side of a split, over all its index sets: pair sets, or y-pair sets."""

    maxima: dict    # gcd class -> max over the class's sets of |z_j| (pairs) or |w_j| (y-pairs), j = 1..m-1
    reps: dict      # (gcd class, count of even indices) -> one index set


@lru_cache(maxsize=4 * EXACT_SCAN_MAX_M)     # every side of one m
def _side(m: int, n: int, delta: int, ypairs: bool) -> _Side:
    """Per-class maxima and representatives of the n-element pair (or y-pair) index sets."""
    maxima, reps = {}, {}
    for sets, classes, values, evens in _chunks(m, n, delta, ypairs):
        for g in set(classes):
            top = values[np.equal(classes, g)].max(axis=0)
            maxima[g] = np.maximum(maxima[g], top) if g in maxima else top
        reps.update(zip(zip(classes, evens), sets))
    return _Side(maxima, reps)


def _near(m, n, delta, ypairs, g, j, floor):
    """The index sets of class g whose |z_j| (|w_j|) is at least floor."""
    for sets, classes, values, _ in _chunks(m, n, delta, ypairs):
        for s, c, v in zip(sets, classes, values[:, j - 1].tolist()):
            if c == g and v >= floor:
                yield s


def _chunks(m, n, delta, ypairs):
    """All n-element pair (or y-pair) index sets, _SCAN_CHUNK at a time.

    Yields the sets, their gcd classes, their |z_j| (|w_j|) for j = 1..m-1
    from `spectra._block` on index columns, and their counts of even indices.
    """
    sets_iter = combinations(range(0 if ypairs else 1, m), n)
    while sets := list(islice(sets_iter, _SCAN_CHUNK)):
        index = np.array(sets, dtype=np.int64).reshape(len(sets), n)
        cols = index.T
        classes = [gcd_class(m, s, s[0] if ypairs else 0) for s in sets]
        values = np.empty((len(sets), m - 1))
        for j in range(1, m):
            if ypairs:
                values[:, j - 1] = spectra._block(spectra.NUMPY_SUMS, m, (), 0, cols, j)[1]
            else:
                values[:, j - 1] = abs(spectra._block(spectra.NUMPY_SUMS, m, cols, delta, (), j)[0])
        yield sets, classes, values, (index % 2 == 0).sum(axis=1).tolist()


def extremal_mu2(m: int, l1: int, l2: int) -> float:
    """Closed form for the frequency-2 eigenvalue magnitude of the extremal subset.

    With d = parity of l1 + l2:

        |sin(pi (l1 - 1 + d) / m) / sin(pi / m) + (1 - d)|
        + 2 sin(pi l2 / (2m)) / sin(pi / m)

    The outer absolute value only matters for window sizes comparable to m
    (where the centered window's cosine sum goes negative); in the small-l
    regime the first term is positive as-is.  Agrees with
    mu_abs(extremal_subset(m, l1, l2), 2) whenever the removed windows fit
    inside the group.
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
    from .primes import check_odd_prime

    if p < MIN_EXCEPTIONAL_PRIME:
        raise ValueError(
            f"{route} classification is out of theorem scope for p={p} "
            f"(requires p >= {MIN_EXCEPTIONAL_PRIME})"
        )
    check_odd_prime(p)


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


# -- the interpolating gap function ------------------------------------------


def interpolated_gap(r: int, c: int, k: int | np.ndarray) -> float | np.ndarray:
    """Peak eigenvalue minus Ramanujan bound, interpolated along one family.

    Evaluated at t = 36 k^2 + 3 (r + 3) k + c with covalency l = 24 k + r + 1
    and the maximizing split for that l.  Its sign matches the sign of the
    exceptionality margin whenever t is prime.  k is an int (a float comes
    back) or an int64 array (an array of gaps comes back, one numpy pass).
    """
    g = _gap(np, *_gap_arguments(r, c, k))
    return float(g) if g.ndim == 0 else g


def _gap_arguments(r, c, k):
    """(t, l) of the interpolated gap at k, an int or an int64 array."""
    if not 0 <= r <= 23:
        raise ValueError(f"family residue r must be in [0, 23], got {r}")
    k = np.asarray(k, dtype=np.int64)
    if np.any((k < 1) | (k > _MAX_GAP_K)):
        raise ValueError(f"k must be in [1, {_MAX_GAP_K}], got {k}")
    return 36 * k * k + 3 * (r + 3) * k + c, 24 * k + r + 1


def _gap_mp(r: int, c: int, k: int):
    """The interpolated gap at a scalar k as an mpf, at mpmath's working precision."""
    return _gap_at_mp(*(int(v) for v in _gap_arguments(r, c, k)))


def _gap_at_mp(n: int, l: int):
    """`_gap` at (n, l) as an mpf, at mpmath's working precision."""
    import mpmath

    return _gap(mpmath, n, l)


def asymptotic_coefficient(r: int, c: int) -> float:
    """Limit of k * gap along the family: (27 (r+3)^2 - 432 c - 256 pi^2) / 1296."""
    return (27 * (r + 3) ** 2 - 432 * c - 256 * math.pi**2) / 1296.0
