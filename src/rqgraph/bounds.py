"""Safe-covalency bounds and the spectral exceptional-prime test.

The trivial bound l0 = floor(4 sqrt(m)) - 2 guarantees the Ramanujan property
for every covalency up to it.  Whether covalency l0 + 1 is still safe for the
restricted family (y-coset not full) is decided by a single closed-form
eigenvalue, evaluated at the maximizing covalency split; primes where it
stays under the Ramanujan bound are the "exceptional" ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import mpmath
import numpy as np

from . import spectra
from .subsets import FAMILY_ALL, check_split, enumerate_family

EXACT_SCAN_MAX_M = 12
MIN_EXCEPTIONAL_PRIME = 67     # theorem scope of both classification routes
_MAX_GAP_K = 1 << 28    # keeps 36 k^2 + 3 (r + 3) k + c inside int64


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

    Exhaustive: enumerates every generating subset at covalencies 1, 2, ...
    and stops at the first covalency carrying a non-Ramanujan graph; returns
    the largest achievable covalency before it.  Empty covalencies are
    vacuously safe.  Feasible only for small m, hence the hard cap.
    """
    if m > EXACT_SCAN_MAX_M:
        raise ValueError(f"exhaustive scan capped at m <= {EXACT_SCAN_MAX_M}, got {m}")
    last_achievable = 0
    for l in range(1, 4 * m):
        empty = True
        for subset in enumerate_family(m, l, family):
            empty = False
            if not spectra.is_ramanujan(subset):
                return last_achievable
        if not empty:
            last_achievable = l
    return last_achievable


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
    from .primes import is_prime

    if p < MIN_EXCEPTIONAL_PRIME:
        raise ValueError(
            f"{route} classification is out of theorem scope for p={p} "
            f"(requires p >= {MIN_EXCEPTIONAL_PRIME})"
        )
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


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
    exceptional = spectra.at_or_below(lam - bound, gap_error_scale(p), lambda: _gap(mpmath, p, l))
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
    return _gap(mpmath, *(int(v) for v in _gap_arguments(r, c, k)))


def asymptotic_coefficient(r: int, c: int) -> float:
    """Limit of k * gap along the family: (27 (r+3)^2 - 432 c - 256 pi^2) / 1296."""
    return (27 * (r + 3) ** 2 - 432 * c - 256 * math.pi**2) / 1296.0
