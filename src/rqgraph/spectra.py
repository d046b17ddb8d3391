"""Character-theoretic spectra of the Cayley graphs X(S) on Q_{4m}.

The 4m eigenvalues come from the four degree-1 characters (one eigenvalue
each) and the m-1 degree-2 representations (a conjugate pair mu_j^+-, each
counted twice).  Everything is evaluated as real cosine/sine sums; no complex
cancellation is involved.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import mpmath

from .subsets import CayleySubset

# The near-tie rule, `at_or_below`.
NEAR_TIE_MARGIN = 1e-6
TIE_TOL = 1e-30
_MP_DPS = 50
EPS = sys.float_info.epsilon
DECISION_TOL = 1e-9
GROUP_TOL = 1e-9


class TwoDimEigenvalues(NamedTuple):
    """Eigenvalue data of one degree-2 block [[z, w], [conj(w), z]]."""

    diag: float          # z_j, real cosine sum over the <x> part
    offdiag_abs: float   # |w_j|, zero for odd j
    plus: float          # z_j + |w_j|
    minus: float         # z_j - |w_j|


@dataclass(frozen=True)
class Spectrum:
    """Full eigenvalue multiset: raw sorted values plus grouped multiplicities."""

    values: tuple[float, ...]                  # descending, length 4m
    entries: tuple[tuple[float, int], ...]     # (value, multiplicity) groups

    @property
    def order(self) -> int:
        return len(self.values)


def one_dim_eigenvalues(subset: CayleySubset) -> tuple[int, int, int, int]:
    """Eigenvalues of the four linear characters (integers).

    The first is the degree |S|; the third and fourth depend on the parity
    of m because the character tables differ between odd and even m.
    """
    sc = subset.sigma_counts()
    delta = subset.delta
    lam1 = subset.size
    lam2 = subset.size_x - subset.size_y
    if subset.m % 2 == 1:
        lam3 = lam4 = 2 * (sc.x_even - sc.x_odd) - delta
    else:
        base = 2 * (sc.x_even - sc.x_odd) + delta
        lam3 = base + 2 * (sc.y_even - sc.y_odd)
        lam4 = base - 2 * (sc.y_even - sc.y_odd)
    return lam1, lam2, lam3, lam4


def two_dim_eigenvalues(subset: CayleySubset, j: int) -> TwoDimEigenvalues:
    """Eigenvalues of the degree-2 block at frequency j in [1, m-1].

    z_j = sum over pairs of 2 cos(pi j k1 / m) + delta (-1)^j; the off-diagonal
    term w_j vanishes for odd j and is 2 |sum over y-pairs of e^(i pi j k2 / m)|
    for even j.  Sums are fully compensated (fsum), in `_block`.
    """
    m = subset.m
    if not 1 <= j <= m - 1:
        raise ValueError(f"frequency j must be in [1, m-1], got j={j}, m={m}")
    z, w_abs = _block(math, subset, j)
    return TwoDimEigenvalues(z, w_abs, z + w_abs, z - w_abs)


def _block(xp, subset: CayleySubset, j: int):
    """(z_j, |w_j|) in the numeric module xp: math for doubles, mpmath at its working precision."""
    step = xp.pi * j / subset.m
    z = xp.fsum(2.0 * xp.cos(step * k1) for k1 in subset.pair_bits)
    if subset.delta:
        z += -1.0 if j % 2 else 1.0
    if j % 2:
        return z, 0.0 * step    # +0.0 (or mpf 0): step > 0
    re = xp.fsum(xp.cos(step * k2) for k2 in subset.ypair_bits)
    im = xp.fsum(xp.sin(step * k2) for k2 in subset.ypair_bits)
    return z, 2.0 * xp.hypot(re, im)


def mu_abs(subset: CayleySubset, j: int) -> float:
    """max(|mu_j^+|, |mu_j^-|), which equals |z_j| + |w_j|."""
    ev = two_dim_eigenvalues(subset, j)
    return max(abs(ev.plus), abs(ev.minus))


@lru_cache(maxsize=1)
def _raw_values(subset: CayleySubset) -> tuple[float, ...]:
    """The 4m eigenvalues, unsorted; cached for the latest subset only (callers go one at a time)."""
    vals = [float(v) for v in one_dim_eigenvalues(subset)]
    for j in range(1, subset.m):
        z, w = _block(math, subset, j)
        vals += (z + w, z + w, z - w, z - w)
    return tuple(vals)


def full_spectrum(subset: CayleySubset) -> Spectrum:
    """All 4m eigenvalues: each lambda_i once, each mu_j^+- twice.

    Values within 1e-9 of each other collapse into one multiplicity group;
    the raw list is kept for oracle comparisons.
    """
    vals = sorted(_raw_values(subset), reverse=True)
    entries: list[tuple[float, int]] = []
    anchor = None
    for v in vals:
        if anchor is not None and abs(v - anchor) <= GROUP_TOL:
            value, mult = entries[-1]
            entries[-1] = (value, mult + 1)
        else:
            entries.append((v, 1))
            anchor = v
    return Spectrum(tuple(vals), tuple(entries))


def lambda_max_nontrivial(subset: CayleySubset) -> float:
    """Largest |eigenvalue| after dropping all eigenvalues of magnitude |S|.

    Both +|S| and -|S| are excluded (the bipartite-style convention), so a
    bipartite Cayley graph is judged on its interior spectrum only.
    """
    return _interior_max(_raw_values(subset), subset.size)


def _interior_max(vals, degree):
    """Largest |v| over the values whose magnitude is not the degree."""
    best = None
    for v in vals:
        if abs(abs(v) - degree) <= DECISION_TOL:
            continue
        a = abs(v)
        if best is None or a > best:
            best = a
    if best is None:
        raise ValueError("all eigenvalues have magnitude |S|; no non-trivial eigenvalue")
    return best


def ramanujan_bound(subset: CayleySubset) -> float:
    """2 sqrt(|S| - 1), the bound the non-trivial spectrum must stay under."""
    return 2.0 * math.sqrt(subset.size - 1)


def tie_window(scale: float) -> float:
    """Half-width of the near-tie window for a margin of error scale `scale`."""
    return max(NEAR_TIE_MARGIN, EPS * scale)


def at_or_below(margin: float, scale: float, exact_margin) -> bool:
    """The one near-tie rule: is `margin` (value minus bound) at or below 0?

    EPS * scale bounds the forward error of the double `margin`.  Outside
    tie_window(scale) the double decides; inside, `exact_margin()` at _MP_DPS
    digits decides by its own mpf value, a margin up to TIE_TOL being a tie:
    exact ties occur (lambda = 10 = 2 sqrt(25) at m = 9, mpf margin +2e-50),
    and a bare `<= 0` would put them above.  The callers' scales:
      * character sums (`sums_error_scale`): |S| (2 pi m + 4).  Angles
        pi j k / m < pi m take <= 4 roundings, so each of the <= |S| / 2 terms
        of z_j +- |w_j| is off by 4 pi m EPS + 1 ulp; the rest adds ulps of |S|;
      * closed-form gap (`bounds.gap_error_scale`): 64 sqrt(t).  Both sides
        are about 4 sqrt(t) after a dozen roundings of up to 4 ulps (numpy sin).
    Measured, the gap's error reaches 6.5 EPS sqrt(t) (4e-7 at t near 1e17).
    The window passes 1e-6 only for m |S| above 7e8 or t above 5e15.
    """
    if abs(margin) >= tie_window(scale):
        return margin <= 0
    with mpmath.workdps(_MP_DPS):
        return bool(exact_margin() <= TIE_TOL)


def sums_error_scale(subset: CayleySubset) -> float:
    """EPS times this bounds the error of a double eigenvalue or margin of subset (see `at_or_below`)."""
    return subset.size * (2 * math.pi * subset.m + 4)


def _margin_mp(subset: CayleySubset):
    """lambda(S) minus the Ramanujan bound, at mpmath's working precision."""
    vals = list(one_dim_eigenvalues(subset))
    for j in range(1, subset.m):
        z, w = _block(mpmath, subset, j)
        vals += (z + w, z - w)
    return _interior_max(vals, subset.size) - 2 * mpmath.sqrt(subset.size - 1)


def is_ramanujan(subset: CayleySubset) -> bool:
    """lambda(S) <= 2 sqrt(|S| - 1), decided by `at_or_below`.

    The inequalities between trigonometric sums and square roots can be
    genuinely tight, so near-ties are settled on the same sums in mpmath.
    """
    margin = lambda_max_nontrivial(subset) - ramanujan_bound(subset)
    return at_or_below(margin, sums_error_scale(subset), lambda: _margin_mp(subset))
