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
from types import SimpleNamespace

import numpy as np

from .subsets import CayleySubset, SigmaCounts

# The near-tie rule, `at_or_below`.
_MP_DPS = 50
EPS = sys.float_info.epsilon
DECISION_TOL = 1e-9
GROUP_TOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Full eigenvalue multiset: raw sorted values plus grouped multiplicities."""

    values: tuple[float, ...]                  # descending, length 4m
    entries: tuple[tuple[float, int], ...]     # (value, multiplicity) groups


def one_dim_eigenvalues(m: int, delta: int, counts: SigmaCounts) -> tuple[int, int, int, int]:
    """Eigenvalues of the four linear characters (integers), from the parity counts alone.

    The first is the degree |S|; the third and fourth depend on the parity
    of m because the character tables differ between odd and even m.
    """
    size_x, size_y = 2 * (counts.x_even + counts.x_odd) + delta, 2 * (counts.y_even + counts.y_odd)
    lam1, lam2 = size_x + size_y, size_x - size_y
    if m % 2 == 1:
        lam3 = lam4 = 2 * (counts.x_even - counts.x_odd) - delta
    else:
        base = 2 * (counts.x_even - counts.x_odd) + delta
        lam3 = base + 2 * (counts.y_even - counts.y_odd)
        lam4 = base - 2 * (counts.y_even - counts.y_odd)
    return lam1, lam2, lam3, lam4


def _block(xp, m, pairs, delta, ypairs, j):
    """(z_j, |w_j|) of the degree-2 block [[z_j, w_j], [conj(w_j), z_j]] at frequency j in [1, m-1].

    z_j = sum over pairs of 2 cos(pi j k1 / m) + delta (-1)^j; w_j vanishes for
    odd j and |w_j| = 2 |sum over y-pairs of e^(i pi j k2 / m)| for even j.  The
    block's eigenvalues are z_j +- |w_j|.  Sums are fully compensated (fsum) in
    the numeric module xp: math for doubles, mpmath at its working precision.
    With xp = NUMPY_ROWS, j is a column of frequencies of one parity and the
    sums come back as a column, one entry per frequency.
    """
    step = xp.pi * j / m
    z = xp.fsum(2.0 * xp.cos(step * k1) for k1 in pairs)
    odd = (j.flat[0] if isinstance(j, np.ndarray) else j) % 2
    if delta:
        z += -1.0 if odd else 1.0
    if odd:
        return z, 0.0 * step    # +0.0 (or mpf 0): step > 0
    re = xp.fsum(xp.cos(step * k2) for k2 in ypairs)
    im = xp.fsum(xp.sin(step * k2) for k2 in ypairs)
    return z, 2.0 * xp.hypot(re, im)


def _row_fsums(terms):
    """math.fsum along each row of the one (frequency x index) matrix in terms, as a column.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point summation, part I",
    2008) on rows of n entries |v| <= 2, with 2^b >= n + 2: at sigma = 2^(b+1), then 2^(b-53)
    times less per level, q = (rest + sigma) - sigma is rest on the grid sigma 2^-53 (twice that
    where rest >= 0), rest - q is exact and at most that grid, and q's row sum is exact in any
    order.  The three levels' row sums, integers below 2^53 on their grids, add up in one Python
    int, which rounds once to the nearest double, ties to even: fsum's correctly rounded result,
    +0.0 for an exact zero.  A row with a nonzero residue goes to math.fsum itself.
    """
    (matrix,) = terms
    b = (matrix.shape[1] + 1).bit_length()      # the least b with 2^b >= n + 2
    shift, sigma = 53 - b, 2.0 ** (b + 1)       # shift: bits from one level's grid to the next
    q, rest = np.empty_like(matrix), matrix
    level_sums = []
    for _ in range(3):
        np.add(rest, sigma, out=q)
        q -= sigma
        rest = np.subtract(rest, q, out=None if rest is matrix else rest)    # math.fsum may reread matrix
        level_sums.append((q.sum(axis=1) * (2.0 ** 53 / sigma)).astype(np.int64).tolist())
        sigma *= 2.0 ** -shift
    sums = [math.ldexp(float((a << 2 * shift) + (c << shift) + d), b - 52 - 2 * shift)
            for a, c, d in zip(*level_sums)]
    for i in np.flatnonzero(rest.any(axis=1)):
        sums[i] = math.fsum(matrix[i].tolist())
    return np.array(sums)[:, None]


def _hypots(re, im):
    """math.hypot entry by entry: np.hypot differs from it in the last bit."""
    return np.array(list(map(math.hypot, re.ravel().tolist(), im.ravel().tolist()))).reshape(re.shape)


# numpy as `_block`'s numeric module over a column of frequencies j: pairs and
# ypairs are each one row holding all of a subset's indices, so each sum is one
# (frequency x index) angle matrix, one np.cos or np.sin pass and one exact
# sum per row.  np.cos and np.sin return the C library's doubles, as math.cos
# and math.sin do (tests/test_spectra.py checks the spectra to the bit), so
# every value is the double that xp = math gives.
NUMPY_ROWS = SimpleNamespace(pi=np.pi, cos=np.cos, sin=np.sin, hypot=_hypots, fsum=_row_fsums)

# Angle-matrix entries per `_block` call of `_raw_values`: it takes the
# frequencies a block at a time, so it builds no array of O(m |S|) entries.
# Six l0 + 1 witness spectra (p = 503, 509, 523, 557, 563, 587) take 0.163,
# 0.123, 0.105, 0.096 and 0.121 s at 2^11 .. 2^15 entries (medians of 11,
# python 3.11, numpy 2.4, 2 vCPUs).  At 2^15 each temporary array is 256 KiB,
# above glibc's 128 KiB mmap threshold, and page faults take over.
BLOCK_ENTRIES = 1 << 14

# Below this many angles, (m - 1) (#pairs + #ypairs), numpy's fixed cost per
# spectrum (about 190 us) outweighs its saving per angle (about 0.2 us), so
# `_raw_values` takes the frequencies one at a time in math.  The two cross
# between 600 and 1,100 angles (python 3.11, numpy 2.4, 2 vCPUs).
MIN_BLOCK_ANGLES = 640


def _values(xp, subset: CayleySubset) -> list:
    """The 4 linear eigenvalues, then z_j + |w_j| and z_j - |w_j| of each block j, in the module xp.

    2m + 2 values: the spectrum as a set, each block value having multiplicity 2.
    """
    vals = list(one_dim_eigenvalues(subset.m, subset.delta, subset.sigma_counts()))
    blocks = (subset.m, subset.pair_bits, subset.delta, subset.ypair_bits)
    for j in range(1, subset.m):
        z, w = _block(xp, *blocks, j)
        vals += (z + w, z - w)
    return vals


@lru_cache(maxsize=1)
def _raw_values(subset: CayleySubset) -> tuple[float, ...]:
    """`_values` in doubles, to the bit; cached for the latest subset only (callers go one at a time).

    From MIN_BLOCK_ANGLES angles on, `_block` runs over NUMPY_ROWS, on the odd
    and then the even frequencies, BLOCK_ENTRIES // max(#pairs, #ypairs) of
    them (at least one) per call.
    """
    m = subset.m
    if (m - 1) * (len(subset.pair_bits) + len(subset.ypair_bits)) < MIN_BLOCK_ANGLES:
        return tuple(float(v) for v in _values(math, subset))
    pairs, ypairs = ([np.fromiter(b, float, len(b))] for b in (subset.pair_bits, subset.ypair_bits))
    width = 2 * max(1, BLOCK_ENTRIES // max(len(subset.pair_bits), len(subset.ypair_bits), 1))
    vals = np.empty(2 * m + 2)
    vals[:4] = one_dim_eigenvalues(m, subset.delta, subset.sigma_counts())
    for first in (1, 2):
        for lo in range(first, m, width):
            hi = min(lo + width, m)
            z, w = _block(NUMPY_ROWS, m, pairs, subset.delta, ypairs, np.arange(lo, hi, 2.0)[:, None])
            vals[2 * lo + 2:2 * hi + 2:4] = (z + w)[:, 0]     # block j's two values sit at 2j + 2 and 2j + 3
            vals[2 * lo + 3:2 * hi + 2:4] = (z - w)[:, 0]
    return tuple(vals.tolist())


def full_spectrum(subset: CayleySubset) -> Spectrum:
    """All 4m eigenvalues: each lambda_i once, each mu_j^+- twice.

    Values within 1e-9 of each other collapse into one multiplicity group;
    the raw list is kept for oracle comparisons.
    """
    raw = _raw_values(subset)
    vals = sorted(raw[:4] + 2 * raw[4:], reverse=True)
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
    best = max((abs(v) for v in vals if abs(abs(v) - degree) > DECISION_TOL), default=None)
    if best is None:
        raise ValueError("all eigenvalues have magnitude |S|; no non-trivial eigenvalue")
    return best


def ramanujan_bound(subset: CayleySubset) -> float:
    """2 sqrt(|S| - 1), the bound the non-trivial spectrum must stay under."""
    return 2.0 * math.sqrt(subset.size - 1)


def at_or_below(margin: float, scale: float, exact_margin) -> bool:
    """The one near-tie rule: is `margin` (value minus bound) at or below 0?

    EPS * scale bounds the forward error of the double `margin`, which
    decides when |margin| >= EPS * scale; inside, `exact_margin()` at _MP_DPS
    digits decides by its own mpf value, a margin up to mp.eps * scale (the
    same bound at the working precision) being a tie.  mpmath is imported
    there, at the first near tie, so a process that meets none never loads
    it.  Exact ties occur (lambda = 10 = 2 sqrt(25) at m = 9, mpf margin
    +2e-50), and a bare `<= 0` would put them above.  The callers' scales:
      * character sums (`sums_error_scale`): |S| (2 pi m + 4).  Angles
        pi j k / m < pi m take <= 4 roundings, so each of the <= |S| / 2 terms
        of z_j +- |w_j| is off by 4 pi m EPS + 1 ulp; the rest adds ulps of |S|;
      * closed-form gap (`bounds.gap_error_scale`): 64 sqrt(t).  Both sides
        are about 4 sqrt(t) after a dozen roundings of up to 4 ulps (numpy sin).
    Measured, the gap's error reaches 6.5 EPS sqrt(t) (4e-7 at t near 1e17).
    """
    if abs(margin) >= EPS * scale:
        return margin <= 0
    import mpmath

    with mpmath.workdps(_MP_DPS):
        return bool(exact_margin() <= mpmath.mp.eps * scale)


def sums_error_scale(m: int, size: int) -> float:
    """EPS times this bounds the error of a double eigenvalue or margin of S in Q_{4m} at |S| = size (`at_or_below`)."""
    return size * (2 * math.pi * m + 4)


def _margin_mp(subset: CayleySubset):
    """lambda(S) minus the Ramanujan bound, at mpmath's working precision."""
    import mpmath

    return _interior_max(_values(mpmath, subset), subset.size) - 2 * mpmath.sqrt(subset.size - 1)


def is_ramanujan(subset: CayleySubset) -> bool:
    """lambda(S) <= 2 sqrt(|S| - 1), decided by `at_or_below`.

    The inequalities between trigonometric sums and square roots can be
    genuinely tight, so near-ties are settled on the same sums in mpmath.
    """
    margin = lambda_max_nontrivial(subset) - ramanujan_bound(subset)
    return at_or_below(margin, sums_error_scale(subset.m, subset.size), lambda: _margin_mp(subset))
