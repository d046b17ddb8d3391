"""Character-theoretic spectra of the Cayley graphs X(S) on Q_{4m}.

The 4m eigenvalues come from the four degree-1 characters (one eigenvalue
each) and the m-1 degree-2 representations (a conjugate pair mu_j^+-, each
counted twice).  Everything is evaluated as real cosine/sine sums; no complex
cancellation is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import mpmath

from .subsets import CayleySubset

# Verdicts closer to the Ramanujan bound than this are recomputed in
# extended precision before deciding the inequality.
NEAR_TIE_MARGIN = 1e-6
DECISION_TOL = 1e-9
GROUP_TOL = 1e-9
_MP_DPS = 50


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
    for even j.  Sums are fully compensated (math.fsum).
    """
    m = subset.m
    if not 1 <= j <= m - 1:
        raise ValueError(f"frequency j must be in [1, m-1], got j={j}, m={m}")
    step = math.pi * j / m
    z = math.fsum(2.0 * math.cos(step * k1) for k1 in subset.pair_bits)
    if subset.delta:
        z += -1.0 if j % 2 else 1.0
    if j % 2:
        w_abs = 0.0
    else:
        re = math.fsum(math.cos(step * k2) for k2 in subset.ypair_bits)
        im = math.fsum(math.sin(step * k2) for k2 in subset.ypair_bits)
        w_abs = 2.0 * math.hypot(re, im)
    return TwoDimEigenvalues(z, w_abs, z + w_abs, z - w_abs)


def mu_abs(subset: CayleySubset, j: int) -> float:
    """max(|mu_j^+|, |mu_j^-|), which equals |z_j| + |w_j|."""
    ev = two_dim_eigenvalues(subset, j)
    return max(abs(ev.plus), abs(ev.minus))


@lru_cache(maxsize=1)
def _raw_values(subset: CayleySubset) -> tuple[float, ...]:
    """The 4m eigenvalues, unsorted; cached for the latest subset only (callers go one at a time)."""
    vals = [float(v) for v in one_dim_eigenvalues(subset)]
    for j in range(1, subset.m):
        ev = two_dim_eigenvalues(subset, j)
        vals.extend((ev.plus, ev.plus, ev.minus, ev.minus))
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


def _lambda_max_nontrivial_mp(subset: CayleySubset):
    """Extended-precision re-evaluation of lambda_max_nontrivial."""
    m = subset.m
    vals = [mpmath.mpf(v) for v in one_dim_eigenvalues(subset)]
    for j in range(1, m):
        step = mpmath.pi * j / m
        z = mpmath.fsum(2 * mpmath.cos(step * k1) for k1 in subset.pair_bits)
        if subset.delta:
            z += -1 if j % 2 else 1
        if j % 2:
            w = mpmath.mpf(0)
        else:
            re = mpmath.fsum(mpmath.cos(step * k2) for k2 in subset.ypair_bits)
            im = mpmath.fsum(mpmath.sin(step * k2) for k2 in subset.ypair_bits)
            w = 2 * mpmath.sqrt(re * re + im * im)
        vals.extend((z + w, z - w))
    return _interior_max(vals, subset.size)


def is_ramanujan(subset: CayleySubset) -> bool:
    """lambda(S) <= 2 sqrt(|S| - 1), with near-ties settled in high precision.

    The double-precision verdict stands when the margin is comfortable;
    within NEAR_TIE_MARGIN of the bound the comparison is redone with mpmath
    because the underlying inequalities between trigonometric sums and square
    roots can be genuinely tight.
    """
    lam = lambda_max_nontrivial(subset)
    bound = ramanujan_bound(subset)
    if abs(lam - bound) >= NEAR_TIE_MARGIN:
        return lam <= bound
    with mpmath.workdps(_MP_DPS):
        lam_mp = _lambda_max_nontrivial_mp(subset)
        bound_mp = 2 * mpmath.sqrt(subset.size - 1)
        return bool(lam_mp - bound_mp <= mpmath.mpf("1e-30"))
