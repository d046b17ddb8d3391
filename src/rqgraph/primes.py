"""Arithmetic route to exceptional primes: quadratic families and their data.

An odd prime p determines l0 = floor(4 sqrt(p)) - 2 = 24 k + r, which places
p inside one window of the family polynomial

    f_{r,c}(x) = 36 x^2 + 3 (r + 3) x + c.

p is exceptional exactly when its window coordinates (r, c, k) hit one of the
54 admissible (r, c) pairs with k at or beyond that pair's threshold.  This
module derives the candidate constants, the thresholds, the per-family prime
scans and counts, and the Hardy-Littlewood density constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import MIN_EXCEPTIONAL_PRIME, ExceptionalVerdict, _check_scope, _gap, _gap_at_mp
from .bounds import gap_error_scale, trivial_bound
from .spectra import EPS, at_or_below

# (limit, witnesses): strong-pseudoprime witnesses proving primality for every
# odd n below the limit, by the size of n (Pomerance, Selfridge and Wagstaff
# 1980; Jaeschke, Math. Comp. 61, 1993; Sinclair's seven bases up to 2^64).
# Each limit is itself a strong pseudoprime to its row's witnesses, and every
# witness is below the smallest n that reaches its row (n >= 66,049 there).
_MR_ROWS = (
    (1_373_653, (2, 3)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
)
_MR_LIMIT = _MR_ROWS[-1][0]

# The 53 odd primes below 256; one gcd with their product decides every odd n < 257^2.
_SMALL_PRIMES = frozenset({3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
                           101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
                           193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251})
_SMALL_PRIME_PRODUCT = math.prod(_SMALL_PRIMES)

THRESHOLD_SCAN_HORIZON = 10_000

# Bounds the family sieve's memory: it holds about sqrt(x_max) / 6 values per
# family (all 54 families peak at 271 MB resident at 10^14).  Its sieving
# primes q <= sqrt(x_max) stay below 2^24, so products of two residues mod q
# fit in int64, and int32 holds `_roots`' roots and sieve indices.
X_MAX_LIMIT = 10**14

# The truncation of the pinned Hardy-Littlewood products `_HL_PRODUCTS`: the
# primes 5 <= p <= PRIME_BOUND.  table2's JSON reports it.
PRIME_BOUND = 10**7


@dataclass(frozen=True)
class PrimeFamily:
    r: int
    c: int
    reduced_discriminant: int   # (r+3)^2 - 16c; the full discriminant is 9x this
    k_threshold: int

    def value(self, k: int | np.ndarray) -> int | np.ndarray:
        return 36 * k * k + 3 * (self.r + 3) * k + self.c


@dataclass(frozen=True)
class FamilyReport:
    family: PrimeFamily
    x_max: int
    first_primes: tuple[int, ...]
    count: int
    window_mismatches: int      # primes f(k) whose l0 failed the 24k + r check


def is_prime(n: int) -> bool:
    """Exact: one gcd with the odd primes below 256 for n < 257^2, Miller-Rabin below 2^64, else ValueError."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"primality is proven only below 2^64, got {n}")
    if n % 2 == 0:
        return n == 2
    if (g := math.gcd(n, _SMALL_PRIME_PRODUCT)) != 1 or n < 257 ** 2:    # the screen is complete here
        return g == 1 or n in _SMALL_PRIMES
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in next(witnesses for limit, witnesses in _MR_ROWS if n < limit):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_odd_prime(p: int) -> None:
    """ValueError unless p is an odd prime."""
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def hardy_littlewood_admissible(a: int, b: int, c: int) -> bool:
    """Conditions under which a x^2 + b x + c is conjectured prime-rich.

    Positive leading coefficient, coprime coefficients, values not all even,
    and non-square discriminant.
    """
    if a <= 0:
        return False
    if math.gcd(math.gcd(a, b), c) != 1:
        return False
    if (a + b) % 2 == 0 and c % 2 == 0:
        return False
    disc = b * b - 4 * a * c
    return not _is_square(disc)


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


@lru_cache(maxsize=None)
def candidate_constants(r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The six sliding constants for residue r, and the survivors.

    c survives when 36 x^2 + 3(r+3) x + c is `hardy_littlewood_admissible`:
    coprime coefficients and a non-square discriminant, so it is irreducible
    over the integers and its large values are not all composite.
    """
    if not 0 <= r <= 23:
        raise ValueError(f"r must be in [0, 23], got {r}")
    top = (r + 3) ** 2 // 16
    candidates = tuple(top + s for s in range(-5, 1))
    return candidates, tuple(c for c in candidates if hardy_littlewood_admissible(36, 3 * (r + 3), c))


def derive_k_threshold(r: int, c: int) -> int:
    """Smallest k with f(k) >= 67 and an interpolated gap at or below 0.

    The classification claims the condition then persists for every larger k;
    that monotone switch is verified up to a fixed horizon and an
    inconsistency raises (it would mean either a bug or a broken premise).
    Gaps within EPS * scale of 0 go through `spectra.at_or_below`, with
    scale the error scale of the largest f(k) in the scan.
    """
    _, allowed = candidate_constants(r)
    if c not in allowed:
        raise ValueError(f"c={c} is not an admissible constant for r={r}")
    ks = np.arange(1, THRESHOLD_SCAN_HORIZON + 1)
    values, l = 36 * ks * ks + 3 * (r + 3) * ks + c, 24 * ks + r + 1     # f(k) and its covalency l0 + 1
    gap = _gap(np, values, l)
    scale = gap_error_scale(int(values[-1]))
    holds = gap <= 0
    for i in np.flatnonzero(np.abs(gap) < EPS * scale).tolist():
        holds[i] = at_or_below(float(gap[i]), scale, lambda: _gap_at_mp(int(values[i]), int(l[i])))
    holds &= values >= MIN_EXCEPTIONAL_PRIME
    if not holds.any():
        raise ArithmeticError(f"no threshold found for (r={r}, c={c}) within the horizon")
    first = int(np.argmax(holds))
    broken = np.flatnonzero(~holds[first:])
    if broken.size:
        raise ArithmeticError(
            f"threshold condition for (r={r}, c={c}) broke at k={ks[first + broken[0]]} "
            f"after first holding at k={ks[first]}"
        )
    return int(ks[first])


@lru_cache(maxsize=None)
def family(r: int, c: int) -> PrimeFamily:
    return PrimeFamily(r, c, (r + 3) ** 2 - 16 * c, derive_k_threshold(r, c))


def all_families() -> list[PrimeFamily]:
    """The full table of admissible (r, c) families, ordered by (r, c)."""
    out = []
    for r in range(24):
        _, allowed = candidate_constants(r)
        for c in allowed:
            out.append(family(r, c))
    return out


def window_coordinates(p: int) -> tuple[int, int, int]:
    """(r, c, k) with l0(p) = 24k + r and p = 36 k^2 + 3 (r+3) k + c."""
    l0 = trivial_bound(p)
    k, r = divmod(l0, 24)
    c = p - 36 * k * k - 3 * (r + 3) * k
    return r, c, k


def is_exceptional_arithmetic(p: int) -> ExceptionalVerdict:
    """Classify p by its window coordinates against the family table."""
    _check_scope(p, "arithmetic")
    r, c, k = window_coordinates(p)
    l0 = 24 * k + r
    _, allowed = candidate_constants(r)
    exceptional = c in allowed and k >= family(r, c).k_threshold
    witness = {"r": r, "c": c, "k": k}
    return ExceptionalVerdict(p, l0, "arithmetic", exceptional, witness)


def family_primes(r: int, c: int, x_max: int, k_min: int | None = None) -> FamilyReport:
    """Scan one family for primes f(k) <= x_max that sit in their own window.

    Counts, and reports the first 5 of, the k >= k_min (default: the family
    threshold) where f(k) is prime and l0(f(k)) = 24 k + r.  Primes failing
    the window check are counted separately; it should never fail for admissible c.
    Primality comes from the exact sieve `_sieve_family`, not from `is_prime`.
    """
    _check_x_max(x_max)
    fam = family(r, c)
    if k_min is None:
        k_min = fam.k_threshold
    if k_min < 0:
        raise ValueError(f"k_min must be >= 0, got {k_min}")
    ks, values = _sieve_family(fam, k_min, x_max)
    # l0(v) = isqrt(16 v) - 2 equals l exactly when (l + 2)^2 <= 16 v < (l + 3)^2
    l = 24 * ks + r
    in_window = ((l + 2) ** 2 <= 16 * values) & (16 * values < (l + 3) ** 2)
    first = values[in_window][:5].tolist()
    return FamilyReport(fam, x_max, tuple(first), int(in_window.sum()), int((~in_window).sum()))


def _check_x_max(x_max: int) -> None:
    if x_max < 0:
        raise ValueError(f"x_max must be >= 0, got {x_max}")
    if x_max > X_MAX_LIMIT:
        raise ValueError(f"x_max must be <= 10^14, got {x_max}")


# -- the family sieve -----------------------------------------------------------


def _odd_primes_from_5(bound: int):
    """The primes 5 <= p <= bound, ascending, as int64: a sieve of the odd numbers, entry i for 2i + 1."""
    sieve = np.ones((bound + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if sieve[i]:
            sieve[2 * i * (i + 1) :: 2 * i + 1] = False      # from (2i + 1)^2
    sieve[:2] = False       # 1 and 3
    return 2 * np.flatnonzero(sieve) + 1


def _powmod(base, exp, q):
    """base^exp mod q elementwise, for int64 arrays (base may be an int) with 0 <= exp and q < 2^24."""
    result = np.ones_like(q)
    base = base % q
    exp = exp.copy()
    while exp.any():
        result = np.where(exp & 1, result * base % q, result)
        base = base * base % q
        exp >>= 1
    return result


def _chi(d: int, q):
    """The Legendre symbols (d/q), d != 0, over an int64 array of odd primes q.

    By quadratic reciprocity (d/q) depends only on q mod 4|d|, so Euler's
    criterion runs once per class present, on any one of its primes.  A class
    holding a q | d holds only that q, and Euler gives 0 there.
    """
    cls = q % (4 * abs(d))
    rep = np.zeros(4 * abs(d), dtype=np.int64)
    rep[cls] = q
    present = np.flatnonzero(rep)
    euler = _powmod(d, rep[present] // 2, rep[present])
    rep[present] = np.where(euler == rep[present] - 1, -1, euler)
    return rep.astype(np.int8)[cls]


@lru_cache(maxsize=4)
def _sieve_table(bound: int):
    """The primes 5 <= q <= bound and what `_roots` needs of each.

    q, 24^-1 mod q, S and Q with q - 1 = Q 2^S and Q odd, and g: where
    S >= 2, g = z^Q for the least quadratic non-residue z mod q, so that g
    has order 2^S; where S = 1, which Tonelli-Shanks never reads, g = 1.
    Shared by every family sieved up to the same bound.
    """
    q = _odd_primes_from_5(bound)
    inv24 = (1 + q * (-q % 24)) // 24        # as q^2 = 1 (mod 24) for q >= 5
    s_exp = np.log2((q - 1) & (1 - q)).astype(np.int64)
    odd = (q - 1) >> s_exp
    two = np.flatnonzero(s_exp >= 2)
    z, todo, a = np.zeros_like(two), np.arange(two.size), 2
    while todo.size:
        found = _chi(a, q[two[todo]]) == -1
        z[todo[found]] = a
        todo, a = todo[~found], a + 1
    g = np.ones_like(q)
    g[two] = _powmod(z, odd[two], q[two])
    return q, inv24, s_exp, odd, g


@lru_cache(maxsize=32)
def _roots(d: int, bound: int):
    """The square roots s of d mod each sieving prime q, as int32 (index of q in `_sieve_table`, s 24^-1 mod q).

    Two roots +-s where (d/q) = 1, the one root 0 where q | d, none where
    (d/q) = -1.  Tonelli-Shanks runs over the residues only.  x = d^((Q+1)/2)
    and t = d^Q keep x^2 = d t.  At each i = S-2, ..., 0 where t^(2^i) = -1,
    x is multiplied by h = g^(2^(S-2-i)), of order 2^(i+2), and t by h^2,
    which halves the order of t, so t ends at 1 and x^2 = d.
    """
    q_all, inv24, s_exp, odd, g = _sieve_table(bound)
    chi = _chi(d, q_all)
    res, zero = np.flatnonzero(chi == 1), np.flatnonzero(chi == 0)
    roots = np.zeros((2, 2 * res.size + zero.size), np.int32)     # the roots +s, then -s, then 0
    np.concatenate([res, res, zero], out=roots[0])
    q, s_exp, h = q_all[res], s_exp[res], g[res]
    a = d % q
    y = _powmod(a, (odd[res] - 1) // 2, q)
    x = y * a % q
    t = x * y % q
    for i in range(int(s_exp.max(initial=0)) - 2, -1, -1):
        live = np.flatnonzero(s_exp >= i + 2)
        ql, tl, hl = q[live], t[live], h[live]
        ti = tl
        for _ in range(i):
            ti = ti * ti % ql
        flip = ti != 1
        x[live] = np.where(flip, x[live] * hl % ql, x[live])
        t[live] = np.where(flip, tl * hl % ql * hl % ql, tl)
        h[live] = hl * hl % ql
    roots[1, : res.size] = x * inv24[res] % q
    roots[1, res.size : 2 * res.size] = q - roots[1, : res.size]
    return roots


def _sieve_family(fam: PrimeFamily, k_min: int, x_max: int):
    """The k >= k_min with f(k) prime and at most x_max, and those f(k).

    f(k) is struck for each prime q <= sqrt(x_max) that divides it, unless
    f(k) = q.  q = 2 tests f(k) directly; q = 3 never divides f(k) = c
    (mod 3), as an admissible c is prime to 3.  For q >= 5,
    144 f(k) = (72 k + 3 (r+3))^2 - 9 d, so q | f(k) exactly when
    k = (-(r+3) +- sqrt(d)) 24^-1 (mod q): never when d is a non-residue,
    at one double root when q | d.  What is left with f(k) >= 2 is prime.
    """
    r3 = fam.r + 3
    k_end = math.isqrt(x_max // 36) + 2         # f(k) >= 36 k^2 > x_max from k_end - 1 on
    k_min = min(k_min, k_end)
    ks = np.arange(k_min, k_end, dtype=np.int64)
    values = fam.value(ks)        # increasing for k >= 0
    n_k = int(np.searchsorted(values, x_max, side="right"))
    ks, values = ks[:n_k], values[:n_k]
    prime = (values >= 2) & ((values % 2 == 1) | (values == 2))
    bound = math.isqrt(x_max)
    q, inv24 = _sieve_table(bound)[:2]
    idx, u = _roots(fam.reduced_discriminant, bound)
    q = q[idx]
    # every hit k_min + offset, offset = (u - (r+3) 24^-1 - k_min) mod q + j q, below n_k
    offset = (u - (r3 * inv24[idx] + k_min)) % q
    hits_per_root = np.maximum(0, (n_k - 1 - offset) // q + 1)
    first = np.cumsum(hits_per_root) - hits_per_root
    step = np.repeat(q, hits_per_root)
    hits = np.repeat(offset - first * q, hits_per_root) + np.arange(step.size) * step
    prime[hits[values[hits] != step]] = False
    return ks[prime], values[prime]


# -- Hardy-Littlewood constants ------------------------------------------------


# Product of (1 - chi_d(p)/(p-1)) over the primes 5 <= p <= PRIME_BOUND, for
# each of the 54 families' 13 reduced discriminants d, chi_d(p) = (d / p).
# Rounded as a sequential product over p <= 2d times a sequential product of
# the rest; the tests recompute every value bit for bit.
_HL_PRODUCTS = {
    17: float.fromhex("0x1.92d7aae22bdd7p+0"),
    20: float.fromhex("0x1.2ea3ffc0f5d53p+0"),
    32: float.fromhex("0x1.3bbc38563fdcap+0"),
    33: float.fromhex("0x1.9a7ab373ed75fp+0"),
    41: float.fromhex("0x1.1ffe36cc27b2dp+0"),
    48: float.fromhex("0x1.6225855d1c4a0p+0"),
    52: float.fromhex("0x1.9d4c3361be67bp+0"),
    57: float.fromhex("0x1.5d441dd588ca9p+0"),
    65: float.fromhex("0x1.1369d2f57fed3p+0"),
    73: float.fromhex("0x1.cdaa517156272p+0"),
    80: float.fromhex("0x1.2ea3ffc0f5b73p+0"),
    84: float.fromhex("0x1.db101c4029fc8p-1"),
    89: float.fromhex("0x1.f5c87d15b469dp-1"),
}


def hardy_littlewood_constant(r: int, c: int) -> float:
    """Truncated Euler product over primes 5 <= p <= PRIME_BOUND, read from `_HL_PRODUCTS`.

    The factors depend only on (d/p), d = (r+3)^2 - 16c, so d and 4d agree up
    to rounding (the product order depends on d).  Convergence is conditional
    and slow; at this truncation the value is reliable to roughly two digits.
    ValueError for an (r, c) outside the 54 families.
    """
    return _HL_PRODUCTS[family(r, c).reduced_discriminant]


def density_divisor(r: int) -> int:
    """The 2 * delta_r denominator: 4 for even r, 2 for odd r.

    Even r makes the leading-plus-linear coefficient sum odd only half the
    time, which thins the prime-producing arguments by another factor of two.
    """
    return 4 if r % 2 == 0 else 2


def hardy_littlewood_density(r: int, c: int) -> float:
    """Predicted constant in front of sqrt(x)/log(x) for the family's primes."""
    return hardy_littlewood_constant(r, c) / density_divisor(r)


# -- whole-table scans ----------------------------------------------------------


def scan_families(x_max: int, rows: list[tuple[int, int]] | None = None) -> list[FamilyReport]:
    """Prime scans for the requested (r, c) families, in (r, c) order.

    Bad input raises before any family is scanned.
    """
    _check_x_max(x_max)
    families = all_families() if rows is None else [family(r, c) for r, c in sorted(rows)]
    return [family_primes(f.r, f.c, x_max) for f in families]
