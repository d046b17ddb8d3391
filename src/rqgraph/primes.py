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

from .bounds import MIN_EXCEPTIONAL_PRIME, ExceptionalVerdict, _check_scope, _gap_mp, gap_error_scale
from .bounds import interpolated_gap, trivial_bound
from .spectra import at_or_below, tie_window

# Strong-pseudoprime witnesses proving primality for every n < 2^64.
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

# Product of odd primes up to 61; a single gcd screens most composites.
_SMALL_PRIME_PRODUCT = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47 * 53 * 59 * 61

THRESHOLD_SCAN_HORIZON = 10_000


@dataclass(frozen=True)
class PrimeFamily:
    r: int
    c: int
    reduced_discriminant: int   # (r+3)^2 - 16c; the full discriminant is 9x this
    k_threshold: int

    @property
    def coefficients(self) -> tuple[int, int, int]:
        return (36, 3 * (self.r + 3), self.c)

    def value(self, k: int) -> int:
        return 36 * k * k + 3 * (self.r + 3) * k + self.c


@dataclass(frozen=True)
class FamilyReport:
    family: PrimeFamily
    x_max: int
    first_primes: tuple[int, ...]
    count: int
    window_mismatches: int      # primes f(k) whose l0 failed the 24k + r check


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, correct for all n < 2^64."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    if n < 3844:                        # 62^2: gcd screen is complete here
        return math.gcd(n, _SMALL_PRIME_PRODUCT) == 1 or n in (
            3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
        )
    if math.gcd(n, _SMALL_PRIME_PRODUCT) != 1:
        return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
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


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n, by binary reciprocity."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p."""
    if p <= 2 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    return _jacobi(a, p)


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
    if n < 0:
        return False
    root = math.isqrt(n)
    return root * root == n


def _is_irreducible(r: int, c: int) -> bool:
    """Irreducibility of 36 x^2 + 3(r+3) x + c over the integers.

    Fails either through a common factor of the coefficients or through a
    square discriminant (rational roots); both make every large value
    composite.
    """
    if c == 0:
        return False
    if math.gcd(math.gcd(36, 3 * (r + 3)), c) != 1:
        return False
    return not _is_square((r + 3) ** 2 - 16 * c)


def candidate_constants(r: int) -> tuple[list[int], list[int]]:
    """The six sliding constants for residue r, and the irreducible survivors."""
    if not 0 <= r <= 23:
        raise ValueError(f"r must be in [0, 23], got {r}")
    top = (r + 3) ** 2 // 16
    candidates = [top + s for s in range(-5, 1)]
    return candidates, [c for c in candidates if _is_irreducible(r, c)]


@lru_cache(maxsize=None)
def derive_k_threshold(r: int, c: int) -> int:
    """Smallest k with f(k) >= 67 and an interpolated gap at or below 0.

    The classification claims the condition then persists for every larger k;
    that monotone switch is verified up to a fixed horizon and an
    inconsistency raises (it would mean either a bug or a broken premise).
    Gaps inside the near-tie window go through `spectra.at_or_below`, with
    the error scale of the largest f(k) in the scan.
    """
    _, allowed = candidate_constants(r)
    if c not in allowed:
        raise ValueError(f"c={c} is not an admissible constant for r={r}")
    ks = np.arange(1, THRESHOLD_SCAN_HORIZON + 1)
    values = 36 * ks * ks + 3 * (r + 3) * ks + c
    gap = interpolated_gap(r, c, ks)
    scale = gap_error_scale(int(values[-1]))
    holds = gap <= 0
    for i in np.flatnonzero(np.abs(gap) < tie_window(scale)).tolist():
        holds[i] = at_or_below(float(gap[i]), scale, lambda: _gap_mp(r, c, i + 1))
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
    exceptional = c in allowed and k >= derive_k_threshold(r, c)
    witness = {"r": r, "c": c, "k": k}
    return ExceptionalVerdict(p, l0, "arithmetic", exceptional, witness)


def family_primes(r: int, c: int, x_max: int, k_min: int | None = None, head: int = 5) -> FamilyReport:
    """Scan one family for primes f(k) <= x_max that sit in their own window.

    Keeps k >= k_min (default: the family threshold) where f(k) is prime and
    l0(f(k)) = 24 k + r.  Primes failing the window check are counted
    separately; the window membership should never fail for admissible c.
    """
    if x_max > 2**63:
        raise ValueError(f"x_max must be <= 2^63, got {x_max}")
    fam = family(r, c)
    if k_min is None:
        k_min = fam.k_threshold
    if k_min < 0:
        raise ValueError(f"k_min must be >= 0, got {k_min}")
    primes = []
    mismatches = 0
    k = k_min
    while True:
        value = fam.value(k)
        if value > x_max:
            break
        if value >= 2 and is_prime(value):
            if trivial_bound(value) == 24 * k + r:
                primes.append(value)
            else:
                mismatches += 1
        k += 1
    return FamilyReport(fam, x_max, tuple(primes[:head]), len(primes), mismatches)


# -- Hardy-Littlewood constants ------------------------------------------------


@lru_cache(maxsize=4)
def _odd_primes_from_5(bound: int):
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    primes = np.nonzero(sieve)[0].astype(np.int64)
    return primes[primes >= 5]


@lru_cache(maxsize=None)
def _hl_product(reduced_discriminant: int, prime_bound: int) -> float:
    """Product of (1 - chi(p)/(p-1)) over primes 5 <= p <= prime_bound.

    chi(p) = (reduced_discriminant / p) is periodic in p with period
    4|discriminant| (the discriminant is 0 or 1 mod 4 here), so beyond the
    primes dividing the discriminant a lookup table replaces per-prime
    symbol computations.
    """
    d = reduced_discriminant
    primes = _odd_primes_from_5(prime_bound)
    period = 4 * abs(d)
    table = np.array(
        [_jacobi(d, u) if u % 2 else 0 for u in range(period)], dtype=np.float64
    )
    small = primes[primes <= 2 * abs(d)]
    large = primes[primes > 2 * abs(d)]
    product = 1.0
    for p in small.tolist():
        chi = legendre_symbol(d, p)
        if chi:
            product *= 1.0 - chi / (p - 1)
    chi_large = table[large % period]
    product *= float(np.prod(1.0 - chi_large / (large - 1.0)))
    return product


def hardy_littlewood_constant(r: int, c: int, prime_bound: int = 10**7) -> float:
    """Truncated Euler product over primes 5 <= p <= prime_bound.

    The factors involve only the reduced discriminant (r+3)^2 - 16c, so equal
    discriminants share the constant.  Convergence is conditional and slow;
    at the default bound the value is reliable to roughly two digits.
    """
    if prime_bound < 10**3:
        raise ValueError(f"prime_bound must be >= 1000, got {prime_bound}")
    d = (r + 3) ** 2 - 16 * c
    if _is_square(d):
        raise ValueError(f"degenerate discriminant for (r={r}, c={c}): {d} is a perfect square")
    return _hl_product(d, prime_bound)


def density_divisor(r: int) -> int:
    """The 2 * delta_r denominator: 4 for even r, 2 for odd r.

    Even r makes the leading-plus-linear coefficient sum odd only half the
    time, which thins the prime-producing arguments by another factor of two.
    """
    return 4 if r % 2 == 0 else 2


def hardy_littlewood_density(r: int, c: int, prime_bound: int = 10**7) -> float:
    """Predicted constant in front of sqrt(x)/log(x) for the family's primes."""
    return hardy_littlewood_constant(r, c, prime_bound) / density_divisor(r)


# -- whole-table scans ----------------------------------------------------------


def _scan_one(args: tuple[int, int, int]) -> FamilyReport:
    r, c, x_max = args
    return family_primes(r, c, x_max)


def scan_families(
    x_max: int,
    rows: list[tuple[int, int]] | None = None,
    processes: int = 1,
) -> list[FamilyReport]:
    """Prime scans for the requested (r, c) families, optionally in parallel.

    Results are returned in (r, c) order regardless of scheduling.
    """
    if rows is None:
        rows = [(f.r, f.c) for f in all_families()]
    jobs = [(r, c, x_max) for (r, c) in sorted(rows)]
    if processes > 1 and len(jobs) > 1:
        import multiprocessing

        with multiprocessing.Pool(processes) as pool:
            reports = pool.map(_scan_one, jobs)
    else:
        reports = [_scan_one(job) for job in jobs]
    return reports
