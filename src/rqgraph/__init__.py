"""Spectra and Ramanujan status of Cayley graphs on generalized quaternion groups.

The toolkit answers three kinds of questions about the order-4m group
Q_{4m} = <x, y | x^(2m) = 1, x^m = y^2, y^-1 x y = x^-1>:

* exact spectra of Cayley graphs X(S) via character sums, cross-checked by a
  dense LAPACK eigensolve of the explicit adjacency matrix;
* how many group elements can be dropped from the complete-graph generating
  set while every graph in the family stays Ramanujan (the safe-covalency
  bounds), both by exhaustive enumeration at small m and in closed form;
* for odd primes p = m, whether the window-extremal subset (not always the
  worst) of covalency l0 + 1 is Ramanujan ("exceptional" primes), classified
  spectrally and, equivalently, through 54 prime-representing quadratic
  polynomials with Hardy-Littlewood density predictions.
"""

__version__ = "0.1.0"

from .group import GroupElement, generates, inverse, multiply
from .subsets import (
    CayleySubset,
    CovalencyProfile,
    SigmaCounts,
    enumerate_family,
    extremal_subset,
    full_subset,
    parse_subset_literal,
)
from .spectra import (
    Spectrum,
    full_spectrum,
    is_ramanujan,
    lambda_max_nontrivial,
    mu_abs,
    one_dim_eigenvalues,
    ramanujan_bound,
    two_dim_eigenvalues,
)
from .dense import adjacency_matrix, oracle_max_delta, symmetric_eigenvalues
from .bounds import (
    ExceptionalVerdict,
    SplitProfile,
    asymptotic_coefficient,
    exact_safe_covalency,
    extremal_mu2,
    interpolated_gap,
    is_exceptional_spectral,
    maximizing_split,
    trivial_bound,
)
from .primes import (
    FamilyReport,
    PrimeFamily,
    candidate_constants,
    derive_k_threshold,
    family_primes,
    hardy_littlewood_admissible,
    hardy_littlewood_constant,
    hardy_littlewood_density,
    is_exceptional_arithmetic,
    is_prime,
    legendre_symbol,
)

__all__ = [
    "GroupElement",
    "multiply",
    "inverse",
    "generates",
    "CayleySubset",
    "CovalencyProfile",
    "SigmaCounts",
    "full_subset",
    "parse_subset_literal",
    "enumerate_family",
    "extremal_subset",
    "Spectrum",
    "one_dim_eigenvalues",
    "two_dim_eigenvalues",
    "full_spectrum",
    "mu_abs",
    "lambda_max_nontrivial",
    "ramanujan_bound",
    "is_ramanujan",
    "adjacency_matrix",
    "symmetric_eigenvalues",
    "oracle_max_delta",
    "trivial_bound",
    "exact_safe_covalency",
    "extremal_mu2",
    "maximizing_split",
    "SplitProfile",
    "is_exceptional_spectral",
    "interpolated_gap",
    "asymptotic_coefficient",
    "ExceptionalVerdict",
    "is_prime",
    "legendre_symbol",
    "candidate_constants",
    "derive_k_threshold",
    "PrimeFamily",
    "FamilyReport",
    "family_primes",
    "is_exceptional_arithmetic",
    "hardy_littlewood_constant",
    "hardy_littlewood_density",
    "hardy_littlewood_admissible",
    "__version__",
]
