"""Spectra and Ramanujan status of Cayley graphs on generalized quaternion groups.

The toolkit answers three kinds of questions about the order-4m group
Q_{4m} = <x, y | x^(2m) = 1, x^m = y^2, y^-1 x y = x^-1>:

* exact spectra of Cayley graphs X(S) via character sums, cross-checked by a
  dense LAPACK eigensolve of the explicit adjacency matrix;
* how many group elements can be dropped from the complete-graph generating
  set while every graph in the family stays Ramanujan (the safe-covalency
  bounds), exactly at small m from per-frequency extremes and in closed form;
* for odd primes p = m, whether the window-extremal subset (not always the
  worst) of covalency l0 + 1 is Ramanujan ("exceptional" primes), classified
  spectrally and, equivalently, through 54 prime-representing quadratic
  polynomials with Hardy-Littlewood density predictions.

The modules are the interface; the package root exports only `__version__`.
"""

__version__ = "0.1.0"
