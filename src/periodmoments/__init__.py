"""periodmoments: numerical verification of the period-integral route to
second moments of Rankin-Selberg L-functions.

Layers, bottom up:

* precision / special: the shared error types, completed-Gamma / zeta /
  K-Bessel special functions.
* modforms: exact holomorphic Hecke eigenforms for the full modular group.
* eisenstein_gl2: real-analytic Eisenstein series on the upper half plane.
* epstein: Epstein zeta continuation, Iwasawa coordinates, the dual point,
  and the rank-n completed Eisenstein series evaluated through it.
* rankin_selberg: Rankin-Selberg L-functions, approximate functional
  equation, Petersson norms via the residue formula.
* moment: fundamental-domain quadrature, unfolding checks, the Bessel
  inequality, and the second-moment sweep.
* spectral: GL(n) spectral parameters, Plancherel density, Whittaker
  functions for n = 2, 3, and the Stade integral checks.
* report / cli: deterministic CSV/JSON emission and the experiment driver.
"""

__version__ = "0.1.0"
