"""Rankin-Selberg convolutions of holomorphic eigenforms.

For eigenforms f, g of equal weight k with Hecke eigenvalues lam_f, lam_g,
the convolution Dirichlet series and its completion are

  L(s)      = zeta(2s) sum_m lam_f(m) lam_g(m) m^{-s} = sum_n c(n) n^{-s},
  c(n)      = sum_{d^2 m = n} lam_f(m) lam_g(m),
  gamma(s)  = (2 pi)^{-2s} Gamma(s + k - 1) Gamma(s),
  Lambda(s) = gamma(s) L(s),    Lambda(s) = Lambda(1 - s).

Everything analytic here is driven by the weight-k theta profile

  kappa(x) = 2 (4 pi^2 x)^{(k-1)/2} K_{k-1}(4 pi sqrt(x)),
  Phi(t)   = sum_n c(n) kappa(n t),

which inherits Phi(1/t) = t Phi(t) + R t - R from the modular relation;
R = res_{s=1} Lambda(s).  The balanced approximate functional equation
(split point X = 1 in the balanced variable) is

  Lambda(s) = sum_n c(n) [ g_s(n) + g_{1-s}(n) ] + R [ 1/(s-1) - 1/s ],
  g_w(n)    = 2^{3-k} (16 pi^2 n)^{-w}
              int_{4 pi sqrt(n)}^inf u^{k + 2w - 2} K_{k-1}(u) du,

an exact identity for all s off the poles.  Note the AFE is symmetric in
s <-> 1-s by construction, so equation residuals are trivially zero;
genuine correctness checks are the direct Dirichlet sum deep in the
convergence region, split-point independence of R, and the unfolding
route (moment module).

The class works in units of Gamma(k) from end to end: the theta profile,
R and Lambda(s) it returns are Phi / Gamma(k), R / Gamma(k) and
Lambda(s) / Gamma(k), the object the unfolding route computes, and
<f, f> = 2 R / Gamma(k).  Gamma(k) is subtracted inside the log-space
exponents, so no term leaves float64 at any weight the Petersson engine
takes (k <= 196): x^nu K_nu(x) <= 2^{nu-1} Gamma(nu) gives
kappa(x) / Gamma(k) <= 1/(k-1), and the Mellin integral over all u > 0
gives g_{1/2}(n) / Gamma(k) <= Gamma(1/2) Gamma(k-1/2) / (2 pi sqrt(n)
Gamma(k)) = O(k^{-1/2}).

Incomplete Mellin integrals are evaluated on sqrt-spaced panels with a
shared Gauss-Legendre rule, log-space shifts per panel, and a suffix
accumulation that yields all n cutoffs in one pass.  The nodes and
K_{k-1} on them depend on (k, n) only, so every w of a weight reads one
node table (_bessel_nodes) and evaluates special.kve_f64 once.  The
theta kernel kappa(n t) / Gamma(k) likewise depends on (k, t) only: every
pair of a weight reads one table per split point (_theta_kernel).
"""

import math
from functools import cache, cached_property, lru_cache

import numpy as np

from .modforms import THETA_SPLIT, Eigenform, afe_cutoff, theta_cutoff
from .precision import PoleError
from .special import _leggauss, kve_f64

__all__ = ["RankinSelbergPair", "kappa_log"]


def kappa_log(k: int, x):
    """log kappa(x) for x > 0 (theta-profile kernel), vectorized."""
    x = np.asarray(x, dtype=float)
    arg = 4 * math.pi * np.sqrt(x)
    return (
        math.log(2.0)
        + 0.5 * (k - 1) * np.log(4 * math.pi**2 * x)
        + np.log(kve_f64(k - 1, arg))
        - arg
    )


@cache
def _theta_kernel(k: int, t: float) -> np.ndarray:
    """kappa(n t) / Gamma(k) for n = 1..theta_cutoff(k, t), read-only.
    It depends on (k, t) alone, so every pair of weight k reads one table
    per split point and kappa_log runs once per (k, t) per process."""
    ns = np.arange(1, theta_cutoff(k, t) + 1, dtype=float)
    kernel = np.exp(kappa_log(k, ns * t) - math.lgamma(k))
    kernel.flags.writeable = False
    return kernel


@lru_cache(maxsize=1)
def _bessel_nodes(k: int, n_max: int):
    """(u, log u, log kve_f64(k-1, u), half, gl_weights): the panel nodes of
    _mellin_suffix_table and the w-independent part of its integrand.

    Panels run between consecutive 4 pi sqrt(j), j = 1..n_max, then up to
    240 continuation panels; u has shape (panels, 12) and half holds the
    panel half-widths.  Read-only.  One entry: the callers read every w
    of one weight before the next weight (moment_row, unfold_rows).
    """
    breaks = 4 * math.pi * np.sqrt(np.arange(1, n_max + 240 + 2, dtype=float))
    lo = breaks[:-1]
    hi = breaks[1:]
    mid = (hi + lo) / 2
    half = (hi - lo) / 2
    gl_nodes, gl_weights = _leggauss(12)
    u = mid[:, None] + half[:, None] * gl_nodes[None, :]
    log_u = np.log(u)
    log_kv = np.log(kve_f64(k - 1, u))
    for a in (u, log_u, log_kv, half):
        a.flags.writeable = False
    return u, log_u, log_kv, half, gl_weights


@cache
def _mellin_suffix_table(k: int, w: complex, n_max: int):
    """I(n) = int_{4 pi sqrt(n)}^inf u^{k+2w-2} K_{k-1}(u) du for n <= n_max.

    Returns read-only (shift, scaled) arrays indexed 1..n_max:
    I(n) = exp(shift) * scaled.  The integrand on the panels of
    _bessel_nodes is exp((k+2w-2) log u + log kve_f64 - u); the continuation
    panels past n_max stop once their contribution falls 60 e-folds under
    the running maximum.  Built once per process and (k, w, n_max): it
    depends on nothing else, and every pair of weight k reads the same
    table at the same s (both halves of the AFE at s = 1/2).  The table is
    built in complex arithmetic whatever type w has: Python keys 0.5 and
    0.5 + 0j alike, and a table built in real arithmetic differs in its
    last bits, so a real w would otherwise decide what every later caller
    reads.
    """
    w = complex(w)
    exponent = k + 2 * w - 2
    u, log_u, log_kv, half, gl_weights = _bessel_nodes(k, n_max)
    log_l = exponent * log_u + log_kv - u
    shift = np.max(log_l.real, axis=1)
    panel = np.sum(np.exp(log_l - shift[:, None]) * gl_weights[None, :], axis=1) * half
    # drop negligible continuation panels (they only pad the last suffix)
    peak = shift.max()
    n_panels = len(panel)
    last = n_panels
    for j in range(n_max, n_panels):
        if shift[j] < peak - 60.0 - math.log1p(abs(panel[j])):
            last = j + 1
            break
    shift = shift[:last]
    panel = panel[:last]
    # suffix accumulation, descending, with running rescale
    out_shift = np.empty(n_max, dtype=float)
    out_val = np.empty(n_max, dtype=complex)
    run_m = -np.inf
    run_s = 0.0 + 0.0j
    for j in range(last - 1, -1, -1):
        if shift[j] > run_m:
            run_s = run_s * math.exp(run_m - shift[j]) + panel[j]
            run_m = shift[j]
        else:
            run_s = run_s + panel[j] * math.exp(shift[j] - run_m)
        if j < n_max:
            out_shift[j] = run_m
            out_val[j] = run_s
    out_shift.flags.writeable = out_val.flags.writeable = False
    return out_shift, out_val


class RankinSelbergPair:
    """Convolution L-function of two eigenforms of the same weight.

    g=None takes the diagonal pair (f, f).  All heavy values are double
    precision with log-space assembly, and every value a method returns
    is divided by Gamma(k), as the module docstring bounds it; coefficient
    input comes from the exact eigenform expansions.
    """

    def __init__(self, f: Eigenform, g: Eigenform = None):
        if g is None:
            g = f
        if f.weight != g.weight:
            raise ValueError("forms must share a weight")
        self.f = f
        self.g = g
        self.k = f.weight
        n_max = min(f.horizon, g.horizon)
        lf = f.lam_f64[: n_max + 1]
        lg = g.lam_f64[: n_max + 1]
        self._pair_coeff = lf * lg  # lam_f(m) lam_g(m), index m

    # ---------------- coefficients ----------------

    @cached_property
    def _c(self) -> np.ndarray:
        # c(0..horizon), read-only; c(n) reads lam_f lam_g(m) only at m <= n,
        # so every prefix equals the table built up to its own end
        n_max = len(self._pair_coeff) - 1
        c = np.zeros(n_max + 1)
        d = 1
        while d * d <= n_max:
            block = self._pair_coeff[1: n_max // (d * d) + 1]
            c[d * d * np.arange(1, len(block) + 1)] += block
            d += 1
        c.flags.writeable = False
        return c

    def c_table(self, n_max: int):
        """c(1..n_max) as a read-only float array (index 0 unused)."""
        if n_max >= len(self._pair_coeff):
            raise ValueError("eigenform horizon %d too small for c(%d); build the "
                             "forms with hecke_eigenforms(%d, horizon=%d)"
                             % (len(self._pair_coeff) - 1, n_max, self.k, n_max))
        return self._c[: n_max + 1]

    # ---------------- theta profile and residue ----------------

    def theta_profile(self, t: float) -> float:
        """Phi(t) / Gamma(k) = sum_n c(n) kappa(n t) / Gamma(k)."""
        t = float(t)
        if t <= 0:
            raise ValueError("theta profile needs t > 0")
        c = self.c_table(theta_cutoff(self.k, t))
        return float(np.sum(c[1:] * _theta_kernel(self.k, t)))

    def residue_theta(self, t0: float = THETA_SPLIT) -> float:
        """R / Gamma(k), R = res_{s=1} Lambda(s), from the theta relation
        Phi(1/t0) = t0 Phi(t0) + R t0 - R."""
        t0 = float(t0)
        if t0 <= 0 or abs(t0 - 1.0) < 1e-6:
            raise ValueError("need a split t0 > 0 bounded away from 1")
        return (self.theta_profile(1.0 / t0) - t0 * self.theta_profile(t0)) / (t0 - 1.0)

    @cached_property
    def _residue(self) -> float:
        # R / Gamma(k) at the default split, computed once per pair
        return self.residue_theta()

    def residue_consistency(self, t0s) -> float:
        """Max |R(t0) - R(t0_ref)| / Gamma(k) over split points, absolute
        scale.

        A split t0 reads c(n) up to theta_cutoff(k, 1/t0); the default
        horizon reaches t0 <= THETA_SPLIT, further splits want forms built
        with a larger horizon.
        """
        vals = [self.residue_theta(t) for t in t0s]
        return max(vals) - min(vals)

    def norm_theta(self) -> float:
        """<f, f> = 2 R / Gamma(k) in the arithmetically normalized
        evaluation convention (diagonal pairs)."""
        return 2.0 * self._residue

    # ---------------- completed L via the balanced AFE ----------------

    def completed_l(self, s) -> complex:
        """Lambda(s) / Gamma(k) for s away from 0 and 1 (exact AFE, balanced
        split): the object the unfolding route computes."""
        s = complex(s)
        if min(abs(s), abs(s - 1)) < 1e-8:
            raise PoleError("Lambda has poles at s = 0 and s = 1 (got s = %r)" % s)
        n = afe_cutoff(self.k)
        c = self.c_table(n)
        log_16pi2n = np.log(16 * math.pi**2 * np.arange(1, n + 1, dtype=float))
        total = 0.0 + 0.0j
        for w in (s, 1 - s):
            shift, val = _mellin_suffix_table(self.k, w, n)
            # g_w(n) / Gamma(k) = exp(log_pref) val
            log_pref = ((3 - self.k) * math.log(2.0) - w * log_16pi2n + shift
                        - math.lgamma(self.k))
            total += np.sum(c[1:] * np.exp(log_pref) * val)
        total += self._residue * (1.0 / (s - 1.0) - 1.0 / s)
        if s.imag == 0:
            # real s: Lambda is real by symmetry and real coefficients
            return complex(total.real, 0.0)
        return total

    def l_direct(self, s, n_max: int = None) -> complex:
        """Partial Dirichlet sum sum_{n<=N} c(n) n^{-s}; converges Re s > 1.

        N defaults to the forms' horizon, which eigenform_horizon sizes for
        the theta profile and the AFE; a sum meant to converge to L(s)
        (deep in Re s > 1) wants forms built with a larger horizon.
        """
        s = complex(s)
        if n_max is None:
            n_max = len(self._pair_coeff) - 1
        c = self.c_table(n_max)
        ns = np.arange(1, n_max + 1, dtype=float)
        val = np.sum(c[1:] * ns ** (-s))
        return complex(val)
