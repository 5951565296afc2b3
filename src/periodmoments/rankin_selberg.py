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

Incomplete Mellin integrals are evaluated on sqrt-spaced panels with a
shared Gauss-Legendre rule, log-space shifts per panel, and a suffix
accumulation that yields all n cutoffs in one pass.
"""

import math
from functools import cache, cached_property

import numpy as np
from scipy.special import gammaln, kve, loggamma

from .modforms import MAX_THETA_SPLIT, Eigenform, afe_cutoff, theta_cutoff
from .precision import PoleError
from .special import _leggauss

__all__ = ["RankinSelbergPair", "kappa_log", "gamma_factor_log"]


def kappa_log(k: int, x):
    """log kappa(x) for x > 0 (theta-profile kernel), vectorized."""
    x = np.asarray(x, dtype=float)
    arg = 4 * math.pi * np.sqrt(x)
    return (
        math.log(2.0)
        + 0.5 * (k - 1) * np.log(4 * math.pi**2 * x)
        + np.log(kve(k - 1, arg))
        - arg
    )


def gamma_factor_log(k: int, s):
    """log gamma(s) = -2s log(2 pi) + log Gamma(s+k-1) + log Gamma(s)."""
    s = complex(s)
    return -2 * s * math.log(2 * math.pi) + loggamma(s + k - 1) + loggamma(s)


@cache
def _mellin_suffix_table(k: int, w: complex, n_max: int):
    """I(n) = int_{4 pi sqrt(n)}^inf u^{k+2w-2} K_{k-1}(u) du for n <= n_max.

    Returns read-only (shift, scaled) arrays indexed 1..n_max:
    I(n) = exp(shift) * scaled.  Panels between consecutive 4 pi sqrt(j);
    the continuation panels past n_max stop once their contribution falls
    60 e-folds under the running maximum.  Built once per process and
    (k, w, n_max): it depends on nothing else, and every pair of weight k
    reads the same table at the same s (both halves of the AFE at s = 1/2).
    """
    exponent = k + 2 * w - 2
    # panels 1..n_max, then up to 240 continuation panels
    breaks = 4 * math.pi * np.sqrt(np.arange(1, n_max + 240 + 2, dtype=float))
    lo = breaks[:-1]
    hi = breaks[1:]
    mid = (hi + lo) / 2
    half = (hi - lo) / 2
    # nodes: (n_panels, 12)
    gl_nodes, gl_weights = _leggauss(12)
    u = mid[:, None] + half[:, None] * gl_nodes[None, :]
    log_l = exponent * np.log(u) + np.log(kve(k - 1, u)) - u
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
    precision with log-space assembly; coefficient input comes from the
    exact eigenform expansions.
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
            raise ValueError("eigenform horizon %d too small for c(%d)" %
                             (len(self._pair_coeff) - 1, n_max))
        return self._c[: n_max + 1]

    # ---------------- theta profile and residue ----------------

    def theta_profile(self, t: float) -> float:
        """Phi(t) = sum_n c(n) kappa(n t)."""
        t = float(t)
        if t <= 0:
            raise ValueError("theta profile needs t > 0")
        n = theta_cutoff(self.k, t)
        c = self.c_table(n)
        ns = np.arange(1, n + 1, dtype=float)
        return float(np.sum(c[1:] * np.exp(kappa_log(self.k, ns * t))))

    def residue_theta(self, t0: float = 2.0) -> float:
        """R = res_{s=1} Lambda(s) from Phi(1/t0) = t0 Phi(t0) + R t0 - R."""
        t0 = float(t0)
        if t0 <= 0 or abs(t0 - 1.0) < 1e-6:
            raise ValueError("need a split t0 > 0 bounded away from 1")
        return (self.theta_profile(1.0 / t0) - t0 * self.theta_profile(t0)) / (t0 - 1.0)

    @cached_property
    def _residue(self) -> float:
        # R at the default split, computed once per pair
        return self.residue_theta()

    def residue_consistency(self, t0s=(1.6, 2.0, MAX_THETA_SPLIT)) -> float:
        """Max |R(t0) - R(t0_ref)| over split points, absolute scale."""
        vals = [self.residue_theta(t) for t in t0s]
        return max(vals) - min(vals)

    def norm_theta(self) -> float:
        """<f, f> = 2 R / Gamma(k) in the arithmetically normalized
        evaluation convention (diagonal pairs)."""
        return 2.0 * self._residue * math.exp(-gammaln(self.k))

    # ---------------- completed L via the balanced AFE ----------------

    def completed_l(self, s) -> complex:
        """Lambda(s) for s away from 0 and 1 (exact AFE, balanced split)."""
        s = complex(s)
        if min(abs(s), abs(s - 1)) < 1e-8:
            raise PoleError("Lambda has poles at s = 0 and s = 1 (got s = %r)" % s)
        n = afe_cutoff(self.k)
        c = self.c_table(n)
        ns = np.arange(1, n + 1, dtype=float)
        total = 0.0 + 0.0j
        for w in (s, 1 - s):
            shift, val = _mellin_suffix_table(self.k, w, n)
            log_pref = (
                (3 - self.k) * math.log(2.0)
                - w * np.log(16 * math.pi**2 * ns)
                + shift
            )
            total += np.sum(c[1:] * np.exp(log_pref) * val)
        total += self._residue * (1.0 / (s - 1.0) - 1.0 / s)
        if s.imag == 0:
            # real s: Lambda is real by symmetry and real coefficients
            return complex(total.real, 0.0)
        return total

    def completed_l_normalized(self, s) -> complex:
        """Lambda(s) / Gamma(k): the object the unfolding route computes."""
        return self.completed_l(s) * math.exp(-gammaln(self.k))

    def l_value(self, s) -> complex:
        """L(s) = Lambda(s) / gamma(s)."""
        s = complex(s)
        val = self.completed_l(s) * np.exp(-gamma_factor_log(self.k, s))
        if s.imag == 0:
            return complex(val.real, 0.0)
        return val

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
