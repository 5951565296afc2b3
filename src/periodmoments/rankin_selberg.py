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
R = res_{s=1} Lambda(s).  Splitting the Mellin integral of Phi at t = 1
and folding [0, 1] onto [1, inf) by that relation gives the balanced
approximate functional equation, Riemann's and Hecke's integral,

  Lambda(s) = int_1^inf Phi(t) (t^s + t^{1-s}) dt/t + R [ 1/(s-1) - 1/s ],

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
kappa(x) / Gamma(k) <= 1/(k-1).

The theta profile and the AFE read kappa(n t) / Gamma(k), which depends
on (k, t) alone.
The theta profile reads one table per split point (_theta_kernel).  The
AFE integrates in v = log t with one Gauss-Legendre rule per weight and
sigma = ceil(max(s, 1 - s)) (_afe_table): a ragged table of the kernel
at its nodes, shared by every pair of the weight, which forms Phi at the
nodes with one product against its c(n) and t^s Phi(t) in log space.
"""

import math
from functools import cache, cached_property

import numpy as np

from .modforms import THETA_SPLIT, Eigenform, theta_cutoff
from .precision import NonConvergenceError, PoleError, RangeError
from .special import _leggauss, kve_f64

__all__ = ["RankinSelbergPair", "kappa_log"]

# node counts and tolerance of the AFE's Gauss-Legendre rule (_afe_table)
AFE_START_NODES = 32
AFE_MAX_NODES = 1024
AFE_RULE_TOL = 1e-12


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


def _afe_log_t_max(k: int, sigma: int) -> float:
    # V: the n = 1 term of t^sigma Phi(t) is asymptotically u^a e^{-4 pi u},
    # u = sqrt(t), a = k - 1 + 2 sigma; at u = x a / 4 pi it lies
    # a (x - 1 - log x) = 140 e-folds under its peak.  Newton descends onto
    # x from 1 + d, d = c + sqrt(c^2 + 2c), c = 140 / a, which is above it
    # as d - log(1 + d) >= d^2 / (2 + 2d) = c
    a = k - 1 + 2 * sigma
    c = 140.0 / a
    x = 1 + c + math.sqrt(c * c + 2 * c)
    for _ in range(8):
        x -= (x - 1 - math.log(x) - c) / (1 - 1 / x)
    return 2 * math.log(x * a / (4 * math.pi))


def _afe_rule(k: int, sigma: int, n: int):
    """(v, log_scale, kernel, starts): the n-node Gauss-Legendre rule
    of the balanced AFE on 0 <= v <= V (_afe_log_t_max), with
    kappa(m t_j) / Gamma(k) at t_j = e^{v_j} for m = 1..theta_cutoff(k, t_j).

    The kernel is ragged and scaled: node j's entries, kappa(m t_j) /
    kappa(t_j), lie at starts[j] onward (_ragged_index gives m - 1), and
    log_scale[j] = log(weight_j) + log(kappa(t_j) / Gamma(k)).  One
    kappa_log call.
    """
    v_max = _afe_log_t_max(k, sigma)
    nodes, weights = _leggauss(n)
    v = v_max / 2 * (nodes + 1)
    t = np.exp(v)
    counts = np.array([theta_cutoff(k, tj) for tj in t])
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    log_kernel = kappa_log(k, (_ragged_index(starts, counts.sum()) + 1) * np.repeat(t, counts))
    head = log_kernel[starts]
    kernel = np.exp(log_kernel - np.repeat(head, counts))
    return v, np.log(v_max / 2 * weights) + head - math.lgamma(k), kernel, starts


def _ragged_index(starts, size):
    # m - 1 for every entry of a ragged table whose rows begin at starts
    return np.arange(size) - np.repeat(starts, np.diff(starts, append=size))


@cache
def _afe_table(k: int, sigma: int):
    """The read-only _afe_rule that completed_l(s) reads at weight k for
    every s with ceil(max(s, 1 - s)) = sigma.

    V: past it the n = 1 term of Phi(t) t^sigma has fallen 140 e-folds
    under its peak, the theta cutoff's own rule (_afe_log_t_max).  Node
    count: it doubles from AFE_START_NODES until the rules of n and 2n
    nodes integrate the profile of c(m) = 1 to within AFE_RULE_TOL of
    each other in log, and the table keeps the 2n rule: on an analytic
    integrand the Gauss-Legendre error falls geometrically in n, so that
    rule's error is far below the difference.  Past AFE_MAX_NODES it
    raises NonConvergenceError.
    """
    n, value, delta = AFE_START_NODES, math.inf, math.inf
    while delta > AFE_RULE_TOL:
        if n > AFE_MAX_NODES:
            raise NonConvergenceError("AFE rule at k=%d, sigma=%d: %d nodes still move the "
                                      "integral by %.3g" % (k, sigma, n // 2, delta),
                                      best=value, last_delta=delta)
        rule = v, log_scale, kernel, starts = _afe_rule(k, sigma, n)
        exponent = np.concatenate((log_scale + sigma * v, log_scale + (1 - sigma) * v))
        top = exponent.max()
        rows = np.tile(np.add.reduceat(kernel, starts), 2)
        finer = top + math.log(np.sum(rows * np.exp(exponent - top)))
        delta, value, n = abs(finer - value), finer, 2 * n
    for a in rule:
        a.flags.writeable = False
    return rule


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

    def completed_l(self, s) -> float:
        """Lambda(s) / Gamma(k) for real s away from 0 and 1, the object the
        unfolding route computes: the balanced AFE as one Gauss-Legendre
        integral of Phi(t) (t^s + t^{1-s}) dt/t over 1 <= t <= e^V, formed
        in log space node by node (_afe_table), plus R (1/(s-1) - 1/s).
        A complex s raises RangeError."""
        s = complex(s)
        if s.imag != 0:
            raise RangeError("completed_l takes real s (got s = %r)" % s)
        s = s.real
        if min(abs(s), abs(s - 1)) < 1e-8:
            raise PoleError("Lambda has poles at s = 0 and s = 1 (got s = %r)" % s)
        v, log_scale, kernel, starts = _afe_table(self.k, math.ceil(max(s, 1 - s)))
        # node 0, nearest t = 1, reads the most coefficients
        c = self.c_table(int(starts[1]))
        phi = np.add.reduceat(c[1:][_ragged_index(starts, len(kernel))] * kernel, starts)
        # the nodes' exponents, shifted by their largest: a node's term may
        # pass float64's largest value before the integral does
        upper, lower = log_scale + s * v, log_scale + (1 - s) * v
        top = max(upper.max(), lower.max())
        total = np.sum(phi * (np.exp(upper - top) + np.exp(lower - top)))
        half = np.exp(top / 2)
        return float(total * half * half + self._residue * (1.0 / (s - 1.0) - 1.0 / s))

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
