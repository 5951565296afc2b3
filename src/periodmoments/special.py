"""Special functions: completed Gamma factor, zeta, Dirichlet beta,
incomplete gamma, and K-Bessel with imaginary order.

Two tiers throughout:

* mpmath-backed scalar routines at the current working precision; these
  are the reference implementations the contracts are stated for.
* _f64 / _grid helpers: vectorized double-precision fast paths (numpy +
  scipy) used by the quadrature-heavy pipelines. The test suite pins them
  against the mpmath tier.

The float64 K_{it}(x) for real t (kit_f64) has two branches: the
cosine transform
    K_{it}(x) = int_0^inf exp(-x cosh u) cos(t u) du
at x >= 2, and the ascending series of I_{it} at x < 2, with K_0 at
t = 0 and subnormal |t|.  Contracted range: x > 0, down to the 2.5e-30
that the n = 2 Stade log-grid reaches at s = 1/2, and |t| <= 50 (all
this artifact needs); beyond that the routine still runs but accuracy
degrades with |t|.  The tests pin it to 5e-12 relative against mpmath
at |t| <= 7 for x in [0.03, 30] (both branches), and at |t| <= 0.1 on
the n = 2 Stade log-grids below x = 2 (the series and K_0).

The mp tier sums a series sum_n c_n K_nu(n x) through the same
transform, with cosh(nu u) for cos(t u), as one integral (_k_sum_ex,
which also flags a result below the float64 range); bessel_k is its
one-term case.

_leggauss(n) is the one Gauss-Legendre memo of the package: the rule of
n nodes on [-1, 1], built once per process and n as read-only arrays,
for the Petersson strip and lune, the n = 2 Plancherel ball and the
panels of the Rankin-Selberg Mellin tables.
"""

from __future__ import annotations

import math
import sys
from functools import cache

import numpy as np
from mpmath import mp
from scipy.special import gammaincc, gammaln, k0, loggamma

from .precision import NonConvergenceError, PoleError, RangeError

_TINY_DOUBLE = 5e-324  # smallest subnormal; the underflow flag threshold


@cache
def _leggauss(n: int):
    """Gauss-Legendre rule of n nodes on [-1, 1], built once per process
    on first use (read-only)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gamma_r(s):
    """Completed Gamma factor pi^(-s/2) Gamma(s/2).

    Simple poles where s/2 is a non-positive integer.
    """
    s = mp.mpmathify(s)
    half = s / 2
    if mp.im(half) == 0 and mp.re(half) <= 0 and mp.isint(half):
        raise PoleError("gamma_r pole at s = %s" % s)
    return mp.power(mp.pi, -half) * mp.gamma(half)


def zeta(s):
    """Riemann zeta with an explicit pole error at s = 1."""
    s = mp.mpmathify(s)
    if s == 1:
        raise PoleError("zeta pole at s = 1")
    return mp.zeta(s)


def dirichlet_beta(s):
    """Dirichlet beta via Hurwitz zeta: 4^(-s) (zeta(s,1/4) - zeta(s,3/4)).

    The two Hurwitz terms share a simple pole at s = 1 that cancels in the
    difference; at s = 1 the limit is (psi(3/4) - psi(1/4))/4 = pi/4.
    """
    s = mp.mpmathify(s)
    if abs(s - 1) <= mp.mpf(10) ** (-mp.dps + 2):
        return (mp.digamma(mp.mpf(3) / 4) - mp.digamma(mp.mpf(1) / 4)) / 4
    return mp.power(4, -s) * (mp.zeta(s, mp.mpf(1) / 4) - mp.zeta(s, mp.mpf(3) / 4))


def lam(w):
    """Completed zeta Lambda(w) = gamma_r(w) zeta(w); poles at w = 0, 1.

    At w = -2, -4, ... the pole of gamma_r meets a trivial zero of zeta,
    and Lambda(w) = Lambda(1 - w) is finite: it is taken from there.
    """
    w = mp.mpmathify(w)
    if w == 0 or w == 1:
        raise PoleError("completed zeta pole at w = %s" % w)
    if mp.im(w) == 0 and mp.re(w) < 0 and mp.isint(w / 2):
        return lam(1 - w)
    return gamma_r(w) * zeta(w)


def upper_incomplete_gamma(a, x):
    """Upper incomplete gamma Gamma(a, x) = int_x^inf t^(a-1) e^-t dt, x > 0."""
    if not mp.mpf(mp.re(mp.mpmathify(x))) > 0 or mp.im(mp.mpmathify(x)) != 0:
        raise RangeError("upper_incomplete_gamma requires real x > 0")
    return mp.gammainc(mp.mpmathify(a), mp.mpf(x))


def bessel_k(order, arg):
    """K_nu(x) for complex order nu with |Re nu| < ~x-independent modest
    bound and real x > 0.  Real-valued for real or purely imaginary order,
    complex otherwise.

    The one-coefficient case of the cosh-transform quadrature
    (_k_sum_ex): a nested trapezoid on
    K_nu(x) = int_0^inf exp(-x cosh u) cosh(nu u) du.
    """
    return _k_sum_ex(order, arg, (1,))[0]


def _k_sum_ex(order, arg, coefs):
    """sum_{n>=1} coefs[n-1] K_nu(n x) as one integral, plus an underflow
    flag.  The flag marks results whose magnitude falls below the
    double-precision representable range: the value is still returned at
    working precision, but any downstream float64 fast path would see it
    as zero.

    Every term comes from the same cosh transform, so with
    q(u) = exp(-x cosh u)

        sum_n c_n K_nu(n x) = int_0^inf cosh(nu u) sum_n c_n q(u)^n du.

    Nested trapezoid on that integral: each step halving evaluates only the
    new midpoints.  The integrand is analytic in a strip around the real
    u-axis so the rule converges geometrically.  Truncation at U where the
    envelope exp(-x cosh U + |Re nu| U) of the n = 1 term, the slowest to
    decay, is beyond the digit budget.  The result is real when the order
    is real or purely imaginary and every coefficient is real.
    """
    nu = mp.mpmathify(order)
    sigma = mp.re(nu)
    t = mp.im(nu)
    x = mp.mpf(arg)
    if not x > 0:
        raise RangeError("bessel_k requires arg > 0")
    target_dps = mp.dps
    # Guard digits keep the convergence target above the rounding floor of
    # the elevated context.
    with mp.extradps(10):
        budget = (target_dps + 8) * mp.log(10) + 10
        U = mp.acosh(1 + budget / x) + mp.mpf("0.5")
        # cosh(nu u) grows like exp(|Re nu| u): push U until the envelope
        # clears the budget.
        for _ in range(4):
            need = budget + abs(sigma) * U
            U_new = mp.acosh(1 + need / x) + mp.mpf("0.5")
            if U_new <= U:
                break
            U = U_new
        real_result = (sigma == 0 or t == 0) and all(mp.im(c) == 0 for c in coefs)
        tol = mp.mpf(10) ** (-(target_dps + 2))
        h = mp.mpf("0.08")
        # Oscillation from Im nu narrows the usable step.
        if abs(t) > 4:
            h = min(h, mp.mpf(5) / (40 + abs(t)))

        def kern(u):
            return _k_integrand(x, nu, coefs, u, real_result)

        # nested trapezoid: each level halves the step and adds only the new
        # midpoints to `inner`, the sum over the level's nodes with the two
        # ends halved
        n = max(8, int(mp.ceil(U / h)))
        step = U / n
        inner = (kern(mp.mpf(0)) + kern(U)) / 2 + sum(kern(i * step) for i in range(1, n))
        prev = inner * step
        last_delta = None
        for _ in range(8):
            step /= 2
            inner += sum(kern((2 * i + 1) * step) for i in range(n))
            n *= 2
            total = inner * step
            last_delta = abs(total - prev)
            if last_delta <= tol * max(mp.mpf(1), abs(total)):
                under = total != 0 and abs(total) < _TINY_DOUBLE
                return +total, under
            prev = total
    raise NonConvergenceError(
        "K-Bessel trapezoid did not converge", best=prev, last_delta=last_delta
    )


def _k_integrand(x, nu, coefs, u, real):
    """cosh(nu u) sum_n c_n q^n with q = exp(-x cosh u), the integrand of
    sum_n c_n K_nu(n x) (Horner in q); its real part when `real`."""
    q = mp.exp(-x * mp.cosh(u))
    acc = 0
    for c in reversed(coefs):
        acc = (acc + c) * q
    v = acc * mp.cosh(nu * u)
    return mp.re(v) if real else v


# ----------------------------------------------------------------------
# double-precision vectorized tier
# ----------------------------------------------------------------------

def _heights(y, y_min):
    """(y, y_min) of the float64 Fourier evaluators: y as a float array,
    every y > 0, and the height where they truncate their series, min(y)
    by default; a given y_min must lie in (0, min(y)]."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("upper half plane requires y > 0")
    if y_min is None:
        return y, float(np.min(y))
    if not 0 < y_min <= np.min(y):
        raise ValueError("y_min must be positive and at most min(y)")
    return y, float(y_min)


def _term_sum(radial, angular):
    """sum_n radial[..., n] angular[..., n] over the broadcast leading
    shape of the two tables, as one batched product: no (points, terms)
    array is formed, so a tensor grid costs its two 1-D tables and the
    output."""
    return np.matmul(radial[..., None, :], angular[..., :, None])[..., 0, 0]


def log_gamma_r_f64(z):
    """log gamma_r(z) for complex numpy input (principal branch)."""
    z = np.asarray(z, dtype=complex)
    return -(z / 2) * math.log(math.pi) + loggamma(z / 2)


def kit_f64(t, x):
    """K_{it}(x) elementwise for scalar real t and positive array x.

    Branches:
      x >= 2 : truncated trapezoid on the cosine transform
      x <  2 : ascending series of I_{it}, then
               K_{it} = -pi Im I_{it} / sinh(pi t)   (DLMF 10.27.4)
    The series divides by sinh(pi t), zero or subnormal when t is, so at
    t = 0 and 0 < |t| < sys.float_info.min the branch x < 2 takes
    K_0(x) (scipy.special.k0): K_{it} = K_0 + O(t^2) makes the two equal
    in double.

    Relative accuracy ~1e-12 on the contracted range |t| <= 50; x may be
    arbitrarily small (the series handles x -> 0 where K oscillates in
    log x and stays bounded).
    """
    t = float(abs(t))
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    big = x >= 2.0
    if np.any(big):
        out[big] = _kit_cosh_f64(t, x[big])
    small = ~big
    if np.any(small):
        if t < sys.float_info.min:
            out[small] = k0(x[small])
        else:
            out[small] = _kit_series_f64(t, x[small])
    return out


def _kit_cosh_f64(t, x):
    # One shared u-grid for the whole batch, long enough for the smallest x
    # (x >= 2, so at most acosh(22) / h nodes).
    xmin = float(np.min(x))
    U = math.acosh(1.0 + 42.0 / xmin)
    h = min(0.03, 4.4 / (42.0 + 1.3 * abs(t)))
    n = int(math.ceil(U / h)) + 1
    u = np.linspace(0.0, U, n)
    w = np.full(n, u[1] - u[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    ker = np.exp(-np.outer(x, np.cosh(u)))
    ker *= np.cos(t * u)[None, :]
    return ker @ w


def _kit_series_f64(t, x):
    # I_{it}(x) = sum_m (x/2)^(2m+it) / (m! Gamma(m+1+it));
    # the m=0 prefactor is exp(it log(x/2)) / Gamma(1+it).
    lg = loggamma(complex(1.0, t))
    pref = np.exp(1j * t * np.log(x / 2.0) - lg)
    term = pref.astype(complex)
    total = term.copy()
    q = (x / 2.0) ** 2
    for m in range(1, 80):
        term = term * q / (m * (m + 1j * t))
        total += term
        if np.all(np.abs(term) <= 1e-18 * np.abs(total)):
            break
    return -math.pi * total.imag / math.sinh(math.pi * t)


def upper_gamma_f64(a, x):
    """Gamma(a, x) for real a and positive array x, vectorized.

    For a > 0 this is gammaincc(a,x) Gamma(a), except a = 1, where
    Gamma(1, x) = e^-x is taken in place (one array, not two: the rank-4
    Epstein sums at rho = 1 pass millions of lattice terms). Non-positive a
    climbs to a positive shift and walks back down with
        Gamma(a, x) = (Gamma(a+1, x) - x^a e^-x) / a,
    which costs about one digit per unit of |a| in the worst case; fine for
    the |a| <= 3 this artifact uses.
    """
    x = np.asarray(x, dtype=float)
    if a == 1.0:
        g = np.negative(x, out=np.empty_like(x))
        np.exp(g, out=g)
        return g
    m = 0
    while a + m <= 0:
        m += 1
    am = a + m
    g = gammaincc(am, x) * math.exp(gammaln(am))
    for j in range(m):
        aj = am - 1 - j
        g = (g - np.exp(aj * np.log(x) - x)) / aj
    return g
