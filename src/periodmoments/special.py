"""Special functions: completed Gamma factor, zeta, Dirichlet beta,
incomplete gamma, log Gamma, and K-Bessel of real and imaginary order.

Two tiers throughout:

* mpmath-backed scalar routines at the current working precision; these
  are the reference implementations the contracts are stated for.
* _f64 / _grid helpers: vectorized double-precision fast paths (numpy
  only) used by the quadrature-heavy pipelines. The test suite pins them
  against the mpmath tier.

The float64 kernels of real argument and order:

* kve_f64(nu, x) = e^x K_nu(x) for real nu and x >= 2: a generalized
  Gauss-Laguerre rule gives K_mu and K_{mu+1}, mu = nu - floor(nu), and
  the upward recurrence (stable in that direction) the higher orders.
* log_gamma_f64(z): principal log Gamma of complex z, by shifting to
  Re z >= 7 and an 11-term Stirling sum; a cmath loop for a few points.
* upper_gamma_f64(a, x) = Gamma(a, x): the series of gamma(a, x) below
  x = a + 1, Gauss-Legendre up to a + 8, and the Legendre continued
  fraction above it.

The float64 K_{it}(x) for real t (kit_f64) has two branches: the
cosine transform
    K_{it}(x) = int_0^inf exp(-x cosh u) cos(t u) du
at x >= 2, and the ascending series of I_{it} at x < 2, with the K_0
series (DLMF 10.31.2) at t = 0 and subnormal |t|.  Contracted range:
x > 0, down to the 2.5e-30 that the n = 2 Stade log-grid reaches at
s = 1/2, and |t| <= 50 (all this artifact needs); beyond that the
routine still runs but accuracy degrades with |t|.  The tests pin it to 5e-12 relative against mpmath
at |t| <= 7 for x in [0.03, 30] (both branches), and at |t| <= 0.1 on
the n = 2 Stade log-grids below x = 2 (the series and K_0).

The mp tier of K is mpmath's besselk itself, the reference the tests
hold kve_f64 and kit_f64 to; this module adds no mp K-Bessel of its own.

_leggauss(n) is the one Gauss-Legendre memo of the package: the rule of
n nodes on [-1, 1], built once per process and n as read-only arrays,
for the Petersson strip and lune, the n = 2 Plancherel ball and the
Rankin-Selberg AFE's rule in log t.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import cache

import numpy as np
from mpmath import mp
from numpy.polynomial import legendre

from .precision import NonConvergenceError, PoleError, RangeError


@cache
def _leggauss(n: int):
    """Gauss-Legendre rule of n nodes on [-1, 1], built once per process
    on first use (read-only)."""
    nodes, weights = legendre.leggauss(n)
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


# Stirling's series for log Gamma: B_2k / (2k (2k - 1)), k = 1..11.  At
# Re w >= _STIRLING_FROM the first term left out (k = 12) is below 1e-17.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400, 43867 / 244188, -174611 / 125400, 77683 / 5796)
_STIRLING_FROM = 7.0
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)
_SCALAR_POINTS = 8  # log_gamma_f64 takes its cmath loop up to this size
_SHIFT_CHUNK = 8  # factors of the shift product per log (no overflow)


def _stirling_tail(w):
    """sum_k _STIRLING[k-1] w^(1-2k), Horner in 1/w^2 (scalar or array)."""
    r = 1.0 / w
    r2 = r * r
    tail = _STIRLING[-1] * r2
    for c in _STIRLING[-2:0:-1]:
        tail += c
        tail *= r2
    tail += _STIRLING[0]
    tail *= r
    return tail


def _log_gamma_scalar(z: complex) -> complex:
    # log Gamma(z) = log Gamma(z + m) - sum_{j<m} log(z + j): a sum of
    # principal logs keeps the principal branch of log Gamma
    shift = 0j
    while z.real < _STIRLING_FROM:
        shift += cmath.log(z)
        z += 1
    return (z - 0.5) * cmath.log(z) - z + _HALF_LOG_2PI + _stirling_tail(z) - shift


def _log_parts(z):
    """(log|z|, arg z) of a complex array in real arithmetic, about four
    times faster than np.log on complex input; |z| < 1e154."""
    x, y = z.real, z.imag
    return 0.5 * np.log(x * x + y * y), np.arctan2(y, x)


def log_gamma_f64(z):
    """Principal log Gamma(z) for complex z off the poles 0, -1, -2, ...:
    continuous in the plane cut along the negative real axis, the branch
    of mp.loggamma.  Arrays of any shape; a complex array back.

    Each point shifts by m = ceil(_STIRLING_FROM - Re z) (none if that is
    negative) into Stirling's series, and log prod_{j<m} (z + j) comes off
    again.  That log is a sum of principal logs of chunks of the product,
    off the sum of arg(z + j) by 2 pi k for an integer k.  arg(z + t) is
    monotone in t, so the trapezoid estimate Im[(w - 1/2) log w -
    (z - 1/2) log z], w = z + m, lies within pi/2 of that sum, and the
    nearest integer to its distance from the chunked logs, over 2 pi, is k.
    Up to _SCALAR_POINTS points loop in cmath instead, summing one
    principal log per shift.  Accuracy about 1e-14 relative to
    max(1, |log Gamma|).
    """
    z = np.asarray(z, dtype=complex)
    if z.size <= _SCALAR_POINTS:
        flat = [_log_gamma_scalar(v) for v in z.ravel().tolist()]
        return np.array(flat, dtype=complex).reshape(z.shape)
    m = np.maximum(np.ceil(_STIRLING_FROM - z.real), 0.0)
    steps = int(m.max())
    w = z + m
    log_abs, arg = _log_parts(w)
    lead = w - 0.5
    lead *= log_abs + 1j * arg
    out = _stirling_tail(w)
    out += lead
    out -= w
    out.real += _HALF_LOG_2PI
    if steps == 0:
        return out
    ragged = m.min() < steps
    prod = np.ones_like(z)
    args = np.zeros(z.shape)  # sum of the principal args of the chunks
    for j in range(steps):
        factor = z + j
        if ragged:
            factor[m <= j] = 1.0
        prod *= factor
        if (j + 1) % _SHIFT_CHUNK == 0 or j + 1 == steps:
            log_abs, arg = _log_parts(prod)
            out.real -= log_abs
            args += arg
            prod[...] = 1.0
    log_abs, arg = _log_parts(z)
    estimate = lead.imag - (z.real - 0.5) * arg - z.imag * log_abs
    args += 2 * math.pi * np.round((estimate - args) / (2 * math.pi))
    out.imag -= args
    return out


def log_gamma_r_f64(z):
    """log gamma_r(z) for complex numpy input (principal branch)."""
    z = np.asarray(z, dtype=complex)
    return -(z / 2) * math.log(math.pi) + log_gamma_f64(z / 2)


@cache
def _laguerre_rule(mu: float, n: int):
    """n-node Gauss rule for the weight t^(mu - 1/2) e^-t on (0, inf),
    weights normalized to sum 1 (Golub-Welsch on the Jacobi matrix of the
    Laguerre polynomials L^(mu - 1/2)); read-only."""
    alpha = mu - 0.5
    k = np.arange(1, n)
    jacobi = np.diag(2.0 * np.arange(n) + alpha + 1.0)
    off = np.sqrt(k * (k + alpha))
    jacobi += np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = vectors[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def kve_f64(nu, x):
    """e^x K_nu(x) elementwise for scalar real nu and an array x >= 2.

    With mu = |nu| - floor(|nu|) in [0, 1) (K_-nu = K_nu), DLMF 10.32.8
    gives, for the weight t^(mu - 1/2) e^-t,

        e^x K_mu(x)     = sqrt(pi/2x) <(1 + t/2x)^(mu - 1/2)>,
        e^x K_{mu+1}(x) = sqrt(pi/2x) <t (1 + t/2x)^(mu + 1/2)> / (mu + 1/2),

    <.> the normalized Gauss-Laguerre rule of _laguerre_rule.  The branch
    point t = -2x sets its rate, so the batch's smallest x sets the node
    count: 24 below x = 3, 20 below 5 and 12 from there, each the fewest
    that reach the floor against mpmath (9e-16 at nu <= 10, 3.3e-15 at
    the order 169 on x >= 4 pi).  Higher orders come from
    K_{v+1} = K_{v-1} + (2v/x) K_v, stable upward.  The nodes are summed
    in a loop: no (points, nodes) array is formed.  Below x = 2 the rule
    loses digits, so RangeError.
    """
    x = np.asarray(x, dtype=float)
    x_min = float(np.min(x)) if x.size else math.inf
    if not x_min >= 2.0:
        raise RangeError("kve_f64 needs x >= 2 (got min x = %r)" % x_min)
    nu = abs(float(nu))
    whole = math.floor(nu)
    mu = nu - whole
    nodes, weights = _laguerre_rule(mu, 24 if x_min < 3.0 else 20 if x_min < 5.0 else 12)
    half_inv = 0.5 / x
    k_mu = np.zeros_like(x)
    k_next = np.zeros_like(x)
    for t, wt in zip(nodes.tolist(), weights.tolist()):
        base = 1.0 + t * half_inv
        term = base ** (mu - 0.5)
        k_mu += wt * term
        if whole:
            k_next += (wt * t) * (term * base)
    scale = np.sqrt(math.pi * half_inv)
    k_mu *= scale
    if not whole:
        return k_mu
    k_next *= scale / (mu + 0.5)
    for v in range(1, whole):
        k_mu, k_next = k_next, k_mu + (2.0 * (mu + v)) / x * k_next
    return k_next


def kit_f64(t, x):
    """K_{it}(x) elementwise for scalar real t and positive array x.

    Branches:
      x >= 2 : truncated trapezoid on the cosine transform
      x <  2 : ascending series of I_{it}, then
               K_{it} = -pi Im I_{it} / sinh(pi t)   (DLMF 10.27.4)
    The series divides by sinh(pi t), zero or subnormal when t is, so at
    t = 0 and 0 < |t| < sys.float_info.min the branch x < 2 takes the
    K_0 series (_k0_series_f64): K_{it} = K_0 + O(t^2) makes the two
    equal in double.

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
            out[small] = _k0_series_f64(x[small])
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
    lg = _log_gamma_scalar(complex(1.0, t))
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


# terms of the K_0 series for x < 2: (x^2/4)^k / (k!)^2 < 1e-17 at k = 13
_K0_TERMS = 13
_K0_HARMONIC = np.cumsum(1.0 / np.arange(1, _K0_TERMS + 1))
_EULER_GAMMA = 0.5772156649015329


def _k0_series_f64(x):
    """K_0(x) for 0 < x < 2 (DLMF 10.31.2):
    -(log(x/2) + euler) I_0(x) + sum_k H_k (x^2/4)^k / (k!)^2."""
    q = (x / 2.0) ** 2
    terms = np.cumprod(q[:, None] / np.arange(1, _K0_TERMS + 1) ** 2, axis=1)
    i0 = 1.0 + terms.sum(axis=1)
    return terms @ _K0_HARMONIC - (np.log(x / 2.0) + _EULER_GAMMA) * i0


def _cf_depth(a: float, x: float) -> int:
    """Levels of the even Legendre continued fraction of Gamma(a, x)
    (_gamma_fraction) that reach double precision at x: modified Lentz,
    forward, until a level changes the value by less than 2^-53."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        c = b + an / c
        d = 1.0 / (d if d != 0.0 else tiny)
        c = c if c != 0.0 else tiny
        if abs(d * c - 1.0) < 2.0**-53:
            return i + 1
    raise NonConvergenceError("Gamma(%g, %g) continued fraction" % (a, x))


def _gamma_fraction(a, x, depth: int):
    """Gamma(a, x) = x^a e^-x / U_0 for an array x, with the even Legendre
    fraction U_j = x + 2j + 1 - a - (j + 1)(j + 1 - a) / U_{j+1}
    (DLMF 8.9.2, contracted) cut at U_depth = x + 2 depth + 1 - a and run
    backward."""
    u = x + (2 * depth + 1 - a)
    for j in range(depth - 1, -1, -1):
        np.divide((j + 1) * (j + 1 - a), u, out=u)
        np.subtract(x, u, out=u)
        u += 2 * j + 1 - a
    np.divide(x**a, u, out=u)
    u *= np.exp(-x)
    return u


# Gamma(a, x) between x = a + 1 and x0 = a + _GAMMA_QUAD_SPAN is
# Gamma(a, x0) plus a Gauss-Legendre integral of t^(a-1) e^-t over [x, x0].
# The nearest singularity, t = 0, lies a + 1 before the panel's left end,
# so the rule's Bernstein ellipse has rho >= 2.09 for every a > 0, and 27
# nodes give rho^-54 < e^-39.
_GAMMA_QUAD_SPAN = 8.0
_GAMMA_QUAD_NODES = 27


@cache
def _upper_gamma_plan(a: float):
    """What Gamma(a, .) needs for one a > 0, built once per process and a:
    (Gamma(a), x0 = a + span, the fraction's depth at x0, the reciprocals
    1/(a + j) of the gamma(a, x) series up to its length at x = a + 1)."""
    x0 = a + _GAMMA_QUAD_SPAN
    terms, term, total = 0, 1.0, 1.0
    while term > 2.0**-56 * total:
        terms += 1
        term *= (a + 1.0) / (a + terms)
        total += term
    recip = 1.0 / (a + np.arange(1, terms + 1))
    recip.flags.writeable = False
    # Lentz stops at the first level that moves the value by less than
    # 2^-53; the backward fraction is at its floor (4e-16 against mpmath on
    # x >= x0, a in [0.3, 2.5]) two levels before that count and loses
    # digits from four before it
    return math.gamma(a), x0, _cf_depth(a, x0) - 2, recip


def _upper_gamma_pos(a: float, x):
    """Gamma(a, x) for a > 0 and a positive 1-d array x: the series
    gamma(a, x) = x^a e^-x / a sum_n x^n / ((a + 1) ... (a + n)) below
    x = a + 1, Gamma(a, x0) plus the Gauss-Legendre integral on [x, x0] up
    to x0 = a + 8, and the continued fraction at its depth for x0 and
    above.  Each part costs a fixed number of array operations per call."""
    gamma_a, x0, depth, recip = _upper_gamma_plan(a)
    far = x >= x0
    if far.all():
        return _gamma_fraction(a, x, depth)
    out = np.empty_like(x)
    mid = x >= a + 1.0
    mid &= ~far
    # Gamma(a, x0) rides along with the points of the fraction
    frac = _gamma_fraction(a, np.append(x[far], x0), depth)
    out[far] = frac[:-1]
    if mid.any():
        xs = x[mid]
        nodes, weights = _leggauss(_GAMMA_QUAD_NODES)
        half = (x0 - xs) / 2
        t = (x0 - half)[:, None] + half[:, None] * nodes
        out[mid] = frac[-1] + (np.exp((a - 1.0) * np.log(t) - t) @ weights) * half
    low = x < a + 1.0
    if low.any():
        xs = x[low]
        series = 1.0 + np.cumprod(xs[:, None] * recip, axis=1).sum(axis=1)
        out[low] = gamma_a - np.exp(-xs) * xs**a / a * series
    return out


def upper_gamma_f64(a, x):
    """Gamma(a, x) for real a and positive array x, vectorized.

    a = 1 is Gamma(1, x) = e^-x, taken in place (one array, not two: the
    rank-4 Epstein sums at rho = 1 pass millions of lattice terms).  Other
    a > 0 go to _upper_gamma_pos (about 1e-14 relative against mpmath for
    a in [0.3, 2.5]).  Non-positive a climbs to a positive shift and walks
    back down with
        Gamma(a, x) = (Gamma(a+1, x) - x^a e^-x) / a,
    which costs about one digit per unit of |a| in the worst case; fine for
    the |a| <= 3 this artifact uses.  The walk divides by zero at
    a = 0, -1, -2, ...: RangeError there.
    """
    x = np.asarray(x, dtype=float)
    if a <= 0 and a == math.floor(a):
        raise RangeError("upper_gamma_f64 cannot walk down to a = %r, a non-positive "
                         "integer" % a)
    if a == 1.0:
        g = np.negative(x, out=np.empty_like(x))
        np.exp(g, out=g)
        return g
    m = 0
    while a + m <= 0:
        m += 1
    am = a + m
    g = _upper_gamma_pos(float(am), x.ravel()).reshape(x.shape)
    for j in range(m):
        aj = am - 1 - j
        g = (g - np.exp(aj * np.log(x) - x)) / aj
    return g
