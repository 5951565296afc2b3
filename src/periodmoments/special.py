"""Special functions: completed Gamma factor, zeta, Dirichlet beta,
incomplete gamma, log Gamma, and K-Bessel of real order.

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
* log_gamma_f64(z): log Gamma modulo 2 pi i on Re z >= 0, by shifting to
  Re z >= 7 and an 11-term Stirling sum; a cmath loop for a few points.
* upper_gamma_f64(a, x) = Gamma(a, x): the series of gamma(a, x) below
  x = a + 1, Gauss-Legendre up to a + 8, and the Legendre continued
  fraction above it.

The mp tier of K is mpmath's besselk itself, the reference the tests
hold kve_f64 to; this module adds no mp K-Bessel of its own.

_leggauss(n) is the one Gauss-Legendre memo of the package: the rule of
n nodes on [-1, 1], built once per process and n as read-only arrays,
for the Petersson strip and lune, the n = 2 Plancherel ball and the
Rankin-Selberg AFE's rule in log t.
"""

from __future__ import annotations

import cmath
import math
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
    """log Gamma(z) modulo 2 pi i for complex z with Re z >= 0, z != 0 and
    |z| <= 1e22 (RangeError elsewhere), arrays of any shape.  Each point
    shifts by m = ceil(_STIRLING_FROM - Re z) <= 7 (none if negative) into
    Stirling's series; one principal log of prod_{j<m} (z + j), whose |.|^2
    overflows past |z| = 1e22, comes off again.  Up to _SCALAR_POINTS points
    loop in cmath.  Real part and phase mod 2 pi within 3e-15 of mpmath,
    relative to max(1, |log Gamma|).
    """
    z = np.asarray(z, dtype=complex)
    if not np.all((z.real >= 0) & (z != 0) & (abs(z) <= 1e22)):
        raise RangeError("log_gamma_f64 needs Re z >= 0 and 0 < |z| <= 1e22")
    if z.size <= _SCALAR_POINTS:
        flat = [_log_gamma_scalar(v) for v in z.ravel().tolist()]
        return np.array(flat, dtype=complex).reshape(z.shape)
    m = np.maximum(np.ceil(_STIRLING_FROM - z.real), 0.0)
    steps = int(m.max())
    w = z + m
    log_abs, arg = _log_parts(w)
    out = w - 0.5
    out *= log_abs + 1j * arg
    out += _stirling_tail(w)
    out -= w
    out.real += _HALF_LOG_2PI
    ragged = m.min() < steps
    prod = np.ones_like(z)
    for j in range(steps):
        factor = z + j
        if ragged:
            factor[m <= j] = 1.0
        prod *= factor
    log_abs, arg = _log_parts(prod)
    out.real -= log_abs
    out.imag -= arg
    return out


def log_gamma_r_f64(z):
    """log gamma_r(z) modulo 2 pi i for complex numpy input, Re z >= 0."""
    half = np.asarray(z, dtype=complex) / 2
    return log_gamma_f64(half) - half * math.log(math.pi)


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
    the order 169 on x >= 4 pi, 2.5e-15 at the fractional orders 158.3 and
    168.3 on x in [2, 400]; a fractional-order reference needs more than
    40 digits, where mpmath's own K is off by up to 3.3e-9 at order
    168.3 and x = 106, and 60 or 150 digits agree).  Higher orders come from
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


# the walk-down of upper_gamma_f64 divides by a + j: this close to a
# non-positive integer it would lose more than its documented digits
_WALK_MIN_DISTANCE = 0.05
# below this positive a the series' cancellation Gamma(a) - gamma(a, x),
# with Gamma(a) near 1/a, costs more than the documented digits near x = 1
_MIN_ORDER = 0.25


def upper_gamma_f64(a, x):
    """Gamma(a, x) for real a and positive array x, vectorized.

    a = 1 is Gamma(1, x) = e^-x, taken in place (one array, not two: the
    rank-4 Epstein sums at rho = 1 pass millions of lattice terms).  Other
    a >= _MIN_ORDER go to _upper_gamma_pos (within 1.6e-14 relative of
    mpmath for a in [0.25, 2.5]); a positive a below it raises RangeError.
    Non-positive a climbs to a positive shift and walks back down with
        Gamma(a, x) = (Gamma(a+1, x) - x^a e^-x) / a,
    which costs about one digit per unit of |a|: within 1e-11 * 10^|a|
    relative on x in [1e-6, 30] at |a| <= 3.5 (3.1e-12 * 10^|a| measured),
    fine for the |a| <= 3 this artifact uses.  Near a non-positive integer
    N the walk divides by a + j ~ a - N, or starts from Gamma(a + m, x) at
    a + m ~ a - N, and loses about log10 1/|a - N| digits more (9.1e-7 at
    a = -1.000001); the loss passes the bound near |a - N| = 0.02
    (1.8e-11 * 10^|a| at a = -3.012).  Within _WALK_MIN_DISTANCE of N,
    N included, RangeError.
    """
    x = np.asarray(x, dtype=float)
    if 0 < a < _MIN_ORDER:
        raise RangeError("upper_gamma_f64 needs a <= 0 or a >= %g, not a = %r" % (_MIN_ORDER, a))
    if a <= 0 and abs(a - round(a)) < _WALK_MIN_DISTANCE:
        raise RangeError("upper_gamma_f64 cannot walk down to a = %r, within %g of the "
                         "non-positive integer %d" % (a, _WALK_MIN_DISTANCE, round(a)))
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
