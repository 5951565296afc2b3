"""GL(n) spectral-parameter algebra, Plancherel density, Whittaker
functions for n = 2, 3, and numerical verification of Stade's integral
formula.

Conventions.  A spectral point nu in (iR)^{n-1} determines Langlands
parameters alpha in (iR)^n through the integer matrix C,

  alpha_j = sum_i c_ij nu_i,   c_ij = n - i for j <= i,  -i for j > i,

which is the power-function exponent functional evaluated at the
co-roots and inverts as nu_j = (alpha_j - alpha_{j+1})/n.  The Jacquet
integral defining the Whittaker function stays documentation-only; the
numeric route is the completed normalization

  n=2:  W*_nu(y)      = 2 sqrt(y) K_{nu}(2 pi y)
  n=3:  W*_nu(y1,y2)  = 2^{-3/2} y1 y2 (1/(2 pi i)^2)
          iint prod_j [Gamma_R(u1-alpha_j) Gamma_R(u2+alpha_j)]
               / Gamma_R(u1+u2) * y1^{-u1} y2^{-u2} du1 du2

(double Mellin-Barnes on the contours Re u = 1/2, right of every kernel
pole), for which Stade's formula

  int W*_nu(y) conj(W*_mu(y)) det(y)^s d*y
      = prod_{j,k} Gamma_R(s + alpha_j - beta_k) / (2 Gamma_R(ns))

holds exactly; here det(y) = prod y_i^{n-i} and
d*y = prod y_k^{-k(n-k)} dy_k / y_k.  The uncompleted normalization
divides W* by prod_{j<=k} Gamma_R(1 + n(nu_j + ... + nu_k)); at nu = 0
the two coincide (Gamma_R(1) = 1), giving W_0(y) = 2 sqrt(y) K_0(2 pi y)
on GL(2).  stade_check evaluates both sides in the completed
normalization (no exponentially large factors) and renormalizes; the
relative error is unchanged by construction.  At generic (nu, mu) the
n=3 values are complex (conjugate-symmetric under swapping nu and mu);
they are real on the mu = nu locus.

Two routes, one per purpose.  whittaker evaluates W*_nu on the y-side:
at n=3 the oracle tier forms the kernel C = diag(exp(a)) H diag(exp(b))
on the Mellin-Barnes nodes u and contracts the dense product e1 C e2.
stade_check never forms a Whittaker function: by the Mellin-Parseval
identity its left side is a trapezoid sum of Gamma_R products in t, one
dimension at n=2 and, at n=3, one convolution of two such products
(_stade_lhs).  The tests hold it to the y-side integrals of mpmath's
K-Bessel and of the dense Mellin-Barnes grid.

Plancherel density: G(ix) = |Gamma_R(1+ix)/Gamma_R(ix)|^2
= (x/2pi) tanh(pi x/2) (both forms implemented and compared), and the
spectral measure on the unitary axis is

  d_spec nu = prod_{1<=j<=k<=n-1} G(n(nu_j + ... + nu_k)) d nu

up to an absolute constant that never enters: every downstream claim is
a two-sided ratio (ball mass vs the product proxy
prod (1 + |nu_j+...+nu_k|), conductor proxy = that product squared).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp
from numpy.random import default_rng

from . import special
from .precision import RangeError

__all__ = [
    "SpectralParams",
    "spectral_params",
    "nu_linear_forms",
    "plancherel_g_tanh",
    "plancherel_g_gamma",
    "plancherel_density",
    "plancherel_ball",
    "whittaker",
    "stade_check",
    "stade_rhs_simple",
]

IMAG_TOL = 1e-12
Y_MIN, Y_MAX = 1e-3, 1e3

MB_T = 22.0
MB_H = 0.06
# the constant 2^{-3/2} (1/(2 pi i))^2 of W*_nu times du1 du2 = (i MB_H)^2
MB_PREF = 2.0**-1.5 * MB_H**2 / (4 * math.pi**2)

# stade_check admits |nu_j| <= STADE_NU_MAX.  Past its largest shift the
# Mellin-side Stade integrand decays like e^{-pi |t|}: STADE_TAIL further
# on it has fallen by the float64 epsilon
STADE_NU_MAX = 3.0
STADE_TAIL = -math.log(np.finfo(float).eps) / math.pi

BALL_GRID_1D = 400
BALL_GRID_2D = 600
BALL_MC_SAMPLES = 200000


@dataclass(frozen=True)
class SpectralParams:
    """nu in (iR)^{n-1} with derived Langlands parameters alpha in (iR)^n."""

    n: int
    nu: tuple
    alpha: tuple


def _coroot_matrix(n: int) -> np.ndarray:
    """c[i-1, j-1] = n-i if j <= i else -i (i = 1..n-1, j = 1..n)."""
    c = np.zeros((n - 1, n), dtype=int)
    for i in range(1, n):
        for j in range(1, n + 1):
            c[i - 1, j - 1] = (n - i) if j <= i else -i
    return c


def spectral_params(n: int, nu) -> SpectralParams:
    if n < 2:
        raise RangeError("n must be >= 2")
    nu = tuple(complex(v) for v in np.atleast_1d(nu))
    if len(nu) != n - 1:
        raise RangeError("nu must have length n-1 = %d" % (n - 1))
    if any(abs(v.real) > IMAG_TOL for v in nu):
        raise RangeError("nu must be purely imaginary")
    nu = tuple(1j * v.imag for v in nu)
    c = _coroot_matrix(n)
    alpha = tuple(
        1j * sum(c[i, j] * nu[i].imag for i in range(n - 1)) for j in range(n)
    )
    assert abs(sum(alpha)) < 1e-9
    return SpectralParams(n=n, nu=nu, alpha=alpha)


def nu_linear_forms(params: SpectralParams) -> list:
    """All partial sums nu_j + ... + nu_k for 1 <= j <= k <= n-1."""
    out = []
    for j in range(params.n - 1):
        acc = 0j
        for k in range(j, params.n - 1):
            acc += params.nu[k]
            out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Plancherel density and ball masses


def plancherel_g_tanh(x):
    """G(ix) = (x/2pi) tanh(pi x/2), elementwise on floats or arrays."""
    return x / (2 * math.pi) * np.tanh(math.pi * x / 2)


def plancherel_g_gamma(x: float) -> float:
    """|Gamma_R(1+ix)/Gamma_R(ix)|^2; agrees with the tanh form."""
    if x == 0.0:
        return 0.0
    z = 1j * x
    diff = special.log_gamma_r_f64(1 + z) - special.log_gamma_r_f64(z)
    return float(np.exp(2 * np.real(diff)))


def plancherel_density(params: SpectralParams, route: str = "nu") -> float:
    """prod_{j<=k} G(n(nu_j+...+nu_k)), equivalently prod_{j<k} G(alpha_j-alpha_k)."""
    if route == "nu":
        xs = [params.n * f.imag for f in nu_linear_forms(params)]
    elif route == "alpha":
        a = params.alpha
        xs = [
            (a[j] - a[k]).imag for j in range(params.n) for k in range(j + 1, params.n)
        ]
    else:
        raise ValueError("route must be 'nu' or 'alpha'")
    out = 1.0
    for x in xs:
        out *= plancherel_g_tanh(x)
    return out


def _proxy(params: SpectralParams) -> float:
    out = 1.0
    for f in nu_linear_forms(params):
        out *= 1.0 + abs(f.imag)
    return out


def _density_grid_n3(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    g = plancherel_g_tanh
    return g(3 * t1) * g(3 * t2) * g(3 * (t1 + t2))


def plancherel_ball(
    params: SpectralParams,
    radius: float = 1.0,
    scheme: str = "quadrature",
    seed: int = 0,
) -> dict:
    """Spectral mass of the Euclidean ball ||mu - nu|| <= radius.

    n=2: Gauss-Legendre on the interval; n=3: midpoint grid (or seeded
    Monte-Carlo) on the bounding box with ball indicator.  Returns the
    integral together with the product proxy prod(1 + |nu_j+...+nu_k|)
    at the center.  An integral that is not finite and positive (the
    cell area of a tiny radius underflows) raises RangeError.
    """
    if not 0 < radius <= 2:
        raise RangeError("radius must lie in (0, 2]")
    if params.n not in (2, 3):
        raise RangeError("ball integrals implemented for n = 2, 3")
    center = [v.imag for v in params.nu]
    stderr = None
    if params.n == 2:
        a = center[0]
        if scheme == "quadrature":
            gn, gw = special._leggauss(BALL_GRID_1D)
            t = a + radius * gn
            integral = float(np.sum(gw * plancherel_g_tanh(2 * t)) * radius)
        elif scheme == "mc":
            rng = default_rng(seed)
            t = rng.uniform(a - radius, a + radius, BALL_MC_SAMPLES)
            vals = plancherel_g_tanh(2 * t)
            integral = float(np.mean(vals) * 2 * radius)
            stderr = float(np.std(vals) * 2 * radius / math.sqrt(BALL_MC_SAMPLES))
        else:
            raise ValueError("scheme must be 'quadrature' or 'mc'")
    else:
        a1, a2 = center
        if scheme == "quadrature":
            m = BALL_GRID_2D
            step = 2 * radius / m
            g1 = a1 - radius + (np.arange(m) + 0.5) * step
            g2 = a2 - radius + (np.arange(m) + 0.5) * step
            # G(3 t1) and G(3 t2) on their own axes; the axes share the
            # step, so t1 + t2 = a1 + a2 - 2 radius + (i + j + 1) step takes
            # 2m - 1 values, read through the zero-copy Hankel view
            # gsum[i, j] = G(3 tsum[i + j]); product order as on the full
            # mesh of _density_grid_n3
            g = plancherel_g_tanh
            T1, T2 = np.meshgrid(g1, g2, indexing="ij", sparse=True)
            inside = (T1 - a1) ** 2 + (T2 - a2) ** 2 <= radius**2
            tsum = a1 + a2 - 2 * radius + (np.arange(2 * m - 1) + 1) * step
            gsum = np.lib.stride_tricks.sliding_window_view(g(3 * tsum), m)
            vals = g(3 * T1) * g(3 * T2) * gsum * inside
            integral = float(np.sum(vals) * step * step)
        elif scheme == "mc":
            rng = default_rng(seed)
            t1 = rng.uniform(a1 - radius, a1 + radius, BALL_MC_SAMPLES)
            t2 = rng.uniform(a2 - radius, a2 + radius, BALL_MC_SAMPLES)
            inside = (t1 - a1) ** 2 + (t2 - a2) ** 2 <= radius**2
            vals = _density_grid_n3(t1, t2) * inside
            area = (2 * radius) ** 2
            integral = float(np.mean(vals) * area)
            stderr = float(np.std(vals) * area / math.sqrt(BALL_MC_SAMPLES))
        else:
            raise ValueError("scheme must be 'quadrature' or 'mc'")
    if not 0.0 < integral < math.inf:
        raise RangeError("radius = %r takes the ball integral out of float64 range (%g)"
                         % (radius, integral))
    proxy = _proxy(params)
    return {
        "integral": integral,
        "proxy": proxy,
        "ratio": integral / proxy,
        "scheme": scheme,
        "stderr": stderr,
    }


# ---------------------------------------------------------------------------
# Whittaker functions


def _check_y_range(ys):
    for y in ys:
        if not Y_MIN <= y <= Y_MAX:
            raise RangeError("y outside [%g, %g]" % (Y_MIN, Y_MAX))


@functools.cache
def _mb_nodes():
    """Node vector u and Hankel matrix H_ij = exp(-log Gamma_R(u_i + u_j)).
    Neither depends on alpha: built once per process, on first use.

    H is constant along anti-diagonals, so each of the 2m - 1 values is
    exponentiated once and H is copied out of the zero-copy Hankel view
    of that vector: the build holds no m x m temporary besides H itself.
    """
    t = np.arange(-MB_T, MB_T + MB_H / 2, MB_H)
    tsum = np.arange(-2 * MB_T, 2 * MB_T + MB_H / 2, MB_H)
    lgh = special.log_gamma_r_f64(1 + 1j * tsum)
    u, m = 0.5 + 1j * t, len(t)
    hankel = np.lib.stride_tricks.sliding_window_view(np.exp(-lgh[:2 * m - 1]), m).copy()
    u.flags.writeable = hankel.flags.writeable = False
    return u, hankel


def _gamma_r_products(z, shifts):
    """prod_k Gamma_R(z + shifts[..., k]) on the node vector z, one row per
    leading index of shifts: the exponential of a sum of log Gamma_R, taken
    in one call over every shifted node vector and summed in the order of k."""
    lg = special.log_gamma_r_f64(z + np.asarray(shifts)[..., None])
    return np.exp(lg.sum(axis=-2))


def _mb_kernel(alpha):
    """Mellin-Barnes node vector u and the dense kernel matrix C for given
    alpha, C_ij = exp(a_i) H_ij exp(b_j) (the oracle tier's kernel), with
    exp(a_i) = prod_k Gamma_R(u_i - alpha_k) and
    exp(b_j) = prod_k Gamma_R(u_j + alpha_k)."""
    u, hankel = _mb_nodes()
    shifts = np.array(alpha)
    ea, eb = _gamma_r_products(u, [-shifts, shifts])
    return u, ea[:, None] * hankel * eb[None, :]


def _mb_exponentials(y1: np.ndarray, y2: np.ndarray):
    """e1 = y1^(-u) as (len(y1), len(u)) and e2 = y2^(-u) as (len(u), len(y2))."""
    u, _ = _mb_nodes()
    e1 = -np.log(y1)[:, None] * u[None, :]
    e2 = -np.log(y2)[None, :] * u[:, None]
    # in place: the build holds no second array of each size
    np.exp(e1, out=e1)
    np.exp(e2, out=e2)
    return e1, e2


def _whittaker3_completed_grid(
    params: SpectralParams, y1: np.ndarray, y2: np.ndarray, e1: np.ndarray, e2: np.ndarray
) -> np.ndarray:
    """W*_nu on the product grid y1 x y2, shape (len(y1), len(y2)).

    e1, e2 are _mb_exponentials(y1, y2), which callers share across nu.
    """
    _, kernel = _mb_kernel(params.alpha)
    w = e1 @ kernel @ e2
    return MB_PREF * np.outer(y1, y2) * w


# stade_check asks for the same normalizers at every s, and SpectralParams
# is frozen, so (params, sign) is a cache key
@functools.cache
def _gamma_normalizer(params: SpectralParams, sign: int) -> complex:
    """prod_{j<=k} Gamma_R(1 + sign * n (nu_j+...+nu_k)) in float64, as
    the exponential of a sum of log Gamma_R, once per (params, sign)."""
    z = 1 + sign * params.n * np.array(nu_linear_forms(params))
    return complex(np.exp(np.sum(special.log_gamma_r_f64(z))))


def whittaker(params: SpectralParams, y, normalization: str = "normalized"):
    """Whittaker function at y (length n-1 positive vector).

    n=2 is 2 sqrt(y) K_nu(2 pi y) from mpmath's besselk at 30 digits.
    The order is imaginary, so K is real and its real part is returned
    (mpmath's imaginary part is rounding, 1e-53 relative at y = 1e3): the
    completed value is a real mp number with about 30 correct digits up
    to Y_MAX, where K(2 pi y) is near 3e-2731 (the tests hold it to the
    DLMF 10.40.2 series within 1e-25 at y = 50 to 1e3).  n=3 runs the
    oracle tier of the double Mellin-Barnes integral, the dense kernel GEMM
    e1 C e2 in double precision, and returns a complex (values below
    ~1e-300 underflow to 0).
    """
    if normalization not in ("normalized", "completed"):
        raise ValueError("normalization must be 'normalized' or 'completed'")
    ys = [float(v) for v in np.atleast_1d(y)]
    if len(ys) != params.n - 1:
        raise RangeError("y must have length n-1")
    _check_y_range(ys)
    if params.n == 2:
        with mp.workdps(30):
            yv = mp.mpf(ys[0])
            val = mp.re(mp.besselk(params.nu[0], 2 * mp.pi * yv))
            out = 2 * mp.sqrt(yv) * val
            if normalization == "normalized":
                out = out / special.gamma_r(1 + 2 * params.nu[0])
            return out
    if params.n == 3:
        y1, y2 = np.array([ys[0]]), np.array([ys[1]])
        w = _whittaker3_completed_grid(params, y1, y2, *_mb_exponentials(y1, y2))[0, 0]
        if normalization == "normalized":
            w = complex(w) / _gamma_normalizer(params, 1)
        return complex(w)
    raise RangeError("whittaker implemented for n = 2, 3")


# ---------------------------------------------------------------------------
# Stade's formula


def _validate_stade_inputs(nu: SpectralParams, mu: SpectralParams, s: float):
    if nu.n != mu.n:
        raise RangeError("nu and mu must share n")
    if nu.n not in (2, 3):
        raise RangeError("stade_check implemented for n = 2, 3")
    if not 0.5 <= s <= 1.5:
        raise RangeError("s must lie in [1/2, 3/2]")
    for p in (nu, mu):
        if max(abs(v.imag) for v in p.nu) > STADE_NU_MAX + 1e-9:
            raise RangeError("spectral coordinates must satisfy |nu_j| <= %g" % STADE_NU_MAX)


def _stade_nodes(n: int, s: float):
    """(t, h): the nodes t = h (-k, ..., k) of the Mellin-side Stade sum.

    The integrand's nearest poles lie s/2 off the real t axis, so the
    step h = MB_H s holds the trapezoid error near exp(-pi / MB_H) at every
    s (Trefethen and Weideman, SIAM Review 56(3), 2014).  The window runs
    STADE_TAIL past the largest |alpha_j| that the guard |nu_j| <=
    STADE_NU_MAX admits, 3 at n = 2 and 9 at n = 3, so the nodes depend only
    on n and s.
    """
    h = MB_H * s
    shift = STADE_NU_MAX * np.abs(_coroot_matrix(n)).sum(axis=0).max()
    k = math.ceil((shift + STADE_TAIL) / h)
    return h * np.arange(-k, k + 1), h


def _stade_lhs(nu: SpectralParams, mu: SpectralParams, s: float, t: np.ndarray,
               h: float) -> complex:
    """The completed left side of Stade's formula at s on the nodes (t, h)
    of _stade_nodes, by the Mellin-Parseval identity (Stade proved the
    formula on this side: E. Stade, Israel J. Math. 127, 2002).

    n=2: K_nu(2 pi y) = W*_nu(y) / (2 sqrt y) has the Mellin transform
    Gamma_R(w + nu) Gamma_R(w - nu) / 4, so the integral is

      (1/8 pi) int F_nu(t) conj(F_mu(t)) dt,
      F_nu(t) = prod_j Gamma_R(s/2 + it - alpha_j).

    n=3: W*_nu / (y1 y2) is 2^{-3/2} times the inverse Mellin transform of
    the kernel K_nu(u) = prod_j Gamma_R(u1 - alpha_j) Gamma_R(u2 + alpha_j)
    / Gamma_R(u1 + u2), so the integral is

      (1/32 pi^2) iint K_nu(u) conj(K_mu(u)) dt1 dt2,
      u = (s + it1, s/2 + it2).

    The integrand is A(t1) B(t2) g(t1 + t2) with A = prod_j Gamma_R(s + it1
    - alpha_j) conj(Gamma_R(s + it1 - beta_j)), B = prod_j Gamma_R(s/2 + it2
    + alpha_j) conj(Gamma_R(s/2 + it2 + beta_j)) and
    g(tau) = |1/Gamma_R(3s/2 + i tau)|^2.  The axes share the nodes, so the
    double sum is the convolution of A and B dotted with g on the 2m - 1
    sums tau = t_i + t_j: no m x m array is formed.
    """
    alphas = np.array([nu.alpha, mu.alpha])
    if nu.n == 2:
        f = _gamma_r_products(s / 2 + 1j * t, -alphas)
        return complex(np.sum(f[0] * f[1].conj()) * h / (8 * math.pi))
    a = _gamma_r_products(s + 1j * t, -alphas)
    b = _gamma_r_products(s / 2 + 1j * t, alphas)
    tau = h * np.arange(1 - len(t), len(t))
    g = np.exp(-2 * special.log_gamma_r_f64(1.5 * s + 1j * tau).real)
    ab = np.convolve(a[0] * a[1].conj(), b[0] * b[1].conj())
    return complex(ab @ g * h**2 / (32 * math.pi**2))


def _stade_rhs_completed(nu: SpectralParams, mu: SpectralParams, s: float) -> complex:
    """prod_{j,k} Gamma_R(s + alpha_j - beta_k) / (2 Gamma_R(n s)) in float64,
    as the exponential of a sum of log Gamma_R (Gamma_R(n s) > 0)."""
    z = s + np.subtract.outer(nu.alpha, mu.alpha)
    log = np.sum(special.log_gamma_r_f64(z)) - special.log_gamma_r_f64(nu.n * s).real
    return complex(np.exp(log) / 2)


def stade_check(nu: SpectralParams, mu: SpectralParams, s: float) -> dict:
    """Both sides of Stade's formula with the relative error.

    lhs/rhs are reported in the normalized convention (completed divided
    by the Gamma_R(1 + ...) products); the completed pair is included as
    well.  rel_err uses complex moduli and is identical in the two
    normalizations.  nodes and step are those of the Mellin-side sum
    (_stade_nodes): its t-nodes per axis, the same for every (nu, mu) at
    n and s.
    """
    _validate_stade_inputs(nu, mu, s)
    t, h = _stade_nodes(nu.n, s)
    lhs_c = _stade_lhs(nu, mu, s, t, h)
    rhs_c = _stade_rhs_completed(nu, mu, s)
    renorm = _gamma_normalizer(nu, 1) * _gamma_normalizer(mu, -1)
    return {
        "n": nu.n,
        "s": s,
        "lhs": lhs_c / renorm,
        "rhs": rhs_c / renorm,
        "rel_err": abs(lhs_c - rhs_c) / abs(rhs_c),
        "lhs_completed": lhs_c,
        "rhs_completed": rhs_c,
        "nodes": len(t),
        "step": h,
    }


def stade_rhs_simple(nu: SpectralParams, s: float) -> complex:
    """The simplified Gamma quotient prod Gamma_R(s + n sum) / Gamma_R(1 + n sum).

    Two-sided comparable (ratio bounded) with the normalized Stade
    value for s in [1/2, 3/2] and mu near nu.
    """
    with mp.workdps(30):
        acc = special.gamma_r(1)
        for f in nu_linear_forms(nu):
            acc *= special.gamma_r(s + nu.n * f) / special.gamma_r(1 + nu.n * f)
        return complex(acc)
