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

The n=3 Mellin-Barnes kernel C = diag(exp(a)) H diag(exp(b)) on the
nodes u comes in two tiers.  The oracle tier (_mb_kernel,
_whittaker3_completed_grid, used by whittaker) forms C and contracts the
dense product e1 C e2.  The production tier of stade_check
(_mb_kernel_factors) never forms C: a randomized range finder with a
fixed-seed sketch returns C ~ Q B of rank r, sized by a residual bound
tied to float64 round-off, and each Stade grid is (f1 Q)(B f2).

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
# randomized range finder for the n=3 Stade kernel: first sketch width,
# residual bound tied to float64 round-off, separate test columns, seed
MB_RANK0 = 16
MB_TOL = 64 * np.finfo(float).eps
MB_TEST_COLS = 4
MB_SKETCH_SEED = 20110101
# the constant 2^{-3/2} (1/(2 pi i))^2 of W*_nu times du1 du2 = (i MB_H)^2
MB_PREF = 2.0**-1.5 * MB_H**2 / (4 * math.pi**2)

STADE2_H = 0.045
STADE2_UPPER = 2.6
STADE3_H = 0.05
STADE3_UPPER = 2.0

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
            rng = np.random.default_rng(seed)
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
            # open grids: each G factor is evaluated on its own axis and
            # broadcast, in the same product order as on the full mesh
            T1, T2 = np.meshgrid(g1, g2, indexing="ij", sparse=True)
            inside = (T1 - a1) ** 2 + (T2 - a2) ** 2 <= radius**2
            vals = _density_grid_n3(T1, T2) * inside
            integral = float(np.sum(vals) * step * step)
        elif scheme == "mc":
            rng = np.random.default_rng(seed)
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
    Neither depends on alpha: built once per process, on first use."""
    t = np.arange(-MB_T, MB_T + MB_H / 2, MB_H)
    tsum = np.arange(-2 * MB_T, 2 * MB_T + MB_H / 2, MB_H)
    lgh = special.log_gamma_r_f64(1 + 1j * tsum)
    idx = np.add.outer(np.arange(len(t)), np.arange(len(t)))
    u, hankel = 0.5 + 1j * t, np.exp(-lgh[idx])
    u.flags.writeable = hankel.flags.writeable = False
    return u, hankel


def _mb_diagonals(alpha):
    """exp(a) and exp(b) with a_i = sum_k log Gamma_R(u_i - alpha_k) and
    b_j = sum_k log Gamma_R(u_j + alpha_k): the only alpha-dependent part of
    the Mellin-Barnes kernel C = diag(exp(a)) H diag(exp(b))."""
    u, _ = _mb_nodes()
    a = np.zeros_like(u)
    b = np.zeros_like(u)
    for al in alpha:
        a = a + special.log_gamma_r_f64(u - al)
        b = b + special.log_gamma_r_f64(u + al)
    return np.exp(a), np.exp(b)


def _mb_kernel(alpha):
    """Mellin-Barnes node vector u and the dense kernel matrix C for given
    alpha, C_ij = exp(a_i) H_ij exp(b_j) (the oracle tier's kernel)."""
    u, hankel = _mb_nodes()
    ea, eb = _mb_diagonals(alpha)
    return u, ea[:, None] * hankel * eb[None, :]


@functools.cache
def _mb_sketch(width: int):
    """(omega, omega_test): a Gaussian sketch of `width` columns on the
    Mellin-Barnes nodes and MB_TEST_COLS separate test columns.

    Both come from a generator seeded with MB_SKETCH_SEED, never from a
    caller's rng or numpy's global state, so the factorization is the same
    in every run and consumes no draw of the experiments.  The test columns
    are drawn first and so are the same at every width.  Read-only, built
    once per width.
    """
    m = len(_mb_nodes()[0])
    rng = np.random.default_rng(MB_SKETCH_SEED)
    omega_test = rng.standard_normal((m, MB_TEST_COLS))
    omega = rng.standard_normal((m, width))
    omega.flags.writeable = omega_test.flags.writeable = False
    return omega, omega_test


def _mb_kernel_factors(alpha):
    """Q (nodes x r, orthonormal columns) and B = Q^H C with C ~ Q B, the
    randomized range finder (Halko, Martinsson and Tropp 2011) applied to
    the kernel C of _mb_kernel without ever forming it.

    C acts only as an operator, C x = exp(a) * (H (exp(b) * x)).  The rank
    starts at MB_RANK0 and doubles, up to the node count, until the
    residual on the separate test columns satisfies
    ||(C - Q B) omega_test|| <= MB_TOL ||C omega_test||.
    """
    _, hankel = _mb_nodes()
    ea, eb = _mb_diagonals(alpha)

    def apply(x):
        return ea[:, None] * (hankel @ (eb[:, None] * x))

    m = len(ea)
    width = MB_RANK0
    omega_test = _mb_sketch(width)[1]
    c_test = apply(omega_test)
    while True:
        q, _ = np.linalg.qr(apply(_mb_sketch(width)[0]))
        b = ((q.conj().T * ea[None, :]) @ hankel) * eb[None, :]
        resid = np.linalg.norm(c_test - q @ (b @ omega_test))
        if width == m or resid <= MB_TOL * np.linalg.norm(c_test):
            return q, b
        width = min(2 * width, m)


def _mb_exponentials(y1: np.ndarray, y2: np.ndarray):
    """e1 = y1^(-u) as (len(y1), len(u)) and e2 = y2^(-u) as (len(u), len(y2))."""
    u, _ = _mb_nodes()
    e1 = np.exp(-np.log(y1)[:, None] * u[None, :])
    e2 = np.exp(-np.log(y2)[None, :] * u[:, None])
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
def _gamma_normalizer(params: SpectralParams, sign: int):
    """prod_{j<=k} Gamma_R(1 + sign * n (nu_j+...+nu_k)) as mpc, at 30
    digits whatever the working precision, once per (params, sign)."""
    with mp.workdps(30):
        out = special.gamma_r(1)  # exact 1, keeps mp types uniform
        for f in nu_linear_forms(params):
            out *= special.gamma_r(1 + sign * params.n * f)
        return out


def whittaker(params: SpectralParams, y, normalization: str = "normalized"):
    """Whittaker function at y (length n-1 positive vector).

    n=2 runs the arbitrary-precision K-Bessel route and returns an mp
    number; n=3 runs the oracle tier of the double Mellin-Barnes
    integral, the dense kernel GEMM e1 C e2 in double precision, and
    returns a complex (values below ~1e-300 underflow to 0).  The
    production tier, the low-rank kernel C ~ Q B of _mb_kernel_factors,
    serves only the n=3 Stade grids of stade_check, and the tests hold it
    to this one.
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
            val = special.bessel_k(params.nu[0], 2 * mp.pi * yv)
            out = 2 * mp.sqrt(yv) * val
            if normalization == "normalized":
                out = out / special.gamma_r(1 + 2 * params.nu[0])
            return out
    if params.n == 3:
        y1, y2 = np.array([ys[0]]), np.array([ys[1]])
        w = _whittaker3_completed_grid(params, y1, y2, *_mb_exponentials(y1, y2))[0, 0]
        if normalization == "normalized":
            w = complex(w) / complex(_gamma_normalizer(params, 1))
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
        if max(abs(v.imag) for v in p.nu) > 3 + 1e-9:
            raise RangeError("spectral coordinates must satisfy |nu_j| <= 3")


def _stade_lhs_2(nu: SpectralParams, mu: SpectralParams, s: float) -> float:
    t_nu = nu.nu[0].imag
    t_mu = mu.nu[0].imag
    lower = -(32.0 / s + 6.0)
    l = np.arange(lower, STADE2_UPPER + STADE2_H / 2, STADE2_H)
    yy = np.exp(l)
    vals = (
        4.0
        * special.kit_f64(t_nu, 2 * math.pi * yy)
        * special.kit_f64(t_mu, 2 * math.pi * yy)
        * np.exp(s * l)
    )
    return float(np.sum(vals) * STADE2_H)


def _stade3_axes(s: float):
    """Log-grids l1, l2 of the n=3 Stade integral at s (y_i = exp(l_i))."""
    l1_lo = -max(20.0, 20.0 / s)
    l2_lo = -max(20.0, 40.0 / s)
    l1 = np.arange(l1_lo, STADE3_UPPER + STADE3_H / 2, STADE3_H)
    l2 = np.arange(l2_lo, STADE3_UPPER + STADE3_H / 2, STADE3_H)
    return l1, l2


@functools.cache
def _stade3_grid(s: float):
    """(f1, f2): the Mellin-Barnes exponentials e1, e2 of the n=3 Stade
    grid at s with every real factor of the integrand folded in.

    W*(y1, y2) = MB_PREF y1 y2 (e1 C e2) and the measure weight
    w1 w2 = y1^(2s-2) y2^(s-2) enter as sqrt(MB_PREF w1) y1 on the rows of
    e1 and sqrt(MB_PREF w2) y2 on the columns of e2, so the integral is
    STADE3_H^2 sum((f1 C_nu f2) conj(f1 C_mu f2)).  The grid depends only
    on s: every (nu, mu) pair at that s shares it.
    """
    l1, l2 = _stade3_axes(s)
    y1, y2 = np.exp(l1), np.exp(l2)
    f1, f2 = _mb_exponentials(y1, y2)
    f1 *= (math.sqrt(MB_PREF) * np.exp((s - 1) * l1) * y1)[:, None]
    f2 *= (math.sqrt(MB_PREF) * np.exp((s / 2 - 1) * l2) * y2)[None, :]
    f1.flags.writeable = f2.flags.writeable = False
    return f1, f2


def _stade_lhs_3(nu: SpectralParams, mu: SpectralParams, s: float):
    """The n=3 Stade integral from the low-rank kernels C ~ Q B of nu and
    mu, and their ranks: each grid is (f1 Q)(B f2), never f1 C f2."""
    f1, f2 = _stade3_grid(s)

    def grid(params):
        q, b = _mb_kernel_factors(params.alpha)
        return (f1 @ q) @ (b @ f2), q.shape[1]

    wn, rank_nu = grid(nu)
    wm, rank_mu = (wn, rank_nu) if mu == nu else grid(mu)
    return complex(np.sum(wn * np.conjugate(wm)) * STADE3_H**2), (rank_nu, rank_mu)


def _stade_rhs_completed(nu: SpectralParams, mu: SpectralParams, s: float) -> complex:
    with mp.workdps(30):
        acc = mp.mpf(1)
        for aj in nu.alpha:
            for bk in mu.alpha:
                acc *= special.gamma_r(s + aj - bk)
        acc /= 2 * special.gamma_r(nu.n * s)
        return complex(acc)


def stade_check(nu: SpectralParams, mu: SpectralParams, s: float) -> dict:
    """Both sides of Stade's formula with the relative error.

    lhs/rhs are reported in the normalized convention (completed divided
    by the Gamma_R(1 + ...) products); the
    completed pair is included as well.  rel_err uses complex moduli and
    is identical in the two normalizations.  kernel_ranks holds the ranks
    of the low-rank kernels of (nu, mu) at n=3 and is empty at n=2.
    """
    _validate_stade_inputs(nu, mu, s)
    if nu.n == 2:
        lhs_c, ranks = complex(_stade_lhs_2(nu, mu, s)), ()
    else:
        lhs_c, ranks = _stade_lhs_3(nu, mu, s)
    rhs_c = _stade_rhs_completed(nu, mu, s)
    with mp.workdps(30):
        renorm = complex(_gamma_normalizer(nu, 1) * _gamma_normalizer(mu, -1))
    lhs = lhs_c / renorm
    rhs = rhs_c / renorm
    rel = abs(lhs_c - rhs_c) / abs(rhs_c)
    return {
        "n": nu.n,
        "s": s,
        "lhs": lhs,
        "rhs": rhs,
        "rel_err": rel,
        "lhs_completed": lhs_c,
        "rhs_completed": rhs_c,
        "kernel_ranks": ranks,
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
