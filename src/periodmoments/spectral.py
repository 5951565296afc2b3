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
dense product e1 C e2.  The production tier of stade_check and
stade3_checks (_mb_kernel_factors) never forms C: a randomized range
finder with a fixed-seed sketch returns C ~ Q B of rank r, sized by a
residual bound tied to float64 round-off.  Nor does it form a Whittaker
grid: with A1 = f1 Q and A2 = B f2, each grid would be A1 A2, and the
Stade sum over the grid of W_nu conj(W_mu) is the trace of the r x r
product (A1_mu^H A1_nu)(A2_nu A2_mu^H).  The kernels of a block of
STADE3_BLOCK pairs are factored side by side, once for every s, and
their A1 and A2 come from stacked products.

Plancherel density: G(ix) = |Gamma_R(1+ix)/Gamma_R(ix)|^2
= (x/2pi) tanh(pi x/2) (both forms implemented and compared), and the
spectral measure on the unitary axis is

  d_spec nu = prod_{1<=j<=k<=n-1} G(n(nu_j + ... + nu_k)) d nu

up to an absolute constant that never enters: every downstream claim is
a two-sided ratio (ball mass vs the product proxy
prod (1 + |nu_j+...+nu_k|), conductor proxy = that product squared).
"""

import functools
import itertools
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
    "stade3_checks",
    "stade3_sizes",
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
# (nu, mu) pairs per block of stade3_checks.  A block of 4 factors up to
# 8 kernels side by side (a 160-column first sketch), wide enough for the
# complex GEMM's full rate on H; wider blocks only hold more.  Measured on
# `stade --n 3 --samples 20` (one pinned CPU, one BLAS thread): blocks of
# 1, 2, 4, 8 and 20 pairs took 0.34, 0.31, 0.29-0.32, 0.29-0.32 and
# 0.30-0.31 s and peaked at 73.1, 73.1, 74.4, 83.2 and 105.1 MB RSS
STADE3_BLOCK = 4

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


def _mb_diagonals(alphas):
    """exp(a) and exp(b), one row per alpha in alphas, with
    a_i = sum_k log Gamma_R(u_i - alpha_k) and
    b_j = sum_k log Gamma_R(u_j + alpha_k): the only alpha-dependent part of
    the Mellin-Barnes kernel C = diag(exp(a)) H diag(exp(b))."""
    u, _ = _mb_nodes()
    shifts = np.array(alphas)[..., None]
    # one call for the 2 n shifted node vectors of every alpha, summed in
    # the order of alpha
    lg = special.log_gamma_r_f64(np.stack((u - shifts, u + shifts)))
    return np.exp(lg[0].sum(axis=1)), np.exp(lg[1].sum(axis=1))


def _mb_kernel(alpha):
    """Mellin-Barnes node vector u and the dense kernel matrix C for given
    alpha, C_ij = exp(a_i) H_ij exp(b_j) (the oracle tier's kernel)."""
    u, hankel = _mb_nodes()
    (ea,), (eb,) = _mb_diagonals([alpha])
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
    rng = default_rng(MB_SKETCH_SEED)
    omega_test = rng.standard_normal((m, MB_TEST_COLS))
    omega = rng.standard_normal((m, width))
    omega.flags.writeable = omega_test.flags.writeable = False
    return omega, omega_test


def _mb_kernel_factors(alphas):
    """[(Q, B)] for each alpha in alphas: Q (nodes x r, orthonormal
    columns) and B = Q^H C with C ~ Q B, the randomized range finder
    (Halko, Martinsson and Tropp 2011) applied to the kernel C of
    _mb_kernel without ever forming it.

    C acts only as an operator, C x = exp(a) * (H (exp(b) * x)).  The rank
    starts at MB_RANK0 and doubles, up to the node count, until the
    residual on the separate test columns satisfies
    ||(C - Q B) omega_test|| <= MB_TOL ||C omega_test||.  At the first
    width the kernels share their passes over H: one product applies every
    C to the sketch and the test columns side by side, and one product
    forms every B from the stacked rows Q^H exp(a).  So a call whose
    kernels all stop there streams H twice.  A kernel that misses the bound
    doubles on its own: each doubled width applies its C to its own sketch
    only, then forms its B.  Every factor has the bits of a call for its
    alpha alone.
    """
    _, hankel = _mb_nodes()
    ea, eb = _mb_diagonals(alphas)
    count, m = ea.shape
    width = MB_RANK0
    omega, omega_test = _mb_sketch(width)
    # column block i of the product is H (exp(b_i) * [omega | omega_test])
    c_both = hankel @ np.hstack(eb[:, :, None] * np.hstack((omega, omega_test)))
    c_both = ea.T[:, :, None] * c_both.reshape(m, count, -1)
    qs = [np.linalg.qr(c_both[:, i, :width])[0] for i in range(count)]
    bs = np.vstack([q.conj().T * ea[i] for i, q in enumerate(qs)]) @ hankel
    bs = bs.reshape(count, width, m) * eb[:, None, :]
    factors = []
    for i, (q, b) in enumerate(zip(qs, bs)):
        c_test, w = c_both[:, i, width:], width
        while w < m and not (np.linalg.norm(c_test - q @ (b @ omega_test))
                             <= MB_TOL * np.linalg.norm(c_test)):
            w = min(2 * w, m)
            q, _ = np.linalg.qr(ea[i][:, None] * (hankel @ (eb[i][:, None] * _mb_sketch(w)[0])))
            b = ((q.conj().T * ea[i][None, :]) @ hankel) * eb[i][None, :]
        factors.append((q, b))
    return factors


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
    DLMF 10.40.2 series within 1e-25 at y = 50 to 1e3).  n=3 runs the oracle tier of the double Mellin-Barnes
    integral, the dense kernel GEMM e1 C e2 in double precision, and
    returns a complex (values below ~1e-300 underflow to 0).  The
    production tier, the low-rank kernel C ~ Q B of _mb_kernel_factors,
    serves only the n=3 Stade grids of stade_check and stade3_checks, and
    the tests hold it to this one.
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
        if max(abs(v.imag) for v in p.nu) > 3 + 1e-9:
            raise RangeError("spectral coordinates must satisfy |nu_j| <= 3")


def _stade2_lower(s: float) -> float:
    """Lower end of the n=2 Stade log-grid at s."""
    return -(32.0 / s + 6.0)


@functools.lru_cache(maxsize=1)
def _stade2_kernel(t_nu: float, t_mu: float):
    """(l, kk): the n=2 Stade log-grid of s = 1/2 and
    kk = 4 K_{it_nu}(2 pi y) K_{it_mu}(2 pi y) on it, y = exp(l).

    The grid of s runs from the first node >= -(32/s + 6) to STADE2_UPPER,
    so the grid of every s in [1/2, 3/2] is a suffix of this one.
    cli.run_stade checks the s values of a pair in a row: one entry
    serves them all.  Read-only.
    """
    l = np.arange(_stade2_lower(0.5), STADE2_UPPER + STADE2_H / 2, STADE2_H)
    yy = np.exp(l)
    kk = 4.0 * special.kit_f64(t_nu, 2 * math.pi * yy) * special.kit_f64(t_mu, 2 * math.pi * yy)
    l.flags.writeable = kk.flags.writeable = False
    return l, kk


def _stade_lhs_2(nu: SpectralParams, mu: SpectralParams, s: float) -> float:
    l, kk = _stade2_kernel(nu.nu[0].imag, mu.nu[0].imag)
    i0 = int(np.searchsorted(l, _stade2_lower(s)))
    return float(np.sum(kk[i0:] * np.exp(s * l[i0:])) * STADE2_H)


def _stade3_axes(s: float):
    """Log-grids l1, l2 of the n=3 Stade integral at s (y_i = exp(l_i))."""
    l1_lo = -max(20.0, 20.0 / s)
    l2_lo = -max(20.0, 40.0 / s)
    l1 = np.arange(l1_lo, STADE3_UPPER + STADE3_H / 2, STADE3_H)
    l2 = np.arange(l2_lo, STADE3_UPPER + STADE3_H / 2, STADE3_H)
    return l1, l2


def stade3_sizes(s: float):
    """((rows, columns), nodes): the shape of the n=3 Stade log-grid at s
    and the Mellin-Barnes node count of its kernels."""
    l1, l2 = _stade3_axes(s)
    return (len(l1), len(l2)), len(_mb_nodes()[0])


@functools.cache
def _stade3_grid(s: float):
    """(f1, f2): the Mellin-Barnes exponentials e1, e2 of the n=3 Stade
    grid at s with every real factor of the integrand folded in.

    W*(y1, y2) = MB_PREF y1 y2 (e1 C e2) and the measure weight
    w1 w2 = y1^(2s-2) y2^(s-2) enter as sqrt(MB_PREF w1) y1 on the rows of
    e1 and sqrt(MB_PREF w2) y2 on the columns of e2, so with C ~ Q B the
    integral is STADE3_H^2 trace((A1_mu^H A1_nu)(A2_nu A2_mu^H)) for
    A1 = f1 Q and A2 = B f2.  The grid depends only on s: every (nu, mu)
    pair at that s shares it.
    """
    l1, l2 = _stade3_axes(s)
    y1, y2 = np.exp(l1), np.exp(l2)
    f1, f2 = _mb_exponentials(y1, y2)
    f1 *= (math.sqrt(MB_PREF) * np.exp((s - 1) * l1) * y1)[:, None]
    f2 *= (math.sqrt(MB_PREF) * np.exp((s / 2 - 1) * l2) * y2)[None, :]
    f1.flags.writeable = f2.flags.writeable = False
    return f1, f2


def _stade_lhs_3(pairs, s_values):
    """The n=3 Stade integrals of a block of (nu, mu) pairs at each s,
    from the low-rank kernels C ~ Q B, without forming a Whittaker grid.

    The block's distinct kernels are factored once, for every s.  Each
    grid is A1 A2 with A1 = f1 Q (rows x r) and A2 = B f2 (r x columns):
    at each s one product f1 [Q_1 ... Q_K] and one [B_1; ...; B_K] f2 give
    every kernel's.  sum(W_nu conj(W_mu)) is then the trace of g1 g2 with
    g1 = A1_mu^H A1_nu (r_mu x r_nu) and g2 = A2_nu A2_mu^H (r_nu x r_mu);
    the ranks may differ.  Returns (values, ranks, kernels): values[i][j]
    at pairs[i] and s_values[j], ranks[i] = (r_nu, r_mu) of pairs[i], and
    the number of kernels factored.
    """
    grids = [_stade3_grid(s) for s in s_values]
    alphas = list(dict.fromkeys(p.alpha for pair in pairs for p in pair))
    factors = _mb_kernel_factors(alphas)
    rank = {al: q.shape[1] for al, (q, _) in zip(alphas, factors)}
    q_all = np.hstack([q for q, _ in factors])
    b_all = np.vstack([b for _, b in factors])
    del factors  # only the stacked copies stay while the grids are contracted
    cols = {al: slice(end - rank[al], end)
            for al, end in zip(alphas, itertools.accumulate(rank.values()))}
    values = [[] for _ in pairs]
    for f1, f2 in grids:
        a1, a2 = f1 @ q_all, b_all @ f2
        for out, (nu, mu) in zip(values, pairs):
            cn, cm = cols[nu.alpha], cols[mu.alpha]
            g1 = a1[:, cm].conj().T @ a1[:, cn]
            g2 = a2[cn] @ a2[cm].conj().T
            out.append(complex(STADE3_H**2 * np.sum(g1 * g2.T)))
    return values, [(rank[nu.alpha], rank[mu.alpha]) for nu, mu in pairs], len(alphas)


def _stade_rhs_completed(nu: SpectralParams, mu: SpectralParams, s: float) -> complex:
    """prod_{j,k} Gamma_R(s + alpha_j - beta_k) / (2 Gamma_R(n s)) in float64,
    as the exponential of a sum of log Gamma_R (Gamma_R(n s) > 0)."""
    z = s + np.subtract.outer(nu.alpha, mu.alpha)
    log = np.sum(special.log_gamma_r_f64(z)) - special.log_gamma_r_f64(nu.n * s).real
    return complex(np.exp(log) / 2)


def _stade_result(nu: SpectralParams, mu: SpectralParams, s: float, lhs_c: complex,
                  ranks: tuple) -> dict:
    rhs_c = _stade_rhs_completed(nu, mu, s)
    renorm = _gamma_normalizer(nu, 1) * _gamma_normalizer(mu, -1)
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


def stade_check(nu: SpectralParams, mu: SpectralParams, s: float) -> dict:
    """Both sides of Stade's formula with the relative error.

    lhs/rhs are reported in the normalized convention (completed divided
    by the Gamma_R(1 + ...) products); the
    completed pair is included as well.  rel_err uses complex moduli and
    is identical in the two normalizations.  kernel_ranks holds the ranks
    of the low-rank kernels of (nu, mu) at n=3 and is empty at n=2.  At
    n=3 the pair is a block of one for _stade_lhs_3.
    """
    _validate_stade_inputs(nu, mu, s)
    if nu.n == 2:
        lhs_c, ranks = complex(_stade_lhs_2(nu, mu, s)), ()
    else:
        [[lhs_c]], [ranks], _ = _stade_lhs_3([(nu, mu)], [s])
    return _stade_result(nu, mu, s, lhs_c, ranks)


def stade3_checks(pairs, s_values):
    """stade_check of every n=3 (nu, mu) in pairs at every s in s_values,
    STADE3_BLOCK pairs at a time: each block factors its distinct kernels
    once, for every s.

    Returns (results, kernels): results[i][j] is
    stade_check(*pairs[i], s_values[j]), bit for bit, and kernels[b] the
    number of kernels block b factored.  Every input is validated before
    any block runs.
    """
    for nu, mu in pairs:
        if nu.n != 3:
            raise RangeError("stade3_checks takes n = 3 pairs")
        for s in s_values:
            _validate_stade_inputs(nu, mu, s)
    results, kernels = [], []
    for start in range(0, len(pairs), STADE3_BLOCK):
        block = pairs[start:start + STADE3_BLOCK]
        values, ranks, count = _stade_lhs_3(block, s_values)
        kernels.append(count)
        results += [[_stade_result(nu, mu, s, lhs_c, r) for s, lhs_c in zip(s_values, row)]
                    for (nu, mu), row, r in zip(block, values, ranks)]
    return results, kernels


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
