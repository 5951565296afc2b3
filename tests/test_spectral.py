"""Spectral-parameter algebra, Plancherel density/ball masses, Whittaker
functions, and Stade's formula.

Oracles: the coroot matrix is checked against the hand-expanded n=3 map;
G comes in two independently coded forms (tanh vs Gamma-quotient); the
GL(2) Whittaker route is compared against mpmath's besselk computed in
this file; Stade's identity itself is the claim under test, with the
exact constants pi/2 (n=2) and pi (n=3) at the mu=nu, s=1 corner where
every nu-dependent factor cancels analytically.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from periodmoments import cli, special
from periodmoments import spectral as sp
from periodmoments.precision import RangeError

# (1/pi) tanh(pi), both G routes; spec sheet prints 0.31810 for this
# constant but the two independent formulas agree on the value below.
G_AT_2 = 0.31712325118991574

# 2 K_0(2 pi): completed = normalized GL(2) Whittaker value at nu=0, y=1.
W2_AT_ORIGIN = "0.0018331687218087406238"


def test_coroot_matrix_n3_example():
    p = sp.spectral_params(3, [0.3j, -0.7j])
    v1, v2 = 0.3, -0.7
    expect = (2 * v1 + v2, -v1 + v2, -v1 - 2 * v2)
    for got, want in zip(p.alpha, expect):
        assert abs(got - 1j * want) < 1e-15
    assert abs(sum(p.alpha)) < 1e-15


def uniform_params(n, bound, rng):
    """Uniform imaginary coordinates with |Im nu_j| <= bound."""
    return sp.spectral_params(n, [1j * v for v in rng.uniform(-bound, bound, n - 1)])


def test_alpha_roundtrip_and_n2():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        p = uniform_params(n, 10.0, rng)
        # the inverse map nu_j = (alpha_j - alpha_{j+1})/n
        back = [(p.alpha[j] - p.alpha[j + 1]) / n for j in range(n - 1)]
        assert max(abs(a - b) for a, b in zip(back, p.nu)) < 1e-12
        assert abs(sum(p.alpha)) < 1e-12
    p2 = sp.spectral_params(2, [1.3j])
    assert abs(p2.alpha[0] - 1.3j) < 1e-15 and abs(p2.alpha[1] + 1.3j) < 1e-15


def test_spectral_params_validation():
    with pytest.raises(RangeError):
        sp.spectral_params(3, [0.1 + 0.3j, 0.5j])
    with pytest.raises(RangeError):
        sp.spectral_params(3, [0.3j])
    with pytest.raises(RangeError):
        sp.spectral_params(1, [])


def test_plancherel_g_two_routes():
    rng = np.random.default_rng(11)
    for x in rng.uniform(-50, 50, 100):
        a = sp.plancherel_g_tanh(x)
        b = sp.plancherel_g_gamma(x)
        assert abs(a - b) <= 1e-12 * max(abs(a), 1e-300)
    assert sp.plancherel_g_gamma(0.0) == 0.0
    assert abs(sp.plancherel_g_tanh(2.0) - G_AT_2) < 1e-13


def test_plancherel_density_routes_and_walls():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        for _ in range(5):
            p = uniform_params(n, 8.0, rng)
            d1 = sp.plancherel_density(p, route="nu")
            d2 = sp.plancherel_density(p, route="alpha")
            assert d1 >= 0
            assert abs(d1 - d2) <= 1e-12 * max(d1, 1e-300)
    # nu_1 + nu_2 = 0 kills the G(3(nu_1+nu_2)) factor
    wall = sp.spectral_params(3, [0.9j, -0.9j])
    assert sp.plancherel_density(wall) == 0.0


def test_plancherel_ball_two_schemes():
    center0 = sp.spectral_params(2, [0j])
    q = sp.plancherel_ball(center0, radius=1.0, scheme="quadrature")
    m = sp.plancherel_ball(center0, radius=1.0, scheme="mc", seed=2)
    assert q["stderr"] is None and m["stderr"] > 0
    assert abs(q["integral"] - m["integral"]) <= 0.01 * q["integral"]

    c3 = sp.spectral_params(3, [0.3j, -0.7j])
    q3 = sp.plancherel_ball(c3, radius=1.0, scheme="quadrature")
    m3 = sp.plancherel_ball(c3, radius=1.0, scheme="mc", seed=2)
    assert abs(q3["integral"] - m3["integral"]) <= 0.01 * q3["integral"]
    assert q3["proxy"] == pytest.approx((1 + 0.3) * (1 + 0.7) * (1 + 0.4))


def test_plancherel_ball_absolute_normalization():
    # the acceptance windows compare ball masses only as max/min ratios, so
    # the absolute scale is pinned here against adaptive quadrature of the
    # density (polar coordinates for n=3; the midpoint grid's disk edge
    # costs ~4e-4)
    b2 = sp.plancherel_ball(sp.spectral_params(2, [0j]), radius=1.0)
    ref2 = integrate.quad(lambda t: sp.plancherel_g_tanh(2 * t), -1, 1,
                          epsabs=0, epsrel=1e-13)[0]
    assert abs(b2["integral"] - ref2) <= 1e-12 * ref2

    a1, a2 = 0.3, -0.7
    b3 = sp.plancherel_ball(sp.spectral_params(3, [1j * a1, 1j * a2]), radius=1.0)

    def density(th, r):
        nu = [1j * (a1 + r * math.cos(th)), 1j * (a2 + r * math.sin(th))]
        return r * sp.plancherel_density(sp.spectral_params(3, nu))

    ref3 = integrate.dblquad(density, 0, 1, 0, 2 * math.pi, epsabs=0, epsrel=1e-10)[0]
    assert abs(b3["integral"] - ref3) <= 1e-3 * ref3


def test_ball_density_n3_open_grid_is_bit_identical():
    # the quadrature evaluates G(3 t1) and G(3 t2) on their axes and
    # G(3 (t1 + t2)) on the 2m - 1 node sums; the full mesh is the
    # reference.  At this center every node sum rounds as g1[i] + g2[j]
    # does, so the integrals are equal; at other centers a few sums differ
    # in the last ulp (next test)
    a1, a2, radius = 0.3, -0.7, 1.0
    m = sp.BALL_GRID_2D
    step = 2 * radius / m
    g1 = a1 - radius + (np.arange(m) + 0.5) * step
    g2 = a2 - radius + (np.arange(m) + 0.5) * step
    T1, T2 = np.meshgrid(g1, g2, indexing="ij")
    full = sp._density_grid_n3(T1, T2)
    assert np.array_equal(
        sp._density_grid_n3(*np.meshgrid(g1, g2, indexing="ij", sparse=True)), full)
    inside = (T1 - a1) ** 2 + (T2 - a2) ** 2 <= radius**2
    want = float(np.sum(full * inside) * step * step)
    got = sp.plancherel_ball(sp.spectral_params(3, [1j * a1, 1j * a2]), radius=radius)
    assert got["integral"] == want


def _full_mesh_ball_n3(a1, a2, radius):
    """The n=3 midpoint ball sum with every density factor on the full
    600 x 600 mesh: the reference of the Hankel-view rule."""
    m = sp.BALL_GRID_2D
    step = 2 * radius / m
    g1 = a1 - radius + (np.arange(m) + 0.5) * step
    g2 = a2 - radius + (np.arange(m) + 0.5) * step
    T1, T2 = np.meshgrid(g1, g2, indexing="ij")
    inside = (T1 - a1) ** 2 + (T2 - a2) ** 2 <= radius**2
    return float(np.sum(sp._density_grid_n3(T1, T2) * inside) * step * step)


def test_ball_n3_hankel_rule_matches_full_mesh():
    # the 100 centers of `plancherel --n 3 --centers 100 --seed 0`
    rng = np.random.default_rng(0)
    for _ in range(100):
        a1, a2 = cli._draw_in_ball(rng, 2, 20.0)
        want = _full_mesh_ball_n3(a1, a2, 1.0)
        got = sp.plancherel_ball(sp.spectral_params(3, [1j * a1, 1j * a2]))["integral"]
        assert abs(got - want) <= 1e-15 * want, (a1, a2)


def test_ball_rule_built_once(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(deg):
        calls.append(deg)
        return leggauss(deg)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    # the Gauss-Legendre memo is shared: clear it so the ball builds its rule
    special._leggauss.cache_clear()
    for t in (0.0, 0.5, -1.7, 3.0):
        sp.plancherel_ball(sp.spectral_params(2, [1j * t]), radius=1.0)
    assert calls == [sp.BALL_GRID_1D]


def test_plancherel_ball_validation():
    p = sp.spectral_params(2, [1j])
    with pytest.raises(RangeError):
        sp.plancherel_ball(p, radius=0.0)
    with pytest.raises(RangeError):
        sp.plancherel_ball(p, radius=2.5)
    with pytest.raises(ValueError):
        sp.plancherel_ball(p, scheme="midpoint")


def test_whittaker_gl2_origin_frozen():
    p = sp.spectral_params(2, [0j])
    w_norm = sp.whittaker(p, [1.0], normalization="normalized")
    w_comp = sp.whittaker(p, [1.0], normalization="completed")
    with mp.workdps(30):
        frozen = mp.mpf(W2_AT_ORIGIN)
        assert abs(w_norm - frozen) < 1e-19
        assert abs(w_comp - frozen) < 1e-19


def test_whittaker_gl2_vs_besselk():
    p = sp.spectral_params(2, [1.1j])
    # dyadic y so the float input and the mp oracle see the same point
    w = sp.whittaker(p, [0.75], normalization="completed")
    with mp.workdps(30):
        oracle = 2 * mp.sqrt(mp.mpf(0.75)) * mp.besselk(1.1j, 2 * mp.pi * mp.mpf(0.75))
        assert abs(w - oracle) <= 1e-20 * abs(oracle)
        # completed value is real for imaginary order
        assert abs(mp.im(w)) <= 1e-25 * abs(w)


def _k_it_asymptotic(t, x):
    """K_{it}(x) from the large-argument series of DLMF 10.40.2, summed
    until a term falls below eps/100 (x real, far beyond t^2)."""
    four_nu2 = -4 * mp.mpf(t) ** 2
    term = total = mp.mpf(1)
    k = 0
    while abs(term) >= mp.eps / 100:
        k += 1
        term *= (four_nu2 - (2 * k - 1) ** 2) / (8 * k * x)
        total += term
    return mp.sqrt(mp.pi / (2 * x)) * mp.exp(-x) * total


def test_whittaker_gl2_far_up_the_cusp():
    # up to Y_MAX the n = 2 Whittaker function keeps its 30 digits
    # relative, though K(2 pi y) is below 1e-130 at y >= 50 (a K whose
    # stopping test turns absolute below 1 reads 3.9e-18 off at y = 50
    # and 22% at y = 1000), and it stays a real mp number
    for t in (0.5, 3.0):
        p = sp.spectral_params(2, [1j * t])
        for y in (50.0, 100.0, 1000.0):
            w = sp.whittaker(p, [y], "completed")
            assert isinstance(w, mp.mpf), (t, y, type(w))
            with mp.workdps(30):
                ref = 2 * mp.sqrt(mp.mpf(y)) * _k_it_asymptotic(t, 2 * mp.pi * mp.mpf(y))
                assert abs(w - ref) <= mp.mpf("1e-25") * ref, (t, y)


def test_whittaker_normalized_completed_quotient():
    p = sp.spectral_params(2, [0.7j])
    wp = sp.whittaker(p, [1.3], normalization="normalized")
    wc = sp.whittaker(p, [1.3], normalization="completed")
    with mp.workdps(30):
        from periodmoments.special import gamma_r

        assert abs(wp * gamma_r(1 + 2 * p.nu[0]) - wc) <= 1e-20 * abs(wc)
    p3 = sp.spectral_params(3, [0.5j, -0.2j])
    wp3 = sp.whittaker(p3, [0.9, 1.1], normalization="normalized")
    wc3 = sp.whittaker(p3, [0.9, 1.1], normalization="completed")
    quot = complex(sp._gamma_normalizer(p3, 1))
    assert abs(wp3 * quot - wc3) <= 1e-10 * abs(wc3)


def test_whittaker_y_range():
    p = sp.spectral_params(2, [0.5j])
    with pytest.raises(RangeError):
        sp.whittaker(p, [5e-4])
    p3 = sp.spectral_params(3, [0.5j, 0.1j])
    with pytest.raises(RangeError):
        sp.whittaker(p3, [1.0, 2e3])
    with pytest.raises(RangeError):
        sp.whittaker(p3, [1.0])


def test_whittaker3_selfdual_symmetry():
    p = sp.spectral_params(3, [0.6j, 0.6j])
    a = sp.whittaker(p, [1.2, 0.7], normalization="completed")
    b = sp.whittaker(p, [0.7, 1.2], normalization="completed")
    assert abs(a - b) <= 1e-9 * abs(a)
    assert abs(a.imag) <= 1e-9 * abs(a)


def test_whittaker3_duality():
    # conj W_nu(y1,y2) = W_nu(y2,y1) = conj W_dual(y1,y2), dual nu = (nu2,nu1)
    p = sp.spectral_params(3, [0.4j, -0.9j])
    d = sp.spectral_params(3, [-0.9j, 0.4j])
    a12 = sp.whittaker(p, [1.1, 0.6], normalization="completed")
    a21 = sp.whittaker(p, [0.6, 1.1], normalization="completed")
    b12 = sp.whittaker(d, [1.1, 0.6], normalization="completed")
    assert abs(np.conjugate(a12) - a21) <= 1e-9 * abs(a12)
    assert abs(np.conjugate(a12) - b12) <= 1e-9 * abs(a12)


def test_whittaker_decay_doubling():
    p2 = sp.spectral_params(2, [0.9j])
    vals2 = [
        abs(complex(sp.whittaker(p2, [y], normalization="completed")))
        for y in (1.0, 2.0, 4.0)
    ]
    assert vals2[1] <= 0.05 * vals2[0] and vals2[2] <= 0.05 * vals2[1]
    p3 = sp.spectral_params(3, [0.6j, -0.3j])
    base = abs(sp.whittaker(p3, [0.7, 0.7], normalization="completed"))
    for y in ([1.4, 0.7], [0.7, 1.4]):
        dbl = abs(sp.whittaker(p3, y, normalization="completed"))
        assert dbl <= 0.05 * base


def test_mb_kernel_factored_matches_direct():
    # C = exp(a)[:, None] * H * exp(b)[None, :] against the one-exponential
    # form exp(a_i + b_j - log Gamma_R(u_i + u_j)) built here from scratch
    t = np.arange(-sp.MB_T, sp.MB_T + sp.MB_H / 2, sp.MB_H)
    u = 0.5 + 1j * t
    tsum = np.arange(-2 * sp.MB_T, 2 * sp.MB_T + sp.MB_H / 2, sp.MB_H)
    lgh = sp.special.log_gamma_r_f64(1 + 1j * tsum)
    idx = np.add.outer(np.arange(len(t)), np.arange(len(t)))
    for nu in ([0j, 0j], [0.21j, 0.37j], [-0.9j, 0.4j], [1.0j, -1.0j]):
        alpha = sp.spectral_params(3, nu).alpha
        a = sum(sp.special.log_gamma_r_f64(u - al) for al in alpha)
        b = sum(sp.special.log_gamma_r_f64(u + al) for al in alpha)
        direct = np.exp(a[:, None] + b[None, :] - lgh[idx])
        got_u, kernel = sp._mb_kernel(alpha)
        assert np.array_equal(got_u, u)
        assert np.max(np.abs(kernel - direct) / np.abs(direct)) <= 1e-13


def test_mb_caches_keyed_by_what_they_depend_on():
    # the alpha-independent Mellin-Barnes data is built once, never per
    # alpha, and the n=3 Stade exponentials once per s
    sp._mb_nodes.cache_clear()
    sp._stade3_grid.cache_clear()
    rng = np.random.default_rng(4)
    s_values = (1.0, 1.5)
    for i in range(20):
        nu = sp.spectral_params(3, 1j * rng.uniform(-1, 1, 2))
        mu = sp.spectral_params(3, 1j * rng.uniform(-1, 1, 2))
        r = sp.stade_check(nu, mu, s_values[i % 2])
        assert r["rel_err"] <= 1e-4
    assert sp._mb_nodes.cache_info().misses == 1
    assert sp._stade3_grid.cache_info()[:2] == (18, len(s_values))  # hits, misses
    # whittaker's 1x1 path shares the nodes and adds no entry
    sp.whittaker(sp.spectral_params(3, [0.21j, 0.37j]), [0.5, 2.0])
    assert sp._mb_nodes.cache_info().misses == 1
    assert sp._stade3_grid.cache_info().currsize == len(s_values)
    for a in sp._mb_nodes() + sp._stade3_grid(1.0):
        assert not a.flags.writeable


def test_stade_normalizers_once_per_params_and_sign(monkeypatch):
    # stade_check reads the Gamma_R(1 +- n ...) products at every s: each
    # (params, sign) is computed once, and a mu == nu pair at n = 3
    # factors one Mellin-Barnes kernel and never the dense one.  The
    # float64 products stay within 1e-13 of the 30-digit ones
    normalizer = sp._gamma_normalizer
    normalizer.cache_clear()
    factored = []
    real_factors = sp._mb_kernel_factors
    monkeypatch.setattr(sp, "_mb_kernel_factors",
                        lambda alphas: factored.extend(alphas) or real_factors(alphas))
    for dense in ("_mb_kernel", "_whittaker3_completed_grid"):
        monkeypatch.setattr(sp, dense, lambda *a: pytest.fail("dense kernel formed"))
    nu, mu = sp.spectral_params(2, [0.7j]), sp.spectral_params(2, [-1.1j])
    for s in (0.5, 1.0, 1.5):
        sp.stade_check(nu, mu, s)
        sp.stade_check(nu, nu, s)
    p3, q3 = sp.spectral_params(3, [0.5j, 0.5j]), sp.spectral_params(3, [0.2j, 0.4j])
    sp.stade_check(p3, p3, 1.0)
    assert factored == [p3.alpha]
    sp.stade_check(p3, q3, 1.0)
    assert factored == [p3.alpha, p3.alpha, q3.alpha]
    keys = {(nu, 1), (mu, -1), (nu, -1), (p3, 1), (p3, -1), (q3, -1)}
    assert normalizer.cache_info().misses == normalizer.cache_info().currsize == len(keys)
    with mp.workdps(30):
        for p, sign in keys:
            want = mp.mpf(1)
            for f in sp.nu_linear_forms(p):
                want *= sp.special.gamma_r(1 + sign * p.n * f)
            assert abs(normalizer(p, sign) - complex(want)) <= 1e-13 * abs(complex(want))
    assert normalizer.cache_info().misses == len(keys)  # every key was held


def _full_gemm_lhs(nu, mu, s):
    """The completed n=3 Stade integral through the oracle tier: the dense
    kernel contracted as e1 C e2 on each grid, then the weighted sum."""
    l1, l2 = sp._stade3_axes(s)
    y1, y2 = np.exp(l1), np.exp(l2)
    e1, e2 = sp._mb_exponentials(y1, y2)
    wn = sp._whittaker3_completed_grid(nu, y1, y2, e1, e2)
    wm = wn if mu == nu else sp._whittaker3_completed_grid(mu, y1, y2, e1, e2)
    w1 = np.exp((2 * s - 2) * l1)
    w2 = np.exp((s - 2) * l2)
    return complex(w1 @ (wn * np.conjugate(wm)) @ w2 * sp.STADE3_H**2)


def test_mb_kernel_factors_range_finder():
    # Q has orthonormal columns and Q B reproduces the dense kernel to the
    # residual bound, at the first width and (at (3i, 3i)) after doubling
    for t in ((0.5, 0.5), (-0.9, 0.4), (3.0, 3.0)):
        alpha = sp.spectral_params(3, [1j * v for v in t]).alpha
        [(q, b)] = sp._mb_kernel_factors([alpha])
        rank = q.shape[1]
        assert b.shape == (rank, len(sp._mb_nodes()[0]))
        assert np.max(np.abs(q.conj().T @ q - np.eye(rank))) <= 1e-14
        _, kernel = sp._mb_kernel(alpha)
        # the test columns estimate this ratio; allow for their spread
        assert np.linalg.norm(kernel - q @ b) <= 4 * sp.MB_TOL * np.linalg.norm(kernel)


def test_stade3_lowrank_matches_full_gemm():
    def params(t):
        return sp.spectral_params(3, [1j * v for v in t])

    def rel(nu, mu, s):
        [[got]], [ranks], _ = sp._stade_lhs_3([(nu, mu)], [s])
        want = _full_gemm_lhs(nu, mu, s)
        return abs(got - want) / abs(want), ranks

    # the CLI's grid pairs at every s, and its 20 seed-0 pairs at s = 1
    cases = [(nu, mu, s) for nu, mu in cli.STADE3_GRID for s in (0.5, 1.0, 1.5)]
    pairs = cli.stade3_pairs(20, np.random.default_rng(0))
    cases += [(nu, mu, 1.0) for nu, mu in pairs[len(cli.STADE3_GRID):]]
    for nu, mu, s in cases:
        err, _ = rel(params(nu), params(mu), s)
        assert err <= 1e-13, (nu, mu, s, err)
    # the |nu_j| = 3 corners: round-off under cancellation (the gap does
    # not shrink as the rank grows), not truncation
    corner_ranks = {}
    for t in ((3, 3), (3, -3), (-3, 3), (-3, -3)):
        for s in (0.5, 1.0, 1.5):
            err, corner_ranks[t] = rel(params(t), params(t), s)
            assert err <= 1e-10, (t, s, err)
    # (3i, 3i) misses the residual bound at the first width and doubles
    assert min(corner_ranks[(3, 3)]) > 16
    # at nu = mu = (3i, 3i), s = 1/2 both routes miss Stade's value by the
    # same 1.8e-6, inside the CLI's tolerance
    p = params((3, 3))
    r = sp.stade_check(p, p, 0.5)
    full = abs(_full_gemm_lhs(p, p, 0.5) - r["rhs_completed"]) / abs(r["rhs_completed"])
    for err in (r["rel_err"], full):
        assert err == pytest.approx(1.8e-6, rel=0.02) and err <= cli.STADE3_TOL


def _params3(t):
    return sp.spectral_params(3, [1j * v for v in t])


def _grid_sum_lhs(nu, mu, s):
    """The n=3 Stade integral from the same low-rank factors as
    _stade_lhs_3, but summed over the explicit Whittaker grids
    W = (f1 Q)(B f2) elementwise; also that sum of |W_nu| |W_mu|, the
    scale of its round-off."""
    f1, f2 = sp._stade3_grid(s)

    def grid(params):
        [(q, b)] = sp._mb_kernel_factors([params.alpha])
        return (f1 @ q) @ (b @ f2)

    wn = grid(nu)
    wm = wn if mu == nu else grid(mu)
    h2 = sp.STADE3_H**2
    return complex(np.sum(wn * np.conjugate(wm)) * h2), float(np.sum(abs(wn) * abs(wm)) * h2)


def test_stade3_trace_equals_grid_sum():
    # trace((A1_mu^H A1_nu)(A2_nu A2_mu^H)) is the elementwise grid sum,
    # reordered: the CLI's 20 seed-0 pairs at s = 1, its grid pairs at
    # every s, and a pair of unequal ranks, (3i, 3i) against rank 16
    cases = [(nu, mu, 1.0) for nu, mu in cli.stade3_pairs(20, np.random.default_rng(0))]
    cases += [(nu, mu, s) for nu, mu in cli.STADE3_GRID for s in (0.5, 1.0, 1.5)]
    cases.append(((3.0, 3.0), (2.5, 2.5), 1.0))
    for nu, mu, s in cases:
        [[got]], [ranks], _ = sp._stade_lhs_3([(_params3(nu), _params3(mu))], [s])
        want, _ = _grid_sum_lhs(_params3(nu), _params3(mu), s)
        assert abs(got - want) <= 1e-14 * abs(want), (nu, mu, s, got, want)
    assert ranks == (32, 16)
    # against (0.5i, 0.5i) the sum cancels 6,400-fold (1.8e-18 of a
    # 1.1e-14 scale): both orders then agree to round-off of the scale
    nu, mu = _params3((3.0, 3.0)), _params3((0.5, 0.5))
    [[got]], [ranks], _ = sp._stade_lhs_3([(nu, mu)], [1.0])
    want, scale = _grid_sum_lhs(nu, mu, 1.0)
    assert ranks == (32, 16) and scale > 1000 * abs(want)
    assert abs(got - want) <= 1e-14 * scale, (got, want, scale)


def test_stade3_trace_forms_no_grid():
    # one _stade_lhs_3 call, kernel factoring included, peaks below half
    # of one 441 x 841 complex grid at s = 1 (the elementwise sum held two
    # or three); the bound keeps a 2x margin over the measured peak
    grid_bytes = np.prod(sp.stade3_sizes(1.0)[0]) * np.dtype(complex).itemsize
    sp._stade3_grid(1.0)
    sp._mb_sketch(sp.MB_RANK0)
    nu, mu = _params3((0.7, -0.3)), _params3((0.2, 0.4))
    for pair in ((nu, nu), (nu, mu)):
        tracemalloc.start()
        try:
            sp._stade_lhs_3([pair], [1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid_bytes / 2, (pair, peak, grid_bytes)


class _CountingArray(np.ndarray):
    """An ndarray view that records in .calls the name of every ufunc,
    np.matmul included, that takes it as an operand; results are plain
    ndarrays."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.calls.append(ufunc.__name__)
        plain = [x.view(np.ndarray) if isinstance(x, _CountingArray) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def test_mb_kernel_factors_stream_hankel_once_per_product(monkeypatch):
    # one product applies every kernel of a call to the sketch and the test
    # columns, one more forms every B: two passes over H for the whole call
    # while each kernel stops at the first width (the 8 kernels of the
    # CLI's second seed-0 block).  (3i, 3i) doubles once on its own: it
    # applies its C to its new sketch only, then forms its B again
    u, hankel = sp._mb_nodes()
    counted = hankel.view(_CountingArray)
    monkeypatch.setattr(sp, "_mb_nodes", lambda: (u, counted))
    block = cli.stade3_pairs(20, np.random.default_rng(0))[sp.STADE3_BLOCK:2 * sp.STADE3_BLOCK]
    cli_kernels = [t for pair in block for t in pair]
    for ts, passes in ((cli_kernels, 2), (((0.5, 0.5), (3.0, 3.0), (-0.9, 0.4)), 4)):
        counted.calls = []
        factors = sp._mb_kernel_factors([_params3(t).alpha for t in ts])
        assert counted.calls == ["matmul"] * passes, (ts, counted.calls)
        assert len(factors) == len(ts)
        for t, (q, b) in zip(ts, factors):
            assert type(q) is np.ndarray and type(b) is np.ndarray
            assert q.shape[1] == (32 if t == (3.0, 3.0) else 16)


def test_stade3_blocks_match_one_pair_bit_for_bit():
    # on the CLI's 20 seed-0 pairs each block's Q and B are those of a call
    # for the kernel alone, and stade3_checks returns stade_check's values
    # at every s: a kernel is factored once per block, not once per s
    pairs = [tuple(map(_params3, pair)) for pair in cli.stade3_pairs(20, np.random.default_rng(0))]
    for start in range(0, len(pairs), sp.STADE3_BLOCK):
        block = pairs[start:start + sp.STADE3_BLOCK]
        alphas = list(dict.fromkeys(p.alpha for pair in block for p in pair))
        for alpha, (q, b) in zip(alphas, sp._mb_kernel_factors(alphas)):
            [(q1, b1)] = sp._mb_kernel_factors([alpha])
            assert np.array_equal(q, q1) and np.array_equal(b, b1), (start, alpha)
    s_values = (0.5, 1.0, 1.5)
    results, kernels = sp.stade3_checks(pairs, s_values)
    assert kernels == [7, 8, 8, 8, 8]  # the first grid pair is diagonal
    assert len(results) == len(pairs)
    for pair, row in zip(pairs, results):
        assert [r["s"] for r in row] == list(s_values)
        for r in row:
            want = sp.stade_check(*pair, r["s"])
            assert r == want, (pair, r, want)


def test_stade3_block_peak_memory():
    # one block of 4 seed-0 pairs (8 kernels), factoring included, at s = 1
    # and s = 1/2: the bound keeps a 2x margin over the measured peaks of
    # 6.7 and 8.5 MB, which the kernels' log-gamma diagonals and the
    # stacked factors set
    block = [tuple(map(_params3, pair)) for pair in
             cli.stade3_pairs(20, np.random.default_rng(0))[sp.STADE3_BLOCK:2 * sp.STADE3_BLOCK]]
    sp._mb_sketch(sp.MB_RANK0)
    for s, bound in ((1.0, 13.4e6), (0.5, 17.0e6)):
        sp._stade3_grid(s)
        tracemalloc.start()
        try:
            sp._stade_lhs_3(block, [s])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (s, peak)


def test_mb_nodes_build_holds_one_matrix():
    # H is constant along anti-diagonals: a cold build exponentiates the
    # 2m - 1 values once and holds no m x m temporary besides H (an index
    # matrix and exp over it peaked at 2.5 times H), with the bits of
    # that elementwise build
    sp._mb_nodes.cache_clear()
    tracemalloc.start()
    try:
        _, hankel = sp._mb_nodes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * hankel.nbytes, (peak, hankel.nbytes)
    m = hankel.shape[0]
    tsum = np.arange(-2 * sp.MB_T, 2 * sp.MB_T + sp.MB_H / 2, sp.MB_H)
    lgh = sp.special.log_gamma_r_f64(1 + 1j * tsum)
    assert np.array_equal(hankel, np.exp(-lgh[np.add.outer(np.arange(m), np.arange(m))]))


def test_stade3_grid_build_holds_what_it_keeps():
    # each exponential is exponentiated in place, so a cold grid build
    # holds no second array of f1's or f2's size (one such array puts the
    # peak at 1.65 times what the grid keeps)
    sp._mb_nodes()
    sp._stade3_grid.cache_clear()
    tracemalloc.start()
    try:
        f1, f2 = sp._stade3_grid(1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = f1.nbytes + f2.nbytes
    assert peak < 1.2 * kept, (peak, kept)


def _per_s_lhs_2(nu, mu, s):
    """The n=2 Stade integral on its own log-grid from -(32/s + 6): the
    reference of the shared s = 1/2 grid."""
    l = np.arange(-(32.0 / s + 6.0), sp.STADE2_UPPER + sp.STADE2_H / 2, sp.STADE2_H)
    yy = np.exp(l)
    vals = (4.0 * special.kit_f64(nu.nu[0].imag, 2 * math.pi * yy)
            * special.kit_f64(mu.nu[0].imag, 2 * math.pi * yy) * np.exp(s * l))
    return float(np.sum(vals) * sp.STADE2_H)


def test_stade2_shared_grid_matches_per_s_grids():
    # every s reads a suffix of the s = 1/2 grid: bit-identical there; at
    # s = 1 and 3/2 the nodes shift by less than a step, which moves the
    # sum by at most 5.6e-15 relative over |t| <= 3 (both grids sit about
    # 4e-14 from Stade's value)
    sp._stade2_kernel.cache_clear()
    rng = np.random.default_rng(23)
    pairs = [(0.0, 0.0), (0.05, -0.02), (3.0, -3.0), (3.0, 3.0)]
    pairs += [tuple(rng.uniform(-3, 3, 2)) for _ in range(8)]
    for tn, tm in pairs:
        nu, mu = sp.spectral_params(2, [1j * tn]), sp.spectral_params(2, [1j * tm])
        assert sp._stade_lhs_2(nu, mu, 0.5) == _per_s_lhs_2(nu, mu, 0.5)
        for s in (1.0, 1.5):
            want = _per_s_lhs_2(nu, mu, s)
            assert abs(sp._stade_lhs_2(nu, mu, s) - want) <= 1e-14 * abs(want), (tn, tm, s)
    # one K grid per pair, shared by its three s, and only the last held
    info = sp._stade2_kernel.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2 * len(pairs), len(pairs), 1)
    l, kk = sp._stade2_kernel(*pairs[-1])
    assert l[0] == -70.0 and not l.flags.writeable and not kk.flags.writeable


def test_stade_rhs_float64_matches_30_digit_product():
    # prod Gamma_R(s + alpha_j - beta_k) / (2 Gamma_R(n s)), here at 30
    # digits from special.gamma_r, against the float64 sum of log Gamma_R
    def oracle(nu, mu, s):
        with mp.workdps(30):
            acc = mp.mpf(1)
            for aj in nu.alpha:
                for bk in mu.alpha:
                    acc *= special.gamma_r(s + aj - bk)
            return complex(acc / (2 * special.gamma_r(nu.n * s)))

    rng = np.random.default_rng(29)
    cases = []
    for n in (2, 3):
        draws = [uniform_params(n, 3.0, rng) for _ in range(24)]
        corners = [sp.spectral_params(n, [1j * v for v in c])
                   for c in ([3.0] * (n - 1), [-3.0] * (n - 1), [3.0, -3.0][:n - 1])]
        points = draws + corners
        for i, nu in enumerate(points):
            mu = points[(i + 1) % len(points)]
            for s in (0.5, rng.uniform(0.5, 1.5), 1.5):
                cases += [(nu, mu, s), (nu, nu, s)]
    for nu, mu, s in cases:
        want = oracle(nu, mu, s)
        got = sp._stade_rhs_completed(nu, mu, s)
        assert abs(got - want) <= 1e-13 * abs(want), (nu, mu, s)


def test_stade_n2_random_pairs():
    rng = np.random.default_rng(17)
    for i in range(6):
        nu = uniform_params(2, 2.0, rng)
        mu = uniform_params(2, 2.0, rng)
        s = (0.5, 1.0, 1.5)[i % 3]
        r = sp.stade_check(nu, mu, s)
        assert r["rel_err"] <= 1e-8
        # normalized and completed conventions carry the same relative error
        assert abs(r["lhs"] / r["rhs"] - r["lhs_completed"] / r["rhs_completed"]) < 1e-10


def test_stade_diag_s1_exact_constants():
    # at mu=nu, s=1 every nu-dependent Gamma factor cancels:
    # normalized value is pi/2 for n=2 and pi for n=3
    for t in (0.4, 2.9):
        p = sp.spectral_params(2, [1j * t])
        r = sp.stade_check(p, p, 1.0)
        assert abs(r["lhs"] - math.pi / 2) <= 1e-10
        assert abs(r["rhs"] - math.pi / 2) <= 1e-12
    p3 = sp.spectral_params(3, [0.5j, -0.8j])
    r3 = sp.stade_check(p3, p3, 1.0)
    assert abs(r3["lhs"] - math.pi) <= 1e-9
    assert abs(r3["rhs"] - math.pi) <= 1e-12
    # realness on the diagonal
    assert abs(r3["lhs"].imag) <= 1e-12 * abs(r3["lhs"])


def test_stade_n3_generic_and_conjugate_symmetry():
    nu = sp.spectral_params(3, [0.9j, -0.4j])
    mu = sp.spectral_params(3, [-0.2j, 0.6j])
    r = sp.stade_check(nu, mu, 0.5)
    assert r["rel_err"] <= 1e-8
    assert abs(r["lhs"].imag) > 1e-6 * abs(r["lhs"])  # genuinely complex here
    r_swap = sp.stade_check(mu, nu, 0.5)
    assert abs(np.conjugate(r["lhs"]) - r_swap["lhs"]) <= 1e-10 * abs(r["lhs"])


def test_stade_validation():
    p2 = sp.spectral_params(2, [1j])
    p3 = sp.spectral_params(3, [1j, 1j])
    with pytest.raises(RangeError):
        sp.stade_check(p2, p3, 1.0)
    with pytest.raises(RangeError):
        sp.stade_check(p2, p2, 0.4)
    big = sp.spectral_params(2, [3.5j])
    with pytest.raises(RangeError):
        sp.stade_check(big, p2, 1.0)


def test_simple_gamma_quotient_squared_reading():
    # |stade rhs| / |simple|^2 equals Gamma_R(s)^2 / (2 Gamma_R(2s)) for
    # n=2, independent of nu; within factor 4 of 1 for s in [1/2, 3/2]
    consts = {}
    for s in (0.5, 1.0, 1.5):
        ratios = []
        for t in (0.0, 1.0, 3.0):
            p = sp.spectral_params(2, [1j * t])
            r = sp.stade_check(p, p, s)
            simple = sp.stade_rhs_simple(p, s)
            ratios.append(abs(r["rhs"]) / abs(simple) ** 2)
        assert max(ratios) - min(ratios) <= 1e-10 * ratios[0]
        consts[s] = ratios[0]
        assert 0.25 <= ratios[0] <= 4.0
    assert consts[1.0] == pytest.approx(math.pi / 2, rel=1e-12)
