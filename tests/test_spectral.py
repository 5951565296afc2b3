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
    # the quadrature evaluates G(3 t1) and G(3 t2) on their axes and only
    # G(3 (t1 + t2)) on the grid; the full mesh is the reference
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
    # factors one Mellin-Barnes kernel and never the dense one
    normalizer = sp._gamma_normalizer
    normalizer.cache_clear()
    factored = []
    real_factors = sp._mb_kernel_factors
    monkeypatch.setattr(sp, "_mb_kernel_factors",
                        lambda alpha: factored.append(alpha) or real_factors(alpha))
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
            assert normalizer(p, sign) == want
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
        q, b = sp._mb_kernel_factors(alpha)
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
        got, ranks = sp._stade_lhs_3(nu, mu, s)
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
