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
    with pytest.raises(ValueError, match="route must be"):
        sp.plancherel_density(wall, route="beta")


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
    with pytest.raises(ValueError, match="scheme must be"):
        sp.plancherel_ball(sp.spectral_params(3, [0.3j, -0.7j]), scheme="midpoint")
    with pytest.raises(RangeError, match="n = 2, 3"):
        sp.plancherel_ball(sp.spectral_params(4, [0.1j, 0.2j, 0.3j]))


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
    with pytest.raises(ValueError, match="normalization must be"):
        sp.whittaker(p3, [1.0, 2.0], normalization="raw")
    p4 = sp.spectral_params(4, [0.1j, 0.2j, 0.3j])
    with pytest.raises(RangeError, match="n = 2, 3"):
        sp.whittaker(p4, [1.0, 2.0, 3.0])


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
    # alpha, and read-only; the Stade checks never build it
    sp._mb_nodes.cache_clear()
    rng = np.random.default_rng(4)
    s_values = (1.0, 1.5)
    for i in range(20):
        nu = sp.spectral_params(3, 1j * rng.uniform(-1, 1, 2))
        mu = sp.spectral_params(3, 1j * rng.uniform(-1, 1, 2))
        r = sp.stade_check(nu, mu, s_values[i % 2])
        assert r["rel_err"] <= 1e-4
    assert sp._mb_nodes.cache_info().misses == 0
    for nu in ([0.21j, 0.37j], [-0.9j, 0.4j]):
        sp.whittaker(sp.spectral_params(3, nu), [0.5, 2.0])
    assert sp._mb_nodes.cache_info().misses == 1
    for a in sp._mb_nodes():
        assert not a.flags.writeable


def test_stade_normalizers_once_per_params_and_sign(monkeypatch):
    # stade_check reads the Gamma_R(1 +- n ...) products at every s: each
    # (params, sign) is computed once, and n = 3 never forms a Mellin-Barnes
    # kernel.  The float64 products stay within 1e-13 of the 30-digit ones
    normalizer = sp._gamma_normalizer
    normalizer.cache_clear()
    for oracle in ("_mb_nodes", "_mb_kernel", "_whittaker3_completed_grid"):
        monkeypatch.setattr(sp, oracle, lambda *a: pytest.fail("y-side kernel formed"))
    nu, mu = sp.spectral_params(2, [0.7j]), sp.spectral_params(2, [-1.1j])
    for s in (0.5, 1.0, 1.5):
        sp.stade_check(nu, mu, s)
        sp.stade_check(nu, nu, s)
    p3, q3 = sp.spectral_params(3, [0.5j, 0.5j]), sp.spectral_params(3, [0.2j, 0.4j])
    sp.stade_check(p3, p3, 1.0)
    sp.stade_check(p3, q3, 1.0)
    keys = {(nu, 1), (mu, -1), (nu, -1), (p3, 1), (p3, -1), (q3, -1)}
    assert normalizer.cache_info().misses == normalizer.cache_info().currsize == len(keys)
    with mp.workdps(30):
        for p, sign in keys:
            want = mp.mpf(1)
            for f in sp.nu_linear_forms(p):
                want *= sp.special.gamma_r(1 + sign * p.n * f)
            assert abs(normalizer(p, sign) - complex(want)) <= 1e-13 * abs(complex(want))
    assert normalizer.cache_info().misses == len(keys)  # every key was held


def _params3(t):
    return sp.spectral_params(3, [1j * v for v in t])


def test_stade2_mellin_side_matches_y_side_besselk():
    # the y-side integral 4 int K_nu(2 pi y) K_mu(2 pi y) y^s dy/y as a
    # trapezoid sum on the log-grid l = log y in [-70, 2.6], step 0.045 (the
    # grid of the deleted float64 K_{it} route at s = 1/2, which holds the
    # integrand's mass at every s in [1/2, 3/2]), here from mpmath's besselk.
    # The two routes share no code; the grid's own error, about 4e-14 of
    # Stade's value, bounds their agreement
    l = np.arange(-70.0, 2.6 + 0.045 / 2, 0.045)
    x = 2 * np.pi * np.exp(l)
    tn, tm = 1.3, -0.4
    with mp.workdps(20):
        kk = [np.array([float(mp.re(mp.besselk(mp.mpc(0, t), mp.mpf(v)))) for v in x])
              for t in (tn, tm)]
    nu, mu = sp.spectral_params(2, [1j * tn]), sp.spectral_params(2, [1j * tm])
    for s in (0.5, 1.0, 1.5):
        want = np.sum(4 * kk[0] * kk[1] * np.exp(s * l)) * 0.045
        r = sp.stade_check(nu, mu, s)
        got = r["lhs_completed"]
        assert abs(got - want) <= 1e-13 * abs(want), (s, got, want)
        assert r["rel_err"] <= 1e-14, (s, r["rel_err"])


def _dense_y_side_lhs(nu, mu, s):
    """The completed n=3 Stade integral on the y-side: the oracle tier's
    dense kernel contracted as e1 C e2 on the log-grid l_i = log y_i of step
    0.05 from -max(20, 20/s) (l1) and -max(20, 40/s) (l2) up to 2 (the grid
    of the deleted low-rank route), then summed with y1^(2s-2) y2^(s-2)."""
    h = 0.05
    l1 = np.arange(-max(20.0, 20.0 / s), 2.0 + h / 2, h)
    l2 = np.arange(-max(20.0, 40.0 / s), 2.0 + h / 2, h)
    y1, y2 = np.exp(l1), np.exp(l2)
    e1, e2 = sp._mb_exponentials(y1, y2)
    wn = sp._whittaker3_completed_grid(nu, y1, y2, e1, e2)
    wm = wn if mu == nu else sp._whittaker3_completed_grid(mu, y1, y2, e1, e2)
    w1 = np.exp((2 * s - 2) * l1)
    w2 = np.exp((s - 2) * l2)
    return complex(w1 @ (wn * np.conjugate(wm)) @ w2 * h**2)


def test_stade3_mellin_side_matches_dense_y_grid():
    # the CLI's grid pairs at s = 1: the convolution in t against the
    # Whittaker grids of the dense Mellin-Barnes kernel, whose sum sits up
    # to 1.8e-12 from Stade's value there
    for nu_t, mu_t in cli.STADE3_GRID:
        nu, mu = _params3(nu_t), _params3(mu_t)
        want = _dense_y_side_lhs(nu, mu, 1.0)
        r = sp.stade_check(nu, mu, 1.0)
        assert abs(r["lhs_completed"] - want) <= 5e-12 * abs(want), (nu_t, mu_t)
        assert r["rel_err"] <= 1e-13, (nu_t, mu_t, r["rel_err"])


def test_stade3_corners_of_the_guard():
    # at the |nu_j| = 3 corners the shifts reach |alpha_j| = 9, the largest
    # the window is sized for (7.4e-15 measured); the y-side grids missed
    # Stade's value by 1.8e-6 at nu = mu = (3i, 3i), s = 1/2
    for t in ((3, 3), (3, -3), (-3, 3), (-3, -3)):
        for s in (0.5, 1.0, 1.5):
            r = sp.stade_check(_params3(t), _params3(t), s)
            assert r["rel_err"] <= 1e-13, (t, s, r["rel_err"])


def test_stade_nodes_follow_n_and_s():
    # the step is MB_H s, the window reaches STADE_TAIL past the largest
    # shift the guard admits (3 at n = 2, 9 at n = 3), and a check reports
    # the nodes it summed on
    for n, shift in ((2, 3.0), (3, 9.0)):
        for s in (0.5, 1.0, 1.5):
            t, h = sp._stade_nodes(n, s)
            assert h == sp.MB_H * s and np.allclose(np.diff(t), h, rtol=0, atol=1e-12)
            assert t[0] == -t[-1] and t[-1] - h < shift + sp.STADE_TAIL <= t[-1]
            p = sp.spectral_params(n, [1j] * (n - 1))
            r = sp.stade_check(p, p, s)
            assert (r["nodes"], r["step"]) == (len(t), h)


def test_stade3_forms_no_grid():
    # one n=3 check holds a few node vectors and their 2m - 1 sums, no
    # m x m array and no y-grid: at s = 1/2 (m = 1367, the most nodes) it
    # peaks at 1.6 MB, below a tenth of one m x m complex array (30 MB)
    nu, mu = _params3((0.7, -0.3)), _params3((0.2, 0.4))
    sp.stade_check(nu, mu, 0.5)  # the normalizers are cached
    m = len(sp._stade_nodes(3, 0.5)[0])
    for pair in ((nu, nu), (nu, mu)):
        tracemalloc.start()
        try:
            sp.stade_check(*pair, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * m * 16 / 10, (pair, peak)


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
    p4 = sp.spectral_params(4, [0.1j, 0.2j, 0.3j])
    with pytest.raises(RangeError, match="n = 2, 3"):
        sp.stade_check(p4, p4, 1.0)


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
