"""Epstein zeta continuation, Iwasawa coordinates, and the lattice route
to the degenerate GL(n) Eisenstein series.

Oracles:
  * Z(I_2, rho) = 2 zeta(rho) beta(rho) (counting representations by
    a^2 + b^2), checked on both sides of the pole at rho = 1.
  * a truncated direct lattice sum at rho = 5, n = 3 (region of absolute
    convergence, independent of the theta machinery).
  * the classical upper-half-plane series from the Fourier-expansion
    module (fully independent code path).
"""

import math

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from periodmoments.eisenstein_gl2 import completed_eisenstein
from periodmoments.epstein import (
    _box_limits,
    det_from_y,
    dual_y,
    epstein_xi,
    epstein_xi_f64,
    epstein_z,
    epstein_z_f64,
    gln_completed_eisenstein,
    gln_completed_eisenstein_f64,
    iwasawa_y,
    z_from_y,
)
from periodmoments.precision import PoleError, RangeError
from periodmoments.special import dirichlet_beta, upper_gamma_f64, zeta


def test_square_lattice_counts():
    # Z(I_2, rho) = 2 zeta(rho) beta(rho), above and below rho = n/2 = 1
    with mp.workdps(25):
        for rho in (mpf("0.7"), mpf("1.3"), mpf("2.5")):
            got = epstein_z(np.eye(2), rho)
            want = 2 * zeta(rho) * dirichlet_beta(rho)
            assert abs(got - want) < mpf("1e-20") * abs(want), rho


def test_direct_sum_oracle_n3():
    # absolute convergence region: truncated sum over a box, f64 path
    R = 60
    g = np.arange(-R, R + 1)
    a, b, c = np.meshgrid(g, g, g, indexing="ij")
    Q = (a**2 + b**2 + c**2).astype(float).ravel()
    Q = Q[Q > 0]
    direct = 0.5 * float(np.sum(Q**-5.0))
    got = epstein_z_f64(np.eye(3), 5.0)
    assert abs(got - direct) < 1e-10 * abs(direct)


def test_functional_equation_mp_unbalanced():
    # xi(M, rho) = det^-1/2 xi(M^-1, n/2 - rho); the left side runs at an
    # off-balance split so the identity is not satisfied term by term.
    # M integer so the exact rational inverse is representable.
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    with mp.workdps(25):
        Minv = [[mpf(2) / 3, mpf(-1) / 3], [mpf(-1) / 3, mpf(2) / 3]]
        rho = mpc("0.8", "0.5")
        lhs = epstein_xi(M, rho, split=mpf(1) / 3)
        rhs = epstein_xi(Minv, 1 - rho) / mp.sqrt(3)
        assert abs(lhs - rhs) < mpf("1e-20") * abs(rhs)


def test_functional_equation_f64_n3_n4():
    rng = np.random.default_rng(17)
    for n in (3, 4):
        A = rng.normal(size=(n, n))
        M = A @ A.T + n * np.eye(n)
        Minv = np.linalg.inv(M)
        rho = 0.9
        lhs = epstein_xi_f64(M, rho, split=1.0)
        rhs = epstein_xi_f64(Minv, n / 2 - rho) / math.sqrt(np.linalg.det(M))
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def _xi_f64_full_box(M, rho, split=None):
    # reference: the whole box enumerated as points, Q by einsum, and half
    # the sum over a != 0 (the form epstein_xi_f64 had before its sum moved
    # to the lex-positive half lattice)
    n = M.shape[0]
    det = float(np.linalg.det(M))
    Minv = np.linalg.inv(M)
    t0 = det ** (-1.0 / n) if split is None else float(split)
    budget = 42.0

    def half_sum(mat, mat_inv_diag, r, tt):
        bound = budget / (math.pi * tt)
        lims = [int(math.floor(math.sqrt(bound * max(v, 0.0)))) for v in mat_inv_diag]
        grids = np.meshgrid(*[np.arange(-L, L + 1) for L in lims], indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        pts = pts[np.any(pts != 0, axis=1)].astype(float)
        Q = np.einsum("ij,jk,ik->i", pts, mat, pts)
        xv = math.pi * Q * tt
        keep = xv <= budget
        Q, xv = Q[keep], xv[keep]
        return 0.5 * float(np.sum((math.pi * Q) ** (-r) * upper_gamma_f64(r, xv)))

    s1 = half_sum(M, np.diag(Minv), rho, t0)
    s2 = half_sum(Minv, np.diag(M), n / 2 - rho, 1.0 / t0)
    polar = 0.5 * (det**-0.5 * t0 ** (rho - n / 2) / (rho - n / 2) - t0**rho / rho)
    return s1 + det**-0.5 * s2 + polar


def test_half_lattice_sum_matches_full_box():
    rng = np.random.default_rng(23)
    cases = []
    for n in (2, 3, 4):
        A = rng.normal(size=(n, n))
        cases.append((A @ A.T + 0.25 * np.eye(n), (None, 1.0)))
    # skewed Siegel-set forms as lemma1 draws them; split = 1 would need
    # boxes of 1e6..1e9 points here, so the off-balance split is 2 t0
    for y in ([20.0], [30.0, 2.0], [8.0, 40.0, 1.5]):
        n = len(y) + 1
        x = np.eye(n)
        x[np.triu_indices(n, k=1)] = rng.uniform(0.0, 1.0, n * (n - 1) // 2)
        z = z_from_y(y, x=x)
        M = z @ z.T
        t0 = np.linalg.det(M) ** (-1.0 / n)
        # these boxes have axes of width 0
        assert 0 in _box_limits(np.diag(np.linalg.inv(M)), 42.0 / (math.pi * t0))
        cases.append((M, (None, 2.0 * t0)))
    for M, splits in cases:
        n = M.shape[0]
        for split in splits:
            for rho in (0.4, n / 4, n / 2 - 0.3):
                got = epstein_xi_f64(M, rho, split=split)
                want = _xi_f64_full_box(M, rho, split=split)
                assert abs(got - want) <= 1e-13 * abs(want), (n, split, rho)


def test_split_independence():
    M = np.array([[1.0, 0.3], [0.3, 1.0]])
    with mp.workdps(25):
        vals = [epstein_xi(M, mpf("0.9"), split=sp) for sp in (None, mpf("0.6"), mpf("2.3"))]
        assert abs(vals[0] - vals[1]) < mpf("1e-23")
        assert abs(vals[0] - vals[2]) < mpf("1e-23")


def test_unimodular_invariance():
    M = np.array([[2.0, 0.5], [0.5, 1.5]])
    U = np.array([[1, 1], [0, 1]])
    with mp.workdps(25):
        a = epstein_z(M, mpf("1.4"))
        b = epstein_z(U.T @ M @ U, mpf("1.4"))
        assert abs(a - b) < mpf("1e-20") * abs(a)


def test_poles_and_domain():
    with pytest.raises(PoleError):
        epstein_xi(np.eye(2), 1.0)
    with pytest.raises(PoleError):
        epstein_xi_f64(np.eye(3), 1.5)
    with pytest.raises(PoleError):
        epstein_xi_f64(np.eye(2), 0.0)
    with pytest.raises(ValueError):
        epstein_xi_f64(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.7)  # indefinite
    with pytest.raises(ValueError, match="positive definite"):
        epstein_xi(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.7)
    for split in (0.0, -1.0):
        with pytest.raises(ValueError, match="split point must be positive"):
            epstein_xi(np.eye(2), 0.7, split=split)
    for s in (0.0, -0.5):
        with pytest.raises(ValueError, match="s > 0"):
            gln_completed_eisenstein_f64([1.3], s)


def test_f64_split_past_the_box_matches_mp():
    # at split = 1e3 the theta half sum's box holds no lattice point but the
    # origin: _half_box_forms returns no form, and xi is the dual sum and
    # the polar part alone
    assert list(_box_limits(np.ones(2), 42.0 / (math.pi * 1e3))) == [0, 0]
    got = epstein_xi_f64(np.eye(2), 0.7, split=1e3)
    with mp.workdps(30):
        want = float(epstein_xi(np.eye(2), mpf("0.7")))
    assert abs(got - want) <= 1e-13 * abs(want)


def test_f64_order_at_a_non_positive_integer_raises(recwarn):
    # at n = 2, rho = 2 the dual half sum needs Gamma(-1, x), which the
    # float64 walk-down cannot reach: a RangeError, not a silent nan
    with pytest.raises(RangeError, match="a = -1"):
        epstein_xi_f64(np.eye(2), 2.0)
    with pytest.raises(RangeError, match="a = -1"):
        gln_completed_eisenstein_f64([1.3], 2.0)
    assert [str(w.message) for w in recwarn] == []


def test_iwasawa_roundtrip_scale_invariant():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        A = rng.normal(size=(n, n))
        G = A @ A.T + n * np.eye(n)
        x, y, a = iwasawa_y(G)
        z = z_from_y(y, x=x)
        assert np.abs(z @ z.T - G / G[n - 1, n - 1]).max() < 1e-12
        # scalar invariance
        _, y2, _ = iwasawa_y(7.3 * G)
        assert np.abs(y - y2).max() < 1e-12
        assert abs(det_from_y(y) - np.linalg.det(z)) < 1e-12 * det_from_y(y)


def test_iwasawa_guards():
    with pytest.raises(ValueError):
        iwasawa_y(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        iwasawa_y(np.array([[1.0, 1.0], [1.0, 1.0]]))  # singular


def test_dual_involution_reverses_y():
    y = np.array([2.0, 0.5, 1.3])
    z = z_from_y(y)
    n = 4
    w = np.fliplr(np.eye(n))
    zt = w @ np.linalg.inv(z).T @ w
    _, yd, _ = iwasawa_y(zt @ zt.T)
    assert np.abs(yd - dual_y(y)).max() < 1e-12
    # det z~ = prod y_i^i for the normalized dual representative
    want = float(np.prod([y[i - 1] ** i for i in range(1, n)]))
    assert abs(det_from_y(yd) - want) < 1e-12 * want


def test_two_route_eisenstein_n2():
    # lattice route (this module) vs Fourier route (eisenstein_gl2):
    # independent continuations of the same function
    x_val, y_val = 0.31, 1.37
    xm = np.array([[1.0, x_val], [0.0, 1.0]])
    with mp.workdps(25):
        for s in (mpf("0.5"), mpc("0.63", "0.37"), mpf("0.75")):
            a = gln_completed_eisenstein([y_val], s, x=xm)
            b = completed_eisenstein((mpf(x_val), mpf(y_val)), s)
            assert abs(a - b) < mpf("1e-20") * abs(b), s


def test_gln_f64_matches_mp():
    g_f = gln_completed_eisenstein_f64([1.3, 0.8], 0.5)
    with mp.workdps(25):
        g_m = gln_completed_eisenstein([1.3, 0.8], mpf("0.5"))
    assert abs(g_f - float(g_m)) < 1e-12 * abs(float(g_m))
