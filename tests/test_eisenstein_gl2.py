"""Upper-half-plane Eisenstein series: expansion, symmetries, residues.

The frozen central value was pinned by two independent routes (this
module's Fourier limit and a quadratic-form lattice sum) in an oracle
run before the module was finalized.
"""

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from periodmoments import cli, eisenstein_gl2, special
from periodmoments.eisenstein_gl2 import (
    completed_eisenstein,
    completed_eisenstein_f64,
    eisenstein,
    residue_at_one,
    residue_at_one_f64,
)
from periodmoments.precision import NonConvergenceError, PoleError
from periodmoments.special import bessel_k, lam

# E*(0.31 + 1.37i, 1/2), 28 digits
CENTRAL_VALUE = "-1.918530492243039214048279817"
Z0 = ("0.31", "1.37")  # strings: parsed at the active working precision


def test_central_frozen_value():
    with mp.workdps(30):
        v = completed_eisenstein(Z0, mpf("0.5"))
        assert abs(v - mpf(CENTRAL_VALUE)) < mpf("1e-26")


def test_central_branch_matches_generic_limit():
    # generic-s code path approaching the center vs the snapped formula
    with mp.workdps(30):
        central = completed_eisenstein(Z0, mpf("0.5"))
        near = completed_eisenstein(Z0, mpf("0.5") + mpf("1e-9"))
        # E*'(1/2) = 0 by the functional equation, so the gap is O(h^2);
        # the generic branch also survives its 1/(2s-1) constant-term
        # cancellation this close to the center
        assert abs(central - near) < mpf("1e-14")


def test_functional_equation_complex_s():
    with mp.workdps(30):
        for s in (mpc("0.3", "0.7"), mpc("0.5", "1.9"), mpc("1.4", "-0.35")):
            a = completed_eisenstein(Z0, s)
            b = completed_eisenstein(Z0, 1 - s)
            assert abs(a - b) < mpf("1e-25") * max(1, abs(a))


def test_automorphy():
    with mp.workdps(30):
        s = mpc("0.62", "0.41")
        z = mpc(mpf("0.31"), mpf("1.37"))
        for w in (-1 / z, z + 1, (z - 1) / (1 * z + 0)):  # S, T, and S T^-1 images
            a = completed_eisenstein((mp.re(w), mp.im(w)), s)
            b = completed_eisenstein(z, s)
            assert abs(a - b) < mpf("1e-25") * max(1, abs(b))


def test_poles_raise():
    with pytest.raises(PoleError):
        completed_eisenstein(Z0, 1)
    with pytest.raises(PoleError):
        completed_eisenstein(Z0, 0)
    with pytest.raises(ValueError):
        completed_eisenstein((0.1, -2.0), 0.7)


def test_residue_of_completed_is_half():
    with mp.workdps(40):
        for z in (Z0, (mpf("-0.4"), mpf("0.8")), (mpf(0), mpf(3))):
            r = residue_at_one(z, completed=True)
            assert abs(r - mpf("0.5")) < mpf("1e-10")


def test_residue_of_unnormalized_is_three_over_pi():
    with mp.workdps(40):
        r = residue_at_one(Z0)
        assert abs(r - 3 / mp.pi) < mpf("1e-12")


def test_f64_residue_matches_the_oracle():
    # a dyadic step keeps 1 +- h exact in float64; at h = 1e-3 the offset
    # of fl(1 + h) - 1 goes through the pole and reads 1.2e-13 here
    for x, y in cli.RESIDUE_POINTS:
        want = float(residue_at_one(complex(x, y)))
        assert abs(residue_at_one_f64(x, y) - want) <= 1e-14, (x, y)


def test_center_line_vanishing_and_ratio():
    with mp.workdps(30):
        assert eisenstein(Z0, mpf("0.5")) == 0
        s = mpf("0.8")
        ratio = completed_eisenstein(Z0, s) / eisenstein(Z0, s)
        assert abs(ratio - lam(2 * s)) < mpf("1e-25") * abs(lam(2 * s))


def test_f64_matches_mp():
    xg = np.array([0.1, 0.31, -0.27])
    yg = np.array([0.9, 1.37, 2.2])
    for s_val in (0.5, 0.75, 1.1):
        got = completed_eisenstein_f64(xg, yg, s_val)
        with mp.workdps(30):
            for j in range(len(xg)):
                ref = completed_eisenstein((mpf(float(xg[j])), mpf(float(yg[j]))), mpf(s_val))
                assert abs(float(ref) - got[j]) < 5e-14 * max(1.0, abs(float(ref)))


def test_trivial_zeros_are_not_poles():
    # at s = 2, 3 (and -1, -2) the constant term reads Lambda(-2) and
    # Lambda(-4), finite by the functional equation of zeta
    with mp.workdps(30):
        for s in (2, 3):
            a = completed_eisenstein(Z0, mpf(s))
            b = completed_eisenstein(Z0, mpf(1 - s))
            assert abs(a - b) < mpf("1e-25") * abs(a)
    xg = np.array([0.1, 0.31, -0.27])
    yg = np.array([0.9, 1.37, 2.2])
    got = completed_eisenstein_f64(xg, yg, 2.0)
    with mp.workdps(30):
        for j in range(len(xg)):
            ref = completed_eisenstein((mpf(float(xg[j])), mpf(float(yg[j]))), mpf(2))
            assert abs(float(ref) - got[j]) < 5e-14 * abs(float(ref))


def test_f64_pole_guards():
    with pytest.raises(PoleError):
        completed_eisenstein_f64(np.array([0.0]), np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        completed_eisenstein_f64(np.array([0.0]), np.array([0.0]), 0.7)


# heights 0.3 to 10, and s near the pole, at the center, at the trivial
# zeros s = 2, 3, off the real line and on the critical line
ROUTE_POINTS = [("0.31", "0.3"), ("0.1", "1.37"), ("-0.27", "2.2"), ("0.45", "10")]
ROUTE_S = ["1.001", "0.999", "0.5", "0.25", "1.9", "2", "3", ("0.3", "0.7"), ("0.5", "1.9")]


def _tail_per_term(z, s):
    # E* with its tail as sum_n c_n K_nu(2 pi n y), one bessel_k per term
    x, y = mpf(z[0]), mpf(z[1])
    n_terms = eisenstein_gl2._n_terms_mp(y)
    if s == mpf("0.5"):
        const = mp.sqrt(y) * (mp.log(y) + mp.euler - mp.log(4 * mp.pi))
        nu = 0
        coef = [len(eisenstein_gl2._divisors(n)) for n in range(1, n_terms + 1)]
    else:
        const = lam(2 * s) * y**s + lam(2 - 2 * s) * y ** (1 - s)
        nu = s - mpf(1) / 2
        coef = [mpf(n) ** nu * eisenstein_gl2._sigma_power(1 - 2 * s, n)
                for n in range(1, n_terms + 1)]
    tail = sum(c * bessel_k(nu, 2 * mp.pi * n * y) * mp.cos(2 * mp.pi * n * x)
               for n, c in enumerate(coef, 1))
    return const + 4 * mp.sqrt(y) * tail


def test_one_integral_tail_matches_per_term_bessel():
    with mp.workdps(40):
        for z in ROUTE_POINTS:
            for s in ROUTE_S:
                s = mpc(*s) if isinstance(s, tuple) else mpf(s)
                ours = completed_eisenstein(z, s)
                ref = _tail_per_term(z, s)
                assert abs(ours - ref) <= mpf("1e-38") * abs(ref), (z, s)


def test_tail_is_one_quadrature_with_each_node_once(monkeypatch):
    # one _k_sum_ex call per E*, no bessel_k, and no node evaluated twice
    sums, nodes = [], []
    real_sum, real_kern = special._k_sum_ex, special._k_integrand

    def counted_sum(*args):
        sums.append(args)
        return real_sum(*args)

    def recorded(x, nu, coefs, u, is_real):
        nodes.append(u)
        return real_kern(x, nu, coefs, u, is_real)

    def forbidden(*args):
        raise AssertionError("bessel_k called from completed_eisenstein")

    monkeypatch.setattr(eisenstein_gl2, "_k_sum_ex", counted_sum)
    monkeypatch.setattr(special, "_k_integrand", recorded)
    monkeypatch.setattr(special, "bessel_k", forbidden)
    monkeypatch.setattr(eisenstein_gl2, "bessel_k", forbidden, raising=False)
    with mp.workdps(40):
        for s in (mpf("1.001"), mpf("0.5")):
            sums.clear()
            nodes.clear()
            completed_eisenstein(Z0, s)
            assert len(sums) == 1
            assert len(sums[0][2]) == eisenstein_gl2._n_terms_mp(mpf(Z0[1]))
            assert len(nodes) > 50
            assert len(set(nodes)) == len(nodes)


def test_tail_nonconvergence_carries_best_and_delta(monkeypatch):
    # an integrand that grows with every evaluation never settles
    calls = []

    def restless(x, nu, coefs, u, is_real):
        calls.append(u)
        return mpf(len(calls))

    monkeypatch.setattr(special, "_k_integrand", restless)
    with mp.workdps(40):
        with pytest.raises(NonConvergenceError) as exc:
            completed_eisenstein(Z0, mpf("1.001"))
    err = exc.value
    assert err.best is not None and mp.isfinite(err.best)
    assert err.last_delta is not None and err.last_delta > 0
