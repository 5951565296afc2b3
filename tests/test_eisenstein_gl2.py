"""Upper-half-plane Eisenstein series: expansion, symmetries, residues.

The frozen central value was pinned by two independent routes (this
module's Fourier limit and a quadratic-form lattice sum) in an oracle
run before the module was finalized.
"""

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from periodmoments.eisenstein_gl2 import (
    completed_eisenstein,
    completed_eisenstein_f64,
    eisenstein,
    residue_at_one,
)
from periodmoments.precision import PoleError
from periodmoments.special import lam

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
