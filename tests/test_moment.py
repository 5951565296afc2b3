"""Petersson quadrature engine and second-moment pipeline checks.

The norm oracle is the theta-relation residue route (rankin_selberg),
which shares no code with the fundamental-domain quadrature; the unfold
checks pit that quadrature against the AFE machinery.
"""

import math

import numpy as np
import pytest

from periodmoments import moment
from periodmoments.eisenstein_gl2 import completed_eisenstein_f64
from periodmoments.modforms import hecke_eigenforms
from periodmoments.moment import (
    PeterssonEngine,
    inner_product,
    moment_row,
    moment_sweep,
    norm_f_estar,
    norm_quadrature,
    regularized_bound,
    unfold_check,
)
from periodmoments.precision import RangeError
from periodmoments.rankin_selberg import RankinSelbergPair

# Central value L(f x f, 1/2) at k=12, verified through two independent
# routes (AFE and period quadrature, agreement ~1e-14).
L_DELTA_CENTRAL = -0.7382813095323576


@pytest.fixture(scope="module")
def delta():
    return hecke_eigenforms(12)[0]


@pytest.fixture(scope="module")
def forms24():
    return hecke_eigenforms(24)


def test_truncated_hyperbolic_area():
    # k=0 weights make the engine integrate dx dy / y^2; the fundamental
    # domain has hyperbolic area pi/3, truncated tail above Ymax=10 is
    # exactly 1/10.
    eng = PeterssonEngine(0)
    val = eng.integrate(np.ones_like(eng.x)).real
    assert abs(val - (math.pi / 3 - 0.1)) < 1e-10


def test_norm_quadrature_vs_residue_route(delta):
    quad = norm_quadrature(delta)
    theta = RankinSelbergPair(delta).norm_theta()
    assert quad > 0
    assert abs(quad - theta) / theta < 1e-6


def test_norm_quadrature_vs_residue_route_k26():
    f = hecke_eigenforms(26)[0]
    quad = norm_quadrature(f)
    theta = RankinSelbergPair(f).norm_theta()
    assert abs(quad - theta) / theta < 1e-6


def test_hecke_orthogonality(forms24):
    f, g = forms24
    cross = abs(inner_product(f, g))
    bound = 1e-6 * math.sqrt(norm_quadrature(f) * norm_quadrature(g))
    assert cross <= bound


def test_linearity(delta):
    base = norm_quadrature(delta)
    scaled = inner_product(
        delta, multiplier=lambda xx, yy: 2.5 * np.ones_like(xx)
    ).real
    assert abs(scaled - 2.5 * base) < 1e-12 * abs(base)


def test_unfold_identity_k12_center(delta):
    res = unfold_check(delta, delta, 0.5)
    assert res["rel_err"] < 1e-4


def test_unfold_identity_k24_cross(forms24):
    f, g = forms24
    res = unfold_check(f, g, 0.5)
    assert res["rel_err"] < 1e-4


def test_unfold_fe_symmetry(delta):
    # E*(., s) = E*(., 1-s), so the quadrature route must agree at s and
    # 1-s without any AFE involvement.
    a = unfold_check(delta, delta, 0.75)["quadrature"]
    b = unfold_check(delta, delta, 0.25)["quadrature"]
    assert abs(a - b) < 1e-10 * abs(a)


def test_node_doubling_contract(delta):
    val, err = inner_product(delta, with_error=True)
    assert val.real > 0
    assert err < 1e-10 * val.real
    coarse = norm_f_estar(delta, 0.5, refine=1)
    fine = norm_f_estar(delta, 0.5, refine=2)
    assert abs(fine - coarse) < 1e-9 * abs(fine)


def test_regularized_bound_dominates(delta):
    reg = regularized_bound(delta)
    assert reg["unfolded"] > 0
    assert 0 < reg["c_fit"] < 100
    assert norm_f_estar(delta, 0.5) <= reg["bound"]


def test_moment_row_k12_single_term(delta):
    row = moment_row(12, forms=[delta])
    assert row["dim"] == 1
    assert abs(row["S_k"] - L_DELTA_CENTRAL**2) < 1e-9
    assert row["bessel_slack"] > 0
    assert row["norm_fE"] <= row["reg_bound"]
    cv = row["central_values"][0]
    assert abs(cv["L_afe"] - cv["L_period"]) < 1e-4 * abs(cv["L_afe"])
    assert abs(cv["L_afe"] - L_DELTA_CENTRAL) < 1e-9


def test_moment_row_k24(forms24):
    row = moment_row(24, forms=forms24)
    assert row["dim"] == 2
    assert row["bessel_slack"] > 0
    assert row["bessel_sum"] <= row["norm_fE"]
    for cv in row["central_values"]:
        assert abs(cv["L_afe"] - cv["L_period"]) < 1e-4 * abs(cv["L_afe"])


def test_sweep_slope_bookkeeping(delta):
    rows = moment_sweep((12, 16))
    assert math.isnan(rows[0]["slope_so_far"])
    assert math.isfinite(rows[1]["slope_so_far"])
    expected = (math.log(rows[1]["S_k"]) - math.log(rows[0]["S_k"])) / (
        math.log(16) - math.log(12)
    )
    assert abs(rows[1]["slope_so_far"] - expected) < 1e-12


def test_weight_mismatch_rejected(delta, forms24):
    with pytest.raises(ValueError):
        inner_product(delta, forms24[0])


def test_engine_weight_overflow_guard():
    # y^(k-2) at Ymax = (k+40)/2pi leaves float64 near k ~ 190
    with pytest.raises(RangeError):
        PeterssonEngine(200)
    eng = PeterssonEngine(150)
    assert np.all(np.isfinite(eng.w)) and np.all(eng.w >= 0)


def test_estar_memo_matches_direct_evaluation(delta):
    eng = PeterssonEngine(12)
    ev = eng.estar(0.5)
    assert eng.estar(0.5) is ev
    assert not ev.flags.writeable
    assert np.array_equal(ev, completed_eisenstein_f64(eng.x, eng.y, 0.5))
    assert np.array_equal(eng.estar(1.1), completed_eisenstein_f64(eng.x, eng.y, 1.1))
    # k <= 22 share Ymax = 10, so their nodes and E* memo; k = 24 does not
    assert PeterssonEngine(22).estar(0.5) is ev
    assert PeterssonEngine(24).y.max() > eng.y.max()


def test_moment_row_reuse_is_bit_identical(forms24):
    # moment_row evaluates f, g and E*(., 1/2) once on the nodes; every
    # sum must equal the one the per-call route gives
    row = moment_row(24, forms=forms24)
    f = forms24[0]
    for g, cv in zip(forms24, row["central_values"]):
        quad = inner_product(
            f, g, multiplier=lambda xx, yy: completed_eisenstein_f64(xx, yy, 0.5)
        ).real
        assert cv["L_period"] == quad * moment._gamma_k_over_gamma_half(24)
    assert row["norm_fE"] == norm_f_estar(f, 0.5)
    d = unfold_check(f, forms24[1], 0.75)
    assert d["quadrature"] == inner_product(
        f, forms24[1], multiplier=lambda xx, yy: completed_eisenstein_f64(xx, yy, 0.75)
    ).real
