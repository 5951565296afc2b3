"""Petersson quadrature engine and second-moment pipeline checks.

The norm oracle is the theta-relation residue route (rankin_selberg),
which shares no code with the fundamental-domain quadrature; the unfold
checks pit that quadrature against the AFE machinery.
"""

import math
from collections import Counter

import numpy as np
import pytest

from periodmoments import eisenstein_gl2, modforms, moment
from periodmoments.eisenstein_gl2 import completed_eisenstein_f64
from periodmoments.modforms import eval_cusp_form_f64, hecke_eigenforms
from periodmoments.moment import (
    PeterssonEngine,
    inner_product,
    moment_row,
    moment_sweep,
    norm_quadrature,
    petersson_engine,
    regularized_bound,
    unfold_rows,
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


def f_estar_norm2(f, s, refine=1):
    """||f E*(., s)||^2 summed here on the nodes of petersson_engine(k,
    refine), with E* evaluated pointwise: moment_row's norm_fE, from scratch."""
    eng = petersson_engine(f.weight, refine)
    ev = completed_eisenstein_f64(eng.x, eng.y, s)
    return eng.integrate(np.abs(eng.form_values(f)) ** 2 * ev**2).real


def test_linearity(delta):
    # <f h, f> for the constant h = 2.5 is 2.5 <f, f>
    base = norm_quadrature(delta)
    eng = petersson_engine(12, 1)
    fv = eng.form_values(delta)
    scaled = moment._pairing(eng, fv, fv, 2.5 * np.ones_like(eng.x)).real
    assert abs(scaled - 2.5 * base) < 1e-12 * abs(base)


def test_unfold_identity_k12_center(delta):
    (res,) = unfold_rows([delta], [0.5])
    assert res["rel_err"] < 1e-4


def test_unfold_identity_k24_cross(forms24):
    rows = {(r["i"], r["j"]): r for r in unfold_rows(forms24, [0.5])}
    assert rows[0, 1]["rel_err"] < 1e-4


def test_unfold_fe_symmetry(delta):
    # E*(., s) = E*(., 1-s), so the quadrature route must agree at s and
    # 1-s without any AFE involvement.
    a, b = (r["quadrature"] for r in unfold_rows([delta], [0.75, 0.25]))
    assert abs(a - b) < 1e-10 * abs(a)


def test_node_doubling_contract(delta):
    # doubling every node count moves <f, f> and ||f E*(., 1/2)||^2 by
    # no more than their quadrature error
    coarse, fine = inner_product(delta), inner_product(delta, refine=2)
    assert fine.real > 0
    assert abs(fine - coarse) < 1e-10 * fine.real
    assert petersson_engine(12, 2).w.size == 4 * petersson_engine(12, 1).w.size
    coarse = f_estar_norm2(delta, 0.5, refine=1)
    fine = f_estar_norm2(delta, 0.5, refine=2)
    assert abs(fine - coarse) < 1e-9 * abs(fine)


def test_regularized_bound_dominates(delta, forms24):
    reg = regularized_bound(RankinSelbergPair(delta))
    assert reg["unfolded"] > 0
    assert 0 < reg["c_fit"] < 100
    assert f_estar_norm2(delta, 0.5) <= reg["bound"]
    with pytest.raises(ValueError):
        regularized_bound(RankinSelbergPair(*forms24))


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
    assert not ev.flags.writeable
    assert np.array_equal(ev, completed_eisenstein_f64(eng.x, eng.y, 0.5))
    assert np.array_equal(eng.estar(0.5), ev)
    assert np.array_equal(eng.estar(1.1), completed_eisenstein_f64(eng.x, eng.y, 1.1))
    # k <= 22 share Ymax = 10, so their strip and its E* memo; k = 24 does
    # not, and every weight shares the lune
    strip, lune = eng._parts
    eng22, eng24 = PeterssonEngine(22), PeterssonEngine(24)
    assert eng22._parts[0] is strip and eng22._parts[1] is lune
    assert eng24._parts[0] is not strip and eng24._parts[1] is lune
    assert eng24.y.max() > eng.y.max()
    assert np.array_equal(eng22.estar(0.5), ev)
    for part in (strip, lune):
        assert not part.estar[0.5].flags.writeable


def test_moment_row_reuse_is_bit_identical(forms24):
    # moment_row evaluates f, g and E*(., 1/2) once on the nodes; every
    # sum must equal the one summed from scratch here, in the same order
    row = moment_row(24, forms=forms24)
    eng = petersson_engine(24, 1)
    fv = eng.form_values(forms24[0])
    e_half = completed_eisenstein_f64(eng.x, eng.y, 0.5)
    for g, cv in zip(forms24, row["central_values"]):
        quad = eng.integrate(fv * np.conjugate(eng.form_values(g)) * e_half).real
        assert cv["L_period"] == quad * moment._gamma_k_over_gamma_half(24)
    assert row["norm_fE"] == f_estar_norm2(forms24[0], 0.5)


@pytest.fixture(scope="module")
def forms40():
    return hecke_eigenforms(40)


def _max_rel(a, b):
    # error relative to the largest value on the node set
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("k", [12, 40])
def test_form_values_match_pointwise(k, refine, forms40):
    # strip by tensor product, lune pointwise: the same values as
    # pointwise evaluation of every node, in the node order
    forms = forms40 if k == 40 else hecke_eigenforms(k)
    eng = PeterssonEngine(k, refine)
    n_strip = eng._parts[0].w0.size
    for f in forms:
        got = eng.form_values(f)
        want = eval_cusp_form_f64(f, eng.x, eng.y)
        assert got.shape == want.shape
        assert _max_rel(got[:n_strip], want[:n_strip]) <= 1e-13
        assert _max_rel(got[n_strip:], want[n_strip:]) <= 1e-13
        # the lune's phases are computed per column, then broadcast: the
        # same values as pointwise evaluation of the flat lune, bit for bit
        # (the strip is a tensor grid, summed in other blocks than the
        # flat strip, hence the 1e-13 above)
        lune = eval_cusp_form_f64(f, eng.x[n_strip:], eng.y[n_strip:])
        assert np.array_equal(got[n_strip:], lune)


@pytest.mark.parametrize("k, refine", [(12, 2), (40, 1)])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.1, 1.25])
def test_estar_grid_matches_pointwise(k, refine, s):
    eng = PeterssonEngine(k, refine)
    assert _max_rel(eng.estar(s), completed_eisenstein_f64(eng.x, eng.y, s)) <= 1e-13
    n_strip = eng._parts[0].w0.size
    lune = completed_eisenstein_f64(eng.x[n_strip:], eng.y[n_strip:], s)
    assert np.array_equal(eng.estar(s)[n_strip:], lune)


@pytest.mark.parametrize("refine", [1, 2])
def test_grid_and_pointwise_choose_the_same_truncation(monkeypatch, forms40, refine):
    # the strip's series is truncated at the engine's smallest height
    # (a lune node's), not at the strip's own, exactly as pointwise
    # evaluation of all nodes truncates it
    n_eval, n_terms = [], []
    series = modforms._cusp_series
    monkeypatch.setattr(modforms, "_cusp_series",
                        lambda f, y_min: n_eval.append(len(series(f, y_min)[0])) or series(f, y_min))
    radial = eisenstein_gl2._eisenstein_radial
    monkeypatch.setattr(eisenstein_gl2, "_eisenstein_radial",
                        lambda y, s, n: n_terms.append(n) or radial(y, s, n))
    eng = PeterssonEngine(40, refine)
    eng.form_values(forms40[0])
    eng.estar(0.6180339887)  # an s no other test puts in the memo
    assert len(n_eval) == 2 and len(n_terms) == 2  # strip and lune
    eval_cusp_form_f64(forms40[0], eng.x, eng.y)
    completed_eisenstein_f64(eng.x, eng.y, 0.6180339887)
    assert len(set(n_eval)) == 1 and len(set(n_terms)) == 1
    strip, lune = eng._parts
    assert np.min(strip.y) > 1.0 > eng.y_min == float(np.min(lune.y)) == float(np.min(eng.y))


def test_lune_estar_once_per_s_across_ymax(monkeypatch):
    # the lune does not depend on Ymax: engines of three Ymax evaluate
    # E*(., s) on it once per s, and on each strip once per s
    calls = Counter()
    direct = moment.completed_eisenstein_f64

    def counted(x, y, s, **kw):
        calls.update([("strip" if np.shape(y)[0] == 1 else "lune", s)])
        return direct(x, y, s, **kw)

    monkeypatch.setattr(moment, "completed_eisenstein_f64", counted)
    s_values = (0.3819660113, 1.3819660113)  # s no other test puts in a memo
    engines = [PeterssonEngine(k) for k in (12, 24, 40)]
    assert len({float(eng.y.max()) for eng in engines}) == 3
    for eng in engines:
        for s in s_values:
            assert np.array_equal(eng.estar(s), direct(eng.x, eng.y, s))
    assert calls == Counter({("lune", s_values[0]): 1, ("lune", s_values[1]): 1,
                             ("strip", s_values[0]): 3, ("strip", s_values[1]): 3})


def test_y_min_above_the_points_is_rejected(delta):
    x, y = np.zeros(3), np.array([1.0, 2.0, 3.0])
    for y_min in (1.5, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            eval_cusp_form_f64(delta, x, y, y_min=y_min)
        with pytest.raises(ValueError):
            completed_eisenstein_f64(x, y, 0.75, y_min=y_min)
    # y_min = min(y) is the default
    assert np.array_equal(eval_cusp_form_f64(delta, x, y, y_min=1.0),
                          eval_cusp_form_f64(delta, x, y))
    assert np.array_equal(completed_eisenstein_f64(x, y, 0.75, y_min=1.0),
                          completed_eisenstein_f64(x, y, 0.75))


def test_unfold_rows_evaluate_each_form_once(monkeypatch, forms24):
    # one strip and one lune evaluation per form, one AFE pair per
    # (i, j); every entry equals a sum from scratch and a fresh pair bit
    # for bit
    grids, lunes, pairs = Counter(), Counter(), Counter()
    direct = moment.eval_cusp_form_f64

    def counted(f, x, y, **kw):
        # the strip is the tensor grid, its y a single row
        (grids if np.shape(y)[0] == 1 else lunes).update([f.index])
        return direct(f, x, y, **kw)

    monkeypatch.setattr(moment, "eval_cusp_form_f64", counted)

    class CountedPair(RankinSelbergPair):
        def __init__(self, f, g=None):
            pairs.update([(f.index, g.index)])
            super().__init__(f, g)

    monkeypatch.setattr(moment, "RankinSelbergPair", CountedPair)
    s_values = [0.5, 0.75, 1.25]
    rows = unfold_rows(forms24, s_values)
    assert grids == lunes == Counter({0: 1, 1: 1})
    assert pairs == Counter({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    assert [(r["i"], r["j"], r["s"]) for r in rows] == [
        (i, j, s) for i in range(2) for j in range(2) for s in s_values]
    eng = petersson_engine(24, 1)
    values = [eng.form_values(f) for f in forms24]
    for r in rows:
        ev = completed_eisenstein_f64(eng.x, eng.y, r["s"])
        quad = eng.integrate(values[r["i"]] * np.conjugate(values[r["j"]]) * ev).real
        pair = RankinSelbergPair(forms24[r["i"]], forms24[r["j"]])
        afe = pair.completed_l_normalized(r["s"]).real
        assert r == {"i": r["i"], "j": r["j"], "s": r["s"], "quadrature": quad, "afe": afe,
                     "rel_err": abs(quad - afe) / abs(afe)}
        assert r["rel_err"] < 1e-4


def test_moment_row_builds_each_diagonal_pair_once(monkeypatch, forms24):
    # (g, g) once per form, (f, g) once per g != f: 2 dim - 1 pairs, and
    # the values equal those of a fresh pair for every use, bit for bit
    pairs = Counter()

    class CountedPair(RankinSelbergPair):
        def __init__(self, f, g=None):
            pairs.update([(f.index, (g or f).index)])
            super().__init__(f, g)

    monkeypatch.setattr(moment, "RankinSelbergPair", CountedPair)
    row = moment_row(24, forms=forms24)
    assert pairs == Counter({(0, 0): 1, (1, 1): 1, (0, 1): 1})
    f = forms24[0]
    for g, cv in zip(forms24, row["central_values"]):
        assert cv["norm_g"] == RankinSelbergPair(g).norm_theta()
    reg = regularized_bound(RankinSelbergPair(f))
    assert (row["reg_unfolded"], row["reg_bound"]) == (reg["unfolded"], reg["bound"])
    assert row["lambda_star_1pe"] == RankinSelbergPair(f).completed_l_normalized(1.0 + moment.REG_EPS).real
