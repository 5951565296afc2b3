"""Petersson quadrature engine and second-moment pipeline checks.

The norm oracle is the theta-relation residue route (rankin_selberg),
which shares no code with the fundamental-domain quadrature; the unfold
checks pit that quadrature against the AFE machinery.
"""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from mpmath import mp

from periodmoments import eisenstein_gl2, modforms, moment
from periodmoments.eisenstein_gl2 import completed_eisenstein_f64
from periodmoments.modforms import eval_cusp_form_f64, hecke_eigenforms
from periodmoments.moment import (
    PeterssonEngine,
    inner_product,
    moment_row,
    moment_sweep,
    petersson_engine,
    regularized_bound,
    unfold_rows,
)
from periodmoments.precision import RangeError
from periodmoments.rankin_selberg import RankinSelbergPair

# Central value L(f x f, 1/2) at k=12 by the AFE; unfold_rows([delta],
# [0.5]) is its period route (test_unfold_identity_k12_center).
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
    quad = inner_product(delta)
    theta = RankinSelbergPair(delta).norm_theta()
    assert quad > 0
    assert abs(quad - theta) / theta < 1e-6


def test_norm_quadrature_vs_residue_route_k26():
    f = hecke_eigenforms(26)[0]
    quad = inner_product(f)
    theta = RankinSelbergPair(f).norm_theta()
    assert abs(quad - theta) / theta < 1e-6


def test_hecke_orthogonality(forms24):
    f, g = forms24
    cross = abs(inner_product(f, g))
    bound = 1e-6 * math.sqrt(inner_product(f) * inner_product(g))
    assert cross <= bound


def f_estar_norm2(f, s, refine=1):
    """||f E*(., s)||^2 summed here on the nodes of petersson_engine(k,
    refine), with E* evaluated pointwise: moment_row's norm_fE, from scratch."""
    eng = petersson_engine(f.weight, refine)
    ev = completed_eisenstein_f64(eng.x, eng.y, s)
    return eng.integrate(np.abs(eng.form_values(f)) ** 2 * ev**2).real


def test_linearity(delta):
    # <f h, f> for the constant h = 2.5 is 2.5 <f, f>
    base = inner_product(delta)
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


def _unfolded_by_gamma_ratio(l_value, k, eps):
    """<f E(., 1+eps), f> = Gamma(k+eps)/((4pi)^{1+eps}Gamma(k))
    * L(f x f, 1+eps)/zeta(2+2eps), with the factor at 30 digits."""
    with mp.workdps(30):
        factor = (mp.gamma(k + eps) / mp.gamma(k) / (4 * mp.pi) ** (1 + eps)
                  / mp.zeta(2 + 2 * eps))
    return l_value * float(factor)


@pytest.mark.parametrize("k", [12, 40])
def test_regularized_bound_against_dirichlet_sum(k):
    # the independent route: the partial Dirichlet sum of L(f x f, 1+eps)
    # to n = 2000 converges to 1e-12 only deep in Re s > 1 (its tail is
    # about R / (eps 2000^eps)); at eps = 0.1 and 1 the bound is pinned to
    # Lambda(1+eps) / gamma(1+eps) with gamma from mp instead (completed_l
    # and the gamma below both come divided by Gamma(k))
    pair = RankinSelbergPair(hecke_eigenforms(k)[0])
    pair_2000 = RankinSelbergPair(hecke_eigenforms(k, horizon=2000)[0])
    for eps in (5.0, 10.0):
        want = _unfolded_by_gamma_ratio(pair_2000.l_direct(1 + eps).real, k, eps)
        got = regularized_bound(pair, eps)["unfolded"]
        assert abs(got - want) < 1e-12 * abs(want), eps
    for eps in (0.1, 1.0, 10.0):
        s = 1 + eps
        with mp.workdps(30):
            gamma_s = float((2 * mp.pi) ** (-2 * s) * mp.gamma(s + k - 1) * mp.gamma(s)
                            / mp.gamma(k))
        want = _unfolded_by_gamma_ratio(pair.completed_l(s).real / gamma_s, k, eps)
        reg = regularized_bound(pair, eps)
        assert abs(reg["unfolded"] - want) < 1e-12 * abs(want), eps
        assert reg["bound"] == reg["c_fit"] * reg["unfolded"]


def test_moment_row_takes_its_weight_from_its_forms(delta):
    assert moment_row([delta])["k"] == 12
    with pytest.raises(ValueError):
        moment_row([])
    with pytest.raises(ValueError):
        moment_row([delta] + hecke_eigenforms(24))


def test_moment_row_k12_single_term(delta):
    row = moment_row([delta])
    assert (row["k"], row["dim"]) == (12, 1)
    assert abs(row["S_k"] - L_DELTA_CENTRAL**2) < 1e-9
    assert row["bessel_slack"] > 0
    cv = row["central_values"][0]
    assert abs(cv["L_afe"] - L_DELTA_CENTRAL) < 1e-9


def test_moment_row_k24(forms24):
    row = moment_row(forms24)
    assert row["dim"] == 2
    assert row["bessel_slack"] > 0
    assert row["bessel_sum"] <= row["norm_fE"]


def test_sweep_slope_bookkeeping(delta):
    rows = moment_sweep({16: hecke_eigenforms(16), 12: [delta]})
    assert [r["k"] for r in rows] == [12, 16]
    assert math.isnan(rows[0]["slope_so_far"])
    assert math.isfinite(rows[1]["slope_so_far"])
    expected = (math.log(rows[1]["S_k"]) - math.log(rows[0]["S_k"])) / (
        math.log(16) - math.log(12)
    )
    assert abs(rows[1]["slope_so_far"] - expected) < 1e-12


def test_weight_mismatch_rejected(delta, forms24):
    with pytest.raises(ValueError):
        inner_product(delta, forms24[0])


def test_unfold_rows_need_forms():
    with pytest.raises(ValueError, match="no cusp forms"):
        unfold_rows([], [0.5])


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
        assert not moment._part_estar(part, 0.5, eng.y_min).flags.writeable


def test_moment_row_reuse_is_bit_identical(forms24):
    # moment_row evaluates f and E*(., 1/2) once on the nodes; its Bessel
    # ceiling must equal the one summed from scratch here, in the same order
    row = moment_row(forms24)
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
        # the lune's phases are computed per column, then broadcast, and
        # each node's sum over n is one product of the same two table rows
        # as in pointwise evaluation: the flat lune's values, bit for bit
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


def test_strip_evaluators_form_no_term_array(forms40):
    # each evaluator contracts its term axis in one batched product: on the
    # k = 40 strip its peak allocation stays within 3 outputs, where a
    # (points, terms) temporary is a multiple of the term count
    eng = petersson_engine(40, 1)
    strip = eng._parts[0]
    calls = ((eval_cusp_form_f64, (forms40[0], strip.x, strip.y, eng.y_min)),
             (completed_eisenstein_f64, (strip.x, strip.y, 0.5, eng.y_min)))
    for fn, args in calls:
        fn(*args)  # warm: the evaluators' memos are not the measured peak
        tracemalloc.start()
        try:
            out = fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == strip.w0.shape
        assert peak <= 3 * out.nbytes, (fn.__name__, peak / out.nbytes)


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
        afe = pair.completed_l(r["s"]).real
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
    row = moment_row(forms24)
    assert pairs == Counter({(0, 0): 1, (1, 1): 1, (0, 1): 1})
    for g, cv in zip(forms24, row["central_values"]):
        assert cv["norm_g"] == RankinSelbergPair(g).norm_theta()


def test_moment_row_evaluates_only_what_it_reports(monkeypatch, forms24):
    # the row needs f on the nodes (one strip and one lune evaluation),
    # E*(., 1/2) and the AFE at s = 1/2: no g != f on the nodes, no s = 1 + eps
    forms, estar_s, afe_s = [], [], []
    cusp, eisenstein = moment.eval_cusp_form_f64, moment.completed_eisenstein_f64
    afe = RankinSelbergPair.completed_l

    def counted_cusp(f, x, y, **kw):
        forms.append(f.index)
        return cusp(f, x, y, **kw)

    def counted_estar(x, y, s, **kw):
        estar_s.append(s)
        return eisenstein(x, y, s, **kw)

    def counted_afe(self, s):
        afe_s.append(s)
        return afe(self, s)

    monkeypatch.setattr(moment, "eval_cusp_form_f64", counted_cusp)
    monkeypatch.setattr(moment, "completed_eisenstein_f64", counted_estar)
    monkeypatch.setattr(RankinSelbergPair, "completed_l", counted_afe)
    # E*(., s) is memoized per part: start cold so that every s is seen
    moment._part_estar.cache_clear()
    moment_row(forms24)
    assert forms == [forms24[0].index] * 2
    assert estar_s == [0.5, 0.5]
    assert afe_s == [0.5] * len(forms24)


def test_regularized_bound_eps_out_of_float64_range_raises(delta, recwarn):
    # Lambda*(f x f, 1 + eps) past float64's range at k = 12 (eps >= 153)
    # is a RangeError, and numpy warns of nothing on the way
    with pytest.raises(RangeError):
        regularized_bound(RankinSelbergPair(delta), 200.0)
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("k", [12, 40])
def test_integrands_mirror_bit_for_bit(k, forms40):
    # the engine keeps the x > 0 half of the nodes because every integrand
    # is conjugate-symmetric under x -> -x: f(-conj z) = conj f(z) for real
    # coefficients and E*(., s) even in x at real s, exactly at every node
    eng = petersson_engine(k, 1)
    forms = forms40 if k == 40 else hecke_eigenforms(k)
    for part in eng._parts:
        assert np.all(part.x > 0)
        for f in forms:
            right = eval_cusp_form_f64(f, part.x, part.y, y_min=eng.y_min)
            left = eval_cusp_form_f64(f, -part.x, part.y, y_min=eng.y_min)
            assert np.array_equal(left, np.conjugate(right))
        for s in (0.5, 0.75, 1.25):
            right = completed_eisenstein_f64(part.x, part.y, s, y_min=eng.y_min)
            left = completed_eisenstein_f64(-part.x, part.y, s, y_min=eng.y_min)
            assert np.array_equal(left, right)


def _mirrored_parts(k, refine):
    """The strip and lune on all of [-1/2, 1/2], built here from the rules
    themselves: (x, y, w) per part in broadcast shape, w = dx dy y^(k-2)."""
    ymax = max(10.0, (k + 40.0) / (2 * math.pi))
    nx, ny = 128 * refine, 200 * refine
    u, wu = np.polynomial.legendre.leggauss(ny)
    umax = math.log(ymax)
    ys = np.exp(umax / 2 * (u + 1.0))
    xs = -0.5 + (np.arange(nx) + 0.5) / nx
    strip = (xs[:, None], ys[None, :], np.outer(np.full(nx, 1.0 / nx), wu * umax / 2 * ys))
    gx, gwx = np.polynomial.legendre.leggauss(64 * refine)
    gy, gwy = np.polynomial.legendre.leggauss(48 * refine)
    xv = (gx / 2)[:, None]
    y0 = np.sqrt(1.0 - xv * xv)
    lune = (xv, (1.0 + y0) / 2 + (1.0 - y0) / 2 * gy, gwy * (1.0 - y0) / 2 * (gwx / 2)[:, None])
    return [(x, y, w * y ** (k - 2)) for x, y, w in (strip, lune)]


@pytest.mark.parametrize("refine", [1, 2])
def test_half_domain_matches_the_mirrored_sum(forms24, refine):
    # <f, f> and <f E*(., s), g> on the x > 0 half equal the explicit sum
    # over every mirrored node, whose imaginary part cancels
    f, g = forms24
    eng = petersson_engine(24, refine)
    # the x > 0 halves: 64 x 200 strip and 32 x 48 lune nodes at refine 1
    assert [p.w0.shape for p in eng._parts] == [(64 * refine, 200 * refine),
                                                (32 * refine, 48 * refine)]
    assert eng.w.size == 14336 * refine**2
    parts = _mirrored_parts(24, refine)
    assert sum(np.broadcast(x, y).size for x, y, _ in parts) == 28672 * refine**2
    y_min = min(float(np.min(y)) for _, y, _ in parts)
    assert y_min == eng.y_min

    def mirrored(fn):
        return sum(complex(np.sum(fn(x, y) * w)) for x, y, w in parts)

    def cusp(form):
        return lambda x, y: eval_cusp_form_f64(form, x, y, y_min=y_min)

    want = mirrored(lambda x, y: np.abs(cusp(f)(x, y)) ** 2)
    got = inner_product(f, refine=refine)
    assert abs(got - want.real) <= 1e-14 * want.real and want.imag == 0
    fv, gv = eng.form_values(f), eng.form_values(g)
    for s in (0.5, 1.25):
        want = mirrored(lambda x, y: cusp(f)(x, y) * np.conjugate(cusp(g)(x, y))
                        * completed_eisenstein_f64(x, y, s, y_min=y_min))
        got = moment._pairing(eng, fv, gv, eng.estar(s))
        assert abs(got - want.real) <= 1e-14 * abs(want.real)
        assert abs(want.imag) <= 1e-14 * abs(want.real)
