"""Experiment driver: each subcommand runs one numerical experiment,
writes a deterministic CSV table plus a JSON summary with pass/fail
checks, and exits 0 (all checks pass), 1 (a numerical check failed), or
2 (configuration error).

Determinism: all sampling goes through numpy's default_rng seeded from
--seed; identical parameters and seed reproduce the CSV byte for byte
on the same set of CPUs (wall-clock time is reported only in the JSON),
whatever mpmath precision the caller has set: every mp computation sets
its own digits.  The BLAS library splits its work by the CPUs it may
use, so a run pinned to one CPU can differ from one on two in the last
digits (stade --n 3 --samples 20 at seed 0: max_rel_err 1.2215931e-11
pinned, 1.2215872e-11 on two CPUs).
--config FILE.json supplies values that pass through the same parser as
the flags (unknown keys and invalid values exit 2), and explicit flags
override them.
"""

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np
from mpmath import mp
from numpy.random import default_rng

from . import report, spectral
from .eisenstein_gl2 import residue_at_one
from .epstein import (
    det_from_y,
    dual_y,
    epstein_xi_f64,
    epstein_z_f64,
    gln_completed_eisenstein_f64,
)
from .modforms import cusp_dim, eigenform_horizon, hecke_eigenforms
from .moment import moment_sweep, norm_quadrature, petersson_engine, unfold_rows
from .precision import NonConvergenceError, PoleError, RangeError
from .rankin_selberg import RankinSelbergPair
from .special import dirichlet_beta, zeta

# The max_*_rel_err checks fold their errors with np.maximum, which
# propagates nan: the builtin max(0.0, nan) is 0.0, a vacuous PASS.
UNFOLD_TOL = 1e-4
STADE2_TOL = 1e-8
STADE3_TOL = 1e-4
NORM_TOL = 1e-6
RESIDUE_TOL = 1e-8
EPSTEIN_TOL = 1e-8
# The three checks below keep their historical definitions, which
# perfbench/references records; each can fail on correct values.
# tests/test_acceptance.py::test_moment_slope_bound states the corrected
# claim: SLOPE_MAX on the moment of L2-normalized f and g and on its
# period bound.
SLOPE_MAX = 1.3
# The Plancherel measure is fixed only up to an absolute constant; see
# test_ball_proxy_window_n3 and test_stade_ball_product_window for the
# scale-free form, max/min <= 8/(1/8).
RATIO_WINDOW = (0.125, 8.0)
# See test_lemma1_slope_n2 and test_lemma1_slope_n3: the slope equals that
# of the constant term of E*(z, 1/2), and the ratio stays below C_eps.
LEMMA1_SLOPE_WINDOW = (-0.05, 0.02)
LEMMA1_MAX_OVER_MEDIAN = 3.0


@functools.cache
def _forms(k, horizon):
    """The eigenforms of weight k to horizon, built once per process."""
    forms = hecke_eigenforms(k, horizon)
    if not forms:
        raise RangeError("no cusp forms at weight %d" % k)
    return forms


def _forms_by_weight(weights):
    """Eigenforms of each weight, once every weight has passed the range
    check of the Petersson engine (k <= 196), so that a weight out of
    range exits 2 before any form is built.  It is the only range check:
    the theta profile and the AFE work in units of Gamma(k) and stay in
    float64 at every weight the engine takes; the largest weight is
    checked first, so the error names it.  Every weight is built at one
    horizon, that of the largest weight, so the weights share the Miller
    products cached at it; lam(n) does not depend on the horizon."""
    weights = sorted(set(weights), reverse=True)
    for k in weights:
        petersson_engine(k, 1)
    horizon = eigenform_horizon(weights[0])
    return {k: _forms(k, horizon) for k in weights}


# ---------------------------------------------------------------------------
# experiments: each returns (header, rows, checks, extra_params)


def run_moment(args, rng):
    k_lo = args.k_min + (args.k_min % 2)
    weights = [k for k in range(k_lo, args.k_max + 1, 2) if cusp_dim(k) >= 1]
    if not weights:
        raise RangeError("no weights with cusp forms in [%d, %d]" % (args.k_min, args.k_max))
    rows_data = moment_sweep(_forms_by_weight(weights))
    header = ["k", "dim", "S_k", "S_k_str", "norm_fE", "bessel_slack", "slope_so_far"]
    rows = [
        [r["k"], r["dim"], r["S_k"], report.hp_str(r["S_k"]), r["norm_fE"],
         r["bessel_slack"], r["slope_so_far"]]
        for r in rows_data
    ]
    min_slack = min(r["bessel_slack"] for r in rows_data)
    checks = [report.check("min_bessel_slack", min_slack, 0.0, min_slack >= 0.0)]
    if len(rows_data) >= 2:
        slope = rows_data[-1]["slope_so_far"]
        checks.append(report.check("loglog_slope", slope, SLOPE_MAX, slope <= SLOPE_MAX))
    return header, rows, checks, {"weights": weights}


def run_unfold_check(args, rng):
    rows = []
    worst = 0.0
    for d in unfold_rows(_forms_by_weight([args.k])[args.k], args.s):
        worst = np.maximum(worst, d["rel_err"])
        rows.append([args.k, d["i"], d["j"], d["s"], d["quadrature"],
                     report.hp_str(d["quadrature"]), d["afe"], d["rel_err"]])
    header = ["k", "i", "j", "s", "quadrature", "quadrature_str", "afe", "rel_err"]
    checks = [report.check("max_rel_err", worst, UNFOLD_TOL, worst <= UNFOLD_TOL)]
    return header, rows, checks, {"k": args.k, "s": args.s}


# five deterministic n=3 grid pairs, sup-norm <= 1
STADE3_GRID = [
    ((0.5, 0.5), (0.5, 0.5)),
    ((0.7, -0.3), (0.2, 0.4)),
    ((-0.6, 0.6), (0.5, -0.5)),
    ((0.3, 0.8), (0.6, 0.1)),
    ((0.9, 0.1), (-0.4, -0.7)),
]


def stade3_pairs(samples, rng):
    """The first `samples` n=3 (nu, mu) pairs: STADE3_GRID, then uniform
    draws from rng with sup-norm <= 1."""
    pairs = list(STADE3_GRID[:samples])
    while len(pairs) < samples:
        pairs.append((tuple(rng.uniform(-1, 1, 2)), tuple(rng.uniform(-1, 1, 2))))
    return pairs


def run_stade(args, rng):
    s_values = args.s if args.s else ([0.5, 1.0, 1.5] if args.n == 2 else [1.0])
    rows = []
    worst = 0.0
    eq11 = []
    if args.n == 2:
        header = ["n", "nu", "mu", "s", "lhs", "lhs_str", "rhs", "rel_err", "eq11_ratio"]
        for _ in range(args.samples):
            tn = rng.uniform(-2.0, 2.0)
            tm = float(np.clip(tn + rng.uniform(-1.0, 1.0), -2.0, 2.0))
            pn = spectral.spectral_params(2, [1j * tn])
            pm = spectral.spectral_params(2, [1j * tm])
            for s in s_values:
                r = spectral.stade_check(pn, pm, s)
                worst = np.maximum(worst, r["rel_err"])
                ratio = None
                if s == 0.5:
                    ball = spectral.plancherel_ball(pn, radius=1.0)["integral"]
                    ratio = abs(r["lhs"]) * math.sqrt(ball)
                    eq11.append(ratio)
                rows.append([2, tn, tm, s, complex(r["lhs"]),
                             report.hp_str(complex(r["lhs"])), complex(r["rhs"]),
                             r["rel_err"], ratio])
        tol = STADE2_TOL
    else:
        header = ["n", "nu1", "nu2", "mu1", "mu2", "s", "lhs", "lhs_str", "rhs", "rel_err"]
        ranks = []
        for nu_t, mu_t in stade3_pairs(args.samples, rng):
            pn = spectral.spectral_params(3, [1j * v for v in nu_t])
            pm = spectral.spectral_params(3, [1j * v for v in mu_t])
            for s in s_values:
                r = spectral.stade_check(pn, pm, s)
                worst = np.maximum(worst, r["rel_err"])
                ranks.extend(r["kernel_ranks"])
                rows.append([3, nu_t[0], nu_t[1], mu_t[0], mu_t[1], s,
                             complex(r["lhs"]), report.hp_str(complex(r["lhs"])),
                             complex(r["rhs"]), r["rel_err"]])
        tol = STADE3_TOL
    checks = [report.check("max_rel_err", worst, tol, worst <= tol)]
    if eq11:
        lo, hi = RATIO_WINDOW
        checks.append(report.check("eq11_ratio_min", min(eq11), list(RATIO_WINDOW),
                                   lo <= min(eq11) <= hi))
        checks.append(report.check("eq11_ratio_max", max(eq11), list(RATIO_WINDOW),
                                   lo <= max(eq11) <= hi))
    params = {"n": args.n, "samples": args.samples, "s": s_values}
    if args.n == 3:
        # the ranks the range finder chose for the Mellin-Barnes kernels,
        # the Stade grid of each s and the kernels' node count
        sizes = [spectral.stade3_sizes(s) for s in s_values]
        params.update(kernel_rank_min=min(ranks), kernel_rank_max=max(ranks),
                      grid_shapes=[list(shape) for shape, _ in sizes],
                      mb_nodes=sizes[0][1])
    return header, rows, checks, params


def _draw_in_ball(rng, dim, radius):
    while True:
        t = rng.uniform(-radius, radius, dim)
        if float(np.linalg.norm(t)) <= radius:
            return t


def run_plancherel(args, rng):
    header = ["n"] + ["t%d" % (i + 1) for i in range(args.n - 1)] + [
        "integral", "integral_str", "proxy", "ratio"]
    rows = []
    ratios = []
    agreement = None
    for idx in range(args.centers):
        t = _draw_in_ball(rng, args.n - 1, 20.0)
        p = spectral.spectral_params(args.n, [1j * v for v in t])
        q = spectral.plancherel_ball(p, radius=args.radius, scheme="quadrature")
        if idx == 0:
            m = spectral.plancherel_ball(p, radius=args.radius, scheme="mc", seed=args.seed)
            agreement = abs(q["integral"] - m["integral"]) / q["integral"]
        ratios.append(q["ratio"])
        rows.append([args.n] + [float(v) for v in t]
                    + [q["integral"], report.hp_str(q["integral"]), q["proxy"], q["ratio"]])
    lo, hi = RATIO_WINDOW
    checks = [
        report.check("ratio_min", min(ratios), list(RATIO_WINDOW), lo <= min(ratios) <= hi),
        report.check("ratio_max", max(ratios), list(RATIO_WINDOW), lo <= max(ratios) <= hi),
        report.check("scheme_agreement", agreement, 0.01, agreement <= 0.01),
    ]
    return header, rows, checks, {"n": args.n, "centers": args.centers, "radius": args.radius}


def _random_gram(rng, n):
    # reject ill-conditioned draws and dets too close to 1 (a det=1 matrix
    # makes the balanced split coincide with split=1, which would reduce
    # the functional-equation check to a trivial rearrangement)
    while True:
        a = rng.normal(size=(n, n))
        m = a @ a.T + 0.25 * np.eye(n)
        det = float(np.linalg.det(m))
        cond = float(np.linalg.cond(m))
        if cond <= 60.0 and abs(det ** (-1.0 / n) - 1.0) >= 0.05:
            return m, det


def run_epstein_fe(args, rng):
    header = ["n", "idx", "rho", "xi_split1", "xi_split1_str", "xi_dual", "rel_err"]
    rows = []
    worst = 0.0
    for idx in range(args.samples):
        m, det = _random_gram(rng, args.n)
        rho = rng.uniform(0.3, args.n / 2 - 0.3)
        lhs = epstein_xi_f64(m, rho, split=1.0)
        rhs = det ** -0.5 * epstein_xi_f64(np.linalg.inv(m), args.n / 2 - rho, split=None)
        rel = abs(lhs - rhs) / abs(rhs)
        worst = np.maximum(worst, rel)
        rows.append([args.n, idx, rho, lhs, report.hp_str(lhs), rhs, rel])
    checks = [report.check("max_fe_rel_err", worst, EPSTEIN_TOL, worst <= EPSTEIN_TOL)]
    # classical identity Z(I_2, rho) = 2 zeta(rho) beta(rho)
    worst_id = 0.0
    for rho in (0.7, 1.3, 2.5):
        z = epstein_z_f64(np.eye(2), rho)
        with mp.workdps(30):
            want = float(2 * zeta(rho) * dirichlet_beta(rho))
        worst_id = np.maximum(worst_id, abs(z - want) / abs(want))
    checks.append(report.check("max_z2_identity_rel_err", worst_id, EPSTEIN_TOL,
                               worst_id <= EPSTEIN_TOL))
    return header, rows, checks, {"n": args.n, "samples": args.samples}


def run_lemma1(args, rng):
    n = args.n
    if args.samples < 2:
        raise RangeError("lemma1 fits a slope and needs at least 2 samples")
    header = (["n"] + ["y%d" % (i + 1) for i in range(n - 1)]
              + ["det_z", "det_ztilde", "E_star", "E_star_str", "ratio"])
    rows = []
    dets = []
    ratios = []
    lo_y, hi_y = math.sqrt(3) / 2, 1e3
    for _ in range(args.samples):
        y = np.exp(rng.uniform(math.log(lo_y), math.log(hi_y), n - 1))
        x = np.eye(n)
        iu = np.triu_indices(n, k=1)
        x[iu] = rng.uniform(0.0, 1.0, len(iu[0]))
        e = gln_completed_eisenstein_f64(y, 0.5, x=x)
        dz = det_from_y(y)
        dzt = det_from_y(dual_y(y))
        try:
            ratio = abs(e) / (dz ** (0.5 + args.eps) + dzt ** (0.5 + args.eps))
        except (OverflowError, ZeroDivisionError):
            ratio = math.nan
        if not 0.0 < ratio < math.inf:
            raise RangeError("eps = %r takes det^(1/2 + eps) out of float64 range" % args.eps)
        dets.append(dz)
        ratios.append(ratio)
        rows.append([n] + [float(v) for v in y]
                    + [dz, dzt, e, report.hp_str(e), ratio])
    slope = float(np.polyfit(np.log(dets), np.log(ratios), 1)[0])
    ranked = sorted(ratios)
    med = (ranked[(len(ranked) - 1) // 2] + ranked[len(ranked) // 2]) / 2
    spread = max(ratios) / med
    lo, hi = LEMMA1_SLOPE_WINDOW
    checks = [
        report.check("ratio_slope", slope, list(LEMMA1_SLOPE_WINDOW), lo <= slope <= hi),
        report.check("max_over_median", spread, LEMMA1_MAX_OVER_MEDIAN,
                     spread <= LEMMA1_MAX_OVER_MEDIAN),
    ]
    return header, rows, checks, {"n": n, "samples": args.samples, "eps": args.eps}


RESIDUE_POINTS = [(0.0, 1.0), (0.3, 0.8), (-0.25, 1.7), (0.5, 2.5), (0.1, 0.9)]


def run_eisenstein_residue(args, rng):
    header = ["x", "y", "residue", "residue_str", "abs_err"]
    rows = []
    vals = []
    target = 3.0 / math.pi
    for x, y in RESIDUE_POINTS:
        r = residue_at_one(complex(x, y))
        rf = float(r)
        vals.append(rf)
        rows.append([x, y, rf, report.hp_str(r), abs(rf - target)])
    worst = max(abs(v - target) for v in vals)
    spread = max(vals) - min(vals)
    checks = [
        report.check("max_abs_err_vs_3_over_pi", worst, RESIDUE_TOL, worst <= RESIDUE_TOL),
        report.check("spread_across_points", spread, RESIDUE_TOL, spread <= RESIDUE_TOL),
    ]
    return header, rows, checks, {"points": len(RESIDUE_POINTS)}


def run_norm_crosscheck(args, rng):
    header = ["k", "form_index", "norm_quad", "norm_residue", "norm_residue_str", "rel_err"]
    rows = []
    worst = 0.0
    forms_by_k = _forms_by_weight(args.k)
    for k in args.k:
        for i, f in enumerate(forms_by_k[k]):
            nq = norm_quadrature(f)
            nt = RankinSelbergPair(f).norm_theta()
            rel = abs(nq - nt) / nt
            worst = np.maximum(worst, rel)
            rows.append([k, i, nq, nt, report.hp_str(nt), rel])
    checks = [report.check("max_rel_err", worst, NORM_TOL, worst <= NORM_TOL)]
    return header, rows, checks, {"k": args.k}


EXPERIMENTS = {
    "moment": run_moment,
    "unfold-check": run_unfold_check,
    "stade": run_stade,
    "plancherel": run_plancherel,
    "epstein-fe": run_epstein_fe,
    "lemma1": run_lemma1,
    "eisenstein-residue": run_eisenstein_residue,
    "norm-crosscheck": run_norm_crosscheck,
}


# ---------------------------------------------------------------------------
# argument plumbing


def positive_int(text):
    """argparse type of the sample and center counts: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def nonnegative_int(text):
    """argparse type of --seed: an integer >= 0, as numpy's default_rng takes."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0, got %d" % value)
    return value


def finite_float(text):
    """argparse type of unfold-check's s and lemma1's eps: a finite float
    (nan or inf would reach the checks as a nan error or a nan slope)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be a finite number, got %r" % text)
    return value


def _add_common(p):
    p.add_argument("--seed", type=nonnegative_int, default=0, help="rng seed (default 0)")
    p.add_argument("--output", default=None, help="CSV path (default <experiment>.csv)")
    p.add_argument("--summary", default=None, help="JSON path (default CSV path with .json)")
    p.add_argument("--config", default=None, help="JSON file with default parameter values")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="periodmoments",
        description="numerical experiments for period integrals and Rankin-Selberg moments",
        exit_on_error=False,
    )
    # not required: argparse reports a missing required subcommand through
    # its own error(), which exits even with exit_on_error=False
    sub = parser.add_subparsers(dest="experiment")
    subparsers = {}

    p = sub.add_parser("moment", help="second-moment sweep over even weights")
    p.add_argument("--k-min", type=int, default=12)
    p.add_argument("--k-max", type=int, default=40)
    subparsers["moment"] = p

    p = sub.add_parser("unfold-check", help="two-route unfolding agreement at one weight")
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--s", type=finite_float, nargs="+", default=[0.5, 0.75])
    subparsers["unfold-check"] = p

    p = sub.add_parser("stade", help="Stade formula residuals")
    p.add_argument("--n", type=int, choices=(2, 3), default=2)
    p.add_argument("--samples", type=positive_int, default=20)
    p.add_argument("--s", type=float, nargs="+", default=None)
    subparsers["stade"] = p

    p = sub.add_parser("plancherel", help="spectral ball mass vs product proxy")
    p.add_argument("--n", type=int, choices=(2, 3), default=2)
    p.add_argument("--centers", type=positive_int, default=20)
    p.add_argument("--radius", type=float, default=1.0)
    subparsers["plancherel"] = p

    p = sub.add_parser("epstein-fe", help="Epstein zeta functional equation residuals")
    p.add_argument("--n", type=int, choices=(2, 3, 4), default=2)
    p.add_argument("--samples", type=positive_int, default=10)
    subparsers["epstein-fe"] = p

    p = sub.add_parser("lemma1", help="completed Eisenstein central-value bound on the Siegel set")
    p.add_argument("--n", type=int, choices=(2, 3, 4), default=2)
    p.add_argument("--samples", type=positive_int, default=200)
    p.add_argument("--eps", type=finite_float, default=0.05)
    subparsers["lemma1"] = p

    p = sub.add_parser("eisenstein-residue", help="residue of E(z,s) at s=1 vs 3/pi")
    subparsers["eisenstein-residue"] = p

    p = sub.add_parser("norm-crosscheck", help="Petersson norm: quadrature vs residue route")
    p.add_argument("--k", type=int, nargs="+", default=[12])
    subparsers["norm-crosscheck"] = p

    for p in subparsers.values():
        _add_common(p)
        # argument errors reach main(), which reports them as config errors
        p.exit_on_error = False
    return parser, subparsers


def _config_tokens(path, known):
    """Flag tokens for a JSON config: k_min becomes --k-min, a list one flag
    with several values.  `known` holds the subcommand's option dests."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("top level must be a JSON object")
    tokens = []
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest not in known:
            raise ValueError("unknown config key %r" % key)
        values = value if isinstance(value, list) else [value]
        if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in values):
            raise ValueError("config key %r needs a number, a string or a list of them" % key)
        tokens.append("--" + dest.replace("_", "-"))
        tokens.extend(str(v) for v in values)
    return tokens


def _writable(path):
    """path, after checking that a file can be written there: an existing
    directory, a missing or read-only parent directory raise OSError."""
    if os.path.isdir(path):
        raise IsADirectoryError("output path %r is a directory" % path)
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        raise FileNotFoundError("no directory %r for output %r" % (parent, path))
    if not os.access(parent, os.W_OK):
        raise PermissionError("directory %r is not writable" % parent)
    return path


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, _ = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if args.experiment is None:
            raise ValueError("no experiment given; choose one of %s" % ", ".join(EXPERIMENTS))
        if args.config is not None:
            # config values go through the parser as flags placed before
            # the explicit ones, so explicit flags still win
            known = set(vars(args)) - {"experiment"}
            tokens = _config_tokens(args.config, known)
            args, extra = parser.parse_known_args(argv[:1] + tokens + argv[1:])
        if extra:
            # parse_args would exit through argparse's own error(), which
            # exit_on_error=False does not cover for leftover tokens
            raise ValueError("unrecognized arguments: %s" % " ".join(extra))
        out_csv = _writable(args.output or ("%s.csv" % args.experiment))
        out_json = _writable(args.summary or (os.path.splitext(out_csv)[0] + ".json"))
        if os.path.realpath(out_csv) == os.path.realpath(out_json):
            # the summary would overwrite the CSV
            raise ValueError("--output and --summary are the same file %r" % out_csv)
    except (OSError, ValueError, argparse.ArgumentError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    rng = default_rng(args.seed)
    runner = EXPERIMENTS[args.experiment]

    t0 = time.perf_counter()
    try:
        header, rows, checks, extra = runner(args, rng)
    except (RangeError, PoleError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        # a numerical failure: exit 1, with what the scheme had reached
        print("numerical failure: %s (best=%s, last_delta=%s)"
              % (exc, exc.best, exc.last_delta), file=sys.stderr)
        return 1
    wall = time.perf_counter() - t0

    report.write_csv(out_csv, header, rows)
    params = {"seed": args.seed}
    params.update(extra)
    report.write_json(out_json, args.experiment, params, checks, wall)

    for c in checks:
        print("check %-28s value=%-12.6g tol=%-14s %s"
              % (c["name"], c["value"], c["tolerance"], "PASS" if c["pass"] else "FAIL"))
    print("wrote %s and %s (%.1f s)" % (out_csv, out_json, wall))
    return 0 if report.all_pass(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
