"""CLI driver: output contracts, determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from periodmoments import cli, modforms, moment, special, spectral

SUBCOMMANDS = [
    "moment",
    "unfold-check",
    "stade",
    "plancherel",
    "epstein-fe",
    "lemma1",
    "eisenstein-residue",
    "norm-crosscheck",
]


def run(argv):
    return cli.main(list(argv))


@pytest.fixture
def cold_forms():
    # experiments read their forms through the cli._forms memo: start with
    # it empty, and leave no form that a patched hecke_eigenforms made behind
    cli._forms.cache_clear()
    yield
    cli._forms.cache_clear()


def test_parser_has_all_subcommands():
    _, subparsers = cli.build_parser()
    assert sorted(subparsers) == sorted(SUBCOMMANDS)


def test_epstein_fe_roundtrip(tmp_path):
    csv_p = tmp_path / "out.csv"
    json_p = tmp_path / "out.json"
    rc = run(["epstein-fe", "--n", "2", "--samples", "2",
              "--output", str(csv_p), "--summary", str(json_p)])
    assert rc == 0
    lines = csv_p.read_text().splitlines()
    assert lines[0] == "n,idx,rho,xi_split1,xi_split1_str,xi_dual,rel_err"
    assert len(lines) == 3
    doc = json.loads(json_p.read_text())
    assert list(doc) == ["experiment", "params", "checks", "wall_time_s"]
    assert doc["experiment"] == "epstein-fe"
    assert doc["params"]["seed"] == 0
    for c in doc["checks"]:
        assert set(c) == {"name", "value", "tolerance", "pass"}
        assert c["pass"] is True


def test_wall_time_survives_a_clock_step(tmp_path, monkeypatch):
    # the system clock steps back an hour mid-run (a time-sync correction):
    # the run is timed on a monotonic clock, so wall_time_s stays >= 0
    real_time = time.time
    runner = cli.EXPERIMENTS["epstein-fe"]

    def stepped(args, rng):
        monkeypatch.setattr(time, "time", lambda: real_time() - 3600.0)
        return runner(args, rng)

    monkeypatch.setitem(cli.EXPERIMENTS, "epstein-fe", stepped)
    json_p = tmp_path / "out.json"
    rc = run(["epstein-fe", "--n", "2", "--samples", "2",
              "--output", str(tmp_path / "out.csv"), "--summary", str(json_p)])
    assert rc == 0
    assert json.loads(json_p.read_text())["wall_time_s"] >= 0


def test_csv_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        rc = run(["epstein-fe", "--n", "2", "--samples", "3",
                  "--output", str(p), "--summary", str(tmp_path / (p.stem + ".json"))])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_changes_rows(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["epstein-fe", "--n", "2", "--samples", "2", "--seed", "0",
         "--output", str(a), "--summary", str(tmp_path / "a.json")])
    run(["epstein-fe", "--n", "2", "--samples", "2", "--seed", "7",
         "--output", str(b), "--summary", str(tmp_path / "b.json")])
    assert a.read_bytes() != b.read_bytes()


def test_config_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 3, "n": 2}))
    a = tmp_path / "a.csv"
    run(["epstein-fe", "--config", str(cfg),
         "--output", str(a), "--summary", str(tmp_path / "a.json")])
    assert len(a.read_text().splitlines()) == 4  # header + 3 rows from config
    b = tmp_path / "b.csv"
    run(["epstein-fe", "--config", str(cfg), "--samples", "2",
         "--output", str(b), "--summary", str(tmp_path / "b.json")])
    assert len(b.read_text().splitlines()) == 3  # explicit flag wins


def test_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert run(["epstein-fe", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert run(["epstein-fe", "--config", str(missing)]) == 2


def test_unknown_flag_exits_2(tmp_path, capsys):
    # tokens no option takes (an unknown flag, the removed moment --eps, a
    # config list for a one-value option) are config errors like any other,
    # not argparse's own exit with a usage dump
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": [3, 4]}))
    out = tmp_path / "o.csv"
    for argv in (["stade", "--badflag"], ["moment", "--eps", "0.1"],
                 ["epstein-fe", "--config", str(cfg)]):
        rc = run(argv + ["--output", str(out), "--summary", str(tmp_path / "o.json")])
        assert rc == 2, argv
        _one_config_error_line(capsys)
        assert not out.exists()


def test_empty_weight_range_exits_2(tmp_path):
    rc = run(["moment", "--k-min", "13", "--k-max", "13",
              "--output", str(tmp_path / "m.csv"),
              "--summary", str(tmp_path / "m.json")])
    assert rc == 2


def test_unfold_check_empty_weight_exits_2(tmp_path):
    # dim S_14 = 0: no pair to check is a configuration error, not a PASS
    rc = run(["unfold-check", "--k", "14",
              "--output", str(tmp_path / "u.csv"),
              "--summary", str(tmp_path / "u.json")])
    assert rc == 2
    assert not (tmp_path / "u.csv").exists()


def test_norm_crosscheck_empty_weight_exits_2(tmp_path):
    rc = run(["norm-crosscheck", "--k", "13",
              "--output", str(tmp_path / "n.csv"),
              "--summary", str(tmp_path / "n.json")])
    assert rc == 2
    assert not (tmp_path / "n.csv").exists()


def test_failing_check_exits_1(tmp_path):
    # the n=2 central-point scan carries a log(det) factor the eps=0.05
    # power cannot absorb below det ~ e^20, so the slope check fails
    rc = run(["lemma1", "--n", "2", "--samples", "30",
              "--output", str(tmp_path / "l.csv"),
              "--summary", str(tmp_path / "l.json")])
    assert rc == 1
    doc = json.loads((tmp_path / "l.json").read_text())
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["ratio_slope"]["pass"] is False
    assert by_name["ratio_slope"]["tolerance"] == [-0.05, 0.02]
    assert by_name["max_over_median"]["pass"] is True


def test_stade_n3_includes_diagonal_pi_row(tmp_path):
    csv_p = tmp_path / "s.csv"
    rc = run(["stade", "--n", "3", "--samples", "1",
              "--output", str(csv_p), "--summary", str(tmp_path / "s.json")])
    assert rc == 0
    row = csv_p.read_text().splitlines()[1].split(",")
    # first grid pair is diagonal nu = mu = (0.5, 0.5) at s=1: value pi
    assert row[:6] == ["3", "0.5", "0.5", "0.5", "0.5", "1"]
    lhs = complex(row[6])
    assert abs(lhs - 3.141592653589793) < 1e-9
    # the summary records the Stade grid of each s and the kernels' node count
    params = json.loads((tmp_path / "s.json").read_text())["params"]
    assert params["grid_shapes"] == [[441, 841]]
    assert params["mb_nodes"] == 734
    assert run(["stade", "--n", "3", "--samples", "1", "--s", "0.5", "1.5",
                "--output", str(csv_p), "--summary", str(tmp_path / "s.json")]) == 0
    params = json.loads((tmp_path / "s.json").read_text())["params"]
    assert params["grid_shapes"] == [[841, 1641], [441, 574]]


def test_stade_n2_writes_the_complex_values(tmp_path):
    # the normalized n = 2 sides are complex in general (at seed 0 the
    # first pair's lhs has an imaginary part near its modulus): every lhs,
    # lhs_str and rhs cell is stade_check's complex value, bit for bit,
    # as %.17g round-trips a double
    csv_p = tmp_path / "s.csv"
    assert run(["stade", "--n", "2", "--samples", "2", "--seed", "0",
                "--output", str(csv_p), "--summary", str(tmp_path / "s.json")]) == 0
    lines = csv_p.read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["n", "nu", "mu", "s", "lhs", "lhs_str", "rhs", "rel_err", "eq11_ratio"]
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 6
    for row in rows:
        pn = spectral.spectral_params(2, [1j * float(row["nu"])])
        pm = spectral.spectral_params(2, [1j * float(row["mu"])])
        r = spectral.stade_check(pn, pm, float(row["s"]))
        for cell, want in (("lhs", r["lhs"]), ("lhs_str", r["lhs"]), ("rhs", r["rhs"])):
            got = complex(row[cell])
            assert (got.real, got.imag) == (want.real, want.imag), (cell, row)
    assert any(complex(row["lhs"]).imag != 0.0 for row in rows)


# sha256 of the nu1,nu2,mu1,mu2 columns of `stade --n 3 --samples 20 --seed 0`,
# one row per line: the 5 STADE3_GRID pairs, then 15 pairs drawn from the rng
STADE3_SEED0_PAIRS_SHA256 = "6411f74b094e4c9c334782aadc7ecaf250214d93211c1e529a1e53e0ad8a9e69"


def test_stade_n3_deterministic_and_draws_nothing(tmp_path):
    # the low-rank kernel's sketch comes from a generator of its own: two
    # runs in one process write the same bytes, numpy's global state and the
    # experiment's draws are untouched, and the sketch is built once, read-only
    spectral._mb_sketch.cache_clear()
    global_state = np.random.get_state()
    outputs = []
    for name in ("a", "b"):
        csv_p, json_p = tmp_path / (name + ".csv"), tmp_path / (name + ".json")
        assert run(["stade", "--n", "3", "--samples", "2",
                    "--output", str(csv_p), "--summary", str(json_p)]) == 0
        outputs.append(csv_p.read_bytes())
        params = json.loads(json_p.read_text())["params"]
        assert params["kernel_rank_min"] == params["kernel_rank_max"] == 16
    assert outputs[0] == outputs[1]
    assert spectral._mb_sketch.cache_info().misses == 1  # the one width used
    for a in spectral._mb_sketch(16):
        assert not a.flags.writeable
    after = np.random.get_state()
    assert after[0] == global_state[0] and np.array_equal(after[1], global_state[1])
    assert after[2:] == global_state[2:]
    csv_p = tmp_path / "20.csv"
    assert run(["stade", "--n", "3", "--samples", "20",
                "--output", str(csv_p), "--summary", str(tmp_path / "20.json")]) == 0
    rows = [line.split(",") for line in csv_p.read_text().splitlines()[1:]]
    pairs = "\n".join(",".join(row[1:5]) for row in rows)
    assert hashlib.sha256(pairs.encode()).hexdigest() == STADE3_SEED0_PAIRS_SHA256


def test_residue_csv_has_hp_string(tmp_path):
    csv_p = tmp_path / "r.csv"
    rc = run(["eisenstein-residue",
              "--output", str(csv_p), "--summary", str(tmp_path / "r.json")])
    assert rc == 0
    lines = csv_p.read_text().splitlines()
    assert lines[0].split(",") == ["x", "y", "residue", "residue_str", "abs_err"]
    hp = lines[1].split(",")[3]
    assert len(hp.replace("-", "").replace(".", "").split("e")[0]) >= 20
    assert float(hp) == pytest.approx(0.9549296585513720146, rel=1e-12)


# residue_str of the seed-0 eisenstein-residue CSV, in RESIDUE_POINTS order
RESIDUE_SEED0_STR = [
    "0.9549296585513722488979466",
    "0.954929658551371976104889",
    "0.9549296585513695820957255",
    "0.9549296585513224901439687",
    "0.9549296585513722879209635",
]


def test_residue_strings_frozen(tmp_path):
    # the 25-digit residues of the mp route, byte for byte
    csv_p = tmp_path / "r.csv"
    rc = run(["eisenstein-residue", "--seed", "0",
              "--output", str(csv_p), "--summary", str(tmp_path / "r.json")])
    assert rc == 0
    rows = [line.split(",") for line in csv_p.read_text().splitlines()[1:]]
    assert [row[3] for row in rows] == RESIDUE_SEED0_STR


def test_residue_nonconvergence_exits_1(tmp_path, capsys, monkeypatch):
    # an E* tail whose trapezoid never settles is a numerical failure:
    # exit 1, one stderr line with what the rule reached, and no CSV
    calls = []

    def restless(x, nu, coefs, u, is_real):
        calls.append(u)
        return mp.mpf(len(calls))

    monkeypatch.setattr(special, "_k_integrand", restless)
    out = tmp_path / "r.csv"
    rc = run(["eisenstein-residue",
              "--output", str(out), "--summary", str(tmp_path / "r.json")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure:"), err
    assert "best=" in err[0] and "last_delta=" in err[0]
    assert not out.exists()


def test_stade2_cosine_transform_sees_only_large_x(tmp_path, monkeypatch):
    # kit_f64 sends x < 2 to the ascending series at every order, small
    # |t| included: the cosine transform, whose one u-grid is sized by its
    # batch's smallest x, runs once per kit_f64 call and never below x = 2
    batches = []
    cosh_f64 = special._kit_cosh_f64

    def recorded(t, x):
        batches.append(float(np.min(x)))
        return cosh_f64(t, x)

    monkeypatch.setattr(special, "_kit_cosh_f64", recorded)
    # an entry left by an earlier run would hide its pair's kit_f64 calls
    spectral._stade2_kernel.cache_clear()
    out = tmp_path / "s.csv"
    rc = run(["stade", "--n", "2", "--samples", "5",
              "--output", str(out), "--summary", str(tmp_path / "s.json")])
    assert rc in (0, 1) and out.exists()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    # the seed-0 draw has a |t| < 0.1, the case that used the transform
    assert min(min(abs(float(r[1])), abs(float(r[2]))) for r in rows) < 0.1
    # two kit_f64 calls (t_nu, t_mu) per pair, on the s = 1/2 grid that
    # holds the grids of all three s: 5 pairs
    assert len(batches) == 2 * len(rows) // 3 == 10
    assert min(batches) >= 2.0


def test_config_without_path_exits_2(capsys):
    assert run(["epstein-fe", "--config"]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_equals_form_is_read(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 3}))
    out = tmp_path / "e.csv"
    rc = run(["epstein-fe", "--config=%s" % cfg,
              "--output", str(out), "--summary", str(tmp_path / "e.json")])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 4  # header + 3 rows from config


def test_config_list_is_one_flag_with_several_values(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 1, "s": [1.0, 1.5]}))
    out = tmp_path / "s.csv"
    rc = run(["stade", "--config", str(cfg),
              "--output", str(out), "--summary", str(tmp_path / "s.json")])
    assert rc == 0
    assert [r.split(",")[3] for r in out.read_text().splitlines()[1:]] == ["1", "1.5"]


@pytest.mark.parametrize("cfg", [{"n": 7}, {"samples": "many"}, {"samples": 0},
                                 {"bogus": 1}, {"samp": 2}, {"summary": None}])
def test_config_values_validated_like_flags(tmp_path, capsys, cfg):
    # choices, types, counts and option names apply to config values too
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = run(["stade", "--config", str(path),
              "--output", str(tmp_path / "s.csv"), "--summary", str(tmp_path / "s.json")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("argv", [
    ["stade", "--samples", "0"],
    ["epstein-fe", "--samples", "0"],
    ["plancherel", "--centers", "0"],
    ["lemma1", "--samples", "0"],
    ["lemma1", "--samples", "-3"],
    ["lemma1", "--samples", "1"],
])
def test_empty_or_degenerate_counts_exit_2(tmp_path, argv):
    out = tmp_path / "o.csv"
    rc = run(argv + ["--output", str(out), "--summary", str(tmp_path / "o.json")])
    assert rc == 2
    assert not out.exists()



@pytest.mark.parametrize("argv", [
    ["unfold-check", "--k", "12", "--s", "1e-9"],
    ["unfold-check", "--k", "12", "--s", "1.00000001"],
    ["unfold-check", "--k", "12", "--s", "0"],
    ["unfold-check", "--k", "12", "--s", "1"],
    ["unfold-check", "--k", "12", "--s", "nan"],
    ["unfold-check", "--k", "12", "--s", "inf"],
    ["lemma1", "--eps", "nan"],
])
def test_poles_exit_2(tmp_path, capsys, argv):
    # s on a pole of Lambda(f x g, s) is a configuration error, not a
    # traceback; so is a nan or infinite s or eps (--s nan used to PASS:
    # max(0.0, nan) is 0.0)
    out = tmp_path / "o.csv"
    rc = run(argv + ["--output", str(out), "--summary", str(tmp_path / "o.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_hecke_nonconvergence_exits_1(tmp_path, capsys, monkeypatch, cold_forms):
    # mpmath's RuntimeError from the T_2 eigen-solve reaches the CLI as
    # NonConvergenceError: exit 1 and one stderr line, no traceback
    def stuck(*args, **kwargs):
        raise RuntimeError("qr: failed to converge after 31 steps")

    monkeypatch.setattr(modforms.mp, "eig", stuck)
    out = tmp_path / "n.csv"
    rc = run(["norm-crosscheck", "--k", "12",
              "--output", str(out), "--summary", str(tmp_path / "n.json")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "failed to converge after 31 steps" in err[0]
    assert "best=" in err[0] and "last_delta=" in err[0]
    assert not out.exists()


def test_moment_never_builds_the_mp_oracle(tmp_path, monkeypatch, cold_forms):
    # production reads lam_f64 and a(2) alone; the HECKE_DPS-digit lists a
    # and lam of an Eigenform are built only when read
    built = []

    def recorded(k, horizon):
        forms = modforms.hecke_eigenforms(k, horizon)
        built.extend(forms)
        return forms

    monkeypatch.setattr(cli, "hecke_eigenforms", recorded)
    out = tmp_path / "m.csv"
    rc = run(["moment", "--k-min", "12", "--k-max", "40",
              "--output", str(out), "--summary", str(tmp_path / "m.json")])
    assert rc in (0, 1) and out.exists()
    assert sorted({f.weight for f in built}) == list(modforms.DEFAULT_WEIGHTS)
    for f in built:
        assert "lam_f64" in vars(f)
        assert "a" not in vars(f) and "lam" not in vars(f)


def test_nan_error_fails_its_check(tmp_path, monkeypatch):
    # a nan relative error after a finite one: the worst-error fold keeps
    # the nan, so the check fails (exit 1) instead of reading 0.0
    def rows(forms, s_values):
        return [{"i": 0, "j": 0, "s": s, "quadrature": 1.0, "afe": 1.0, "rel_err": err}
                for s, err in zip(s_values, (0.0, math.nan))]

    monkeypatch.setattr(cli, "unfold_rows", rows)
    out = tmp_path / "u.csv"
    rc = run(["unfold-check", "--k", "12", "--s", "0.5", "0.75",
              "--output", str(out), "--summary", str(tmp_path / "u.json")])
    assert rc == 1
    check = json.loads((tmp_path / "u.json").read_text())["checks"][0]
    assert check["name"] == "max_rel_err" and check["pass"] is False
    assert math.isnan(check["value"])


def test_unfold_check_at_trivial_zero_of_zeta(tmp_path):
    # E*(., 2) reads Lambda(-2) = Lambda(3), finite: no false pole
    out = tmp_path / "u.csv"
    rc = run(["unfold-check", "--k", "12", "--s", "2",
              "--output", str(out), "--summary", str(tmp_path / "u.json")])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 2


def _one_config_error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err


@pytest.mark.parametrize("paths", [
    lambda d: ["--output", str(d / "missing" / "x.csv")],
    lambda d: ["--output", str(d)],
    lambda d: ["--output", str(d / "x.csv"), "--summary", str(d / "missing" / "x.json")],
    lambda d: ["--output", str(d / "x.csv"), "--summary", str(d)],
    lambda d: ["--output", "same.json"],
    lambda d: ["--output", "a.csv", "--summary", "./a.csv"],
], ids=["output-in-missing-dir", "output-is-dir", "summary-in-missing-dir", "summary-is-dir",
        "default-summary-is-output", "summary-is-output"])
def test_unwritable_output_exits_2_before_the_run(tmp_path, capsys, monkeypatch, paths):
    # a missing directory, a directory in place of the file, or a summary
    # that would overwrite the CSV is a configuration error, found before
    # the experiment runs
    def runner(args, rng):
        raise AssertionError("the experiment ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(cli.EXPERIMENTS, "epstein-fe", runner)
    rc = run(["epstein-fe", "--samples", "1"] + paths(tmp_path))
    assert rc == 2
    _one_config_error_line(capsys)
    assert list(tmp_path.rglob("*.csv")) == []


@pytest.mark.parametrize("argv", [
    ["unfold-check", "--k", "2000"],
    ["norm-crosscheck", "--k", "12", "2000"],
    ["moment", "--k-max", "2000"],
])
def test_weight_out_of_engine_range_exits_2_before_any_form(tmp_path, capsys, monkeypatch,
                                                            cold_forms, argv):
    # the Petersson engine rejects the weight before a Miller basis of
    # dimension 166 is built out to tens of thousands of terms
    built = []
    monkeypatch.setattr(cli, "hecke_eigenforms", lambda k: built.append(k))
    out = tmp_path / "o.csv"
    rc = run(argv + ["--output", str(out), "--summary", str(tmp_path / "o.json")])
    assert rc == 2
    assert built == []
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "k=2000" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["norm-crosscheck", "--k", "196", "198"],
    ["moment", "--k-min", "160", "--k-max", "198"],
])
def test_weight_out_of_theta_afe_range_exits_2_before_any_form(tmp_path, capsys, recwarn,
                                                               monkeypatch, cold_forms, argv):
    # the theta profile and the AFE, in units of Gamma(k), stay in float64
    # at every weight the Petersson engine takes, so their range ends
    # where the engine's does: k = 198 beside valid weights up to 196 is
    # rejected before any form is built, with no numpy overflow warning
    # and no nan in a check
    built = []
    monkeypatch.setattr(cli, "hecke_eigenforms", lambda k: built.append(k))
    out = tmp_path / "o.csv"
    rc = run(argv + ["--output", str(out), "--summary", str(tmp_path / "o.json")])
    assert rc == 2
    assert built == []
    _one_config_error_line(capsys)
    assert [str(w.message) for w in recwarn] == []
    assert not out.exists()


def test_no_experiment_exits_2(capsys):
    # argparse reports a missing subcommand through its own error(): a
    # usage dump and SystemExit(2) from inside main
    assert run([]) == 2
    _one_config_error_line(capsys)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_exits_2_before_the_run(tmp_path, capsys, monkeypatch, source):
    # numpy's default_rng rejects a negative seed; the parser rejects it
    # first, from a flag or a config file, before the experiment runs
    def runner(args, rng):
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(cli.EXPERIMENTS, "eisenstein-residue", runner)
    if source == "flag":
        seed = ["--seed", "-1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -3}))
        seed = ["--config", str(cfg)]
    out = tmp_path / "r.csv"
    rc = run(["eisenstein-residue"] + seed + ["--output", str(out),
                                             "--summary", str(tmp_path / "r.json")])
    assert rc == 2
    _one_config_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["lemma1", "--n", "2", "--samples", "5", "--eps=1000"],
    ["lemma1", "--n", "2", "--samples", "5", "--eps=-1000"],
], ids=["lemma1-overflow", "lemma1-underflow"])
def test_eps_out_of_float64_range_exits_2(tmp_path, capsys, recwarn, argv):
    # det^(1/2 + eps) past float64's range is a configuration error, not
    # an OverflowError or ZeroDivisionError, and its one line is all of
    # stderr: a warning on the way (numpy's overflow warnings, which pytest
    # records instead of printing) would be more
    out = tmp_path / "o.csv"
    rc = run(argv + ["--output", str(out), "--summary", str(tmp_path / "o.json")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: eps = "), err
    assert [str(w.message) for w in recwarn] == []
    assert not out.exists()


@pytest.mark.parametrize("s", ["-300", "150", "400"])
def test_unfold_s_out_of_float64_range_exits_2(tmp_path, capsys, recwarn, s):
    # E*(., s) past float64's range (its divisor sums raise OverflowError at
    # s = -300, it overflows to inf at s = 150 and 400) is a configuration
    # error: one stderr line, no warning, no CSV and no nan in a JSON
    out = tmp_path / "u.csv"
    rc = run(["unfold-check", "--k", "12", "--s", s,
              "--output", str(out), "--summary", str(tmp_path / "u.json")])
    assert rc == 2
    _one_config_error_line(capsys)
    assert [str(w.message) for w in recwarn] == []
    assert not out.exists()


@pytest.mark.parametrize("s", ["50", "-40"])
def test_unfold_s_inside_float64_range_exits_0(tmp_path, recwarn, s):
    out = tmp_path / "u.csv"
    rc = run(["unfold-check", "--k", "12", "--s", s,
              "--output", str(out), "--summary", str(tmp_path / "u.json")])
    assert rc == 0
    assert [str(w.message) for w in recwarn] == []
    assert len(out.read_text().splitlines()) == 2


def test_plancherel_ball_underflow_exits_2(tmp_path, capsys):
    # at n = 3 and radius 1e-200 the grid's cell area underflows and the
    # ball integral is 0: a configuration error, not a ZeroDivisionError
    # in the scheme agreement.  At n = 2 and radius 1e-300 the integral is
    # finite and positive, and the ratio window fails.
    out = tmp_path / "p.csv"
    argv = ["--centers", "1", "--output", str(out), "--summary", str(tmp_path / "p.json")]
    assert run(["plancherel", "--n", "3", "--radius", "1e-200"] + argv) == 2
    _one_config_error_line(capsys)
    assert not out.exists()
    assert run(["plancherel", "--n", "2", "--radius", "1e-300"] + argv) == 1
    assert out.exists()


def test_outputs_do_not_depend_on_the_mpmath_precision(tmp_path, cold_forms):
    # every mp computation sets its own digits: the CSV bytes and the
    # checks are the same whatever precision the caller left, and main
    # leaves that precision as it found it
    argvs = [["stade", "--n", "2", "--samples", "3"], ["eisenstein-residue"],
             ["epstein-fe", "--n", "2", "--samples", "2"],
             ["unfold-check", "--k", "12", "--s", "0.5"],
             ["moment", "--k-min", "12", "--k-max", "16"]]
    outputs = {}
    for dps in (5, 15, 50):
        with mp.workdps(dps):
            # float64 memos, not keyed by dps: each must not read it
            spectral._gamma_normalizer.cache_clear()
            moment._part_estar.cache_clear()
            cli._forms.cache_clear()
            for i, argv in enumerate(argvs):
                csv_p, json_p = tmp_path / ("%d_%d.csv" % (dps, i)), tmp_path / "s.json"
                assert run(argv + ["--output", str(csv_p), "--summary", str(json_p)]) in (0, 1)
                assert mp.dps == dps
                outputs.setdefault(i, []).append(
                    (csv_p.read_bytes(), json.loads(json_p.read_text())["checks"]))
    for runs in outputs.values():
        assert runs[0] == runs[1] == runs[2]


def test_forms_by_weight_share_the_largest_horizon(cold_forms):
    # every weight of a run is built at the horizon of its largest weight,
    # and each (weight, horizon) once
    forms = cli._forms_by_weight([40, 12, 40])
    assert sorted(forms) == [12, 40]
    assert {f.horizon for fs in forms.values() for f in fs} == {modforms.eigenform_horizon(40)}
    assert cli._forms_by_weight([12, 40]) == forms
    info = cli._forms.cache_info()
    assert info.misses == info.currsize == 2


def test_moment_builds_one_petersson_engine_per_weight(tmp_path):
    # petersson_engine is memoized on (k, refine) as passed: one call
    # form, so each weight of the sweep holds one entry
    moment.petersson_engine.cache_clear()
    out = tmp_path / "m.csv"
    rc = run(["moment", "--k-min", "12", "--k-max", "24",
              "--output", str(out), "--summary", str(tmp_path / "m.json")])
    assert rc in (0, 1) and out.exists()
    weights = [k for k in range(12, 25, 2) if modforms.cusp_dim(k) >= 1]
    info = moment.petersson_engine.cache_info()
    assert info.misses == info.currsize == len(weights) == 6


# The exit contract at the boundaries of every subcommand, as one table:
# (argv, exit code, start of the one stderr line).  Exit 2 writes nothing;
# the smallest valid runs exit 0 and write their CSV.
EXIT_CONTRACT = [
    ([], 2, "config error: no experiment given"),
    (["foo"], 2, "config error: argument experiment: invalid choice: 'foo'"),
    (["moment", "--k-min", "40", "--k-max", "12"], 2,
     "config error: no weights with cusp forms in [40, 12]"),
    (["moment", "--k-min", "13", "--k-max", "13"], 2,
     "config error: no weights with cusp forms in [13, 13]"),
    (["moment", "--k-min", "2", "--k-max", "10"], 2,
     "config error: no weights with cusp forms in [2, 10]"),
    (["moment", "--k-min", "12", "--k-max", "12"], 0, None),
    (["unfold-check", "--k", "11"], 2, "config error: no cusp forms at weight 11"),
    (["unfold-check", "--k", "198"], 2,
     "config error: Petersson weights y^(k-2) overflow float64 at k=198"),
    (["unfold-check", "--k", "12", "--s", "0.5+1j"], 2,
     "config error: argument --s: invalid finite_float value"),
    (["unfold-check", "--k", "12", "--s", "1e-320"], 2,
     "config error: E*(z,s) has poles at s = 0 and s = 1"),
    (["unfold-check", "--k", "12", "--s"], 2,
     "config error: argument --s: expected at least one argument"),
    (["stade", "--s", "-3"], 2, "config error: s must lie in [1/2, 3/2]"),
    (["stade", "--n", "4"], 2, "config error: argument --n: invalid choice: 4"),
    (["stade", "--samples", "1"], 0, None),
    (["plancherel", "--radius", "3"], 2, "config error: radius must lie in (0, 2]"),
    (["plancherel", "--radius", "0"], 2, "config error: radius must lie in (0, 2]"),
    (["plancherel", "--n", "1"], 2, "config error: argument --n: invalid choice: 1"),
    (["epstein-fe", "--n", "5"], 2, "config error: argument --n: invalid choice: 5"),
    (["epstein-fe", "--samples", "1"], 0, None),
    (["lemma1", "--samples", "1"], 2,
     "config error: lemma1 fits a slope and needs at least 2 samples"),
    (["lemma1", "--eps", "inf"], 2, "config error: argument --eps: must be a finite number"),
    (["eisenstein-residue", "--seed", "-1"], 2,
     "config error: argument --seed: must be at least 0, got -1"),
    (["eisenstein-residue", "extra"], 2, "config error: unrecognized arguments: extra"),
    (["norm-crosscheck", "--k"], 2, "config error: argument --k: expected at least one argument"),
    (["norm-crosscheck", "--k", "10"], 2, "config error: no cusp forms at weight 10"),
    (["norm-crosscheck", "--k", "196", "198"], 2,
     "config error: Petersson weights y^(k-2) overflow float64 at k=198"),
    (["norm-crosscheck", "--k", "198"], 2,
     "config error: Petersson weights y^(k-2) overflow float64 at k=198"),
]


@pytest.mark.parametrize("argv,code,prefix", EXIT_CONTRACT,
                         ids=[" ".join(a) or "no-experiment" for a, _, _ in EXIT_CONTRACT])
def test_exit_contract_table(tmp_path, capsys, monkeypatch, argv, code, prefix):
    monkeypatch.chdir(tmp_path)
    paths = ["--output", "o.csv", "--summary", "o.json"] if argv[:1] and argv[0] in SUBCOMMANDS else []
    assert run(argv + paths) == code
    err = capsys.readouterr().err.strip().splitlines()
    if code == 2:
        assert len(err) == 1 and err[0].startswith(prefix), err
        assert list(tmp_path.iterdir()) == []
    else:
        assert err == []
        assert (tmp_path / "o.csv").exists() and (tmp_path / "o.json").exists()


# every subcommand at its smallest sizes, each n of the analytic ones
SMALLEST_RUNS = [
    ["moment", "--k-min", "12", "--k-max", "12"],
    ["unfold-check", "--k", "12", "--s", "0.5", "0.75"],
    ["stade", "--n", "2", "--samples", "1"],
    ["stade", "--n", "3", "--samples", "1"],
    ["plancherel", "--n", "2", "--centers", "1"],
    ["plancherel", "--n", "3", "--centers", "1"],
    ["epstein-fe", "--n", "2", "--samples", "1"],
    ["epstein-fe", "--n", "3", "--samples", "1"],
    ["epstein-fe", "--n", "4", "--samples", "1"],
    ["lemma1", "--n", "2", "--samples", "2"],
    ["lemma1", "--n", "3", "--samples", "2"],
    ["lemma1", "--n", "4", "--samples", "2"],
    ["eisenstein-residue"],
    ["norm-crosscheck", "--k", "12"],
]


def test_production_loads_no_scipy(tmp_path):
    # scipy is a test dependency only (the tests use it as a reference, so
    # this runs in a fresh interpreter): importing the CLI and running every
    # subcommand leaves no scipy module in sys.modules, and no numpy.ma
    # (np.median loads it, about 10 ms of import)
    script = (
        "import json, sys\n"
        "import periodmoments.cli as cli\n"
        "codes = [cli.main(a + ['--output', 'r%d.csv' % i, '--summary', 'r%d.json' % i])\n"
        "         for i, a in enumerate(json.loads(sys.argv[1]))]\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma'])\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(SMALLEST_RUNS)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(c in (0, 1) for c in codes), codes
    assert loaded == []
