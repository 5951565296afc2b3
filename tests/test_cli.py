"""CLI driver: output contracts, determinism, exit codes."""

import json

import pytest

from periodmoments import cli

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


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["stade", "--badflag"])
    assert exc.value.code == 2


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
