"""Closed-loop benchmark of the periodmoments command line.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

One client runs a workload's fixed list of CLI invocations one at a time,
each in a fresh interpreter, so in-process caches start cold as in a
user's run.  The list is repeated while another pass is expected to fit in
--seconds; there is always at least one pass.  Every invocation is checked
against the reference recorded for the workload seed (--seed modulo
REFERENCE_SEEDS), and its CSV must have the same sha256 in every pass.

The parent, the children and a core-speed sentinel (sentinel.py) share
one pinned CPU.  Times are reported at the reference core speed: each
measured interval is scaled by REF_KERNEL_S over the sentinel's mean
kernel time inside it, which takes out most of a shared host's drift.

--trace 0 reports the end-to-end metrics; --trace 1 adds one traced pass
and reports the per-layer metrics.  BENCHMARK.json names the metrics and
their units.  The last line of stdout is the JSON result; README.md has the
workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
SENTINEL = os.path.join(HERE, "sentinel.py")
REFERENCES = os.path.join(HERE, "references")

REFERENCE_SEEDS = 10  # workload seeds 0..9 have recorded references
SETUP_PROBES = 10  # import-only interpreters per run, half before and half after
# the sentinel kernel's thread CPU time at the reference core speed, near its
# typical time on the 2-vCPU x86-64 host the benchmark was defined on
REF_KERNEL_S = 0.001
RUN_LIMIT_S = 170  # a child still running this long after start is killed
# a check value matches its reference within 1e-6 of it plus 1e-3 of the
# check's own tolerance (the larger end of a window), so errors that sit at
# round-off level may move while a drift of a headline number may not
VALUE_RTOL = 1e-6
VALUE_TOL_SHARE = 1e-3

WORKLOADS = {
    # the paper's headline experiment: 14 weights, 24 central values;
    # building eigenforms across the weights dominates
    "sweep": [["moment", "--k-min", "12", "--k-max", "40"]],
    # one weight, then 27 (pair, s) Petersson quadratures on repeated grids
    "unfold": [["unfold-check", "--k", "40", "--s", "0.5", "0.75", "1.25"]],
    # spectral, epstein, special and the mp Eisenstein route; never touches
    # modforms, moment or rankin_selberg
    "analytic": [
        ["stade", "--n", "3", "--samples", "20"],
        ["stade", "--n", "2", "--samples", "100"],
        ["plancherel", "--n", "3", "--centers", "100"],
        ["epstein-fe", "--n", "4", "--samples", "50"],
        # lemma1's cost rides on its largest sampled det: 1.9 to 13 s and 160
        # to 1060 MB over seeds 0..9, more than the bounds allow between
        # runs, so it keeps seed 0 (which has its honest failures)
        ["lemma1", "--n", "4", "--samples", "20", "--seed", "0"],
        ["eisenstein-residue"],
    ],
}

STATS = {
    "calls": lambda st: st["calls"],
    "busy_s": lambda st: st["busy_s"],
    "self_s": lambda st: st["self_s"],
    "points": lambda st: st["size"],
    "terms": lambda st: st["size"],
    "bytes": lambda st: st["size"],
    "repeat_share": lambda st: st["repeats"] / st["calls"] if st["calls"] else 0.0,
}


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PERIOD_MOMENTS_PRECISION"}
    env.update(PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def environment():
    import mpmath
    import mpmath.libmp
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def _wait(proc, deadline):
    """Reap proc with its own rusage; kill it once the deadline passes."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def invoke(argv, workdir, tag, deadline, trace=False):
    """Run one CLI invocation (argv None: an import-only probe) in a child.

    The record holds the exit code, the child's own peak RSS, the set-up
    window (spawn to the end of ``import periodmoments.cli``), the
    ``cli.main`` window (spawn to reaping if the child died) and, when
    traced, the layer totals.
    """
    result_path = os.path.join(workdir, tag + ".result.json")
    cmd = [sys.executable, CHILD, result_path, "1" if trace else "0"]
    rec = {"argv": argv, "csv": None, "log": os.path.join(workdir, tag + ".log")}
    if argv is not None:
        rec["csv"] = os.path.join(workdir, tag + ".csv")
        cmd += ["--"] + argv + ["--output", rec["csv"]]
    with open(rec["log"], "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        rec["exit"], usage = _wait(proc, deadline)
        t_reaped = time.monotonic()
    rec["rss_mb"] = usage.ru_maxrss / 1024.0
    try:
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    except (OSError, json.JSONDecodeError):
        res = {}
    rec["ok"] = bool(res) and (argv is None or "t_main_end" in res)
    rec["module_file"] = res.get("module_file")
    rec["setup_window"] = (t_spawn, res["t_imported"]) if res else None
    rec["run_window"] = ((res["t_main_start"], res["t_main_end"]) if rec["ok"] and argv
                         else (t_spawn, t_reaped))
    rec["layers"] = res.get("layers")
    return rec


def run_pass(invocations, seed, workdir, pass_no, deadline, trace=False):
    recs = []
    for i, argv in enumerate(invocations):
        tag = "%s%d-%d" % ("t" if trace else "p", pass_no, i)
        if "--seed" not in argv:
            argv = argv + ["--seed", str(seed)]
        recs.append(invoke(argv, workdir, tag, deadline, trace))
        if time.monotonic() > deadline:
            break
    return recs


def measure(invocations, seed, workdir, seconds, deadline):
    """Untraced passes while the next one is expected to end within seconds."""
    start = time.monotonic()
    passes = []
    while True:
        t = time.monotonic()
        passes.append(run_pass(invocations, seed, workdir, len(passes), deadline))
        now = time.monotonic()
        if now + (now - t) > start + seconds or now > deadline:
            return passes


def outcome(rec):
    """(reference entry, CSV sha256) for one invocation; (None, None) if it died."""
    if not rec["ok"]:
        return None, None
    try:
        with open(rec["csv"], "rb") as fh:
            data = fh.read()
        with open(os.path.splitext(rec["csv"])[0] + ".json", encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None, None
    lines = data.decode("utf-8").splitlines()
    checks = [{k: c[k] for k in ("name", "value", "tolerance", "pass")}
              for c in summary["checks"]]
    entry = {"argv": rec["argv"], "exit": rec["exit"], "checks": checks,
             "csv_header": lines[0] if lines else "", "csv_rows": len(lines) - 1}
    return entry, hashlib.sha256(data).hexdigest()


def value_matches(value, ref, tolerance):
    scale = max(abs(t) for t in tolerance) if isinstance(tolerance, list) else abs(tolerance)
    return abs(value - ref) <= VALUE_RTOL * abs(ref) + VALUE_TOL_SHARE * scale


def mismatches(ref, got):
    """Ways in which one invocation's outcome differs from its reference."""
    if got is None:
        return ["no result: the invocation crashed, timed out or wrote no output"]
    out = ["%s %r, reference %r" % (key, got[key], ref[key])
           for key in ("argv", "exit", "csv_header", "csv_rows") if got[key] != ref[key]]
    names = [c["name"] for c in got["checks"]]
    if names != [c["name"] for c in ref["checks"]]:
        return out + ["checks %r, reference %r" % (names, [c["name"] for c in ref["checks"]])]
    for r, g in zip(ref["checks"], got["checks"]):
        if g["pass"] != r["pass"]:
            out.append("%s pass %s, reference %s" % (r["name"], g["pass"], r["pass"]))
        if not value_matches(g["value"], r["value"], r["tolerance"]):
            out.append("%s value %.17g, reference %.17g" % (r["name"], g["value"], r["value"]))
    return out


def gate(passes, reference):
    """(attempted, failed) invocations: reference outcome and per-pass sha256."""
    attempted = failed = 0
    digests = {}
    for recs in passes:
        for i, rec in enumerate(recs):
            attempted += 1
            got, digest = outcome(rec)
            problems = mismatches(reference[i], got)
            if digest is not None and digests.setdefault(i, digest) != digest:
                problems.append("CSV sha256 %s differs from the first pass's %s"
                                % (digest, digests[i]))
            if problems:
                failed += 1
                print("FAILED %s: %s" % (" ".join(rec["argv"]), "; ".join(problems)),
                      file=sys.stderr)
    return attempted, failed


def at_reference_speed(window, speed):
    """Length of window scaled to the reference core speed.

    speed holds the sentinel's (end, duration) samples; with none (no
    sentinel ran) the wall length is returned.
    """
    a, b = window
    inside = [d for t, d in speed if a <= t <= b] or [d for t, d in speed]
    return (b - a) * (REF_KERNEL_S / statistics.fmean(inside) if inside else 1.0)


def pass_run_s(recs, speed):
    return sum(at_reference_speed(r["run_window"], speed) for r in recs)


def end_to_end(passes, probes, n_invocations, speed):
    setups = [at_reference_speed(r["setup_window"], speed)
              for r in probes + [r for recs in passes for r in recs] if r["setup_window"]]
    return {
        "run_s": statistics.median(pass_run_s(recs, speed) for recs in passes),
        "setup_s": statistics.median(setups) * n_invocations,
        "peak_rss_mb": max(r["rss_mb"] for recs in passes for r in recs),
    }


def per_layer(names, traced, passes, speed, attempted, failed):
    totals = {}
    for rec in traced:
        for name, st in (rec["layers"] or {}).items():
            agg = totals.setdefault(name, dict.fromkeys(st, 0))
            for k, v in st.items():
                agg[k] += v
    run_s = statistics.median(pass_run_s(recs, speed) for recs in passes)
    wall_s = statistics.median(pass_run_s(recs, []) for recs in passes)
    values = {
        "trace_overhead": pass_run_s(traced, speed) / run_s,
        "run_wall_s": wall_s,
        "core_speed": run_s / wall_s,
        "fail_rate": failed / attempted,
    }
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "size": 0, "repeats": 0}
    for name in names:
        if name not in values:
            layer, stat = name.rsplit(".", 1)
            values[name] = STATS[stat](totals.get(layer, empty))
    return values


def load_reference(workload, seed):
    path = os.path.join(REFERENCES, workload + ".json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if str(seed) not in doc["seeds"]:
        raise SystemExit("%s holds no reference for workload seed %d" % (path, seed))
    return doc["seeds"][str(seed)]


def probe_setups(workdir, deadline, first, count):
    probes = []
    for i in range(first, first + count):
        rec = invoke(None, workdir, "probe%d" % i, deadline)
        module = rec["module_file"]
        if not rec["ok"] or not os.path.realpath(module).startswith(os.path.realpath(SRC) + os.sep):
            with open(rec["log"], encoding="utf-8", errors="replace") as fh:
                log = fh.read()[-2000:]
            raise SystemExit("periodmoments.cli did not import from %s (got %s)\n%s"
                             % (SRC, module, log))
        probes.append(rec)
    return probes


def stop_sentinel(proc, path):
    proc.terminate()
    proc.wait(timeout=30)
    try:
        with open(path, encoding="utf-8") as fh:
            return [tuple(float(v) for v in line.split()) for line in fh]
    except OSError:
        return []


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "periodmoments", "cli.py")):
        raise SystemExit("no periodmoments source at %s" % SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    invocations = WORKLOADS[args.workload]
    seed = args.seed % REFERENCE_SEEDS
    reference = load_reference(args.workload, seed)
    print("environment " + json.dumps(environment()), flush=True)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # inherited by every child

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        speed_path = os.path.join(workdir, "sentinel.txt")
        sentinel = subprocess.Popen([sys.executable, SENTINEL, speed_path])
        try:
            half = SETUP_PROBES // 2
            probes = probe_setups(workdir, deadline, 0, half)
            passes = measure(invocations, seed, workdir, args.seconds, deadline)
            probes += probe_setups(workdir, deadline, half, SETUP_PROBES - half)
            traced = (run_pass(invocations, seed, workdir, 0, deadline, trace=True)
                      if args.trace else [])
        finally:
            speed = stop_sentinel(sentinel, speed_path)
        if not speed:
            raise SystemExit("the core-speed sentinel recorded no samples")
        attempted, failed = gate(passes + ([traced] if traced else []), reference)
        if args.trace:
            values = per_layer([m["name"] for m in wanted], traced, passes, speed,
                               attempted, failed)
        else:
            values = end_to_end(passes, probes, len(invocations), speed)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
