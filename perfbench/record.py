"""Record the reference outcomes that the benchmark's correctness gate uses.

    python3 perfbench/record.py sweep unfold analytic

For each named workload and each workload seed 0..REFERENCE_SEEDS-1, runs
the invocations once and writes references/<workload>.json: per invocation
its argv, exit code, each check's name, value, tolerance and pass flag, and
the CSV header and row count.  Failed checks are recorded as measured; an
honest failure that reproduces is a correct outcome.
"""

import json
import os
import sys
import tempfile
import time

import run


def record(workload):
    seeds = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
        for seed in range(run.REFERENCE_SEEDS):
            deadline = time.monotonic() + run.RUN_LIMIT_S
            recs = run.run_pass(run.WORKLOADS[workload], seed, workdir, seed, deadline)
            entries = [run.outcome(rec)[0] for rec in recs]
            if None in entries or len(entries) != len(run.WORKLOADS[workload]):
                raise SystemExit("%s seed %d: an invocation produced no result" % (workload, seed))
            seeds[str(seed)] = entries
            print("%s seed %d: %s" % (workload, seed, [e["exit"] for e in entries]), flush=True)
    doc = {"environment": run.environment(), "seeds": seeds}
    path = os.path.join(run.REFERENCES, workload + ".json")
    os.makedirs(run.REFERENCES, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    for name in sys.argv[1:]:
        if name not in run.WORKLOADS:
            raise SystemExit("unknown workload %r; choose from %s" % (name, sorted(run.WORKLOADS)))
    for name in sys.argv[1:]:
        record(name)
