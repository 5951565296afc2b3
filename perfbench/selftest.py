"""Self-test of the benchmark machinery on a tiny configuration.

    python3 perfbench/selftest.py

Runs three small invocations in two untraced passes and one traced pass,
and checks that:
  * the gate passes them against a reference recorded from the first pass;
  * a tampered reference (a check value, a pass flag, the exit code, the
    CSV row count) and a changed CSV byte each register as one failure;
  * the tracer reaches the layers through every import binding, including
    class methods, and its self time never exceeds its busy time.
Prints each problem and exits 1 if there is any; takes about ten seconds.
"""

import copy
import sys
import tempfile
import time

import run

TINY = [
    ["unfold-check", "--k", "12"],
    ["stade", "--n", "2", "--samples", "2"],
    ["epstein-fe", "--n", "2", "--samples", "2"],
]


def _bump_value(ref):
    check = ref[1]["checks"][0]  # stade max_rel_err, a scalar tolerance
    check["value"] += 0.01 * check["tolerance"]


def _flip_pass(ref):
    ref[2]["checks"][0]["pass"] = not ref[2]["checks"][0]["pass"]


def _change_exit(ref):
    ref[0]["exit"] = 1 - ref[0]["exit"]


def _change_rows(ref):
    ref[1]["csv_rows"] += 1


TAMPERS = [_bump_value, _flip_pass, _change_exit, _change_rows]


def _change_csv_byte(path):
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    i = max(data.rfind(str(d).encode()) for d in range(10))
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    with open(path, "wb") as fh:
        fh.write(bytes(data))


def main():
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)

    deadline = time.monotonic() + run.RUN_LIMIT_S
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
        passes = [run.run_pass(TINY, 0, workdir, p, deadline) for p in range(2)]
        traced = run.run_pass(TINY, 0, workdir, 0, deadline, trace=True)
        reference = [run.outcome(rec)[0] for rec in passes[0]]
        if None in reference:
            print("a tiny invocation gave no result; see the logs in the run directory")
            return 1

        expect(run.gate(passes + [traced], reference) == (9, 0),
               "untampered passes should all match the reference")
        print("the FAILED lines that follow are the tampered cases", file=sys.stderr)
        for tamper in TAMPERS:
            ref = copy.deepcopy(reference)
            tamper(ref)
            expect(run.gate(passes[:1], ref) == (3, 1), tamper.__name__ + " should fail once")
        _change_csv_byte(passes[1][2]["csv"])
        expect(run.gate(passes, reference) == (6, 1), "a changed CSV byte should fail once")

        names = [
            "modforms.hecke_eigenforms.calls",
            "modforms.eval_cusp_form_f64.calls",
            "modforms.eval_cusp_form_f64.points",
            "modforms.eval_cusp_form_f64.repeat_share",
            "eisenstein_gl2.completed_eisenstein_f64.calls",
            "moment.PeterssonEngine.__init__.calls",
            "moment.unfold_check.calls",
            "rankin_selberg.RankinSelbergPair.completed_l.calls",
            "spectral.stade_check.calls",
            "epstein.epstein_xi_f64.calls",
            "report.write_csv.calls",
            "report.write_csv.bytes",
            "cli.main.unfold-check.busy_s",
        ]
        layers = run.per_layer(names, traced, passes, [], 1, 0)
        # k=12 has one form: one pair at the default two s values, so E* is
        # evaluated twice on one grid at distinct s, and f twice at the same
        # inputs; stade n=2 runs three s values per sample
        expect(layers["moment.unfold_check.calls"] == 2, "unfold_check calls %r" % layers)
        expect(layers["eisenstein_gl2.completed_eisenstein_f64.calls"] == 2,
               "E* calls %r" % layers)
        expect(layers["modforms.eval_cusp_form_f64.repeat_share"] == 0.5,
               "f repeat share %r" % layers)
        expect(layers["spectral.stade_check.calls"] == 6, "stade_check calls %r" % layers)
        expect(layers["report.write_csv.calls"] == 3, "write_csv calls %r" % layers)
        expect(all(layers[n] > 0 for n in names), "a traced layer reads zero: %r" % layers)
        for rec in traced:
            for name, st in rec["layers"].items():
                expect(-1e-6 <= st["self_s"] <= st["busy_s"] + 1e-9,
                       "%s self_s %g busy_s %g" % (name, st["self_s"], st["busy_s"]))

    for p in problems:
        print("PROBLEM " + p)
    print("selftest %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
