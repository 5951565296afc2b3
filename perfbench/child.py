"""One periodmoments CLI invocation in a fresh interpreter, timed from inside.

    python3 child.py RESULT.json TRACE [-- CLI ARGS...]

Writes RESULT.json with CLOCK_MONOTONIC stamps (comparable with the
parent's): after ``import periodmoments.cli``, and around ``cli.main``.
Without CLI arguments it only imports, which is a set-up probe.  With
TRACE = 1 the layer spans are installed first and their totals written.
"""

import json
import sys
import time

import periodmoments.cli

IMPORTED = time.monotonic()


def main():
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[4:]
    result = {"t_imported": IMPORTED, "module_file": periodmoments.cli.__file__}
    code = 0
    if argv:
        run = periodmoments.cli.main
        tracer = None
        if trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
            run = tracer.wrap("cli.main." + argv[0], run)
        result["t_main_start"] = time.monotonic()
        code = run(argv)
        result["t_main_end"] = time.monotonic()
        result["exit"] = code
        if tracer is not None:
            result["layers"] = tracer.stats()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
