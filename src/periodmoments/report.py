"""Deterministic CSV tables and JSON run summaries for the experiment CLI.

Determinism contract: identical parameters and seed must reproduce the
CSV byte for byte, so the CSV carries no timing, no environment echo, and
all floats are rendered with %.17g ('.' decimal, no locale).  The `_str`
twin columns that some tables carry repeat the float64 (or complex) cell
next to them, text for text.  Wall-clock time lives only in the JSON
summary.
"""

import json

__all__ = ["fmt_cell", "write_csv", "check", "all_pass", "write_json"]


def fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int,)):
        return str(v)
    if isinstance(v, complex):
        return "%.17g%+.17gj" % (v.real, v.imag)
    return "%.17g" % float(v)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        cells = [fmt_cell(v) for v in row]
        for c in cells:
            if "," in c or "\n" in c:
                raise ValueError("cell %r needs quoting; use a separator-free format" % c)
        lines.append(",".join(cells))
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)


def check(name: str, value, tolerance, passed: bool) -> dict:
    """One line of the JSON `checks` array; pass/fail decided by the caller."""
    if isinstance(tolerance, (list, tuple)):
        tol = [float(t) for t in tolerance]
    else:
        tol = float(tolerance)
    return {
        "name": name,
        "value": float(value),
        "tolerance": tol,
        "pass": bool(passed),
    }


def all_pass(checks) -> bool:
    return all(c["pass"] for c in checks)


def write_json(path, experiment: str, params: dict, checks, wall_time_s: float):
    doc = {
        "experiment": experiment,
        "params": params,
        "checks": list(checks),
        "wall_time_s": round(float(wall_time_s), 3),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
