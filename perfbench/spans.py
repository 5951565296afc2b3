"""Span tracer for the periodmoments layers, installed from outside the library.

Every public function of each layer module, and every public method (plus
``__init__``) of each class defined there, is replaced by a wrapper that
records a span: name, parent span, start and end.  A name is rebound in
every module that holds it, so ``from .modforms import hecke_eigenforms``
bindings in ``cli`` and ``moment`` reach the wrapper too.  Spans stay in
memory; ``Tracer.stats`` folds them into per-name totals at the end.

``precision`` (configuration plumbing) and ``quadrature`` (imported by no
other module) are not layers here.
"""

import functools
import hashlib
import importlib
import inspect
import os
import time

import numpy as np

LAYERS = ("cli", "eisenstein_gl2", "epstein", "modforms", "moment",
          "rankin_selberg", "report", "special", "spectral")


def _grid_digest(*arrays):
    h = hashlib.sha1()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _form_grid(args, kwargs, result, tracer):
    form, x, y = args[:3]
    tracer.pin(form)  # the key holds id(form); keep it from being reused
    return (id(form), _grid_digest(x, y)), np.size(x)


def _eisenstein_grid(args, kwargs, result, tracer):
    x, y, s = args[:3]
    n_terms = args[3] if len(args) > 3 else kwargs.get("n_terms")
    return (_grid_digest(x, y), float(s), n_terms), np.size(x)


# Per-function input probes, evaluated after the call and outside its span:
# (key, size) where a repeated key marks a call whose inputs were already
# evaluated in this process, and size is the input size the stat reports.
PROBES = {
    "modforms.eval_cusp_form_f64": _form_grid,
    "eisenstein_gl2.completed_eisenstein_f64": _eisenstein_grid,
    "modforms.poly_mul_trunc": lambda args, kwargs, result, tracer: (
        None, args[2] if len(args) > 2 else kwargs["n_terms"]),
    "special.kit_f64": lambda args, kwargs, result, tracer: (None, np.size(args[1])),
    "report.write_csv": lambda args, kwargs, result, tracer: (None, os.path.getsize(args[0])),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, size, repeated]
        self._open = []
        self._seen = set()
        self._pinned = []

    def pin(self, obj):
        self._pinned.append(obj)

    def wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else -1, 0.0, 0.0, 0, False]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if probe is not None:
                key, span[4] = probe(args, kwargs, result, self)
                if key is not None:
                    key = (name, key)
                    span[5] = key in self._seen
                    self._seen.add(key)
            return result

        return traced

    def stats(self):
        """Per span name: calls, busy_s, self_s, size and repeats."""
        child_s = [0.0] * len(self.spans)
        for name, parent, t0, t1, size, repeated in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out = {}
        for i, (name, parent, t0, t1, size, repeated) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                        "size": 0, "repeats": 0})
            agg["calls"] += 1
            agg["busy_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child_s[i]
            agg["size"] += int(size)
            agg["repeats"] += int(repeated)
        return out


def install(tracer):
    """Wrap the layers' public callables; cli.main is wrapped by the caller."""
    import periodmoments

    mods = {name: importlib.import_module("periodmoments." + name) for name in LAYERS}
    holders = list(mods.values()) + [periodmoments]
    for name, mod in mods.items():
        if name == "cli":
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                        setattr(obj, meth, tracer.wrap("%s.%s.%s" % (name, attr, meth), fn))
            elif inspect.isfunction(obj):
                wrapped = tracer.wrap("%s.%s" % (name, attr), obj)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is obj:
                            setattr(holder, key, wrapped)
