"""Spans at the calls into the drclqr modules, and self-time arithmetic.

The tracer wraps every public function (each name in a module's ``__all__``
that the module itself defines) in every drclqr namespace that binds it, so
``drclqr.cli.assemble``, ``drclqr.cost.assemble``, ``drclqr.assemble`` and
``drclqr.drc.assemble`` all record under the one name ``drc.assemble``.  The
program itself is not modified: wrapping happens from outside, and
:meth:`Tracer.uninstall` puts every original back.

``spectral_norm`` and ``spectral_radius`` are left unwrapped.  They are norm
helpers called thousands of times inside the certificate scan and the DARE
loop; wrapping them would move the solvers' own work out of the solvers'
self time and add a span per norm.

A span is the tuple ``(id, parent, name, start, end)`` with times from
``time.perf_counter``.  Spans stay in memory while an operation runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time
from collections import defaultdict

LAYERS = ("model", "riccati", "lyapunov", "drc", "cost", "bounds", "prestabilize", "cli")

UNWRAPPED = frozenset({"model.spectral_norm", "model.spectral_radius"})


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Counts recorded at a boundary: span name -> (count name, f(args, kwargs, result)).
COUNTERS = {
    "drc.assemble": ("blocks", lambda a, kw, res: int(_arg(a, kw, 2, "H")) ** 2),
    "riccati.solve_dare": ("iterations", lambda a, kw, res: int(res.iterations)),
    "model.joint_certificate": ("k_max", lambda a, kw, res: int(res.k_max)),
}


def public_functions():
    """{original function: span name} for every traced drclqr function."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"drclqr.{layer}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            name = f"{layer}.{attr}"
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and name not in UNWRAPPED:
                found[obj] = name
    return found


class Tracer:
    """Records spans for calls into drclqr while installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._ids = itertools.count(1)  # 0 is the op's root span
        self._patched = []  # (namespace, attribute, original)
        self._originals = public_functions()

    def _wrap(self, fn, name):
        spans, stack, ids, counter = self.spans, self._stack, self._ids, COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += counter[1](args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every public function in every drclqr namespace that holds it."""
        if self._patched:
            return
        import drclqr

        wrappers = {fn: self._wrap(fn, name) for fn, name in self._originals.items()}
        namespaces = [drclqr] + [importlib.import_module(f"drclqr.{layer}") for layer in LAYERS]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(ns, attr, wrappers[value])
                    self._patched.append((ns, attr, value))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def take(self):
        """Hand over and clear the recorded spans and counts."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans):
    """{name: (self seconds, calls)} over a list of spans.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; overlapping children count once and children are
    clipped to the parent's interval.
    """
    children = defaultdict(list)
    for sid, parent, name, start, end in spans:
        children[parent].append((start, end))
    out = defaultdict(lambda: [0.0, 0])
    for sid, parent, name, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name][0] += (end - start) - covered
        out[name][1] += 1
    return {name: (t, n) for name, (t, n) in out.items()}
