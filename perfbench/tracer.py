"""Outside-in tracer for the benchmark's traced runs.

The program has no timers of its own, so the benchmark wraps each layer's
public functions from outside.  Callers import layer functions by name
(``suites.exterior_power``, ``cone_integration.trace_sandwich``,
``sturm_operator.integrate_invariant``), so a function is replaced at every
module binding that holds it, not only in the module that defines it.  The
integrand of ``integrate_invariant`` is timed by wrapping its ``f``
argument; each call of ``f`` is one sampling chunk.

Spans stay in memory as tuples and are written out once, at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter, process_time

PACKAGE = "sturmverify"

# (module, function) pairs wrapped in a traced run; the span name is
# "<module>.<function>" and the module name is the layer.
TARGETS = (
    ("suites", "run_pm"),
    ("suites", "run_exterior"),
    ("suites", "run_sandwich"),
    ("suites", "run_maass"),
    ("suites", "run_fd"),
    ("suites", "run_cone"),
    ("suites", "run_sturm"),
    ("cone_integration", "integrate_invariant"),
    ("exterior_algebra", "trace_sandwich"),
    ("exterior_algebra", "exterior_power"),
    ("exterior_algebra", "sqcap"),
    ("exterior_algebra", "exterior_power_batch"),
    ("maass_operator", "maass_coeff_factor"),
    ("maass_operator", "det_dz_closed"),
    ("sturm_operator", "sturm_numeric"),
    ("special_functions", "p_m_poly"),
    ("finite_difference", "det_dz_numeric"),
    ("finite_difference", "exterior_derivative_num"),
)

ROOT = "cli.main"
INTEGRATE = "cone_integration.integrate_invariant"
INTEGRAND = "cone_integration.integrand"


def layer_of(span_name: str) -> str:
    """The layer a span's self time belongs to: its module, or orchestration."""
    module = span_name.split(".")[0]
    return "orchestration" if module in ("cli", "suites") else module


SPAN_FIELDS = ("id", "parent", "name", "start", "end", "run", "extra")


class Tracer:
    """Records spans (id, parent, name, start, end, run id, extra)."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def install(self) -> None:
        """Replace every module binding of each target with a traced wrapper."""
        modules = [mod for name, mod in list(sys.modules.items()) if name.split(".")[0] == PACKAGE]
        for module, fn in TARGETS:
            original = getattr(sys.modules.get(f"{PACKAGE}.{module}"), fn, None)
            if original is None:
                self.missing.append(f"{module}.{fn}")
                continue
            name = f"{module}.{fn}"
            wrapper = self._wrap_integrate(name, original) if name == INTEGRATE else self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _enter(self, parent=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, stack

    def root(self, run_id: int, fn, *args):
        """Call ``fn(*args)`` under the root span of one CLI invocation."""
        self.run = run_id
        return self._wrap(ROOT, fn)(*args)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, stack = self._enter()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, self.run, None))

        return traced

    def _wrap_integrate(self, name, fn):
        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            sid, parent, stack = self._enter()

            # runs on pool threads too, so the parent is passed explicitly
            def integrand(y):
                cid, _, cstack = self._enter(parent=sid)
                start = perf_counter()
                try:
                    return f(y)
                finally:
                    end = perf_counter()
                    cstack.pop()
                    self.spans.append((cid, sid, INTEGRAND, start, end, self.run, None))

            est = None
            cpu = process_time()
            start = perf_counter()
            try:
                est = fn(integrand, *args, **kwargs)
                return est
            finally:
                end = perf_counter()
                extra = {"cpu_s": process_time() - cpu}
                if est is not None:
                    extra.update(
                        samples=int(getattr(est, "samples", 0)),
                        rejected=int(getattr(est, "rejected", 0)),
                        diverged=int(bool(getattr(est, "diverged", False))),
                        ess=float(getattr(est, "effective_samples", 0.0)),
                    )
                stack.pop()
                self.spans.append((sid, parent, name, start, end, self.run, extra))

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "missing": self.missing, "spans": self.spans}, fh)


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans, threads: int) -> dict:
    """Per-layer metrics from one traced run's spans.

    ``<function>.s`` is inclusive wall time summed over calls (and over
    threads); ``<layer>.self_s`` is the layer's self time, a span's
    duration minus the part of it that its child spans cover.
    ``sample_reduce.s`` is the self time of ``integrate_invariant``.
    """
    children = defaultdict(list)
    for sid, parent, _, start, end, _, _ in spans:
        children[parent].append((start, end))
    incl, own, calls = Counter(), Counter(), Counter()
    samples = rejected = diverged = 0
    ess = cpu = integrate_wall = 0.0
    for sid, parent, name, start, end, _, extra in spans:
        dur = end - start
        incl[name] += dur
        own[name] += dur - _covered(children.get(sid, ()), start, end)
        calls[name] += 1
        if name == INTEGRATE and extra:
            samples += extra.get("samples", 0)
            rejected += extra.get("rejected", 0)
            diverged += extra.get("diverged", 0)
            ess += extra.get("ess", 0.0)
            cpu += extra["cpu_s"]
            integrate_wall += dur

    out = {}
    for module, fn in TARGETS:
        name = f"{module}.{fn}"
        short = "integrate" if name == INTEGRATE else fn
        out[f"{module}.{short}.s"] = incl[name]
        out[f"{module}.{short}.calls"] = calls[name]
    out["cone_integration.integrand.s"] = incl[INTEGRAND]
    out["cone_integration.integrand.calls"] = calls[INTEGRAND]
    out["cone_integration.sample_reduce.s"] = own[INTEGRATE]
    out["cone_integration.samples"] = samples
    out["cone_integration.rejected"] = rejected
    out["cone_integration.diverged"] = diverged
    out["cone_integration.ess_frac"] = ess / samples if samples else 0.0
    out["cone_integration.cpu_util"] = cpu / (integrate_wall * threads) if integrate_wall else 0.0
    for module, _ in TARGETS:
        out[f"{layer_of(module)}.self_s"] = 0.0
    for name, seconds in own.items():
        out[f"{layer_of(name)}.self_s"] += seconds
    return out
