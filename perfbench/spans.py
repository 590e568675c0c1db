"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper on every
``oppsched`` module attribute that holds it (``oppsched.sim.slot_uniforms``
as well as ``oppsched.randomize.slot_uniforms``), and each traced method on
the classes that define it (``geometry.lmo`` is ``ConvexBody.lmo``).  Within an op, a wrapper records one span per
call: name, start, end, parent span, op id, and an optional count taken from
the call's arguments or result; calls outside an op (the output checks) are
not recorded.  Spans stay in memory until ``write``.

A span's self time is its duration minus the durations of its direct
children; calls are sequential in one thread, so children never overlap,
no self time is negative, and the self times of an op's spans add up to the
op's duration.  The benchmark checks the last two, the sum against the op
latency it times itself.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

import oppsched

# (module, function or method name, count taken from (args, kwargs, result)).
# A name that is no module-level function is wrapped as a method on every
# class of that module defining it.
FUNCTIONS = [
    ("randomize", "slot_uniforms", lambda a, k, r: int(np.size(a[1]))),
    ("randomize", "stream", None),
    ("model", "sample_states", None),
    ("model", "validate", None),
    ("model", "model_from_dict", None),
    ("policy", "choices_vector", None),
    ("policy", "target_policy", None),
    ("policy", "slot_mean", None),
    ("sim", "run", lambda a, k, r: k["horizon"] if "horizon" in k else a[2]),
    ("sim", "write_trace_csv", lambda a, k, r: os.path.getsize(a[2])),
    ("sim", "verify_avg_convergence", None),
    ("sim", "verify_mean_membership", None),
    ("sim", "verify_conditional_membership", None),
    ("queueing", "run_maxweight", None),
    ("queueing", "sample_all", None),
    ("region", "membership", None),
    ("region", "decompose", None),
    ("region", "dominance", None),
    ("region", "rate_region", None),
    ("geometry", "frank_wolfe", lambda a, k, r: r.iterations),
    ("geometry", "lmo", None),
    ("sigma", "factorize", None),
    ("sigma", "join", None),
    ("cli", "main", None),
]

OP = "bench.op"


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, op id, count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op_id = -1

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack and name != OP:  # outside an op, e.g. in its checks
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                rec[5] = count(args, kwargs, result)
            return result

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "oppsched" or n.startswith("oppsched.")]
        for mod_name, attr, count in FUNCTIONS:
            mod = getattr(oppsched, mod_name)
            name = f"{mod_name}.{attr}"
            fn = vars(mod).get(attr)
            if inspect.isfunction(fn):
                wrapper = self._wrap(name, fn, count)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._replace(m, key, wrapper)
                continue
            for cls in list(vars(mod).values()):
                if inspect.isclass(cls) and cls.__module__ == mod.__name__ and attr in vars(cls):
                    self._replace(cls, attr, self._wrap(name, vars(cls)[attr], count))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()

    def op(self, op_id: int, fn, *args):
        """Run one op under a root span that owns everything it calls."""
        self.op_id = op_id
        return self._wrap(OP, fn, None)(*args)

    def self_times(self) -> np.ndarray:
        dur = np.array([s[2] - s[1] for s in self.spans])
        own = dur.copy()
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                own[s[3]] -= dur[i]
        return own

    def write(self, path: str) -> None:
        own = self.self_times()
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,op,self_s,count\n")
            for i, (name, t0, t1, parent, op, cnt) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{op},{float(own[i])!r},"
                         f"{'' if cnt is None else cnt}\n")

    def summary(self) -> dict:
        """Per-op totals by span name, plus the attribution facts the
        benchmark reports."""
        spans, own = self.spans, self.self_times()
        calls, self_s, counts = Counter(), Counter(), Counter()
        op_self, run_children = Counter(), Counter()
        for i, (name, t0, t1, parent, op, cnt) in enumerate(spans):
            up = spans[parent][0] if parent >= 0 else None
            calls[name] += 1
            self_s[name] += float(own[i])
            op_self[op] += float(own[i])
            if up == "sim.run":
                run_children[name] += t1 - t0
            if name == "geometry.lmo" and up == "geometry.frank_wolfe":
                counts["lmo_in_fw"] += 1
            if name == "sim.run":
                if up == "sim.verify_mean_membership":
                    counts["verifier_runs"] += 1
                    counts["verifier_slots"] += cnt
            elif cnt is not None and up != name:  # chunked slot_uniforms recurse
                counts[name] += cnt
        n_ops = max(calls[OP], 1)
        busy = sum(self_s.values())
        layers = Counter()
        for name, t in self_s.items():
            layers[name.split(".")[0]] += t / busy
        per_op = lambda c: Counter({k: v / n_ops for k, v in c.items()})
        return {
            "ops": calls[OP],
            "calls": per_op(calls),
            "self_s": per_op(self_s),
            "counts": per_op(counts),
            "op_self_s": op_self,
            "min_self_s": float(own.min()) if len(own) else 0.0,
            "layer_share": dict(layers),
            "largest_self": max((k for k in self_s if k != OP), key=self_s.get, default=None),
            "largest_run_child": max(run_children, key=run_children.get, default=None),
        }


def layer_metrics(summary: dict, overhead_s: float, names: list[str]) -> dict:
    """Values per op of the per-layer metrics ``names``.

    A name ``<module>.<function>.<stat>`` reads the function's ``calls``,
    ``self_s`` or recorded count (uniforms, bytes, iterations); the ratios
    below are derived from those.
    """
    c, t, n = summary["calls"], summary["self_s"], summary["counts"]
    ratio = lambda a, b: a / b if b else 0.0
    derived = {
        "randomize.slot_uniforms.ns_per_uniform": ratio(
            1e9 * t["randomize.slot_uniforms"], n["randomize.slot_uniforms"]),
        "sim.write_trace_csv.mb_per_s": ratio(
            n["sim.write_trace_csv"] / 1e6, t["sim.write_trace_csv"]),
        "sim.verify_mean_membership.useful_slot_ratio": ratio(
            n["verifier_runs"], n["verifier_slots"]),
        "geometry.lmo_per_iteration": ratio(n["lmo_in_fw"], n["geometry.frank_wolfe"]),
        "trace.overhead_s": overhead_s,
    }
    by_stat = {"calls": c, "self_s": t}
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
        else:
            fn, stat = name.rsplit(".", 1)
            values[name] = by_stat.get(stat, n)[fn]
    return values
