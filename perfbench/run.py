#!/usr/bin/env python3
"""Closed-loop benchmark of oppsched.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process and one thread: the next op starts only when the
previous one has returned, and BLAS is pinned to one thread.  Inputs come from
``--seed`` alone; each op's outputs are checked after its timed interval.

``--trace 0`` measures ops for S seconds of op time, and at least 30 ops,
and reports the end-to-end metrics.  ``--trace 1`` runs ops untraced for S/2
seconds, runs the same ops again with spans around the library's public
functions, and reports per-layer metrics per op plus the tracing overhead;
spans are written to ``.perfbench_out/``.  Both modes print metadata lines
first and, as the last line, one JSON object with keys correct, attempted,
failed and metrics.
Exit codes: 0 all outputs correct, 1 some output wrong, 2 no result (for
example no ``src/oppsched`` next to this directory).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from time import perf_counter

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("simulate-target", "queue-grid", "verify-exact")
SETUP_REPS = 7
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail latency
MIN_OPS = 30  # so the reported tail is at least the 66th percentile


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs and exit (used to time set-up)")
    return p.parse_args(argv)


def load_library():
    """Import oppsched from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "oppsched", "__init__.py")):
        raise SystemExit("no oppsched sources in src/ next to perfbench/")
    sys.path[:0] = [SRC, HERE]
    import oppsched

    if not os.path.abspath(oppsched.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"oppsched was imported from {oppsched.__file__}, not {SRC}")
    import workloads

    return workloads


@contextmanager
def workdir():
    os.makedirs(TMP, exist_ok=True)
    path = tempfile.mkdtemp(dir=TMP)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(TMP)
        except OSError:
            pass


def measure_setup(args) -> list[float]:
    """Process start to inputs ready, in fresh processes; one sample each."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        # A blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms.
        code = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL).wait()
        samples.append(perf_counter() - t0)
        if code != 0:
            raise SystemExit(f"set-up process exited with code {code}")
    return samples


class Phase:
    """Latencies and failures of a sequence of ops."""

    def __init__(self):
        self.indices: list[int] = []
        self.latency: list[float] = []
        self.failures: list[tuple[int, list[str]]] = []
        self.last_ok = None  # (inputs, outputs) of the last op that passed

    @property
    def busy(self) -> float:
        return sum(self.latency)


def run_op(wl, i: int, phase: Phase, tracer=None) -> None:
    inp = wl.inputs(i)
    t0 = perf_counter()
    try:
        out = tracer.op(i, wl.op, inp) if tracer else wl.op(inp)
        error = None
    except Exception as e:  # a raised exception is a failed op
        out, error = None, f"{type(e).__name__}: {e}"
    phase.latency.append(perf_counter() - t0)
    phase.indices.append(i)
    if error is None:
        try:
            problems = wl.check(inp, out)
        except Exception as e:
            problems = [f"check raised {type(e).__name__}: {e}"]
    else:
        problems = [error]
    if problems:
        phase.failures.append((i, problems))
    else:
        phase.last_ok = (inp, out)


def run_for(wl, seconds: float, min_ops: int = 1) -> Phase:
    phase = Phase()
    i = 0
    while phase.busy < seconds or i < min_ops:
        run_op(wl, i, phase)
        i += 1
    return phase


def negative_test(wl, phase: Phase) -> dict:
    """Check one deliberately corrupted output; the checker must fail it."""
    if phase.last_ok is None:
        return {"attempted": 0, "failed": 0, "caught": []}
    inp, out = phase.last_ok
    problems = wl.check(inp, wl.corrupt(out))
    return {"attempted": 1, "failed": int(bool(problems)), "caught": problems[:1]}


def tail(latency: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it."""
    s = sorted(latency)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metadata(args, workloads) -> dict:
    import numpy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {
        "git_sha": sha,
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "default_seed_pins_trace_sha256": args.seed == workloads.DEFAULT_SEED,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_metrics(wl, setup, phase: Phase) -> tuple[dict, dict]:
    ok = len(phase.latency) - len(phase.failures)
    tail_s, tail_pct = tail(phase.latency)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(ok / phase.busy, "op/s"),
        "slots_per_s": metric(len(phase.latency) * wl.slots_per_op / phase.busy, "slot/s"),
        "op_p50_s": metric(statistics.median(phase.latency), "s"),
        "op_tail_s": metric(tail_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"op_samples": len(phase.latency), "op_tail_percentile": tail_pct,
            "setup_samples_s": setup, "op_latency_s": phase.latency}
    return metrics, info


def traced_metrics(wl, seconds, phases, info) -> dict:
    from spans import OP, Tracer, layer_metrics

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}

    plain = run_for(wl, seconds / 2)
    tracer = Tracer()
    tracer.install()
    traced = Phase()
    try:
        for i in plain.indices:
            run_op(wl, i, traced, tracer)
    finally:
        tracer.uninstall()
    phases += [plain, traced]
    summary = tracer.summary()
    overhead = traced.busy - plain.busy
    values = layer_metrics(summary, overhead, list(declared))
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{wl.name}-seed{wl.seed}.csv")
    tracer.write(spans_path)
    info.update({
        "traced_ops": summary["ops"],
        "untraced_s": plain.busy,
        "traced_s": traced.busy,
        "overhead_share": overhead / plain.busy,
        # Self times summed per op against the op latency timed here, and
        # the share of op time that no traced function saw.
        "self_sum_error_s": max(abs(lat - summary["op_self_s"][i])
                                for i, lat in zip(traced.indices, traced.latency)),
        "min_self_s": summary["min_self_s"],
        "untraced_share": summary["self_s"][OP] * summary["ops"] / traced.busy,
        "largest_self": summary["largest_self"],
        "largest_child_of_sim.run": summary["largest_run_child"],
        "layer_share": summary["layer_share"],
        "spans": len(tracer.spans),
        "spans_csv": os.path.relpath(spans_path, ROOT),
    })
    return {name: metric(v, declared[name]) for name, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads = load_library()
    except SystemExit as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        with workdir() as d:
            cls(args.seed, d)
        return 0

    print(json.dumps({"metadata": metadata(args, workloads)}), flush=True)
    info: dict = {}
    phases: list[Phase] = []
    with workdir() as d:
        wl = cls(args.seed, d)
        if args.trace:
            warm = Phase()
            run_op(wl, 0, warm)  # fill lazy caches before both passes
            phases.append(warm)
            metrics = traced_metrics(wl, args.seconds, phases, info)
        else:
            setup = measure_setup(args)
            phase = run_for(wl, args.seconds, MIN_OPS)
            phases.append(phase)
            metrics, more = untraced_metrics(wl, setup, phase)
            info.update(more)
        info.update(wl.notes)
        negative = negative_test(wl, phases[-1])

    attempted = sum(len(p.latency) for p in phases)
    failures = [f for p in phases for f in p.failures]
    failed = len(failures)
    info.update({
        "fail_rate": failed / attempted,
        "failures": [f"op {i}: {'; '.join(msgs)}" for i, msgs in failures[:5]],
        "negative_test": negative,
    })
    # Spans must nest, add up to the op latency timed outside the tracer, and
    # see nearly all of it, or the per-layer attribution is wrong.
    spans_ok = (info.get("self_sum_error_s", 0.0) <= 1e-3 and info.get("min_self_s", 0.0) >= -1e-9
                and info.get("untraced_share", 0.0) <= 0.05)
    correct = failed == 0 and negative["failed"] == negative["attempted"] == 1 and spans_ok
    print(json.dumps({"run": info}), flush=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
