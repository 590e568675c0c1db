"""The benchmark's own checks on one op of each workload.

``perfbench/run.py`` exits non-zero when any op raises or fails its check,
so a change that breaks a workload's output (a pinned trace digest, a queue
verdict, a certificate) is caught here, not only by a benchmark run.  The
traced op does the same for ``run.py --trace 1``: a traced function whose
signature no longer fits its span counter fails here.
"""

import json
import math
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_op_passes_check_and_corruption_is_caught(name, tmp_path):
    wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, str(tmp_path))
    inp = wl.inputs(0)
    out = wl.op(inp)
    assert wl.check(inp, out) == []
    assert wl.check(inp, wl.corrupt(out))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_op_traced_gives_every_layer_metric(name, tmp_path):
    wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, str(tmp_path))
    inp = wl.inputs(0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        out = tracer.op(0, wl.op, inp)
    finally:
        tracer.uninstall()
    assert wl.check(inp, out) == []
    summary = tracer.summary()
    assert summary["min_self_s"] >= -1e-9
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    values = spans.layer_metrics(summary, 0.0, names)
    assert {n for n in names if math.isfinite(values[n])} == set(names)
