"""The benchmark's own checks on one op of each workload.

``perfbench/run.py`` exits non-zero when any op raises or fails its check,
so a change that breaks a workload's output (a pinned trace digest, a queue
verdict, a certificate) is caught here, not only by a benchmark run.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_op_passes_check_and_corruption_is_caught(name, tmp_path):
    wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, str(tmp_path))
    inp = wl.inputs(0)
    out = wl.op(inp)
    assert wl.check(inp, out) == []
    assert wl.check(inp, wl.corrupt(out))
