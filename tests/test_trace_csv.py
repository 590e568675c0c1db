"""Trace CSV bytes: the block writer against the row-by-row reference, pinned
digests of two small runs, and memory bounded by one block."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oppsched import (
    BernoulliArrivals,
    MaxWeightPolicy,
    build_model,
    rate_region,
    run,
    target_policy,
    verify_avg_convergence,
    write_trace_csv,
)
from oppsched.sim import _CSV_ROWS, AvgConvergenceReport, Trace, checkpoint_slots


def ref_write_trace_csv(trace, model, path, report=None):
    """Row-by-row writer; the block writer must reproduce its bytes."""
    m = model.m
    cp_pos = {} if report is None else {int(c): i for i, c in enumerate(report.checkpoints)}
    with open(path, "w", newline="") as fh:
        header = ["k", "state_label", "option_index"]
        header += [f"x_{c}" for c in range(m)]
        header += [f"avg_{c}" for c in range(m)]
        header.append("dist_checkpoint")
        if trace.queues is not None:
            header += [f"q_{c}" for c in range(m)]
        fh.write(",".join(header) + "\n")
        for k in range(1, trace.horizon + 1):
            row = [
                str(k),
                model.label(int(trace.states[k - 1])),
                str(int(trace.choices[k - 1])),
            ]
            row += [repr(float(v)) for v in trace.x[k - 1]]
            row += [repr(float(v)) for v in trace.averages[k - 1]]
            if k in cp_pos:
                row.append(repr(float(report.dists[cp_pos[k]])))
            else:
                row.append("")
            if trace.queues is not None:
                row += [repr(float(v)) for v in trace.queues[k - 1]]
            fh.write(",".join(row) + "\n")


# Signed zeros, NaNs of both signs and two payloads, infinities, subnormals,
# and values whose repr switches between positional and exponent form.
SPECIAL = np.concatenate([
    np.array([-0.0, 0.0, np.inf, -np.inf, 5e-324, 1.5e-310, 2.2250738585072014e-308,
              1e16, 9999999999999998.0, 1e-5, 0.0001, 0.1, 1 / 3, -2.5, 1e22]),
    np.array(
        [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64
    ).view(np.float64),
])

HORIZONS = [1, 2, _CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1, 2 * _CSV_ROWS + 1]


@st.composite
def traces(draw, horizon):
    m = draw(st.integers(1, 3))
    labels = draw(st.lists(
        st.text("abyz019_-.", min_size=1, max_size=6), min_size=1, max_size=4, unique=True
    ))
    drawn = draw(st.lists(st.floats(width=64), max_size=6))
    pool = np.concatenate([SPECIAL, np.array(drawn, dtype=np.float64)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def floats(*shape, dtype=np.float64):
        # Repeated pool values mixed with unique draws over many magnitudes.
        out = pool[rng.integers(0, pool.size, shape)]
        fresh = rng.random(shape) < 0.4
        scale = 10.0 ** rng.integers(-30, 30, int(fresh.sum()))
        out[fresh] = rng.standard_normal(int(fresh.sum())) * scale
        with np.errstate(over="ignore", invalid="ignore"):
            return out.astype(dtype)

    # A Trace built by hand may hold narrower arrays than run() makes.
    ints, reals = draw(st.sampled_from([
        (np.int64, np.float64), (np.int32, np.float64), (np.int32, np.float32)
    ]))
    wide = np.iinfo(ints).max // 2
    n = len(labels)
    model = build_model(labels, np.full(n, 1.0 / n), [[[0.0] * m]] * n)
    trace = Trace(
        seed=0,
        horizon=horizon,
        policy_kind="custom",
        states=rng.integers(0, n, horizon).astype(ints),
        # Mostly small repeated indices, some wide signed ones.
        choices=np.where(
            rng.random(horizon) < 0.9,
            rng.integers(0, 5, horizon),
            rng.integers(-wide, wide, horizon),
        ).astype(ints),
        x=floats(horizon, m, dtype=reals),
        averages=floats(horizon, m, dtype=reals),
        fallbacks=np.zeros(horizon, dtype=bool),
        queues=floats(horizon, m, dtype=reals) if draw(st.booleans()) else None,
    )
    # No report, the dyadic schedule, or slots in any order with repeats, as
    # ``simulate --checkpoints`` may pass them.
    schedule = draw(st.sampled_from(["none", "dyadic", "given"]))
    report = None
    if schedule != "none":
        cps = checkpoint_slots(horizon)
        if schedule == "given":
            cps = np.array(draw(st.lists(st.integers(1, horizon), min_size=1, max_size=6)))
        report = _report(cps, floats(cps.size))
    return trace, model, report


def _report(cps, dists):
    """A convergence report holding only what the writer reads."""
    return AvgConvergenceReport(
        checkpoints=cps,
        dists=dists,
        final_dist=float("nan"),
        final_bound=float("nan"),
        burn_in=0,
        within_bound_after_burn_in=False,
        insufficient_horizon=False,
        passed=False,
    )


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


# Each horizon is its own case, so every block edge is drawn on every run.
@pytest.mark.parametrize("horizon", HORIZONS)
@given(data=st.data())
def test_block_writer_matches_row_reference(horizon, data, csv_dir):
    trace, model, report = data.draw(traces(horizon))
    write_trace_csv(trace, model, csv_dir / "block.csv", report)
    ref_write_trace_csv(trace, model, csv_dir / "ref.csv", report)
    assert (csv_dir / "block.csv").read_bytes() == (csv_dir / "ref.csv").read_bytes()


def _fading_model():
    # Three states, two users, non-dyadic rates so every float column is long.
    return build_model(
        ["low", "mid", "high"],
        [0.3, 0.45, 0.25],
        [
            [[0.1, 0.7], [0.35, 0.2]],
            [[0.9, 0.3], [0.0, 1.1], [0.45, 0.45]],
            [[1.3, 0.0], [0.2, 0.6]],
        ],
    )


def _digest(trace, model, path, report):
    write_trace_csv(trace, model, path, report)
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)


class TestPinnedTraceBytes:
    """Digests of traces written by the row-by-row writer; any byte change in
    the engine, the averages or the writer shows here."""

    def test_target_policy(self, tmp_path):
        model = _fading_model()
        region = rate_region(model)
        trace = run(model, target_policy(region, [0.45, 0.48]), 5000, 2024)
        report = verify_avg_convergence(trace, region)
        assert _digest(trace, model, tmp_path / "t.csv", report) == (
            "5ee3ae7eb31c647a707ce6f3d6250dfb120b3f6de31641841a3851f957d3dbc1",
            296616,
        )

    def test_maxweight_bernoulli_arrivals(self, tmp_path):
        model = _fading_model()
        arrivals = BernoulliArrivals(np.array([0.3, 0.25]), np.array([0.7, 0.9]))
        trace = run(model, MaxWeightPolicy(), 5000, 2024, arrivals=arrivals)
        report = verify_avg_convergence(trace, rate_region(model))
        assert _digest(trace, model, tmp_path / "q.csv", report) == (
            "c3e2fc36e349b63097b28a1da65ced48344db7eee9c35694947d33e28bd08a1b",
            357970,
        )


def test_writer_memory_bounded_by_one_block(tmp_path):
    # 1e5 slots of 7 columns: a writer that formats the whole trace at once
    # peaks near 34 MB; one block of 2048 slots needs under 1 MB.
    horizon = 100_000
    rng = np.random.default_rng(7)
    model = build_model(["a", "b", "c"], np.full(3, 1 / 3), [[[0.0]]] * 3)
    cps = checkpoint_slots(horizon)
    trace = Trace(
        seed=0,
        horizon=horizon,
        policy_kind="target",
        states=rng.integers(0, 3, horizon),
        choices=rng.integers(0, 4, horizon),
        x=rng.random((horizon, 1)),
        averages=rng.random((horizon, 1)),
        fallbacks=np.zeros(horizon, dtype=bool),
        queues=rng.random((horizon, 1)),
    )
    report = _report(cps, rng.random(cps.size))
    tracemalloc.start()
    try:
        write_trace_csv(trace, model, tmp_path / "big.csv", report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
