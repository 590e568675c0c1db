import json
import tracemalloc

import numpy as np
import pytest

from oppsched import (
    BernoulliArrivals,
    DeterministicArrivals,
    MaxWeightPolicy,
    RandSource,
    build_model,
    dominance,
    run,
    run_maxweight,
)
from oppsched.errors import InputError
from oppsched.queueing import arrivals_from_dict, boundary_margin


def backlogs(options, rate, horizon):
    """The engine's backlog after each slot of a one-state max-weight run
    under the same arrivals every slot."""
    model = build_model(["s"], [1.0], [options])
    trace = run(model, MaxWeightPolicy(), horizon, 0, arrivals=DeterministicArrivals(rate))
    return trace.queues.tolist()


class TestStep:
    """The engine's backlog update: serve x against arrivals a, floored at zero."""

    def test_balanced_slot(self):
        assert backlogs([[1.0, 0.0]], [1.0, 0.0], 1) == [[0.0, 0.0]]

    def test_floor_at_zero(self):
        # Slot 1 ties at an empty backlog and serves nothing; slot 2 serves
        # 5 against a backlog of 2 + 2.
        assert backlogs([[0.0, 0.0], [5.0, 0.0]], [2.0, 0.0], 2) == [[2.0, 0.0], [0.0, 0.0]]

    def test_mixed_arithmetic(self):
        out = backlogs([[1.0, 0.0]], [0.4, 0.4], 2)
        assert out == [pytest.approx([0.0, 0.4]), pytest.approx([0.0, 0.8])]

    def test_negative_inputs_rejected(self):
        with pytest.raises(InputError):
            DeterministicArrivals(np.array([-0.1]))


class TestArrivals:
    def test_deterministic_rows(self):
        arr = DeterministicArrivals(np.array([0.3, 0.1]))
        rows = arr.sample_all(5, 2, [RandSource(0).seed])
        assert rows.shape == (1, 5, 2)
        assert np.all(rows == [0.3, 0.1])

    def test_bernoulli_mean_rate(self):
        arr = BernoulliArrivals(prob=np.array([0.25, 1.0]), batch=np.array([2.0, 0.5]))
        assert arr.mean_rate().tolist() == [0.5, 0.5]

    def test_bernoulli_empirical_rate(self):
        arr = BernoulliArrivals(prob=np.array([0.3, 0.7]), batch=np.array([1.0, 2.0]))
        rows = arr.sample_all(200_000, 2, [RandSource(17).stream("arrivals").seed])[0]
        emp = rows.mean(axis=0)
        assert emp == pytest.approx(arr.mean_rate(), abs=0.01)

    def test_bernoulli_reproducible(self):
        arr = BernoulliArrivals(prob=np.array([0.5]), batch=np.array([1.0]))
        a = arr.sample_all(100, 1, [RandSource(3).stream("arrivals").seed])
        b = arr.sample_all(100, 1, [RandSource(3).stream("arrivals").seed])
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "prob, batch", [([0.5, 0.5], [1.0]), (0.5, 1.0), ([[0.5]], [[1.0]])],
        ids=["unequal", "scalar", "matrix"],
    )
    def test_bernoulli_needs_equal_length_vectors(self, prob, batch):
        with pytest.raises(InputError, match="'prob' and 'batch'"):
            BernoulliArrivals(prob=np.array(prob), batch=np.array(batch))

    def test_bernoulli_rejects_slots_past_pairing_bound(self):
        # 2^31 slots of 2 components need 2^32 uniforms: refused before any
        # index array is allocated.
        arr = BernoulliArrivals(prob=np.array([0.5, 0.5]), batch=np.array([1.0, 1.0]))
        tracemalloc.start()
        try:
            with pytest.raises(InputError):
                arr.sample_all(2**31, 2, [RandSource(0).seed])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "prob, batch", [("NaN", "1.0"), ("0.5", "Infinity"), ("0.5", "NaN"), ("Infinity", "0.0")]
    )
    def test_bernoulli_rejects_non_finite(self, prob, batch):
        doc = json.loads(f'{{"kind": "bernoulli", "prob": [{prob}], "batch": [{batch}]}}')
        with pytest.raises(InputError, match="finite"):
            arrivals_from_dict(doc)
        with pytest.raises(InputError, match="finite"):
            BernoulliArrivals(prob=np.array(doc["prob"]), batch=np.array(doc["batch"]))

    def test_json_forms(self):
        det = arrivals_from_dict({"kind": "deterministic", "rate": [0.2, 0.2]})
        assert isinstance(det, DeterministicArrivals)
        ber = arrivals_from_dict(
            {"kind": "bernoulli", "prob": [0.5], "batch": [2.0]}
        )
        assert isinstance(ber, BernoulliArrivals)
        with pytest.raises(InputError):
            arrivals_from_dict({"kind": "poisson"})


class TestRunMaxweight:
    def test_feasible_load_is_stable(self, simplex_model):
        report = run_maxweight(
            simplex_model,
            DeterministicArrivals(np.array([0.4, 0.4])),
            100_000,
            7,
        )
        assert report.stable
        assert report.tail_avg_queue_norm <= 50.0
        assert report.drift_slope <= 1e-3

    def test_overload_grows_linearly(self, simplex_model):
        report = run_maxweight(
            simplex_model,
            DeterministicArrivals(np.array([0.6, 0.6])),
            100_000,
            7,
        )
        assert not report.stable
        # per-component deficit 0.1 each: backlog norm grows ~ 0.1*sqrt(2)
        assert report.drift_slope >= 0.12

    def test_zero_arrivals_zero_queues(self, simplex_model):
        report = run_maxweight(
            simplex_model,
            DeterministicArrivals(np.array([0.0, 0.0])),
            2000,
            1,
        )
        assert np.all(report.trace.queues == 0.0)
        assert report.stable

    def test_queues_never_negative(self, simplex_model):
        report = run_maxweight(
            simplex_model,
            BernoulliArrivals(prob=np.array([0.5, 0.5]), batch=np.array([0.9, 0.9])),
            5000,
            9,
        )
        assert np.all(report.trace.queues >= 0.0)

    def test_work_conservation_single_option(self):
        model = build_model(["only"], [1.0], [[[0.75]]])
        report = run_maxweight(model, DeterministicArrivals(np.array([0.5])), 2000, 2)
        served = (
            report.trace.queues[:-1, 0]
            + report.trace.arrivals[1:, 0]
            - report.trace.queues[1:, 0]
        )
        assert np.all(served <= 0.75 + 1e-12)

    def test_short_horizon_rejected(self, simplex_model):
        with pytest.raises(InputError):
            run_maxweight(
                simplex_model, DeterministicArrivals(np.array([0.0, 0.0])), 10, 0
            )


class TestDominanceAgreement:
    def test_small_grid(self, simplex_model, simplex_region):
        # coarse version of the acceptance sweep: verdicts agree away from
        # the capacity boundary x + y = 1
        dirs = [np.array([1.0, 1.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        for a in ([0.2, 0.2], [0.7, 0.1], [0.55, 0.55], [0.8, 0.8]):
            a = np.array(a)
            margin = boundary_margin(simplex_region, a, dirs)
            if abs(margin) < 0.05:
                continue
            report = run_maxweight(
                simplex_model, DeterministicArrivals(a), 30_000, 3
            )
            assert report.stable == dominance(simplex_region, a)

    def test_boundary_margin_is_the_smallest_direction_margin(self, simplex_region):
        # Over 1-degree directions of the quadrant the facet x + y = 1 is
        # nearest to (0.2, 0.3), along 45 degrees; the largest margin, 0.8,
        # is along the first axis.
        theta = np.deg2rad(np.arange(91))
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        margin = boundary_margin(simplex_region, [0.2, 0.3], dirs)
        assert margin == pytest.approx((1.0 - 0.5) / np.sqrt(2), abs=1e-9)

    def test_boundary_margin_signs(self, simplex_region):
        dirs = [np.array([1.0, 1.0])]
        inside = boundary_margin(simplex_region, [0.3, 0.3], dirs)
        outside = boundary_margin(simplex_region, [0.8, 0.8], dirs)
        assert inside > 0
        assert outside < 0
        assert inside == pytest.approx((1.0 - 0.6) / np.sqrt(2), abs=1e-6)
