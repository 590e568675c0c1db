import json

import numpy as np
import pytest

from oppsched import (
    RandSource,
    build_model,
    from_resources,
    model_from_dict,
    model_from_json,
    sample_state,
)
from oppsched.errors import InputError
from oppsched.model import sample_states
from oppsched.randomize import slot_uniforms


# One non-finite entry per case: (probs, per-state options, declared bound).
NON_FINITE = {
    "nan-prob": ([np.nan, 1.0], [[[1.0]], [[2.0]]], None),
    "inf-prob": ([np.inf, 0.5], [[[1.0]], [[2.0]]], None),
    "nan-option": ([0.5, 0.5], [[[np.nan]], [[2.0]]], 2.0),
    "inf-option": ([0.5, 0.5], [[[np.inf]], [[2.0]]], None),
    "neg-inf-option": ([0.5, 0.5], [[[-np.inf]], [[2.0]]], None),
    "nan-bound": ([0.5, 0.5], [[[1.0]], [[2.0]]], np.nan),
    "inf-bound": ([0.5, 0.5], [[[1.0]], [[2.0]]], np.inf),
}


class TestValidate:
    """A model is checked when it is built; an invalid one never exists."""

    @pytest.mark.parametrize("probs, options, bound", NON_FINITE.values(), ids=list(NON_FINITE))
    def test_non_finite_inputs_rejected(self, probs, options, bound):
        with pytest.raises(InputError, match="finite"):
            build_model(["a", "b"], probs, options, bound=bound)

    def test_two_state_reference_ok(self, two_state_model):
        assert two_state_model.psi == (0, 0)

    def test_empty_option_list_names_state(self):
        with pytest.raises(InputError, match="'b' has no options"):
            build_model(["a", "b"], [0.5, 0.5], [[[1.0]], np.zeros((0, 1))])

    @pytest.mark.parametrize("options", [[], [[], []]], ids=["no-vectors", "empty-vectors"])
    def test_empty_option_lists_in_a_document_name_the_state(self, options):
        doc = {"m": 1, "states": [{"label": "a", "prob": 0.5, "options": [[1.0]]},
                                  {"label": "b", "prob": 0.5, "options": options}]}
        with pytest.raises(InputError, match="'b' has no options"):
            model_from_dict(doc)

    def test_unnormalized_probabilities(self):
        with pytest.raises(InputError, match="sum to"):
            build_model(["a", "b"], [0.5, 0.4], [[[1.0]], [[2.0]]])

    def test_option_outside_declared_bound(self):
        with pytest.raises(InputError, match="bound"):
            build_model(["a"], [1.0], [[[3.0]]], bound=1.0)

    def test_bound_slack_is_tight(self):
        # Options may pass the bound by rounding (1e-9), not by 1e-6.
        with pytest.raises(InputError, match="outside the declared bound"):
            build_model(["a"], [1.0], [[[0.6, 0.8 + 1e-6]]], bound=1.0)
        model = build_model(["a"], [1.0], [[[0.6, 0.8 + 1e-12]]], bound=1.0)
        assert model.bound == 1.0

    def test_bound_defaults_to_max_norm(self, two_state_model):
        assert two_state_model.bound == 2.0


class TestFromResources:
    def test_two_power_levels(self):
        table = {"0.5": [[0.0], [0.5]], "1.0": [[0.0], [1.0]]}
        model = from_resources([[0.0], [1.0]], table, probs=[0.5, 0.5])
        assert model.m == 2
        assert model.options[0].tolist() == [[0.0, 0.0], [1.0, 0.5]]
        assert model.options[1].tolist() == [[0.0, 0.0], [1.0, 1.0]]
        # fallback prefers the zero power vector
        assert model.psi == (0, 0)

    def test_singleton_power_set(self):
        model = from_resources([[0.0]], {"a": [[2.0]], "b": [[2.0]]})
        for arr in model.options:
            assert arr.shape == (1, 2)
            assert arr.tolist() == [[0.0, 2.0]]

    def test_zero_reward_map(self):
        model = from_resources([[0.0], [2.0]], {"a": [[0.0], [0.0]]})
        assert model.options[0].tolist() == [[0.0, 0.0], [2.0, 0.0]]

    def test_output_always_validates(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            a = int(rng.integers(1, 3))
            pvs = tuple(rng.uniform(0, 2, size=a) for _ in range(int(rng.integers(1, 4))))
            table = {}
            labels = [f"s{i}" for i in range(int(rng.integers(1, 4)))]
            for lab in labels:
                table[lab] = [rng.uniform(-1, 1, size=2).tolist() for _ in pvs]
            model = from_resources(pvs, table)
            assert model.psi == tuple(0 for _ in labels)

    def test_nonzero_psi_when_zero_power_absent(self):
        model = from_resources([[1.0], [2.0]], {"a": [[1.0], [1.0]]})
        assert model.psi == (0,)

    def test_duplicate_power_vectors_keep_their_own_rewards(self):
        model = model_from_dict(
            {"power_vectors": [[1.0], [1.0], [0.0]], "reward_table": {"a": [[0.25], [0.75], [0.0]]}}
        )
        assert model.options[0].tolist() == [[1.0, 0.25], [1.0, 0.75], [0.0, 0.0]]
        assert model.psi == (2,)


class TestSampleState:
    def test_half_split(self, two_state_model):
        assert sample_state(two_state_model, 0.25) == 0
        assert sample_state(two_state_model, 0.75) == 1

    def test_boundary_goes_low(self, two_state_model):
        assert sample_state(two_state_model, 0.5) == 0

    def test_single_state(self):
        model = build_model(["only"], [1.0], [[[1.0]]])
        for u in (0.0, 0.37, 0.999999):
            assert sample_state(model, u) == 0

    def test_rejects_out_of_range(self, two_state_model):
        with pytest.raises(InputError):
            sample_state(two_state_model, 1.0)

    def test_empirical_frequencies(self):
        model = build_model(
            ["a", "b", "c"], [0.2, 0.5, 0.3], [[[0.0]], [[0.0]], [[0.0]]]
        )
        n = 1_000_000
        us = slot_uniforms(RandSource(11).stream("states"), np.arange(1, n + 1, dtype=np.uint64))
        states = sample_states(model, us)
        for s, p in enumerate([0.2, 0.5, 0.3]):
            freq = float(np.mean(states == s))
            stderr = np.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 4 * stderr


class TestJsonSchema:
    def test_round_trip(self, two_state_model, tmp_path):
        doc = {
            "m": two_state_model.m,
            "states": [
                {"label": two_state_model.label(s), "prob": float(two_state_model.probs[s]),
                 "options": two_state_model.options[s].tolist()}
                for s in range(two_state_model.n_states)
            ],
            "bound": two_state_model.bound,
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        model = model_from_json(path)
        assert model.m == two_state_model.m
        assert model.labels == two_state_model.labels
        for a, b in zip(model.options, two_state_model.options):
            assert np.array_equal(a, b)

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(InputError, match="model file not found"):
            model_from_json(tmp_path / "absent.json")

    def test_malformed_json_named(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="model file is not valid JSON"):
            model_from_json(path)

    def test_missing_m_named(self):
        with pytest.raises(InputError, match="'m'"):
            model_from_dict({"states": [{"label": "a", "prob": 1.0, "options": [[0.0]]}]})

    def test_bad_prob_field_named(self):
        with pytest.raises(InputError, match=r"states\[1\].prob"):
            model_from_dict(
                {
                    "m": 1,
                    "states": [
                        {"label": "a", "prob": 0.5, "options": [[0.0]]},
                        {"label": "b", "options": [[0.0]]},
                    ],
                }
            )

    @pytest.mark.parametrize("probs, options, bound", NON_FINITE.values(), ids=list(NON_FINITE))
    def test_non_finite_model_file_rejected(self, tmp_path, probs, options, bound):
        # Python's json reads and writes NaN and Infinity.
        doc = {
            "m": 1,
            "states": [
                {"label": label, "prob": p, "options": opts}
                for label, p, opts in zip("ab", probs, options)
            ],
        }
        if bound is not None:
            doc["bound"] = bound
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="finite"):
            model_from_json(path)

    def test_malformed_lambda_rejected(self):
        with pytest.raises(InputError, match="sum to"):
            model_from_dict(
                {
                    "m": 1,
                    "states": [
                        {"label": "a", "prob": 0.5, "options": [[0.0]]},
                        {"label": "b", "prob": 0.4, "options": [[0.0]]},
                    ],
                }
            )

    def test_resource_form(self):
        model = model_from_dict(
            {
                "power_vectors": [[0.0], [1.0]],
                "reward_table": {"lo": [[0.0], [0.5]], "hi": [[0.0], [1.0]]},
            }
        )
        assert model.m == 2
        assert model.n_states == 2
        assert model.psi == (0, 0)
