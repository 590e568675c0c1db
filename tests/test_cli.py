import json

import numpy as np
import pytest

import oppsched.sim
from oppsched import cli, queueing, randomize
from oppsched.cli import main
from oppsched.region import membership


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def refuse_call(*args, **kwargs):
    raise AssertionError("called before the inputs were checked")


@pytest.fixture
def two_state_doc():
    return {
        "m": 1,
        "states": [
            {"label": "s1", "prob": 0.5, "options": [[0.0], [1.0]]},
            {"label": "s2", "prob": 0.5, "options": [[0.0], [2.0]]},
        ],
    }


@pytest.fixture
def simplex_doc():
    return {
        "m": 2,
        "states": [
            {"label": "s", "prob": 1.0, "options": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}
        ],
    }


class TestFactorCommand:
    def test_identity_rv_tables(self, tmp_path, capsys):
        spec = {
            "n": 4,
            "partitions": [
                {"blocks": [[0, 1], [2, 3]]},
                {"blocks": [[0, 2], [1, 3]]},
            ],
            "rvs": [[0.0, 1.0, 2.0, 3.0]],
            "deps": [[0, 1]],
        }
        assert main(["factor", write_json(tmp_path / "f.json", spec)]) == 0
        out = json.loads(capsys.readouterr().out)
        cells = {tuple(c["blocks"]): c["value"] for c in out["tables"][0]["cells"]}
        assert cells == {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 2.0, (1, 1): 3.0}

    def test_generating_sets_accepted(self, tmp_path, capsys):
        spec = {
            "n": 4,
            "partitions": [{"sets": [[0, 1]]}],
            "rvs": [[5.0, 5.0, 7.0, 7.0]],
            "deps": [[0]],
        }
        assert main(["factor", write_json(tmp_path / "f.json", spec)]) == 0
        out = json.loads(capsys.readouterr().out)
        values = sorted(c["value"] for c in out["tables"][0]["cells"])
        assert values == [5.0, 7.0]

    def test_nonmeasurable_is_input_error(self, tmp_path, capsys):
        spec = {
            "n": 4,
            "partitions": [{"blocks": [[0, 1], [2, 3]]}],
            "rvs": [[1.0, 2.0, 2.0, 2.0]],
            "deps": [[0]],
        }
        assert main(["factor", write_json(tmp_path / "f.json", spec)]) == 2
        err = capsys.readouterr().err
        assert "not measurable" in err

    def test_constant_rv(self, tmp_path, capsys):
        spec = {
            "n": 3,
            "partitions": [{"blocks": [[0, 1, 2]]}],
            "rvs": [[4.0, 4.0, 4.0]],
            "deps": [[0]],
        }
        assert main(["factor", write_json(tmp_path / "f.json", spec)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tables"][0]["cells"] == [{"blocks": [0], "value": 4.0}]


RESOURCE_DOC = {
    "power_vectors": [[0.0], [1.0]],
    "reward_table": {"lo": [[0.0], [0.5]], "hi": [[0.0], [1.0]]},
}

# One malformed field per case, and the field the error must name.
MALFORMED_RESOURCES = {
    "short-row": ({"reward_table": {"lo": [[0.0]], "hi": [[0.0], [1.0]]}}, "reward_table"),
    "number-row": ({"reward_table": {"lo": 5, "hi": [[0.0], [1.0]]}}, "reward_table"),
    "ragged-power": ({"power_vectors": [[0], [1, 2]]}, "power_vectors"),
    "scalar-power": ({"power_vectors": 5}, "power_vectors"),
}


class TestRegionCommand:
    def test_two_state_generators(self, tmp_path, capsys, two_state_doc):
        model = write_json(tmp_path / "m.json", two_state_doc)
        assert main(["region", "--model", model, "--dirs", "8"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert sorted(v[0] for v in out["generators"]) == [0.0, 0.5, 1.0, 1.5]
        assert len(out["support_samples"]) == 8
        assert len(out["halfspaces"]) == 8

    def test_singleton_model_one_generator(self, tmp_path, capsys):
        doc = {
            "m": 1,
            "states": [{"label": "only", "prob": 1.0, "options": [[0.9]]}],
        }
        model = write_json(tmp_path / "m.json", doc)
        assert main(["region", "--model", model, "--dirs", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["generators"] == [[0.9]]

    def test_malformed_lambda_exit_2(self, tmp_path, capsys, two_state_doc):
        two_state_doc["states"][0]["prob"] = 0.4
        model = write_json(tmp_path / "m.json", two_state_doc)
        assert main(["region", "--model", model]) == 2
        assert "sum to" in capsys.readouterr().err

    @pytest.mark.parametrize("patch, field", MALFORMED_RESOURCES.values(), ids=list(MALFORMED_RESOURCES))
    def test_malformed_resource_form_exit_2(self, tmp_path, capsys, patch, field):
        model = write_json(tmp_path / "m.json", {**RESOURCE_DOC, **patch})
        assert main(["region", "--model", model]) == 2
        assert f"'{field}" in capsys.readouterr().err


class TestSimulateCommand:
    def test_target_policy_small_run(self, tmp_path, capsys, two_state_doc):
        model = write_json(tmp_path / "m.json", two_state_doc)
        policy = write_json(tmp_path / "p.json", {"kind": "target", "x": [0.75]})
        out_prefix = str(tmp_path / "out")
        code = main(
            [
                "simulate", "--model", model, "--policy", policy,
                "--horizon", "10000", "--seed", "42", "--out", out_prefix,
                "--quiet",
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "out.report.json").read_text())
        assert report["passed"]
        assert abs(report["final_average"][0] - 0.75) <= 3 * 2 / np.sqrt(10000) + 1e-5
        trace_lines = (tmp_path / "out.trace.csv").read_text().splitlines()
        assert len(trace_lines) == 10001
        assert report["config_hash"]

    def test_single_slot_marked_insufficient(self, tmp_path, two_state_doc):
        model = write_json(tmp_path / "m.json", two_state_doc)
        policy = write_json(tmp_path / "p.json", {"kind": "deterministic"})
        out_prefix = str(tmp_path / "one")
        code = main(
            [
                "simulate", "--model", model, "--policy", policy,
                "--horizon", "1", "--seed", "0", "--out", out_prefix, "--quiet",
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "one.report.json").read_text())
        assert report["insufficient_horizon"]
        assert len((tmp_path / "one.trace.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("seed", [2, 3, 4, 5])
    def test_early_checkpoints_bounded_at_their_slot(self, tmp_path, seed, two_state_doc):
        # The last given checkpoint is slot 20, so its distance is held to
        # 3*D/sqrt(20) + sqrt(tol), not to the bound at the horizon.
        model = write_json(tmp_path / "m.json", two_state_doc)
        policy = write_json(tmp_path / "p.json", {"kind": "target", "x": [1.5]})
        out_prefix = str(tmp_path / "early")
        code = main(
            [
                "simulate", "--model", model, "--policy", policy,
                "--horizon", "100000", "--seed", str(seed), "--checkpoints", "10", "20",
                "--out", out_prefix, "--quiet",
            ]
        )
        report = json.loads((tmp_path / "early.report.json").read_text())
        assert report["final_bound"] == 3 * 2 / np.sqrt(20) + np.sqrt(1e-10)
        assert code == 0 and report["passed"]

    def test_given_checkpoints_solved_and_written_once(self, tmp_path, monkeypatch, two_state_doc):
        # Only the two judged slots are projected, and the CSV shows exactly
        # their distances, not the dyadic schedule's.
        calls = []

        def counting_membership(*args, **kwargs):
            calls.append(args)
            return membership(*args, **kwargs)

        monkeypatch.setattr(oppsched.sim, "membership", counting_membership)
        model = write_json(tmp_path / "m.json", two_state_doc)
        policy = write_json(tmp_path / "p.json", {"kind": "target", "x": [1.5]})
        code = main(
            [
                "simulate", "--model", model, "--policy", policy,
                "--horizon", "100000", "--seed", "2", "--checkpoints", "10", "20",
                "--out", str(tmp_path / "cp"), "--quiet",
            ]
        )
        assert code == 0
        assert len(calls) == 2
        report = json.loads((tmp_path / "cp.report.json").read_text())
        assert report["checkpoints"] == [10, 20]
        written = {}
        with open(tmp_path / "cp.trace.csv") as fh:
            next(fh)
            for line in fh:
                k, *_, dist = line.rstrip("\n").split(",")
                if dist:
                    written[int(k)] = dist
        assert written == {c: repr(d) for c, d in zip([10, 20], report["checkpoint_dists"])}

    def test_missing_model_exit_2(self, tmp_path, capsys):
        policy = write_json(tmp_path / "p.json", {"kind": "deterministic"})
        code = main(
            ["simulate", "--model", str(tmp_path / "nope.json"), "--policy", policy]
        )
        assert code == 2

    def test_nan_tol_exit_2(self, tmp_path, capsys, monkeypatch, two_state_doc):
        model = write_json(tmp_path / "m.json", two_state_doc)
        policy = write_json(tmp_path / "p.json", {"kind": "deterministic"})
        # The tolerance is refused before any slot is simulated.
        monkeypatch.setattr(cli, "run", refuse_call)
        code = main(
            [
                "simulate", "--model", model, "--policy", policy, "--horizon", "100000",
                "--tol", "nan", "--out", str(tmp_path / "nan"), "--quiet",
            ]
        )
        assert code == 2
        assert "tolerance must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "psi", [[1], [1, 0, 1], ["a", 1], 1, [0.5, 1]],
        ids=["short", "long", "string-entry", "scalar", "fractional"],
    )
    def test_malformed_psi_exit_2(self, tmp_path, capsys, psi, two_state_doc):
        model = write_json(tmp_path / "m.json", two_state_doc)
        policy = write_json(tmp_path / "p.json", {"kind": "deterministic", "psi": psi})
        code = main(
            ["simulate", "--model", model, "--policy", policy, "--horizon", "100",
             "--out", str(tmp_path / "psi"), "--quiet"]
        )
        assert code == 2
        assert "field 'psi'" in capsys.readouterr().err

    def test_integral_float_psi_accepted(self, tmp_path, two_state_doc):
        model = write_json(tmp_path / "m.json", two_state_doc)
        policy = write_json(tmp_path / "p.json", {"kind": "deterministic", "psi": [1.0, 1]})
        out_prefix = str(tmp_path / "float")
        code = main(
            ["simulate", "--model", model, "--policy", policy, "--horizon", "100",
             "--out", out_prefix, "--quiet"]
        )
        assert code == 0
        rows = (tmp_path / "float.trace.csv").read_text().splitlines()[1:]
        assert {row.split(",")[2] for row in rows} == {"1"}

    def test_replications_report(self, tmp_path, two_state_doc):
        model = write_json(tmp_path / "m.json", two_state_doc)
        policy = write_json(tmp_path / "p.json", {"kind": "randomized", "weights": [[0.5, 0.5], [0.5, 0.5]]})
        out_prefix = str(tmp_path / "rep")
        code = main(
            [
                "simulate", "--model", model, "--policy", policy,
                "--horizon", "256", "--seed", "1", "--out", out_prefix,
                "--replications", "1000", "--quiet",
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "rep.report.json").read_text())
        assert report["mean_membership"]["passed"]


class TestQueueCommand:
    def test_stable_point_agreement(self, tmp_path, capsys, simplex_doc):
        simplex_doc["arrivals"] = {"kind": "deterministic", "rate": [0.4, 0.4]}
        model = write_json(tmp_path / "m.json", simplex_doc)
        code = main(["queue", "--model", model, "--horizon", "20000", "--seed", "7"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dominance"] is True
        assert out["stable"] is True

    def test_overload_point_agreement(self, tmp_path, capsys, simplex_doc):
        simplex_doc["arrivals"] = {"kind": "deterministic", "rate": [0.6, 0.6]}
        model = write_json(tmp_path / "m.json", simplex_doc)
        code = main(["queue", "--model", model, "--horizon", "20000", "--seed", "7"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dominance"] is False
        assert out["stable"] is False

    def test_zero_arrivals_trivially_stable(self, tmp_path, capsys, simplex_doc):
        simplex_doc["arrivals"] = {"kind": "deterministic", "rate": [0.0, 0.0]}
        model = write_json(tmp_path / "m.json", simplex_doc)
        assert main(["queue", "--model", model, "--horizon", "2000", "--seed", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stable"] is True

    def test_missing_arrivals_exit_2(self, tmp_path, capsys, simplex_doc):
        model = write_json(tmp_path / "m.json", simplex_doc)
        assert main(["queue", "--model", model]) == 2
        assert "arrivals" in capsys.readouterr().err

    def test_nan_tol_exit_2(self, tmp_path, capsys, monkeypatch, simplex_doc):
        simplex_doc["arrivals"] = {"kind": "deterministic", "rate": [0.2, 0.2]}
        model = write_json(tmp_path / "m.json", simplex_doc)
        # The tolerance is refused before the max-weight run starts.
        monkeypatch.setattr(queueing, "run_maxweight", refuse_call)
        code = main(["queue", "--model", model, "--horizon", "100000", "--tol", "nan"])
        assert code == 2
        assert "tolerance must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "arrivals",
        [
            {"kind": "bernoulli", "prob": [0.2, 0.2, 0.2], "batch": [1.0, 1.0, 1.0]},
            {"kind": "deterministic", "rate": [0.2, 0.2, 0.2]},
            {"kind": "deterministic", "rate": [0.2]},
        ],
        ids=["bernoulli-long", "rate-long", "rate-short"],
    )
    def test_arrivals_of_wrong_length_exit_2(
        self, tmp_path, capsys, monkeypatch, arrivals, simplex_doc
    ):
        simplex_doc["arrivals"] = arrivals
        model = write_json(tmp_path / "m.json", simplex_doc)
        # The arrival vectors are checked against m before any slot is drawn.
        for module in (randomize, oppsched.sim, queueing):
            monkeypatch.setattr(module, "slot_uniforms", refuse_call)
        code = main(["queue", "--model", model, "--horizon", "100000"])
        assert code == 2
        assert "field 'arrivals'" in capsys.readouterr().err
