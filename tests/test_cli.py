import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oppsched.sim
from oppsched import cli, queueing, randomize
from oppsched import region as region_mod
from oppsched.cli import main
from oppsched.errors import MAX_MAGNITUDE, InputError
from oppsched.model import model_from_dict
from oppsched.policy import policy_from_dict
from oppsched.region import membership


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def refuse_call(*args, **kwargs):
    raise AssertionError("called before the inputs were checked")


TWO_STATE_DOC = {
    "m": 1,
    "states": [
        {"label": "s1", "prob": 0.5, "options": [[0.0], [1.0]]},
        {"label": "s2", "prob": 0.5, "options": [[0.0], [2.0]]},
    ],
}

SIMPLEX_DOC = {
    "m": 2,
    "states": [
        {"label": "s", "prob": 1.0, "options": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}
    ],
}


@pytest.fixture
def two_state_doc():
    return copy.deepcopy(TWO_STATE_DOC)


@pytest.fixture
def simplex_doc():
    return copy.deepcopy(SIMPLEX_DOC)


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


# One valid document per kind that ``run_document`` and ``parse`` read.
# Policies are read against TWO_STATE_DOC.
DOCUMENTS = {
    "model": TWO_STATE_DOC,
    "resources": RESOURCE_DOC,
    "randomized": {"kind": "randomized", "weights": [[0.5, 0.5], [0.5, 0.5]]},
    "deterministic": {"kind": "deterministic", "psi": [0, 1]},
    "target": {"kind": "target", "x": [0.75], "tol": 1e-10},
    "rate": {**SIMPLEX_DOC, "arrivals": {"kind": "deterministic", "rate": [0.2, 0.2]}},
    "bernoulli": {
        **SIMPLEX_DOC,
        "arrivals": {"kind": "bernoulli", "prob": [0.1, 0.2], "batch": [1.0, 1.0]},
    },
    "factor": {
        "n": 4,
        "partitions": [{"blocks": [[0, 1], [2, 3]]}, {"sets": [[0, 2]]}],
        "rvs": [[1.0, 1.0, 2.0, 2.0]],
        "deps": [[0]],
    },
}

# One malformed document per case: the valid document it starts from, the
# path of the field it replaces, the value put there, and the field the error
# must name.  Each crashed with a traceback (exit 1) before document numbers
# went through one reader.
MALFORMED_DOCUMENTS = {
    "m-string": ("model", ("m",), "x", "'m'"),
    "ragged-options": ("model", ("states", 0, "options"), [[0], [1, 2]], "options"),
    "string-option": ("model", ("states", 0, "options"), [["x"]], "options"),
    "bound-string": ("model", ("bound",), "x", "'bound'"),
    "string-weight": ("randomized", ("weights", 0), ["a", 1], "weights"),
    "nested-weight": ("randomized", ("weights", 0), [[0.5], 0.5], "weights"),
    "target-x-string": ("target", ("x",), "abc", "'x'"),
    "target-tol-string": ("target", ("tol",), "x", "'tol'"),
    "rate-string": ("rate", ("arrivals", "rate"), ["x", 1], "'rate'"),
    "ragged-prob": ("bernoulli", ("arrivals", "prob"), [[0.1], 0.2], "'prob'"),
    "rv-string": ("factor", ("rvs", 0), ["a", 1], "rvs"),
    "blocks-number": ("factor", ("partitions", 0), {"blocks": 5}, "blocks"),
    "deps-string": ("factor", ("deps",), ["x"], "deps"),
    "sets-string": ("factor", ("partitions", 0), {"sets": [["x"]]}, "sets"),
    "rv-number": ("factor", ("rvs",), [5], "rvs"),
}

# Every numeric field of the valid documents, by the path that reaches it.
NUMERIC_FIELDS = {
    "model": [("m",), ("bound",), ("states", 0, "prob"), ("states", 1, "options"),
              ("states", 1, "options", 1), ("states", 1, "options", 1, 0)],
    "resources": [("power_vectors",), ("power_vectors", 1, 0), ("reward_table", "hi"),
                  ("reward_table", "hi", 1, 0), ("probs",)],
    "randomized": [("weights",), ("weights", 1), ("weights", 1, 0)],
    "deterministic": [("psi",), ("psi", 1)],
    "target": [("x",), ("x", 0), ("tol",)],
    "rate": [("arrivals", "rate"), ("arrivals", "rate", 0)],
    "bernoulli": [("arrivals", "prob"), ("arrivals", "prob", 1), ("arrivals", "batch"),
                  ("arrivals", "batch", 0)],
    "factor": [("n",), ("rvs",), ("rvs", 0), ("rvs", 0, 2), ("partitions", 0, "blocks"),
               ("partitions", 0, "blocks", 1), ("partitions", 0, "blocks", 1, 0),
               ("partitions", 1, "sets", 0, 1), ("deps",), ("deps", 0), ("deps", 0, 0)],
}

# Numbers at and past the reader's magnitude cap, and the smallest float,
# come up far more often than st.floats alone offers them.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([MAX_MAGNITUDE, -MAX_MAGNITUDE, 1e151, 1e308, 5e-324]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)


def replaced(doc, path, value):
    """A deep copy of doc with the field at path set to value."""
    doc = copy.deepcopy(doc)
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


def run_document(tmp_dir, kind, doc):
    """Exit code of the command that reads a document of this kind."""
    path = write_json(tmp_dir / f"{kind}.json", doc)
    out = str(tmp_dir / "out")
    if kind in ("model", "resources"):
        return main(["region", "--model", path, "--dirs", "4", "--out", out])
    if kind in ("randomized", "deterministic", "target"):
        model = write_json(tmp_dir / "model.json", TWO_STATE_DOC)
        return main(["simulate", "--model", model, "--policy", path, "--horizon", "100",
                     "--out", out, "--quiet"])
    if kind in ("rate", "bernoulli"):
        return main(["queue", "--model", path, "--horizon", "1000", "--out", out])
    return main(["factor", path, "--out", out])


def parse(tmp_dir, kind, doc):
    """Hand a document to the parser of its kind (to the whole command for a
    factor spec, which has no parser of its own), and use what it returns."""
    if kind in ("model", "resources"):
        model = model_from_dict(doc)
        region_mod.lmo(region_mod.rate_region(model), np.ones(model.m))
    elif kind in ("randomized", "deterministic", "target"):
        model = model_from_dict(TWO_STATE_DOC)
        policy_from_dict(doc, model).slot_mean(model)
    elif kind in ("rate", "bernoulli"):
        queueing.arrivals_from_dict(doc["arrivals"]).mean_rate()
    else:
        assert run_document(tmp_dir, kind, doc) in (0, 2)


class TestMalformedDocuments:
    @pytest.mark.parametrize("kind, path, value, field", MALFORMED_DOCUMENTS.values(),
                             ids=list(MALFORMED_DOCUMENTS))
    def test_exit_2_naming_the_field(self, tmp_path, capsys, kind, path, value, field):
        assert run_document(tmp_path, kind, replaced(DOCUMENTS[kind], path, value)) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("kind", list(DOCUMENTS))
    def test_valid_documents_pass(self, tmp_path, kind):
        assert run_document(tmp_path, kind, DOCUMENTS[kind]) == 0

    def test_integral_float_m_accepted(self):
        doc = {"m": 2.0, "states": [{"label": "s", "prob": 1.0, "options": [[1.0, 0.0]]}]}
        assert model_from_dict(doc).m == 2

    def test_vector_options_need_a_list_of_vectors(self):
        doc = {"m": 2, "states": [{"label": "s", "prob": 1.0, "options": [1.0, 0.0]}]}
        with pytest.raises(InputError, match=r"states\[0\].options"):
            model_from_dict(doc)

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from([(k, p) for k, ps in NUMERIC_FIELDS.items() for p in ps]),
           value=JSON_VALUES)
    def test_parsers_return_or_raise_input_error(self, tmp_path_factory, field, value):
        # Any JSON value in any numeric field: the parser returns an object
        # that works or refuses the document with InputError, never another
        # exception.
        kind, path = field
        try:
            parse(tmp_path_factory.mktemp("fuzz"), kind, replaced(DOCUMENTS[kind], path, value))
        except InputError:
            pass


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

    def test_target_outside_the_region_exits_2_with_its_certificate(
            self, tmp_path, capsys, two_state_doc):
        model = write_json(tmp_path / "m.json", two_state_doc)
        policy = write_json(tmp_path / "p.json", {"kind": "target", "x": [5.0]})
        code = main(["simulate", "--model", model, "--policy", policy,
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert "HalfSpace(a=[1.0], b=1.5)" in capsys.readouterr().err

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
