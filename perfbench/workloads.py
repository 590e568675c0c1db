"""The three benchmark workloads and the checks on their outputs.

Each workload is built once from the workload seed, then runs numbered
ops.  ``inputs(i)`` makes op i's inputs; ``op(inp)`` is the timed unit of
user work and returns the raw outputs, which ``check(inp, out)`` judges
afterwards, outside the timed interval.  ``corrupt(out)`` returns a copy of
one op's outputs with a single deliberate defect, so the benchmark can show
that ``check`` catches it.

Every call into the library goes through a module attribute
(``region.membership``, ``cli.main`` ...) so the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from oppsched import cli, geometry, model as model_mod, policy as policy_mod
from oppsched import queueing, randomize, region, sigma, sim

HORIZON = 100_000
DEFAULT_SEED = 0
TOL = 1e-10
HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned_sha256.json")


def op_seed(seed: int, i: int) -> int:
    """Fresh per-op seed, a pure function of (workload seed, op index)."""
    return int(np.random.SeedSequence([seed, i, 0x0B5]).generate_state(1)[0])


def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tag])


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _model_doc(labels, probs, options) -> dict:
    return {
        "m": int(np.asarray(options[0]).shape[1]),
        "states": [
            {"label": lab, "prob": float(p), "options": np.asarray(o).tolist()}
            for lab, p, o in zip(labels, probs, options)
        ],
    }


# --- simulate-target ----------------------------------------------------------


@dataclass
class SimOut:
    code: int
    report: dict
    csv: bytes


class SimulateTarget:
    """``oppsched simulate`` with a target policy on a 3-user downlink with
    two-level fading: 8 channel states, and in each the scheduler idles or
    serves one user at that user's current rate (4 options)."""

    name = "simulate-target"
    m = 3
    slots_per_op = HORIZON
    samples_per_op = 32  # slots re-derived from the scalar primitives

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.notes = Counter()
        rng = _rng(seed, 1)
        p_good = rng.uniform(0.3, 0.7, self.m)
        good = rng.uniform(0.6, 1.0, self.m)
        bad = good * rng.uniform(0.1, 0.5, self.m)
        labels, probs, options = [], [], []
        for channel in itertools.product((True, False), repeat=self.m):
            labels.append("".join("G" if c else "B" for c in channel))
            probs.append(math.prod(p if c else 1.0 - p for p, c in zip(p_good, channel)))
            options.append(np.vstack([np.zeros(self.m), np.diag(np.where(channel, good, bad))]))
        # The target is the mean of a random time-sharing rule, so it is
        # achievable; the CLI has to rediscover weights that reach it.
        weights = [rng.dirichlet(np.ones(len(o))) for o in options]
        target = sum(p * (w @ o) for p, w, o in zip(probs, weights, options))
        self.model_doc = _model_doc(labels, probs, options)
        self.policy_doc = {"kind": "target", "x": target.tolist()}
        self.model_path = os.path.join(workdir, "sim.model.json")
        self.policy_path = os.path.join(workdir, "sim.policy.json")
        _write_json(self.model_path, self.model_doc)
        _write_json(self.policy_path, self.policy_doc)
        # Reference objects for the checks, built by the same public API.
        self.model = model_mod.model_from_dict(self.model_doc)
        reg = region.rate_region(self.model)
        self.policy = policy_mod.policy_from_dict(self.policy_doc, self.model, reg)
        self.rows = {}
        for s in range(self.model.n_states):
            for j, x in enumerate(self.model.options[s]):
                key = ",".join([self.model.label(s), str(j)] + [repr(float(v)) for v in x])
                self.rows[key] = [float(v) for v in x]
        self.header = ",".join(
            ["k", "state_label", "option_index"]
            + [f"x_{c}" for c in range(self.m)]
            + [f"avg_{c}" for c in range(self.m)]
            + ["dist_checkpoint"]
        )
        self.pinned = []
        if seed == DEFAULT_SEED:
            with open(PINNED_PATH) as fh:
                self.pinned = json.load(fh)[self.name]

    def inputs(self, i: int) -> tuple[int, int]:
        return i, op_seed(self.seed, i)

    def op(self, inp) -> SimOut:
        i, seed = inp
        prefix = os.path.join(self.workdir, f"sim-{i}")
        code = cli.main([
            "simulate", "--model", self.model_path, "--policy", self.policy_path,
            "--horizon", str(HORIZON), "--seed", str(seed), "--out", prefix, "--quiet",
        ])
        return SimOut(code, *self._collect(prefix))

    @staticmethod
    def _collect(prefix: str) -> tuple[dict, bytes]:
        report, csv = {}, b""
        for path in (prefix + ".report.json", prefix + ".trace.csv"):
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
                os.remove(path)
                if path.endswith(".json"):
                    report = json.loads(data)
                else:
                    csv = data
        return report, csv

    def digest(self, out: SimOut) -> str:
        return hashlib.sha256(out.csv).hexdigest()

    def check(self, inp, out: SimOut) -> list[str]:
        i, seed = inp
        if out.code != 0:
            return [f"exit code {out.code}"]
        rep = out.report
        bad = []
        if rep.get("passed") is not True:
            bad.append("report not passed")
        if rep.get("seed") != seed or rep.get("horizon") != HORIZON:
            bad.append("report seed/horizon mismatch")
        if i < len(self.pinned):
            self.notes["pinned_digests_compared"] += 1
            if self.digest(out) != self.pinned[i]:
                bad.append(f"trace sha256 differs from the pinned digest of op {i}")
        return bad + self._check_rows(out, rep) + self._check_replay(seed, out)

    def _check_rows(self, out: SimOut, rep: dict) -> list[str]:
        """Every row: slot number, a real (state, option, x) triple, the exact
        running average, and checkpoint distances equal to the report's."""
        lines = out.csv.decode("ascii", errors="replace").split("\n")
        if len(lines) != HORIZON + 2 or lines[0] != self.header or lines[-1] != "":
            return ["trace CSV has the wrong header or row count"]
        cps = sim.checkpoint_slots(HORIZON).tolist()
        if rep.get("checkpoints") != cps:
            return ["report checkpoints differ from the dyadic schedule"]
        dists = {c: repr(float(d)) for c, d in zip(cps, rep["checkpoint_dists"])}
        m = self.m
        width = 3 + 2 * m + 1
        acc = [0.0] * m
        for k in range(1, HORIZON + 1):
            parts = lines[k].split(",")
            if len(parts) != width or parts[0] != str(k):
                return [f"trace row {k} is malformed"]
            x = self.rows.get(",".join(parts[1 : 3 + m]))
            if x is None:
                return [f"trace row {k} names no option of the model"]
            for c in range(m):
                acc[c] = acc[c] + (x[c] - acc[c]) / k
                if parts[3 + m + c] != repr(acc[c]):
                    return [f"trace row {k} has a wrong running average"]
            if parts[-1] != dists.get(k, ""):
                return [f"trace row {k} has a wrong checkpoint distance"]
        return []

    def _check_replay(self, seed: int, out: SimOut) -> list[str]:
        """Re-derive sampled slots with the scalar primitives."""
        lines = out.csv.split(b"\n")
        root = randomize.RandSource(seed)
        s_src, p_src = root.stream("states"), root.stream("policy")
        rng = _rng(seed, 2)
        ks = {1, HORIZON, *rng.integers(1, HORIZON + 1, self.samples_per_op - 2).tolist()}
        for k in sorted(ks):
            s = model_mod.sample_state(self.model, randomize.slot_uniform(s_src, k))
            j, _ = self.policy.select(self.model, (s,), randomize.slot_uniform(p_src, k))
            want = f"{k},{self.model.label(s)},{j},".encode()
            if not lines[k].startswith(want):
                return [f"slot {k} does not replay from the scalar primitives"]
        return []

    def corrupt(self, out: SimOut) -> SimOut:
        """Change one digit in the middle of the trace."""
        pos = len(out.csv) // 2
        while not out.csv[pos : pos + 1].isdigit():
            pos += 1
        digit = b"7" if out.csv[pos : pos + 1] != b"7" else b"3"
        return SimOut(out.code, out.report, out.csv[:pos] + digit + out.csv[pos + 1 :])


# --- queue-grid ----------------------------------------------------------------


@dataclass
class QueueOut:
    code: int
    doc: dict


def _simplex_doc() -> dict:
    return _model_doc(["s"], [1.0], [[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]])


def _onoff_doc(rng: np.random.Generator) -> dict:
    """Two-user ON/OFF downlink: serve one user per slot at its ON rate."""
    p_on = rng.uniform(0.4, 0.8, 2)
    rate = rng.uniform(0.8, 1.2, 2)
    labels, probs, options = [], [], []
    for on1 in (1, 0):
        for on2 in (1, 0):
            labels.append(f"{'ON' if on1 else 'OFF'}-{'ON' if on2 else 'OFF'}")
            probs.append((p_on[0] if on1 else 1 - p_on[0]) * (p_on[1] if on2 else 1 - p_on[1]))
            options.append([[rate[0] * on1, 0.0], [0.0, rate[1] * on2], [0.0, 0.0]])
    return _model_doc(labels, probs, options)


class QueueGrid:
    """``oppsched queue`` at arrival points on two models, away from the boundary."""

    name = "queue-grid"
    slots_per_op = HORIZON
    # Deterministic-arrival ops run faster; one of them per two Bernoulli ops
    # keeps the median and the tail inside the Bernoulli mode of latency.
    points_per_model = (3, 6)
    band = 0.05  # points closer than this to the stability boundary are dropped
    batch = 1.5  # Bernoulli batch size on the ON/OFF model

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.notes = Counter()
        rng = _rng(seed, 3)
        # Directions for the inside margin; 1-degree steps over the
        # nonnegative quadrant, where every relevant facet normal lies.
        angles = np.radians(np.arange(0, 91))
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        per_model = []
        models = ((_simplex_doc(), "deterministic"), (_onoff_doc(rng), "bernoulli"))
        for (base, kind), count in zip(models, self.points_per_model):
            reg = region.rate_region(model_mod.model_from_dict(base))
            top = np.array([region.support(reg, e) for e in np.eye(2)])
            found = []
            while len(found) < count:
                a = rng.uniform(0.0, 1.1 * top)
                margin = queueing.boundary_margin(reg, a, dirs)
                if abs(margin) < self.band:
                    continue
                doc = dict(base)
                if kind == "deterministic":
                    doc["arrivals"] = {"kind": kind, "rate": a.tolist()}
                else:
                    doc["arrivals"] = {
                        "kind": kind,
                        "prob": (a / self.batch).tolist(),
                        "batch": [self.batch, self.batch],
                    }
                found.append((doc, margin))
            per_model.append(found)
        # Interleave the models so any run prefix holds them in a 1:2 share.
        simplex, onoff = per_model
        self.points = [p for j, q in enumerate(simplex) for p in (q, *onoff[2 * j : 2 * j + 2])]
        self.paths = []
        for j, (doc, _) in enumerate(self.points):
            path = os.path.join(workdir, f"queue-{j}.model.json")
            _write_json(path, doc)
            self.paths.append(path)

    def inputs(self, i: int) -> tuple[int, int]:
        return i % len(self.points), op_seed(self.seed, i)

    def op(self, inp) -> QueueOut:
        j, seed = inp
        out_path = os.path.join(self.workdir, "queue.out.json")
        code = cli.main([
            "queue", "--model", self.paths[j], "--horizon", str(HORIZON),
            "--seed", str(seed), "--out", out_path,
        ])
        doc = {}
        if os.path.exists(out_path):
            with open(out_path) as fh:
                doc = json.load(fh)
            os.remove(out_path)
        return QueueOut(code, doc)

    def check(self, inp, out: QueueOut) -> list[str]:
        if out.code != 0:
            return [f"exit code {out.code}"]
        margin = self.points[inp[0]][1]
        stable, dominated = out.doc.get("stable"), out.doc.get("dominance")
        self.notes["stable_verdicts" if stable else "unstable_verdicts"] += 1
        if not (stable == dominated == (margin > 0)):
            return [f"stable={stable} dominance={dominated} at boundary margin {margin:.3f}"]
        return []

    def corrupt(self, out: QueueOut) -> QueueOut:
        """Flip the stability verdict."""
        return QueueOut(out.code, {**out.doc, "stable": not out.doc.get("stable")})


# --- verify-exact --------------------------------------------------------------


@dataclass
class ExactOut:
    model: object
    inside: list = field(default_factory=list)  # (x, MembershipResult, TargetDecomposition)
    outside: list = field(default_factory=list)  # (x, MembershipResult)
    policy: object = None
    mean_report: object = None
    cond_report: object = None
    factor: tuple = ()  # (rvs, tables)


def _small_model(rng: np.random.Generator, n: int, m: int):
    """A downlink rate table: in each state, serve one of the m users at its
    current rate (users with no channel offer no option) or stay idle."""
    probs = rng.random(n) + 0.5
    probs /= probs.sum()
    options = []
    for _ in range(n):
        rates = np.where(rng.random(m) < 0.25, 0.0, rng.uniform(0.2, 1.0, m))
        options.append(np.vstack([np.zeros(m)] + [r * e for r, e in zip(rates, np.eye(m)) if r > 0]))
    return model_mod.build_model([f"s{i}" for i in range(n)], probs, options)


def _partition_family(rng: np.random.Generator):
    """A random space with partitions and variables measurable by construction."""
    n = int(rng.integers(2, 13))
    space = sigma.FiniteSpace(n)
    parts = [
        sigma.generate(space, [np.flatnonzero(rng.random(n) < 0.5).tolist()
                               for _ in range(int(rng.integers(0, 3)))])
        for _ in range(int(rng.integers(1, 4)))
    ]
    rvs, deps = [], []
    for _ in range(int(rng.integers(1, 4))):
        dep = sorted(rng.choice(len(parts), int(rng.integers(1, len(parts) + 1)), replace=False).tolist())
        joined = sigma.join([parts[j] for j in dep])
        idx = joined.block_index()
        vals = rng.uniform(-3.0, 3.0, joined.num_blocks)
        rvs.append(sigma.FiniteRV(space, [float(vals[idx[w]]) for w in range(n)]))
        deps.append(dep)
    return parts, rvs, deps


# Every (states, dims) shape in turn, so each run holds the same shape mix.
SHAPES = [(n, m) for m in range(1, 5) for n in range(1, 7)]


class VerifyExact:
    """Region queries, verifiers and a factorization on one random small model."""

    name = "verify-exact"
    inside_queries = 32  # membership queries at achievable points, with decompose
    outside_queries = 192  # membership queries past the region, with a certificate
    replications = 1000
    slot = 3
    slots_per_op = replications * slot

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.notes = Counter()

    def inputs(self, i: int):
        rng = _rng(self.seed, 4, i)
        n, m = SHAPES[i % len(SHAPES)]
        mdl = _small_model(rng, n, m)
        centroid = sum(p * o.mean(axis=0) for p, o in zip(mdl.probs, mdl.options))
        inside = []
        for _ in range(self.inside_queries):
            w = [rng.dirichlet(np.ones(o.shape[0])) for o in mdl.options]
            x = sum(p * (ws @ o) for p, ws, o in zip(mdl.probs, w, mdl.options))
            inside.append(0.9 * x + 0.1 * centroid)
        # Outside points: rate vectors past the region.  Step off the support
        # point of a nonnegative direction a along a nonnegative d with
        # a·d > 0 but d not along a, so the projection takes a Frank-Wolfe
        # solve, not just the LMO's answer.  (Steps that make a rate negative
        # can stall Frank-Wolfe; see perfbench/README.md, "Known defect".)
        outside = []
        for _ in range(self.outside_queries):
            a, g = (v / np.linalg.norm(v) for v in np.abs(rng.standard_normal((2, mdl.m))))
            d = a + g  # a·d >= 1 and |d| <= 2
            outside.append((a, 0.1 * max(mdl.bound, 0.1) * d / np.linalg.norm(d)))
        return mdl, inside, outside, op_seed(self.seed, i), _partition_family(rng)

    def op(self, inp) -> ExactOut:
        mdl, inside, outside, seed, (parts, rvs, deps) = inp
        reg = region.rate_region(mdl)
        out = ExactOut(model=mdl)
        for x in inside:
            res = region.membership(reg, x, TOL)
            out.inside.append((x, res, region.decompose(reg, x, TOL) if res.inside else None))
        for a, step in outside:
            x = region.lmo(reg, -a) + step  # beyond the support point of a
            out.outside.append((x, region.membership(reg, x, TOL)))
        out.policy = policy_mod.target_policy(reg, inside[0], TOL)
        out.mean_report = sim.verify_mean_membership(
            mdl, out.policy, replications=self.replications, slot=self.slot,
            seed=seed, region=reg,
        )
        out.cond_report = sim.verify_conditional_membership(mdl, out.policy, self.slot, region=reg)
        out.factor = (rvs, sigma.factorize(rvs, parts, deps))
        return out

    def check(self, inp, out: ExactOut) -> list[str]:
        mdl = out.model
        bad = []
        gens = region.enumerate_generators(region.rate_region(mdl))
        root_tol = math.sqrt(TOL)
        for x, res, dec in out.inside:
            if not res.inside:
                bad.append("an achievable point was judged outside")
                continue
            ws = dec.weights
            if any(np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-9 for w in ws):
                bad.append("decomposition weights are not simplex vectors")
            mean = sum(p * (w @ o) for p, w, o in zip(mdl.probs, ws, mdl.options))
            if dec.residual > root_tol or np.linalg.norm(mean - x) > root_tol:
                bad.append("decomposition misses its target")
        for x, res in out.outside:
            if res.inside:
                bad.append("a point past the support value was judged inside")
            else:
                bad += self.check_certificate(x, res.certificate, gens)
        bad += self._check_mean(mdl, out.policy, out.mean_report)
        if not out.cond_report.passed or out.cond_report.max_dist > out.cond_report.dist_tol:
            bad.append("exact conditional membership failed for an achievable target")
        rvs, tables = out.factor
        for x, t in zip(rvs, tables):
            if any(t.evaluate_point(w) != x(w) for w in range(x.space.size)):
                bad.append("a factor table does not reproduce its variable")
        return bad

    @staticmethod
    def check_certificate(x, cert, gens) -> list[str]:
        a, b = cert.a, cert.b
        if not float(a @ x) > b + TOL:
            return ["certificate does not separate the point"]
        if float(np.max(gens @ a)) > b + 1e-9:
            return ["certificate half-space cuts off a generator"]
        return []

    def _check_mean(self, mdl, pol, rep) -> list[str]:
        """Judge the Monte Carlo estimate against the exact mean at 5 sigma."""
        self.notes["mean_verifier_3sigma_passed"] += bool(rep.passed)
        self.notes["mean_verifier_runs"] += 1
        mean = pol.slot_mean(mdl)
        second = sum(p * (w @ (o * o)) for p, w, o in zip(mdl.probs, pol.weights, mdl.options))
        sd = np.sqrt(np.maximum(second - mean * mean, 0.0) / rep.replications)
        if np.any(np.abs(rep.estimate - mean) > 5.0 * sd + 1e-9):
            return ["mean estimate is more than 5 sigma from the exact slot mean"]
        return []

    def corrupt(self, out: ExactOut) -> ExactOut:
        """Forge the last outside verdict's certificate: move its offset inward."""
        x, res = out.outside[-1]
        forged = geometry.HalfSpace(res.certificate.a, res.certificate.b - 0.5)
        bad_res = region.MembershipResult(False, res.dist, res.point, forged)
        return ExactOut(**{**out.__dict__, "outside": out.outside[:-1] + [(x, bad_res)]})


WORKLOADS = {w.name: w for w in (SimulateTarget, QueueGrid, VerifyExact)}
