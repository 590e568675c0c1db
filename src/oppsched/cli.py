"""Command-line front end.

Subcommands: ``factor`` (measurability factor tables), ``region`` (rate
region geometry), ``simulate`` (seeded run plus convergence report), and
``queue`` (backlog-greedy stability versus dominance).  Exit codes: 0 all
checks passed, 1 a verification assertion failed, 2 malformed input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import geometry, queueing, region as region_mod, sigma
from .errors import InputError
from .model import load_json, model_from_dict, model_from_json
from .policy import policy_from_dict
from .sim import run, verify_avg_convergence, verify_mean_membership, write_trace_csv


def _config_hash(doc) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _unit_directions(m: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((count, m))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return dirs / norms


def cmd_factor(args) -> int:
    doc = load_json(args.spec, "factor spec")
    try:
        n = int(doc["n"])
    except (KeyError, TypeError, ValueError):
        raise InputError("missing or invalid field 'n'") from None
    space = sigma.FiniteSpace(n)
    parts = []
    for i, p in enumerate(doc.get("partitions", [])):
        if isinstance(p, dict) and "blocks" in p:
            parts.append(sigma.Partition.from_blocks(space, p["blocks"]))
        elif isinstance(p, dict) and "sets" in p:
            parts.append(sigma.generate(space, p["sets"]))
        elif isinstance(p, list):
            parts.append(sigma.Partition.from_blocks(space, p))
        else:
            raise InputError(f"partitions[{i}] must give 'blocks' or 'sets'")
    if not parts:
        raise InputError("field 'partitions' must be a nonempty list")
    rvs = [sigma.FiniteRV(space, vals) for vals in doc.get("rvs", [])]
    if not rvs:
        raise InputError("field 'rvs' must be a nonempty list")
    deps = doc.get("deps")
    if not isinstance(deps, list) or len(deps) != len(rvs):
        raise InputError("field 'deps' must list one index set per rv")
    tables = sigma.factorize(rvs, parts, deps)
    out_doc = {
        "n": n,
        "tables": [
            {
                "inputs": list(t.inputs),
                "cells": [
                    {"blocks": list(key), "value": val}
                    for key, val in sorted(t.table.items())
                ],
            }
            for t in tables
        ],
    }
    _emit(out_doc, args.out)
    return 0


def cmd_region(args) -> int:
    model = model_from_json(args.model)
    reg = region_mod.rate_region(model)
    doc: dict = {"m": model.m, "bound": model.bound}
    try:
        gens = region_mod.enumerate_generators(reg)
        doc["generators"] = gens.tolist() if gens.shape[0] <= 4096 else None
    except InputError:
        doc["generators"] = None
    dirs = _unit_directions(model.m, args.dirs, args.seed)
    doc["support_samples"] = [
        {"direction": d.tolist(), "value": region_mod.support(reg, d)} for d in dirs
    ]
    doc["halfspaces"] = [
        {"a": h.a.tolist(), "b": h.b}
        for h in geometry.outer_halfspaces(reg.body, dirs)
    ]
    _emit(doc, args.out)
    return 0


def cmd_simulate(args) -> int:
    region_mod.check_tol(args.tol)
    model_doc = load_json(args.model, "model")
    model = model_from_dict(model_doc)
    policy_doc = load_json(args.policy, "policy")
    reg = region_mod.rate_region(model)
    policy = policy_from_dict(policy_doc, model, reg)
    arrivals = None
    if "arrivals" in model_doc:
        arrivals = queueing.arrivals_from_dict(model_doc["arrivals"])
    trace = run(model, policy, args.horizon, args.seed, arrivals=arrivals)
    checkpoints = args.checkpoints if args.checkpoints else None
    report = verify_avg_convergence(trace, reg, checkpoints=checkpoints, tol=args.tol)
    out_prefix = args.out or "run"
    trace_path = f"{out_prefix}.trace.csv"
    report_path = f"{out_prefix}.report.json"
    write_trace_csv(trace, model, trace_path, report)
    doc = {
        "seed": args.seed,
        "horizon": args.horizon,
        "policy_kind": policy.kind(),
        "config_hash": _config_hash(
            {
                "model": model_doc,
                "policy": policy_doc,
                "horizon": args.horizon,
                "seed": args.seed,
                "tol": args.tol,
                "checkpoints": args.checkpoints,
            }
        ),
        "final_average": trace.final_average.tolist(),
        "checkpoints": report.checkpoints.tolist(),
        "checkpoint_dists": [float(d) for d in report.dists],
        "final_dist": report.final_dist,
        "final_bound": report.final_bound,
        "within_bound_after_burn_in": report.within_bound_after_burn_in,
        "insufficient_horizon": report.insufficient_horizon,
        "passed": report.passed,
        "trace_csv": trace_path,
    }
    passed = report.passed
    if args.replications > 1:
        mean_report = verify_mean_membership(
            model, policy, replications=args.replications, slot=1,
            tol=args.tol, seed=args.seed, region=reg, arrivals=arrivals,
        )
        doc["mean_membership"] = {
            "estimate": mean_report.estimate.tolist(),
            "dist": mean_report.dist,
            "margin": mean_report.margin,
            "passed": mean_report.passed,
        }
        passed = passed and mean_report.passed
    doc["passed"] = passed
    _emit(doc, report_path)
    if not args.quiet:
        print(json.dumps(doc, indent=2))
    return 0 if passed else 1


def cmd_queue(args) -> int:
    region_mod.check_tol(args.tol)
    model_doc = load_json(args.model, "model")
    model = model_from_dict(model_doc)
    if "arrivals" not in model_doc:
        raise InputError("queue runs need an 'arrivals' object in the model file")
    arrivals = queueing.arrivals_from_dict(model_doc["arrivals"])
    reg = region_mod.rate_region(model)
    report = queueing.run_maxweight(model, arrivals, args.horizon, args.seed)
    dominated = region_mod.dominance(reg, report.mean_rate, args.tol)
    doc = {
        "seed": args.seed,
        "horizon": args.horizon,
        "config_hash": _config_hash(
            {"model": model_doc, "horizon": args.horizon, "seed": args.seed}
        ),
        "mean_rate": report.mean_rate.tolist(),
        "dominance": bool(dominated),
        "stable": report.stable,
        "drift_slope": report.drift_slope,
        "time_avg_queue_norm": report.time_avg_queue_norm,
        "tail_avg_queue_norm": report.tail_avg_queue_norm,
        "agreement": bool(dominated == report.stable),
    }
    _emit(doc, args.out)
    return 0 if doc["agreement"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oppsched",
        description="Opportunistic scheduling: factor tables, rate regions, "
        "seeded runs, and queue stability checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="factor variables through shared block encodings")
    p_factor.add_argument("spec", help="JSON file with n, partitions, rvs, deps")
    p_factor.add_argument("--out", default=None)
    p_factor.set_defaults(func=cmd_factor)

    p_region = sub.add_parser("region", help="rate-region geometry of a model")
    p_region.add_argument("--model", required=True)
    p_region.add_argument("--dirs", type=int, default=64, help="support sample count")
    p_region.add_argument("--seed", type=int, default=0)
    p_region.add_argument("--out", default=None)
    p_region.set_defaults(func=cmd_region)

    p_sim = sub.add_parser("simulate", help="run a policy and verify convergence")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--policy", required=True)
    p_sim.add_argument("--horizon", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--checkpoints", type=int, nargs="*", default=None)
    p_sim.add_argument("--tol", type=float, default=1e-10)
    p_sim.add_argument("--out", default=None, help="output prefix for trace/report")
    p_sim.add_argument("--replications", type=int, default=1)
    p_sim.add_argument("--quiet", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_q = sub.add_parser("queue", help="backlog-greedy stability vs dominance")
    p_q.add_argument("--model", required=True)
    p_q.add_argument("--horizon", type=int, default=100_000)
    p_q.add_argument("--seed", type=int, default=0)
    p_q.add_argument("--tol", type=float, default=1e-10)
    p_q.add_argument("--out", default=None)
    p_q.set_defaults(func=cmd_queue)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
