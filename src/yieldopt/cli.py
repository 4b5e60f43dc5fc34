"""The ``yieldopt`` command.

Subcommands: thresholds, simulate, gen, oracle, ratio, worstcase, matching,
repro.  All randomness flows from an explicit ``--seed``; simulation
commands refuse to run without one.  Outputs are JSON (single result) or
RFC-4180-style CSV with LF line endings (per-row results); identical
configs and seeds give byte-identical outputs.

Exit codes: 0 success, 2 validation/usage errors, 1 internal errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import __version__, matching, oracle, repro
from .dist import RewardDistribution, validate
from .engine import run_instance
from .errors import DomainError, YieldOptError, _positive
from .instances import Instance, complete_instance, gen_upper_triangular, supply_factor
from .policy import ThresholdPolicy, make_policy, ub_continuous
from .ratio import competitive_ratio, worst_case_distribution

SCHEMA_VERSION = 1


def _load(cls, source: Optional[str], option: str):
    """``cls.from_json`` of the JSON given inline to ``option``, or of the file it names."""
    if source is None:
        raise DomainError(f"{option} is required")
    return cls.from_json(source if source.lstrip().startswith("{") else Path(source).read_text())


def _json_list(text: Optional[str], option: str) -> list:
    """The JSON list given to ``option``; anything else, a missing option included, is a usage error."""
    try:  # a missing option is None, a TypeError here
        value = json.loads(text)
    except (TypeError, ValueError):
        value = None
    if not isinstance(value, list):
        raise DomainError(f"{option} must be a JSON list, got {text!r}")
    return value


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _json_out(obj: dict, out: Optional[str]) -> None:
    obj = {"schema": SCHEMA_VERSION, "tool_version": __version__, **obj}
    _emit(json.dumps(obj, indent=2, sort_keys=True), out)


def _csv_out(header: List[str], rows: List[List[object]], out: Optional[str]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_thresholds(args) -> int:
    dist = _load(RewardDistribution, args.dist, "--dist")
    policy, _, _ = make_policy(dist, args.penalty, args.supply)
    _json_out(
        {
            "thresholds": list(policy.thresholds),
            "objective_per_unit_demand": ub_continuous(policy.thresholds, dist, args.supply, args.penalty),
            "reserves": list(policy.reserves),
            "config": {
                "penalty": args.penalty,
                "supply": args.supply,
                "dist": json.loads(dist.to_json()),
            },
        },
        args.out,
    )
    return 0


def _cmd_simulate(args) -> int:
    _positive(args.seeds, "--seeds")
    instance = _load(Instance, args.instance, "--instance")
    dist = _load(RewardDistribution, args.dist, "--dist")
    measured = supply_factor(instance)
    undersupplied = measured < 1.0
    if undersupplied:
        message = f"supply factor {measured:g} < 1; serving with f = 1"
        print(json.dumps({"warning": "undersupplied", "message": message}), file=sys.stderr)
    f = max(1.0, measured)
    N = float(instance.total_demand)
    policy, _, _ = make_policy(dist, args.penalty, f, N=N)
    header = ["seed", "reward", "exchange_revenue", "penalty_paid", "fill_rate"]
    rows = []
    for i in range(args.seeds):
        seed = args.seed + i
        rep = run_instance(instance, policy, args.penalty, dist, seed=seed)
        rows.append(
            [seed, rep.reward, rep.exchange_revenue, rep.penalty_paid, rep.fill_rate]
        )
    _csv_out(header, rows, args.out)
    if args.report is not None:
        rewards = np.array([row[1] for row in rows], dtype=float)
        guarantee = competitive_ratio(dist, args.penalty, f)
        _json_out(
            {
                "config": {
                    "instance": json.loads(instance.to_json()),
                    "dist": json.loads(dist.to_json()),
                    "penalty": args.penalty,
                    "seeds": args.seeds,
                    "seed": args.seed,
                    "supply_factor_measured": measured,
                    "undersupplied": undersupplied,
                },
                "per_seed": [dict(zip(header, row)) for row in rows],
                "aggregate": {
                    "mean_reward": float(rewards.mean()),
                    "stderr_reward": float(rewards.std(ddof=1) / len(rewards) ** 0.5)
                    if len(rewards) > 1
                    else 0.0,
                },
                "references": {
                    "thresholds": list(policy.thresholds),
                    "expected_reward": guarantee.alg_bound * N,
                    "offline_opt_formula": guarantee.opt * N,
                    "expected_ratio": guarantee.ratio,
                },
            },
            args.report,
        )
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "triangular":
        if args.seed is None:
            raise YieldOptError("--seed is required for triangular generation")
        inst = gen_upper_triangular(args.m, args.n, args.supply, args.seed)
        text = json.dumps({**json.loads(inst.to_json()), "seed": args.seed})  # the file records the seed it drew from
    else:
        text = complete_instance(args.m, args.n, args.supply).to_json()
    _emit(text, args.out)
    return 0


def _cmd_oracle(args) -> int:
    dist = _load(RewardDistribution, args.dist, "--dist")  # every mode takes one
    if args.mode == "opt-formula":
        value = oracle.offline_opt_formula(dist, args.supply, args.demand)
        _json_out({"mode": args.mode, "value": value}, args.out)
    elif args.mode == "opt-exact":
        instance = _load(Instance, args.instance, "--instance")
        if args.seed is None:
            raise YieldOptError("--seed is required for opt-exact sampling")
        realized = oracle.sample_realized(instance, dist, args.seed)
        value = oracle.offline_opt_exact(realized, args.penalty)
        _json_out({"mode": args.mode, "value": value, "seed": args.seed}, args.out)
    elif args.mode == "online-exact":
        instance = _load(Instance, args.instance, "--instance")
        value = oracle.online_opt_bruteforce(instance, dist, args.penalty)
        _json_out({"mode": args.mode, "value": value}, args.out)
    else:  # beta
        policy = ThresholdPolicy(_json_list(args.thresholds, "--thresholds"), validate(dist, args.penalty))
        beta = oracle.adversary_lp_tight(policy, args.supply, args.demand, args.t)
        _json_out(
            {
                "mode": args.mode,
                "t": args.t,
                "beta": beta.tolist(),
                "residuals": oracle.lp_residuals(beta, policy, args.supply, args.demand),
            },
            args.out,
        )
    return 0


def _cmd_ratio(args) -> int:
    dist = _load(RewardDistribution, args.dist, "--dist")
    report = competitive_ratio(dist, args.penalty, args.supply)
    _json_out(dataclasses.asdict(report), args.out)
    return 0


def _cmd_worstcase(args) -> int:
    spec = worst_case_distribution(args.mean, args.penalty, args.supply)
    _json_out(
        {
            "mean": spec.mean,
            "penalty": spec.penalty,
            "supply": spec.supply,
            "candidates": [
                {
                    "label": label,
                    **json.loads(d.to_json()),
                    "best_achievable": report.alg_bound,
                    "opt": report.opt,
                    "ratio": report.ratio,
                }
                for label, d, report in spec.candidates
            ],
            "worst": spec.worst[0],
            "worst_value": spec.worst_value,
        },
        args.out,
    )
    return 0


def _cmd_matching(args) -> int:
    weights = None if args.weights is None else _json_list(args.weights, "--weights")
    trials = matching.trial_weights(args.m, args.n, args.supply, args.trials, args.seed, weights)
    opt = float(np.sum(weights) if weights is not None else args.m) * args.n
    rows = [[trial, weight, weight / opt] for trial, weight in enumerate(trials.tolist())]
    _csv_out(["trial", "weight", "ratio"], rows, args.out)
    return 0


def _cmd_repro(args) -> int:
    fn = repro.EXPERIMENTS.get(args.name)
    if fn is None:
        raise YieldOptError(
            f"unknown experiment {args.name!r}; choose from "
            f"{', '.join(sorted(repro.EXPERIMENTS))}"
        )
    result = fn()
    for line in result.lines():
        print(line)
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yieldopt",
        description="Threshold-based online allocation across contracts and an ad exchange.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", help="compute optimal thresholds for a distribution")
    p.add_argument("--dist", required=True, help="distribution JSON file or inline JSON")
    p.add_argument("--penalty", type=float, required=True)
    p.add_argument("--supply", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_thresholds)

    p = sub.add_parser("simulate", help="run the serving engine over seeded reward draws")
    p.add_argument("--instance", required=True, help="instance JSON file or inline JSON")
    p.add_argument("--dist", required=True)
    p.add_argument("--penalty", type=float, required=True)
    p.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds")
    p.add_argument("--seed", type=int, required=True, help="first seed")
    p.add_argument("--out")
    p.add_argument("--report", help="also write an aggregate JSON report here")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--kind", choices=["triangular", "complete"], default="triangular")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--supply", type=float, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("oracle", help="ground-truth computations")
    p.add_argument("--mode", choices=["opt-formula", "opt-exact", "online-exact", "beta"], required=True,
                   help=f"online-exact exits 2 past {oracle._MAX_ONLINE_WORK:,} counted units of work")
    p.add_argument("--dist")
    p.add_argument("--instance")
    p.add_argument("--penalty", type=float, default=1.0)
    p.add_argument("--supply", type=float, default=1.0)
    p.add_argument("--demand", type=float, default=1.0, help="total demand N for formula modes")
    p.add_argument("--seed", type=int)
    p.add_argument("--t", type=int, default=100)
    p.add_argument("--thresholds", help="JSON list of thresholds for --mode beta")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("ratio", help="competitive ratio of a bid distribution")
    p.add_argument("--dist", required=True)
    p.add_argument("--supply", type=float, required=True)
    p.add_argument("--penalty", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_ratio)

    p = sub.add_parser("worstcase", help="worst fixed-mean distribution candidates")
    p.add_argument("--mean", type=float, required=True)
    p.add_argument("--penalty", type=float, required=True)
    p.add_argument("--supply", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_worstcase)

    p = sub.add_parser("matching", help="surplus-supply matching trials")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--supply", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--weights", help="JSON list of per-advertiser weights")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_matching)

    p = sub.add_parser("repro", help="run a named verification experiment")
    p.add_argument("name")
    p.set_defaults(fn=_cmd_repro)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.fn(args)
    except (YieldOptError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failures
        print(json.dumps({"error": "internal", "message": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
