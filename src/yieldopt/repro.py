"""Named end-to-end verification experiments.

Each experiment reproduces one headline property of the threshold policy
stack with pinned seeds and tolerances, and reports per-check pass/fail.
The ``yieldopt repro`` subcommand and the acceptance test suite both run
these; keeping the logic here makes a failed tolerance diagnosable from
the artifact alone.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import matching, oracle
from .dist import RewardDistribution
from .engine import run_instance
from .instances import Instance, complete_instance, gen_upper_triangular, supply_factor
from .policy import (
    ThresholdPolicy,
    beta_closed_form,
    binary_threshold,
    lb_discrete,
    make_policy,
    optimize_thresholds_grid,
    ub_continuous,
)
from .ratio import competitive_ratio, worst_case_distribution


@dataclass(frozen=True)
class Check:
    label: str
    measured: float
    expected: float
    tolerance: str
    ok: bool


@dataclass
class ReproResult:
    name: str
    runtime_s: float = 0.0
    checks: List[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> List[str]:
        out = []
        for c in self.checks:
            status = "pass" if c.ok else "FAIL"
            out.append(
                f"[{self.name}] {status} {c.label}: measured={c.measured:.6g} "
                f"expected={c.expected:.6g} ({c.tolerance})"
            )
        out.append(
            f"[{self.name}] {'PASS' if self.passed else 'FAIL'} "
            f"({len(self.checks)} checks, {self.runtime_s:.2f}s)"
        )
        return out


EXPERIMENTS: Dict[str, Callable[[], ReproResult]] = {}


def _experiment(name: str) -> Callable[[Callable[[ReproResult], None]], Callable[[], ReproResult]]:
    """Register the decorated checks as experiment ``name``, run and timed into a fresh result."""

    def register(body: Callable[[ReproResult], None]) -> Callable[[], ReproResult]:
        @functools.wraps(body)
        def run() -> ReproResult:
            result = ReproResult(name=name)
            start = time.perf_counter()
            body(result)
            result.runtime_s = time.perf_counter() - start
            return result

        EXPERIMENTS[name] = run
        return run

    return register


def _within(label: str, measured: float, expected: float, tol: float) -> Check:
    return Check(label, measured, expected, f"abs tol {tol:g}", abs(measured - expected) <= tol)


def _at_most(label: str, measured: float, bound: float) -> Check:
    return Check(label, measured, bound, "at most", measured <= bound)


def _in_band(label: str, measured: float, lo: float, hi: float) -> Check:
    return Check(label, measured, (lo + hi) / 2, f"band [{lo:g}, {hi:g}]", lo <= measured <= hi)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


@_experiment("binary-threshold-grid")
def run_binary_threshold_grid(res: ReproResult) -> None:
    """make_policy's threshold vs the binary closed form on an (f, q, r/c) grid."""
    worst = 0.0
    for f in (1.0, 1.5, 2.0, 4.0):
        for q in np.arange(0.1, 0.95, 0.1):
            for rc in np.arange(0.1, 0.95, 0.1):
                d = RewardDistribution.binary(float(q), float(rc))
                policy, _, _ = make_policy(d, 1.0, f)
                target = binary_threshold(f, float(q), float(rc), 1.0)
                worst = max(worst, abs(policy.thresholds[0] - target))
    res.checks.append(
        _at_most("max |make_policy - closed form| over 324 configs", worst, 1e-9)
    )


def _random_normalized_dist(rng: np.random.Generator, dmax: int = 5) -> Tuple[RewardDistribution, float]:
    """Random distribution with lowest reward 0, plus a penalty above its top."""
    d = int(rng.integers(1, dmax + 1))
    if d == 1:
        dist = RewardDistribution.point_mass(0.0)
        return dist, float(rng.uniform(0.5, 1.5))
    support = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 1.0, d - 1))))
    while len(np.unique(support)) < d or np.min(np.diff(support)) < 1e-3:
        support = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 1.0, d - 1))))
    cum = np.sort(rng.uniform(0.02, 0.98, d - 1))
    while len(np.unique(cum)) < d - 1 or (d > 2 and np.min(np.diff(cum)) < 1e-3):
        cum = np.sort(rng.uniform(0.02, 0.98, d - 1))
    dist = RewardDistribution(tuple(support), tuple(cum) + (1.0,))
    return dist, float(support[-1] + rng.uniform(0.05, 1.0))


def _random_thresholds(rng: np.random.Generator, d: int) -> Tuple[float, ...]:
    if d == 1:
        return (1.0,)
    return tuple(np.sort(rng.uniform(0.0, 1.0, d - 1))) + (1.0,)


@_experiment("lb-ub-identity")
def run_lb_ub_identity(res: ReproResult) -> None:
    """|lb_discrete(t=1e5) - ub_continuous| <= 1e-3 cN on 100 random pairs and their shifted twins."""
    rng = np.random.default_rng(20240501)
    shifts = np.random.default_rng(20240511)  # its own stream keeps the draws above as they were
    worst = worst_shift = 0.0
    for _ in range(100):
        dist, c = _random_normalized_dist(rng)
        f = float(rng.uniform(1.0, 4.0))
        thresholds = _random_thresholds(rng, dist.d)
        r = float(shifts.uniform(0.0, 2.0))  # every reward and the penalty raised by r
        twin = RewardDistribution(tuple(v + r for v in dist.support), dist.cum_mass)
        ubs = []
        for d, cost in ((dist, c), (twin, c + r)):
            lb = lb_discrete(ThresholdPolicy(thresholds, d), f, cost, 1.0, 10**5)
            ubs.append(ub_continuous(thresholds, d, f, cost, 1.0))
            worst = max(worst, abs(lb - ubs[-1]) / cost)
        worst_shift = max(worst_shift, abs(ubs[1] - ubs[0] - (f - 1.0) * r) / ((c + r) * f))
    res.checks.append(_at_most("max |lb - ub| / cN over 200 pairs", worst, 1e-3))
    res.checks.append(
        _at_most("max |ub(twin) - ub - (f-1) N r| / cfN over 100 twins", worst_shift, 2e-15)
    )


@_experiment("beta-recurrence")
def run_beta_recurrence(res: ReproResult) -> None:
    """Closed-form adversary profile vs the tight recurrence and LP residuals, shifted twins too."""
    rng = np.random.default_rng(20240502)
    shifts = np.random.default_rng(20240512)  # its own stream keeps the draws above as they were
    worst_gap = 0.0
    worst_res = 0.0
    for _ in range(50):
        dist, c = _random_normalized_dist(rng)
        f = float(rng.uniform(1.0, 4.0))
        t = int(rng.integers(10, 1001))
        thresholds = _random_thresholds(rng, dist.d)
        r = float(shifts.uniform(0.0, 2.0))  # every reward raised by r
        for d in (dist, RewardDistribution(tuple(v + r for v in dist.support), dist.cum_mass)):
            policy = ThresholdPolicy(thresholds, d)
            closed = beta_closed_form(policy, f, 1.0, t)
            tight = oracle.adversary_lp_tight(policy, f, 1.0, t)
            worst_gap = max(
                worst_gap,
                float(np.max(np.abs(closed - tight))) / (1.0 / t),
            )
            resid = oracle.lp_residuals(closed, policy, f, 1.0)
            worst_res = max(worst_res, resid["equality"], resid["beta1"], resid["negativity"])
    res.checks.append(_at_most("max |beta_tight - beta*| / (N/t)", worst_gap, 1e-9))
    res.checks.append(_at_most("max LP residual", worst_res, 1e-9))


# shared configuration for the adversarial binary simulation (criteria 4 and 5)
KVV_CONFIG = dict(m=50, n=2000, f=2.0, q=0.5, r=0.5, c=1.0, seeds=20, seed_base=20240504)


@_experiment("kvv-binary")
def run_kvv_binary(res: ReproResult) -> None:
    """Simulation on the adversarial instance vs ``competitive_ratio``'s guarantee and ratio."""
    cfg = KVV_CONFIG
    dist = RewardDistribution.binary(cfg["q"], cfg["r"])
    s1 = binary_threshold(cfg["f"], cfg["q"], cfg["r"], cfg["c"])
    policy = ThresholdPolicy((s1, 1.0), dist)
    normalized = []
    for i in range(cfg["seeds"]):
        inst = gen_upper_triangular(cfg["m"], cfg["n"], cfg["f"], seed=cfg["seed_base"] + i)
        rep = run_instance(inst, policy, cfg["c"], dist, seed=cfg["seed_base"] + 1000 + i)
        normalized.append(rep.reward / inst.total_demand)
    mean = float(np.mean(normalized))
    report = competitive_ratio(dist, cfg["c"], cfg["f"])
    expected = report.alg_bound
    res.checks.append(
        Check(
            "mean normalized reward vs formula",
            mean,
            expected,
            "rel tol 10%",
            abs(mean - expected) <= 0.10 * expected,
        )
    )
    res.checks.append(
        _within("simulated ALG / OPT vs ratio formula", mean / report.opt, report.ratio, 0.03)
    )


def _sandwich_corpus() -> List[Tuple[Instance, RewardDistribution, float]]:
    b55 = RewardDistribution.binary(0.5, 0.5)
    b37 = RewardDistribution.binary(0.3, 0.7)
    tri3 = RewardDistribution((0.0, 0.4, 0.9), (0.3, 0.7, 1.0))
    shifted = RewardDistribution((0.2, 0.6), (0.5, 1.0))
    corpus: List[Tuple[Instance, RewardDistribution, float]] = []

    def add(demands, groups, dist, c=1.0):
        corpus.append((Instance(tuple(demands), tuple(groups)), dist, c))

    add((1,), ((2, (0,)),), b55)
    add((1,), ((3, (0,)),), b37)
    add((1,), ((2, (0,)),), tri3)
    add((2,), ((4, (0,)),), b55)
    add((2,), ((4, (0,)),), tri3)
    add((1, 1), ((2, (0, 1)), (2, (1,))), b55)
    add((1, 1), ((2, (0, 1)), (2, (1,))), tri3)
    add((1, 1), ((4, (0, 1)),), b37)
    add((2, 1), ((3, (0, 1)), (3, (0,))), b55)
    add((2, 1), ((3, (0, 1)), (2, (1,))), tri3)
    add((1, 1, 1), ((3, (0, 1, 2)), (2, (1, 2)), (1, (2,))), b55)
    add((1, 1, 1), ((2, (0, 1, 2)), (2, (1, 2)), (2, (2,))), tri3)
    add((1, 1, 1), ((6, (0, 1, 2)),), b37)
    add((3,), ((6, (0,)),), b55)
    add((2, 2), ((4, (0, 1)), (2, (0,))), b55)
    add((2, 2), ((4, (0, 1)), (4, (1,))), b37)
    add((1, 2), ((2, (1,)), (4, (0, 1))), tri3)
    add((1, 1), ((1, (0,)), (2, (0, 1))), b55)  # undersupplied
    add((2,), ((2, (0,)),), tri3)  # f = 1
    add((1, 1), ((3, (0, 1)), (1, ())), b55)  # group with no contracts
    add((1,), ((2, (0,)),), shifted, 1.0)
    add((2, 1), ((4, (0, 1)), (2, (0,))), shifted, 1.2)
    add((1, 1, 2), ((4, (0, 1, 2)), (2, (2,))), b55)
    add((1, 1), ((2, (0,)), (2, (1,))), tri3)
    add((5, 5), ((6, (0, 1)), (6, (1,))), b55)  # total demand 10 and 12 queries
    add((4, 3, 2), ((5, (0, 1, 2)), (4, (1, 2)), (3, (2,))), b55)
    return corpus


@_experiment("sandwich")
def run_sandwich(res: ReproResult) -> None:
    """E[threshold ALG] <= optimal-online <= E[offline OPT] on tiny instances."""
    corpus = _sandwich_corpus()
    res.checks.append(
        Check("corpus size", len(corpus), 20, "at least", len(corpus) >= 20)
    )
    slack = 1e-9
    worst_alg_gap = -math.inf
    worst_onl_gap = -math.inf
    for inst, dist, c in corpus:
        f = max(1.0, supply_factor(inst))
        policy, _, _ = make_policy(dist, c, f, N=float(inst.total_demand))
        e_alg, e_off = oracle.exhaustive_values(inst, dist, c, policy)
        v_onl = oracle.online_opt_bruteforce(inst, dist, c)
        worst_alg_gap = max(worst_alg_gap, e_alg - v_onl)
        worst_onl_gap = max(worst_onl_gap, v_onl - e_off)
    res.checks.append(
        _at_most(f"max E[ALG] - online_opt over {len(corpus)} instances", worst_alg_gap, slack)
    )
    res.checks.append(
        _at_most(f"max online_opt - E[offline] over {len(corpus)} instances", worst_onl_gap, slack)
    )


@_experiment("matching-ratio")
def run_matching_ratio(res: ReproResult) -> None:
    """Perturbed-greedy empirical ratios vs f - f e^{-1/f} bands."""
    bands = {1: (0.62, 0.65), 2: (0.77, 0.80), 4: (0.87, 0.90)}
    for f, (lo, hi) in bands.items():
        mean, _ = matching.empirical_ratio(m=100, n=1, f=f, trials=500, seed=20240507 + f)
        res.checks.append(_in_band(f"mean ratio at f={f}", mean, lo, hi))


@_experiment("opt-concentration")
def run_opt_concentration(res: ReproResult) -> None:
    """Exact offline optimum on sampled instances vs the closed-form OPT."""
    b55 = RewardDistribution.binary(0.5, 0.5)
    tri3 = RewardDistribution((0.0, 0.4, 0.9), (0.3, 0.7, 1.0))
    cases = [
        ("binary f=2", b55, 4, 1000, 2.0),
        ("3-point f=2", tri3, 4, 1000, 2.0),
        ("binary f=1.5", b55, 3, 1000, 1.5),
        ("3-point f=1.5", tri3, 3, 1000, 1.5),
        ("binary f=2, 500x100", b55, 500, 100, 2.0),
        ("3-point f=2, 500x100", tri3, 500, 100, 2.0),
    ]
    for label, dist, m, n, f in cases:
        inst = gen_upper_triangular(m, n, f, seed=20240508)
        realized = oracle.sample_realized(inst, dist, seed=20240509)
        exact = oracle.offline_opt_exact(realized, 1.0)
        formula = oracle.offline_opt_formula(dist, f, float(inst.total_demand))
        res.checks.append(
            Check(
                f"{label}: exact vs formula",
                exact,
                formula,
                "rel tol 3%",
                abs(exact - formula) <= 0.03 * formula,
            )
        )


@_experiment("supply-recovery")
def run_supply_recovery(res: ReproResult) -> None:
    """supply_factor returns exactly the construction parameter on both families."""
    for f in (1.0, 1.5, 2.0, 3.0):
        tri = gen_upper_triangular(4, 4, f, seed=20240510)
        res.checks.append(_within(f"triangular f={f}", supply_factor(tri), f, 0.0))
        comp = complete_instance(3, 4, f)
        res.checks.append(_within(f"complete f={f}", supply_factor(comp), f, 0.0))
    big = gen_upper_triangular(500, 200, 2.0, seed=20240510)
    res.checks.append(_within("triangular 500x200 f=2.0", supply_factor(big), 2.0, 0.0))


def random_mean_distribution(
    rng: np.random.Generator, mu: float, c: float, dmax: int = 4
) -> RewardDistribution:
    """Random distribution with mean exactly mu and support inside [0, c]."""
    while True:
        d = int(rng.integers(2, dmax + 1))
        support = np.sort(rng.uniform(0.0, c, d))
        if np.min(np.diff(support)) < 1e-3:
            continue
        masses = rng.dirichlet(np.ones(d))
        if np.min(masses) < 1e-3:
            continue
        mean = float(masses @ support)
        scale = mu / mean
        support = support * scale
        if support[-1] > c or (d > 1 and np.min(np.diff(support)) < 1e-6):
            continue
        return RewardDistribution(tuple(support), tuple(np.cumsum(masses)[:-1]) + (1.0,))


@_experiment("worstcase-fixed-mean")
def run_worstcase_fixed_mean(res: ReproResult) -> None:
    """No random fixed-mean distribution beats the returned worst-case candidates."""
    rng = np.random.default_rng(20240511)
    for mu in (0.3, 0.6):
        for f in (2.0, 4.0):
            spec = worst_case_distribution(mu, 1.0, f)
            floor = spec.worst_value
            worst_violation = -math.inf
            for _ in range(100):
                dist = random_mean_distribution(rng, mu, 1.0)
                value = ub_continuous(optimize_thresholds_grid(dist, f, 1.0).thresholds, dist, f, 1.0)
                worst_violation = max(worst_violation, floor - value)
            res.checks.append(
                _at_most(f"max(candidate_min - random best) at mu={mu}, f={f}", worst_violation, 1e-6)
            )
