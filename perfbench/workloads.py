"""The three perfbench workloads, their inputs and their output checks.

Every input is built from the workload seed in set-up; the timed code only
receives generated inputs.  Inputs whose checks need a value recorded from
the original code (a DP objective, an exact offline optimum, a matching
ratio) are drawn from fixed pools, so that ``references.json`` can hold the
recorded value of every pool item; the seed chooses which items a run uses.
See README.md for why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

C = 1.0  # contract penalty per undelivered impression, in every workload

# triangular-binary: the kvv-binary config of the repro suite, two shapes of 200k queries
TRI_F, TRI_Q, TRI_R = 2.0, 0.5, 0.5
TRI_SHAPES = ((50, 2000), (500, 200))
TRI_PER_SHAPE = 4
TRI_STREAM = {50: 4000, 500: 800}  # serve_query replays this many leading queries
KVV_BAND = 0.10  # relative band of the kvv-binary repro check

# general-unequal: pool of random instances, GEN_POOL_PER_D items for each support size d
GEN_DS = (3, 4, 5, 6)
GEN_POOL_PER_D = 8
GEN_PICKS = {3: 1, 4: 1, 5: 1, 6: 1}  # items per cycle, by d
GEN_M = 40

# oracle-verify
OPT_SHAPES = ((4, 1000), (10, 1000), (20, 500))  # 8k / 20k / 20k queries at f = 2
OPT_PICKS = {(0, True): 1, (0, False): 1, (1, True): 1, (1, False): 1, (2, True): 1, (2, False): 4}
OPT_POOL = 16
OPT_STREAM = 4000
CHAIN_LENGTHS = (250, 500, 750, 1000, 1500, 2000)
SF_TRI_FS = (1.5, 2.0, 3.0)  # m = 50, n = 20
SF_TRI_PER_F = 5
SF_GEN_PICKS = 2
MATCH_FS = (1, 2, 4)
MATCH_M, MATCH_TRIALS = 100, 100
MATCH_POOL = 16

# salts that keep the random streams of different input kinds apart
_GEN, _OPT, _MATCH, _TRI, _PICK, _REWARD, _CHAIN = range(7)

REL_TOL = 1e-9  # objectives, optima and supply factors
REV_TOL = 1e-12  # serve_query vs run_rewards revenue


def binary_dist(yo):
    return yo.RewardDistribution.binary(TRI_Q, TRI_R)


def three_point_dist(yo):
    return yo.RewardDistribution((0.0, 0.4, 0.9), (0.3, 0.7, 1.0))


# ---------------------------------------------------------------------------
# pool items (shared with record.py)
# ---------------------------------------------------------------------------


def general_item(yo, k: int):
    """Pool item k: a random unequal-demand instance and a distribution with d = 3 + k % 4.

    Each advertiser a > 0 owns one group of ceil(u * n_a) queries,
    u ~ U(1.5, 2.5), eligible to it and 0 to 7 random others (each size
    five times per instance, in random order), so there is about twice as
    much supply as demand.  Advertiser 0 is the
    bottleneck: its own group of ceil(1.5 * n_0) queries is the only one
    eligible to it, so by Hall the supply factor is exactly
    ceil(1.5 * n_0) / n_0 (>= 1), below total supply / demand, and
    supply_factor always bisects.  No supply factor is declared.  The
    support is random and every other item per d has a non-zero lowest
    reward; the masses are uniform, because the DP's work depends only on
    d, f and the masses, and fixing them keeps the work of one seed's
    items equal to another's.
    """
    d = GEN_DS[k % len(GEN_DS)]
    rng = np.random.default_rng([_GEN, k])
    demands = [int(n) for n in rng.integers(100, 200, size=GEN_M)]
    groups = [(math.ceil(1.5 * demands[0]), (0,))]
    extras = rng.permutation(np.arange(GEN_M - 1) % 8)
    for a in range(1, GEN_M):
        extra = rng.choice(np.arange(1, GEN_M), size=int(extras[a - 1]), replace=False)
        count = math.ceil(rng.uniform(1.5, 2.5) * demands[a])
        groups.append((count, tuple(sorted({a, *map(int, extra)}))))
    order = rng.permutation(len(groups))
    instance = yo.Instance(tuple(demands), tuple(groups[i] for i in order))
    support = np.sort(rng.choice(np.arange(1, 96), size=d, replace=False)) / 100.0
    if (k // len(GEN_DS)) % 2 == 0:
        support[0] = 0.0
    dist = yo.RewardDistribution.from_masses(tuple(support), (1.0 / d,) * d)
    return instance, dist


def general_pool_size() -> int:
    return GEN_POOL_PER_D * len(GEN_DS)


def opt_item(yo, api, shape: int, binary: bool, k: int):
    """Pool item k of a realized upper-triangular instance for offline_opt_exact."""
    m, n = OPT_SHAPES[shape]
    rng = np.random.default_rng([_OPT, shape, int(binary), k])
    inst_seed, reward_seed = rng.integers(2**31, size=2)
    instance = api.gen_upper_triangular(m, n, 2.0, int(inst_seed))
    dist = binary_dist(yo) if binary else three_point_dist(yo)
    rewards = api.sample_array(dist, np.random.default_rng(int(reward_seed)), instance.total_queries)
    return yo.RealizedInstance(instance, rewards), dist


def match_seed(f: int, k: int) -> int:
    return int(np.random.default_rng([_MATCH, f, k]).integers(2**31))


# ---------------------------------------------------------------------------
# workload structure
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One closed-loop operation: ``run`` calls the library, ``check`` its output.

    ``check`` returns (problems, record); the record holds the exact
    quantities of the output, compared across repeats of the op and summed
    into the run's exact counts.
    """

    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any], Tuple[List[str], Dict[str, float]]]


@dataclass
class Stream:
    """Queries replayed one by one through serve_query, with run_rewards' result."""

    label: str
    demands: Tuple[int, ...]
    items: List[Tuple[Tuple[int, ...], float]]
    policy: Any
    delivered: Tuple[int, ...]
    revenue: float


@dataclass
class Workload:
    ops: List[Op]
    # reference phase: untimed work the streams and checks need
    prepare: Callable[[], None] = lambda: None
    # the cycle's streams, given the outputs of the cycle's ops
    streams: Callable[[List[Any]], List[Stream]] = lambda outputs: []
    # checks over the whole run, given the first record of every op
    final_checks: Callable[[List[Optional[Dict[str, float]]]], List[str]] = lambda records: []


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _report_checks(yo, instance, report, penalty: float) -> Tuple[List[str], Dict[str, float]]:
    problems = []
    if any(k < 0 or k > n for k, n in zip(report.delivered, instance.demands)):
        problems.append("delivered outside [0, demand]")
    undelivered = sum(n - k for n, k in zip(instance.demands, report.delivered))
    expected = report.exchange_revenue - penalty * undelivered + report.offset
    if not close(report.reward, expected, REL_TOL):
        problems.append(f"reward {report.reward!r} != revenue - c*undelivered + offset {expected!r}")
    deliveries = sum(report.delivered)
    record = {
        "reward": report.reward,
        "deliveries": deliveries,
        "exchange_sales": instance.total_queries - deliveries,
    }
    return problems, record


def _policy_checks(yo, dist, policy, objective, offset, f, N, reference) -> List[str]:
    """objective == ub_continuous(thresholds) and >= the recorded original objective."""
    shifted, c_shifted, off = yo.normalize(dist, C, f, N)
    problems = []
    exact = yo.ub_continuous(policy.thresholds, shifted, f, c_shifted, N)
    if not close(objective, exact, REL_TOL):
        problems.append(f"objective {objective!r} != ub_continuous {exact!r}")
    if off != offset:
        problems.append(f"offset {offset!r} != {off!r}")
    if objective < reference - REL_TOL * max(1.0, abs(reference)):
        problems.append(f"objective {objective!r} below recorded {reference!r}")
    return problems


def _stream(yo, label, instance, rewards, policy, take=None) -> Stream:
    """Stream over the first ``take`` queries, with run_rewards' result as reference."""
    if take is not None and take < instance.total_queries:
        groups, left = [], take
        for count, elig in instance.groups:
            groups.append((min(count, left), elig))
            left -= groups[-1][0]
            if left == 0:
                break
        instance = yo.Instance(instance.demands, tuple(groups))
        rewards = rewards[:take]
    ref = yo.run_rewards(instance, policy, C, rewards)
    items = list(zip(instance.expand(), (float(r) for r in rewards)))
    return Stream(label, instance.demands, items, policy, ref.delivered, ref.exchange_revenue)


def _derived(seed: int, kind: int, size: int) -> List[int]:
    return [int(s) for s in np.random.default_rng([seed, kind]).integers(2**31, size=size)]


def _picks(seed: int, kind: int, pool: int, size: int) -> List[int]:
    rng = np.random.default_rng([seed, _PICK, kind])
    return [int(i) for i in rng.choice(pool, size, replace=False)]


# ---------------------------------------------------------------------------
# triangular-binary
# ---------------------------------------------------------------------------


def triangular_binary(yo, api, seed: int, refs: Dict, tiny: bool = False) -> Workload:
    """make_policy (closed form) + run_rewards on the Hall-tight triangular instance."""
    dist = binary_dist(yo)
    shapes = ((50, 200),) if tiny else TRI_SHAPES
    per_shape = 1 if tiny else TRI_PER_SHAPE
    seeds = _derived(seed, _TRI, 2 * len(shapes) * per_shape)
    inputs = []
    for j in range(per_shape):
        for s, (m, n) in enumerate(shapes):
            inst_seed, reward_seed = seeds[2 * (j * len(shapes) + s) : 2 * (j * len(shapes) + s) + 2]
            instance = api.gen_upper_triangular(m, n, TRI_F, inst_seed)
            rewards = api.sample_array(dist, np.random.default_rng(reward_seed), instance.total_queries)
            inputs.append((instance, rewards))
    objective_per_demand = refs["binary_objective_per_demand"]

    def make_op(instance, rewards):
        N = float(instance.total_demand)

        def run(api):
            policy, objective, offset = api.make_policy(dist, C, TRI_F, N)
            return policy, objective, offset, api.run_rewards(instance, policy, C, rewards, offset)

        def check(out):
            policy, objective, offset, report = out
            reference = objective_per_demand * N
            problems = _policy_checks(yo, dist, policy, objective, offset, TRI_F, N, reference)
            more, record = _report_checks(yo, instance, report, C)
            record["objective"] = objective
            return problems + more, record

        return Op(f"triangular m={instance.m}", run, check)

    fixed: List[Stream] = []

    def prepare():
        policy, _, _ = yo.make_policy(dist, C, TRI_F)
        for i, (instance, rewards) in enumerate(inputs):
            label = f"#{i} m={instance.m}"
            fixed.append(_stream(yo, label, instance, rewards, policy, TRI_STREAM[instance.m]))

    def final_checks(records):
        bound, _ = yo.binary_alg_bound(TRI_F, TRI_Q, TRI_R, C)
        per_demand = [r["reward"] / inst.total_demand for r, (inst, _) in zip(records, inputs) if r]
        mean = float(np.mean(per_demand))
        if abs(mean - bound) > KVV_BAND * bound:
            return [f"mean reward per unit demand {mean!r} outside {KVV_BAND:.0%} of {bound!r}"]
        return []

    return Workload(
        ops=[make_op(*x) for x in inputs],
        prepare=prepare,
        streams=lambda outputs: fixed,
        final_checks=final_checks,
    )


# ---------------------------------------------------------------------------
# general-unequal
# ---------------------------------------------------------------------------


def general_unequal(yo, api, seed: int, refs: Dict, tiny: bool = False) -> Workload:
    """supply_factor + make_policy (default grid) + run_rewards on random unequal instances."""
    picks = {3: 1} if tiny else GEN_PICKS
    items = []
    for di, d in enumerate(GEN_DS):
        for p in _picks(seed, 10 + di, GEN_POOL_PER_D, picks.get(d, 0)):
            items.append(p * len(GEN_DS) + di)
    reward_seeds = _derived(seed, _REWARD, len(items))
    inputs = []
    for k, reward_seed in zip(items, reward_seeds):
        instance, dist = general_item(yo, k)
        rewards = api.sample_array(dist, np.random.default_rng(reward_seed), instance.total_queries)
        inputs.append((k, instance, dist, rewards))

    def make_op(k, instance, dist, rewards):
        N = float(instance.total_demand)
        ref = refs["general"][k]

        def run(api):
            f = api.supply_factor(instance)
            policy, objective, offset = api.make_policy(dist, C, f, N)
            return f, policy, objective, offset, api.run_rewards(instance, policy, C, rewards, offset)

        def check(out):
            f, policy, objective, offset, report = out
            problems = []
            if f < 1.0 or not close(f, ref["supply_factor"], 1e-6):
                problems.append(f"supply factor {f!r}, recorded {ref['supply_factor']!r}")
            problems += _policy_checks(yo, dist, policy, objective, offset, f, N, ref["objective"])
            more, record = _report_checks(yo, instance, report, C)
            record.update(objective=objective, supply_factor=f)
            return problems + more, record

        return Op(f"general d={dist.d}", run, check)

    queries: List[list] = []

    def prepare():
        for _, instance, _, rewards in inputs:
            queries.append(list(zip(instance.expand(), (float(r) for r in rewards))))

    def streams(outputs):
        # each stream replays a whole instance with the policy its op just computed
        out = []
        for (k, instance, _, _), q, res in zip(inputs, queries, outputs):
            if res is not None:
                _, policy, _, _, report = res
                delivered, revenue = report.delivered, report.exchange_revenue
                out.append(Stream(f"item {k}", instance.demands, q, policy, delivered, revenue))
        return out

    return Workload(ops=[make_op(*x) for x in inputs], prepare=prepare, streams=streams)


# ---------------------------------------------------------------------------
# oracle-verify
# ---------------------------------------------------------------------------


def chain_instance(yo, length: int, rng: np.random.Generator):
    """Chain whose last query needs one augmenting path through ``length`` advertisers.

    Group i (one query, reward < 0.5) is eligible to {i, i+1}; one query
    (reward in [0.5, 0.7)) is eligible to {length}; the last query
    (reward in [0.7, 1)) is eligible to {0} only.  Greedy in decreasing
    gain order fills every advertiser before the last query, whose path
    0 -> 1 -> ... -> length fails, so the optimum is exactly its reward.
    """
    groups = [(1, (i, i + 1)) for i in range(length)] + [(1, (length,)), (1, (0,))]
    rewards = np.concatenate(
        (rng.uniform(0.0, 0.5, length), rng.uniform(0.5, 0.7, 1), rng.uniform(0.7, 1.0, 1))
    )
    instance = yo.Instance((1,) * (length + 1), tuple(groups))
    return yo.RealizedInstance(instance, rewards), float(rewards[-1])


def oracle_verify(yo, api, seed: int, refs: Dict, tiny: bool = False) -> Workload:
    """Exact offline OPT, supply factor and matching trials."""
    ops: List[Op] = []
    realized: List[Tuple[Any, Any]] = []  # (RealizedInstance, distribution) replayed by the stream

    def value_op(name, call, expected, key, tol=REL_TOL):
        def check(value):
            ok = close(value, expected, tol)
            problems = [] if ok else [f"{key} {value!r}, expected {expected!r}"]
            return problems, {key: value}

        return Op(name, call, check)

    for (s, binary), count in OPT_PICKS.items():
        if tiny and s > 0:
            continue
        for k in _picks(seed, 20 + 2 * s + binary, OPT_POOL, 1 if tiny else count):
            rz, dist = opt_item(yo, api, s, binary, k)
            realized.append((rz, dist))
            ref = refs["triangular_opt"][2 * s + int(not binary)][k]
            call = lambda api, rz=rz: api.offline_opt_exact(rz, C)
            ops.append(value_op(f"opt q={rz.instance.total_queries}", call, ref, "opt_value"))

    chain_rng = np.random.default_rng([seed, _CHAIN])
    for length in ((250, 1000) if tiny else CHAIN_LENGTHS):
        rz, optimum = chain_instance(yo, length, chain_rng)
        realized.append((rz, None))
        call = lambda api, rz=rz: api.offline_opt_exact(rz, C)
        ops.append(value_op(f"chain L={length}", call, optimum, "opt_value"))

    sf_fs = SF_TRI_FS[:1] if tiny else [f for f in SF_TRI_FS for _ in range(SF_TRI_PER_F)]
    for f, s in zip(sf_fs, _derived(seed, _TRI, len(sf_fs))):
        instance = api.gen_upper_triangular(50, 20, f, s)
        call = lambda api, i=instance: api.supply_factor(i)
        ops.append(value_op(f"supply_factor f={f}", call, f, "supply_factor", 1e-6))
    for k in _picks(seed, 30, general_pool_size(), 1 if tiny else SF_GEN_PICKS):
        instance, _ = general_item(yo, k)
        ref = refs["general"][k]["supply_factor"]
        call = lambda api, i=instance: api.supply_factor(i)
        ops.append(value_op("supply_factor general", call, ref, "supply_factor", 1e-6))

    for fi, f in enumerate(MATCH_FS):
        k = _picks(seed, 40 + fi, MATCH_POOL, 1)[0]
        ref_mean, ref_err = refs["matching"][fi][k]
        call = lambda api, f=f, s=match_seed(f, k): api.empirical_ratio(MATCH_M, 1, f, MATCH_TRIALS, s)

        def check(out, ref_mean=ref_mean, ref_err=ref_err):
            mean, err = out
            ok = close(mean, ref_mean, REV_TOL) and close(err, ref_err, REV_TOL)
            return ([] if ok else [f"ratio {out!r}, recorded {(ref_mean, ref_err)!r}"]), {"ratio": mean}

        ops.append(Op(f"empirical_ratio f={f}", call, check))

    fixed: List[Stream] = []

    def prepare():
        binary = yo.make_policy(binary_dist(yo), C, 2.0)[0]
        three_point = yo.make_policy(three_point_dist(yo), C, 2.0)[0]
        for i, (rz, dist) in enumerate(realized):
            # chains (no distribution) are replayed whole under the binary policy
            policy = three_point if dist is not None and dist.d == 3 else binary
            take = None if dist is None else OPT_STREAM
            label = f"#{i} q={rz.instance.total_queries}"
            fixed.append(_stream(yo, label, rz.instance, np.asarray(rz.rewards), policy, take))

    return Workload(ops=ops, prepare=prepare, streams=lambda outputs: fixed)


WORKLOADS = {
    "triangular-binary": triangular_binary,
    "general-unequal": general_unequal,
    "oracle-verify": oracle_verify,
}
