"""Independent ground-truth computations.

Everything here exists to check the serving engine and the threshold
formulas from a different direction: the closed-form offline optimum, an
exact per-realization offline solver, an exact optimal-online value by
backward induction at tiny scale, and the forward recurrence that solves
the adversary's LP without a general solver.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from .dist import RewardDistribution, sample_array, top_quantile_mean
from .engine import run_rewards
from .errors import SizeLimit, _positive, _reals
from .errors import _check_demand, _check_finite, _check_rewards, _check_supply
from .instances import Instance
from .policy import ThresholdPolicy, index_weights

_MAX_EXACT_WORK = 200_000_000  # offline_opt_exact: searches times graph size
_MAX_ENUM_REALIZATIONS = 400_000


@dataclass(frozen=True)
class RealizedInstance:
    """An instance together with a concrete reward value per query."""

    instance: Instance
    rewards: Tuple[float, ...]

    def __post_init__(self):
        rewards = _check_rewards(self.rewards, self.instance.total_queries)
        object.__setattr__(self, "rewards", tuple(rewards.tolist()))


def sample_realized(
    instance: Instance, dist: RewardDistribution, seed: int
) -> RealizedInstance:
    rng = np.random.default_rng(_positive(seed, "seed", least=0))
    rewards = sample_array(dist, rng, instance.total_queries)
    return RealizedInstance(instance, tuple(rewards))


# ---------------------------------------------------------------------------
# offline optimum
# ---------------------------------------------------------------------------


def offline_opt_formula(dist: RewardDistribution, f: float, N: float) -> float:
    """Expected offline optimum: sell the top (f-1)N rewards, deliver the rest.

    ``(f - 1) * N * (mean of the top 1 - 1/f probability mass)``; zero at f = 1.
    """
    _check_supply(f)
    _check_demand(N)
    if f == 1.0:
        return 0.0
    return (f - 1.0) * N * top_quantile_mean(dist, 1.0 - 1.0 / f)


def offline_opt_exact(realized: RealizedInstance, penalty: float) -> float:
    """Exact optimum of (exchange rewards - penalty * undelivered).

    Deliver a feasible set of queries maximizing the delivery gain
    ``penalty - reward`` and sell everything else.  Deliverable query sets
    form a transversal matroid, so greedy in decreasing gain order, keeping
    each query whose addition stays feasible, is exact under any order of
    ties.  Queries of one group with one reward are interchangeable, so the
    greedy takes them as a class: grouped by (reward, group) with numpy and
    visited by increasing reward, each class keeps as many of its queries
    as one more max-flow increment on the (group, advertiser) flow allows.
    That increment is pushed along shortest augmenting paths, found by
    breadth-first search, each carrying as many units as its bottleneck
    (the class's remaining queries, the free demand at its end, the flow on
    every rerouted edge).  Queries with reward above the penalty are sold.

    A search visits each group and eligibility edge at most once.  Most
    searches end their class or fill an advertiser; the rest empty a
    rerouted edge.  So the work is estimated, not bounded, as ``(searched
    + m) * (sum |E_g| + groups)``, with ``searched`` the number of classes
    with reward <= penalty.  Beyond ``_MAX_EXACT_WORK`` it raises
    :class:`SizeLimit` before searching.
    """
    _check_finite(penalty, "penalty")
    instance = realized.instance
    demands = instance.demands
    used = [0] * instance.m
    # flows aggregated by (group, advertiser); queries in a group are identical
    flow: List[Dict[int, int]] = [dict() for _ in instance.groups]
    into: List[Set[int]] = [set() for _ in range(instance.m)]
    elig = [e for _, e in instance.groups]

    def augment(g: int, need: int) -> int:
        # Breadth-first search from group g for an advertiser with room.
        # Through a full advertiser a, a group with flow on a can move units
        # to its other eligible advertisers; each group is expanded once,
        # as a second expansion reaches nothing new.  came[a] = (advertiser
        # the path arrives from, or -1 at g, and the group that moves).
        came: Dict[int, Tuple[int, int]] = {}
        expanded = {g}
        todo = [(-1, g)]
        for prev, g2 in todo:
            for a in elig[g2]:
                if a in came:
                    continue
                came[a] = (prev, g2)
                if used[a] < demands[a]:
                    return push(a, need, came)
                for g3 in into[a]:
                    if g3 not in expanded:
                        expanded.add(g3)
                        todo.append((a, g3))
        return 0

    def push(end: int, need: int, came: Dict[int, Tuple[int, int]]) -> int:
        # as many units as the path's bottleneck allows, moved from end back to g
        k = min(need, demands[end] - used[end])
        prev, g = came[end]
        while prev >= 0:
            k = min(k, flow[g][prev])
            prev, g = came[prev]
        used[end] += k
        a = end
        while True:
            prev, g = came[a]
            flow[g][a] = flow[g].get(a, 0) + k
            into[a].add(g)
            if prev < 0:
                return k
            left = flow[g][prev] - k
            if left:
                flow[g][prev] = left
            else:
                del flow[g][prev]
                into[prev].discard(g)
            a = prev

    # classes: runs of equal (reward, group) in sorted order, up to the penalty
    rewards = np.array(realized.rewards)
    group = np.repeat(np.arange(len(elig)), [c for c, _ in instance.groups])
    order = np.lexsort((group, rewards))
    r, gq = rewards[order], group[order]
    head = np.ones(len(r), dtype=bool)
    head[1:] = (r[1:] != r[:-1]) | (gq[1:] != gq[:-1])
    starts = head.nonzero()[0]
    bounds = [*starts.tolist(), len(r)]
    class_rewards = r[starts].tolist()
    searched = bisect.bisect_right(class_rewards, penalty)  # classes up to the penalty, the rest sold
    work = (searched + instance.m) * (sum(map(len, elig)) + len(elig))
    if work > _MAX_EXACT_WORK:
        raise SizeLimit(f"search work {work} exceeds exact-solver limit {_MAX_EXACT_WORK}")
    classes = zip(class_rewards[:searched], gq[starts].tolist(), bounds, bounds[1:])
    # the value's terms, summed with correct rounding at the end: a
    # sequential sum drifts with the query count
    terms = [math.fsum(realized.rewards), -penalty * instance.total_demand]
    # When a class's search fails, every later class of its group is
    # skipped: it has the same eligible set and the accepted set only
    # grows, so its search would fail too, changing nothing.
    failed: Set[int] = set()
    for reward, g, start, end in classes:
        if g in failed:
            continue
        size = need = end - start
        while need:
            k = augment(g, need)
            if not k:
                failed.add(g)
                break
            need -= k
        terms.append((size - need) * (penalty - reward))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# optimal online value at tiny scale
# ---------------------------------------------------------------------------


def online_opt_bruteforce(
    instance: Instance, dist: RewardDistribution, penalty: float
) -> float:
    """Exact expected reward of the optimal online policy.

    Backward induction over (query index, remaining demand vector), taking
    the expectation over the reward atom observed at each step:
    ``V(i, d) = E_r[max(r + V(i+1, d), max_a V(i+1, d - e_a))]`` with
    terminal value ``-penalty * sum(d)``.
    """
    _check_finite(penalty, "penalty")
    if instance.total_demand > 8:
        raise SizeLimit(f"total demand {instance.total_demand} > 8")
    if instance.total_queries > 12:
        raise SizeLimit(f"{instance.total_queries} queries > 12")
    if dist.d > 3:
        raise SizeLimit(f"support size {dist.d} > 3")
    elig_seq = instance.expand()
    masses = dist.point_masses()
    support = dist.support
    memo: Dict[Tuple[int, Tuple[int, ...]], float] = {}

    def value(i: int, remaining: Tuple[int, ...]) -> float:
        if i == len(elig_seq):
            return -penalty * sum(remaining)
        key = (i, remaining)
        hit = memo.get(key)
        if hit is not None:
            return hit
        keep = value(i + 1, remaining)
        deliver_best = None
        for a in elig_seq[i]:
            if remaining[a] > 0:
                nxt = list(remaining)
                nxt[a] -= 1
                v = value(i + 1, tuple(nxt))
                if deliver_best is None or v > deliver_best:
                    deliver_best = v
        acc = 0.0
        for p, r in zip(masses, support):
            sell = r + keep
            acc += p * (sell if deliver_best is None else max(sell, deliver_best))
        memo[key] = acc
        return acc

    return value(0, instance.demands)


def exhaustive_values(
    instance: Instance,
    dist: RewardDistribution,
    penalty: float,
    policy: ThresholdPolicy,
) -> Tuple[float, float]:
    """Exact (E[threshold algorithm], E[offline optimum]) by enumerating
    every reward realization with its probability.  Tiny instances only."""
    q = instance.total_queries
    if dist.d**q > _MAX_ENUM_REALIZATIONS:
        raise SizeLimit(f"{dist.d}^{q} realizations exceeds enumeration limit")
    masses = dist.point_masses()
    support = dist.support
    e_alg = 0.0
    e_off = 0.0
    for combo in itertools.product(range(dist.d), repeat=q):
        prob = 1.0
        for u in combo:
            prob *= masses[u]
        rewards = tuple(support[u] for u in combo)
        report = run_rewards(instance, policy, penalty, rewards)
        e_alg += prob * report.reward
        e_off += prob * offline_opt_exact(RealizedInstance(instance, rewards), penalty)
    return e_alg, e_off


# ---------------------------------------------------------------------------
# adversary LP via the tight recurrence
# ---------------------------------------------------------------------------


def adversary_lp_tight(policy: ThresholdPolicy, f: float, N: float, t: int) -> np.ndarray:
    """Solve the adversary LP's constraint system with all equalities tight.

    Forward recurrence ``beta_{j+1} = beta_1 - (sum_{l<=j} w_l beta_l)/(f t)``
    from ``beta_1 = N/t``, with ``w_l = 1/q_{d+1-u(l)}``; this is the LP
    optimum without a general solver.  Returns ``beta`` as a length-t array.
    """
    t = _positive(t, "t", least=2)
    _check_supply(f)
    _check_demand(N)
    w = index_weights(policy, t)
    beta = np.empty(t)
    beta[0] = N / t
    running = w[0] * beta[0]
    for j in range(1, t):
        beta[j] = beta[0] - running / (f * t)
        running += w[j] * beta[j]
    return beta


def lp_residuals(beta: Sequence[float], policy: ThresholdPolicy, f: float, N: float) -> Dict[str, float]:
    """Residuals of the LP constraint system at the profile ``beta``, with t = len(beta).

    ``equality``: max |f t beta_1 - f t beta_{j+1} - sum_{l<=j} w_l beta_l|,
    ``beta1``: |beta_1 - N/t|, ``negativity``: max(0, -min beta).
    """
    beta = _reals(beta, "beta")
    _check_supply(f)
    _check_demand(N)
    t = len(beta)
    w = index_weights(policy, t)  # checks t >= 1
    lhs = f * t * (beta[0] - beta[1:])
    rhs = np.cumsum(w * beta)[:-1]
    return {
        "equality": float(np.max(np.abs(lhs - rhs))) if t > 1 else 0.0,
        "beta1": abs(float(beta[0]) - N / t),
        "negativity": max(0.0, -float(beta.min())),
    }
