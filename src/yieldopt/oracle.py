"""Independent ground-truth computations.

Everything here exists to check the serving engine and the threshold
formulas from a different direction: the closed-form offline optimum, an
exact per-realization offline solver, an exact optimal-online value by
backward induction at tiny scale, and the forward recurrence that solves
the adversary's LP without a general solver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from ._flow import _Flow
from .dist import _FEW_LEVELS, RewardDistribution, _distribution, sample_array, top_quantile_mean
from .engine import run_rewards
from .errors import SizeLimit, _check_rewards, _demand, _penalty, _positive, _reals, _supply, _typed
from .instances import Instance
from .policy import ThresholdPolicy, index_weights

_MAX_ENUM_REALIZATIONS = 400_000


@dataclass(frozen=True)
class RealizedInstance:
    """An instance together with a concrete reward value per query.

    ``rewards`` becomes a tuple of floats, the value.  Construction also
    keeps the checked rewards as one read-only float64 array,
    ``_reward_array``, which :func:`offline_opt_exact` reads.  It is no part
    of the value: equality and hashing ignore it, and a pickle or copy holds
    the value alone and builds the array again through construction.
    """

    instance: Instance
    rewards: Tuple[float, ...]

    def __post_init__(self):
        _typed(self.instance, Instance)
        rewards = _check_rewards(self.rewards, self.instance.total_queries)
        if rewards is self.rewards or rewards.base is not None:  # the caller's memory: keep a copy
            rewards = rewards.copy()
        rewards.flags.writeable = False
        object.__setattr__(self, "rewards", tuple(rewards.tolist()))
        object.__setattr__(self, "_reward_array", rewards)

    def __reduce__(self):
        # pickles and copies the value alone; __post_init__ rebuilds the array
        return type(self), (self.instance, self.rewards)


def sample_realized(
    instance: Instance, dist: RewardDistribution, seed: Union[int, np.random.Generator]
) -> RealizedInstance:
    _typed(instance, Instance)
    return RealizedInstance(instance, sample_array(dist, seed, instance.total_queries))


# ---------------------------------------------------------------------------
# offline optimum
# ---------------------------------------------------------------------------


def offline_opt_formula(dist: RewardDistribution, f: float, N: float) -> float:
    """Expected offline optimum: sell the top (f-1)N rewards, deliver the rest.

    ``(f - 1) * N * (mean of the top 1 - 1/f probability mass)``; zero at f = 1.
    """
    _distribution(dist)
    f, N = _supply(f), _demand(N)
    if f == 1.0:
        return 0.0
    return (f - 1.0) * N * top_quantile_mean(dist, 1.0 - 1.0 / f)


def offline_opt_exact(realized: RealizedInstance, penalty: float) -> float:
    """Exact optimum of (exchange rewards - penalty * undelivered).

    Deliver a feasible set of queries maximizing the delivery gain
    ``penalty - reward`` and sell everything else.  Deliverable query sets
    form a transversal matroid, so greedy in decreasing gain order is exact
    under any order of ties, and it needs only the rank (the most
    deliverable queries) of each reward prefix.  The levels, each distinct
    reward below the penalty, are visited in increasing order, and each
    extends one integer flow on the (group, advertiser) graph, the queries
    of a group being interchangeable:

    1. the level's queries, groups with the fewest eligible advertisers
       first, are poured into their ids' remaining demand;
    2. the rest go along shortest augmenting paths, found by breadth-first
       search from each group with queries left, until none is left.

    A query placed neither way stays out, as the span of the placed
    queries only grows.  A failed search has reached a closed set of full
    advertisers and the groups delivering to them, which no later pour or
    search enters, so the set is skipped from then on.  Queries with reward
    at or above the penalty are sold.  The value, what is sold minus the
    penalty on what is not delivered, is summed level by level with
    correct rounding: a sequential sum drifts with the query count.

    The groups are numbered once in pour order, a stable sort by
    eligible-set size, and a query's class key is ``level * groups + pour
    position``, so the classes sorted by key come level by level in pour
    order.  With at most ``_FEW_LEVELS`` distinct rewards a query's level
    is the count of distinct rewards below it, one comparison pass per
    reward, and one ``bincount`` of the keys gives the class sizes and the
    queries per level.  With more, a binary search finds the levels and a
    sort of the served keys the classes.  Measured on a 2-vCPU Xeon, up to
    8 rewards the passes cost the same as the search and the sort at 80
    and 400 queries, and a third to a half as much at 4k and 20k queries;
    above 8 the small instances lose (32 rewards on 400 queries: 0.081
    against 0.045 ms), and a chain's thousands of distinct rewards would
    cost thousands of passes.

    The work is counted, not estimated: every eligibility id a pour or a
    search visits and every flow edge a search follows.  It raises
    :class:`SizeLimit` once the count passes ``_flow._MAX_EXACT_WORK``, checked
    after each level's pours and after each group a search expands.
    Binary and 3-point ``gen_upper_triangular(1000, 100, 2.0)``, 200k
    queries on 500,500 edges, count 1.3e6 and 2.7e6 and solve in 0.05 and
    0.08 s on a 2-vCPU Xeon.
    """
    _typed(realized, RealizedInstance)
    penalty = _penalty(penalty)
    instance = realized.instance
    groups = instance.groups
    n_groups = len(groups)
    rewards = realized._reward_array
    values = np.unique(rewards)  # the levels, increasing
    served = int(np.searchsorted(values, penalty))  # levels below the penalty; the rest are sold
    order = np.argsort([len(e) for _, e in groups], kind="stable")  # pour position -> group
    position = np.empty(n_groups, np.intp)
    position[order] = np.arange(n_groups)
    key = np.repeat(position, [count for count, _ in groups])
    if len(values) <= _FEW_LEVELS:
        level = np.zeros(len(rewards), np.intp)
        for v in values[:-1].tolist():
            level += rewards > v
        key += level * n_groups
        counts = np.bincount(key, minlength=len(values) * n_groups)
        classes = np.flatnonzero(counts[: served * n_groups])
        sizes = counts[classes]
        per_level = counts.reshape(len(values), n_groups).sum(axis=1)
    else:
        level = np.searchsorted(values, rewards)
        key += level * n_groups
        classes, sizes = np.unique(key[level < served], return_counts=True)
        per_level = np.bincount(level, minlength=len(values))
    cl, cp = np.divmod(classes, n_groups)
    placed = [0] * len(values)
    flow = _Flow(instance.demands, [e for _, e in groups])
    for lv, units in flow.levels(zip(cl.tolist(), order[cp].tolist(), sizes.tolist())):
        placed[lv] = units
    sold = per_level - np.array(placed, dtype=np.int64)
    undelivered = instance.total_demand - sum(placed)
    return math.fsum([*(values * sold).tolist(), -penalty * undelivered])


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
    _typed(instance, Instance)
    _distribution(dist)
    penalty = _penalty(penalty)
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
    _typed(instance, Instance)
    _typed(policy, ThresholdPolicy)
    _distribution(dist)
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
    f, N = _supply(f), _demand(N)
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
    f, N = _supply(f), _demand(N)
    t = len(beta)
    w = index_weights(policy, t)  # checks t >= 1
    lhs = f * t * (beta[0] - beta[1:])
    rhs = np.cumsum(w * beta)[:-1]
    return {
        "equality": float(np.max(np.abs(lhs - rhs))) if t > 1 else 0.0,
        "beta1": abs(float(beta[0]) - N / t),
        "negativity": max(0.0, -float(beta.min())),
    }
