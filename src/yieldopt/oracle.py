"""Independent ground-truth computations.

Everything here exists to check the serving engine and the threshold
formulas from a different direction: the closed-form offline optimum, an
exact per-realization offline solver, exact expectations under one
counted-work limit (the optimal online policy's and the threshold rule's
by backward induction, the offline optimum's by reward multiset), and the
forward recurrence that solves the adversary's LP without a general solver.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Tuple, Union

import numpy as np

from ._flow import _Flow
from .dist import _FEW_LEVELS, RewardDistribution, _distribution, sample_array, top_quantile_mean
from .engine import AllocationState, serve_query
from .errors import SizeLimit, _check_rewards, _demand, _finite_sum, _penalty, _positive, _real, _reals, _supply
from .errors import _typed
from .instances import Instance
from .policy import ThresholdPolicy, index_weights

_MAX_ONLINE_WORK = 4_000_000


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
    Above it the value must be finite.
    """
    _distribution(dist)
    f, N = _supply(f), _demand(N)
    return _real((f - 1.0) * N * top_quantile_mean(dist, 1.0 - 1.0 / f), "(f - 1) * N * top mean")


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
    correct rounding: a sequential sum drifts with the query count.  A sum
    past float range raises ``DomainError``.

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
    with np.errstate(over="ignore"):  # a product past float range is refused by _finite_sum
        sold_value = (values * sold).tolist()
    unpaid = map(operator.mul, (-penalty,), (undelivered,))  # in the sum, which refuses a count past float range
    return _finite_sum(itertools.chain(sold_value, unpaid), "offline optimum")


# ---------------------------------------------------------------------------
# exact expectations under one counted-work limit
# ---------------------------------------------------------------------------


def _expectation(instance: Instance, dist: RewardDistribution, penalty: float, step) -> float:
    """``V(0, demands)`` with ``V(i, d) = step(d, elig_i, V(i+1, .))`` and ``V(Q, d) = -penalty * sum(d)``.

    ``d`` runs over the remaining-demand vectors reachable before query
    ``i``, and ``step`` takes the expectation over its reward.  A query's
    work is counted before its vectors are built: ``m + 1`` units for each
    vector and each delivery from one, and one per atom and vector.  Every
    value is at most ``|penalty| * total demand + top reward * queries`` in
    size, so that bound is checked finite first.
    """
    bound = map(operator.mul, (abs(penalty), dist.support[-1]), (instance.total_demand, instance.total_queries))
    _finite_sum(bound, "|penalty| * total demand + top reward * queries")
    if instance.total_queries > _MAX_ONLINE_WORK:  # each query counts at least one unit
        raise SizeLimit(f"{instance.total_queries} queries exceed the online work limit {_MAX_ONLINE_WORK}")
    elig_seq = instance.expand()
    m = len(instance.demands)
    layers = [{instance.demands}]  # the vectors reachable before each query, and after the last
    work = 0
    for elig in elig_seq:
        work += len(layers[-1]) * ((1 + len(elig)) * (m + 1) + dist.d)
        if work > _MAX_ONLINE_WORK:
            raise SizeLimit(f"online work {work} exceeds the limit {_MAX_ONLINE_WORK}")
        layers.append(layers[-1] | {d[:a] + (d[a] - 1,) + d[a + 1 :] for d in layers[-1] for a in elig if d[a]})
    value = {d: -penalty * sum(d) for d in layers.pop()}
    for elig, layer in zip(reversed(elig_seq), reversed(layers)):
        value = {d: step(d, elig, value) for d in layer}
    return value[instance.demands]


def online_opt_bruteforce(instance: Instance, dist: RewardDistribution, penalty: float) -> float:
    """Exact expected reward of the optimal online policy.

    :func:`_expectation` of ``max(r + V(i+1, d), max_a V(i+1, d - e_a))``
    for each reward ``r``; its value bound past float range raises
    ``DomainError``.  ``_MAX_ONLINE_WORK`` (4,000,000 units) bounds
    time and memory alike, here and in both halves of
    :func:`exhaustive_values`.  On a 2-vCPU Xeon, with 1 to 30 advertisers
    and 2 to 50 atoms, a unit cost 49 to 245 ns here and 46 to 1,030 ns in
    the rule's pass, so at most about 1 and 4 s at the limit; a unit of
    offline optima cost 0.4 to 3.6 us, and 50,625 calls of 26 units (the
    3-point triangular 4x2) took 3.4 s.
    """
    _typed(instance, Instance)
    _distribution(dist)
    penalty = _penalty(penalty)
    atoms = list(zip(dist.point_masses(), dist.support))

    def step(d, elig, value):  # sell, or the best delivery
        keep = value[d]
        nxt = [value[d[:a] + (d[a] - 1,) + d[a + 1 :]] for a in elig if d[a]]
        best = max(nxt) if nxt else None
        acc = 0.0
        for p, r in atoms:
            acc += p * (r + keep if best is None else max(r + keep, best))
        return acc

    return _expectation(instance, dist, penalty, step)


def _multisets(count: int, dist: RewardDistribution) -> Iterator[Tuple[float, Tuple[float, ...]]]:
    # (probability, rewards) of each multiset of count draws, the multinomial probability one exact int / int
    ratios = [p.as_integer_ratio() for p in dist.point_masses()]
    for combo in itertools.combinations_with_replacement(range(dist.d), count):
        ks = [combo.count(u) for u in range(dist.d)]
        num = math.factorial(count) * math.prod(p**k for (p, _), k in zip(ratios, ks))
        den = math.prod(math.factorial(k) * q**k for (_, q), k in zip(ratios, ks))
        yield num / den, tuple(dist.support[u] for u in combo)


def exhaustive_values(
    instance: Instance, dist: RewardDistribution, penalty: float, policy: ThresholdPolicy
) -> Tuple[float, float]:
    """Exact (E[threshold algorithm], E[offline optimum]), each reward drawn from ``dist``.

    E[ALG] is :func:`_expectation` of the rule's choice, read from
    :func:`serve_query`.  E[OFF] sums :func:`offline_opt_exact` over each
    group's reward multiset by its multinomial probability.  Its ``prod_g
    C(count_g + d - 1, d - 1)`` calls count the queries plus the
    eligibility ids each, before any multiset is listed.  Each half raises
    :class:`SizeLimit` past ``_MAX_ONLINE_WORK``, and a value past float
    range ``DomainError``.
    """
    _typed(instance, Instance)
    _typed(policy, ThresholdPolicy)
    _distribution(dist)
    penalty = _penalty(penalty)
    groups, demands = instance.groups, instance.demands
    calls = math.prod(math.comb(count + dist.d - 1, dist.d - 1) for count, _ in groups)
    units = instance.total_queries + sum(len(elig) for _, elig in groups)
    work = calls * units
    if work > _MAX_ONLINE_WORK:
        raise SizeLimit(f"offline work {work} ({calls} optima of {units} units) exceeds the limit {_MAX_ONLINE_WORK}")
    atoms = list(zip(dist.point_masses(), dist.support))

    def step(d, elig, value):  # sell, or deliver at or below the reserve
        _, _, reserve, a = serve_query(AllocationState(demands, [n - k for n, k in zip(demands, d)]), policy, elig, 0.0)
        keep = value[d]
        give = None if reserve is None else value[d[:a] + (d[a] - 1,) + d[a + 1 :]]
        acc = 0.0
        for p, r in atoms:
            acc += p * (r + keep if reserve is None or r > reserve else give)
        return acc

    e_alg = _expectation(instance, dist, penalty, step)
    terms = [
        math.prod(p for p, _ in choice)
        * offline_opt_exact(RealizedInstance(instance, [r for _, rewards in choice for r in rewards]), penalty)
        for choice in itertools.product(*(_multisets(count, dist) for count, _ in groups))
    ]
    return e_alg, _finite_sum(terms, "E[offline optimum]")


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
