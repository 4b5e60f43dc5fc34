"""Independent ground-truth computations.

Everything here exists to check the serving engine and the threshold
formulas from a different direction: the closed-form offline optimum, an
exact per-realization offline solver, an exact optimal-online value by
backward induction at tiny scale, and the forward recurrence that solves
the adversary's LP without a general solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from .dist import RewardDistribution, sample_array, top_quantile_mean
from .engine import run_rewards
from .errors import DomainError, SizeLimit
from .instances import Instance
from .policy import AdversaryProfile, ThresholdPolicy, index_weights

_MAX_EXACT_QUERIES = 100_000
_MAX_ENUM_REALIZATIONS = 400_000


@dataclass(frozen=True)
class RealizedInstance:
    """An instance together with a concrete reward value per query."""

    instance: Instance
    rewards: Tuple[float, ...]

    def __post_init__(self):
        rewards = tuple(float(r) for r in self.rewards)
        if len(rewards) != self.instance.total_queries:
            raise DomainError(
                f"expected {self.instance.total_queries} rewards, got {len(rewards)}"
            )
        object.__setattr__(self, "rewards", rewards)


def sample_realized(
    instance: Instance, dist: RewardDistribution, seed: int
) -> RealizedInstance:
    rng = np.random.default_rng(seed)
    rewards = sample_array(dist, rng, instance.total_queries)
    return RealizedInstance(instance, tuple(rewards))


# ---------------------------------------------------------------------------
# offline optimum
# ---------------------------------------------------------------------------


def offline_opt_formula(dist: RewardDistribution, f: float, N: float) -> float:
    """Expected offline optimum: sell the top (f-1)N rewards, deliver the rest.

    ``(f - 1) * N * (mean of the top 1 - 1/f probability mass)``; zero at f = 1.
    """
    if f < 1.0:
        raise DomainError(f"supply factor must be >= 1, got {f}")
    if f == 1.0:
        return 0.0
    return (f - 1.0) * N * top_quantile_mean(dist, 1.0 - 1.0 / f)


def offline_opt_exact(realized: RealizedInstance, penalty: float) -> float:
    """Exact optimum of (exchange rewards - penalty * undelivered).

    Deliver a feasible set of queries maximizing the delivery gain
    ``penalty - reward`` and sell everything else.  Deliverable query sets
    form a transversal matroid, so a greedy sweep in decreasing gain order
    with one augmenting-path feasibility check per query is exact.
    """
    instance = realized.instance
    if instance.total_queries > _MAX_EXACT_QUERIES:
        raise SizeLimit(
            f"{instance.total_queries} queries exceeds exact-solver limit "
            f"{_MAX_EXACT_QUERIES}"
        )
    demands = instance.demands
    used = [0] * instance.m
    # flows aggregated by (group, advertiser); queries in a group are identical
    flow: List[Dict[int, int]] = [dict() for _ in instance.groups]
    into: List[Set[int]] = [set() for _ in range(instance.m)]
    elig = [e for _, e in instance.groups]

    def augment(g: int) -> bool:
        # Depth-first search for an augmenting path from group g, in the
        # visit order of a recursive search, with an explicit stack so that
        # path length is not bounded by the recursion limit.  A frame is
        # (group, its advertiser iterator, the saturated advertiser tried
        # through it, iterator over that advertiser's groups).
        visited: Set[int] = set()
        stack = []
        ads, rivals = iter(elig[g]), iter(())
        while True:
            for g2 in rivals:
                if g2 == g or flow[g2].get(a, 0) == 0:
                    continue
                stack.append((g, ads, a, rivals))
                g, ads, rivals = g2, iter(elig[g2]), iter(())
                break
            else:
                # no way on through a: g's next unvisited advertiser, or back up
                for a in ads:
                    if a not in visited:
                        break
                else:
                    if not stack:
                        return False
                    g, ads, a, rivals = stack.pop()
                    continue
                visited.add(a)
                if used[a] < demands[a]:
                    used[a] += 1
                    flow[g][a] = flow[g].get(a, 0) + 1
                    into[a].add(g)
                    # move one unit along the path, from its free end back to the root
                    for pg, _, pa, _ in reversed(stack):
                        flow[g][pa] -= 1
                        if flow[g][pa] == 0:
                            del flow[g][pa]
                            into[pa].discard(g)
                        flow[pg][pa] = flow[pg].get(pa, 0) + 1
                        into[pa].add(pg)
                        g = pg
                    return True
                rivals = iter(list(into[a]))

    group_of = []
    for gi, (count, _) in enumerate(instance.groups):
        group_of.extend([gi] * count)
    order = sorted(range(len(realized.rewards)), key=lambda i: (realized.rewards[i], i))
    total_rewards = float(sum(realized.rewards))
    gain = 0.0
    # A query whose search fails stays rejected, and so does every later
    # query of its group: that query has the same eligible set, and the
    # accepted set only grows, so its search would fail too, changing nothing.
    failed: Set[int] = set()
    for qi in order:
        r = realized.rewards[qi]
        if penalty - r < 0.0:
            break
        g = group_of[qi]
        if g in failed:
            continue
        if augment(g):
            gain += penalty - r
        else:
            failed.add(g)
    return total_rewards - penalty * instance.total_demand + gain


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
    if instance.total_demand > 8:
        raise SizeLimit(f"total demand {instance.total_demand} > 8")
    if instance.total_queries > 12:
        raise SizeLimit(f"{instance.total_queries} queries > 12")
    if dist.d > 3:
        raise SizeLimit(f"support size {dist.d} > 3")
    elig_seq = instance.expand()
    masses = dist.point_masses()
    support = dist.support
    full = tuple(range(instance.m))
    symmetric = len(set(instance.demands)) == 1 and all(
        e == full for e in elig_seq
    )
    memo: Dict[Tuple[int, Tuple[int, ...]], float] = {}

    def value(i: int, remaining: Tuple[int, ...]) -> float:
        if i == len(elig_seq):
            return -penalty * sum(remaining)
        key = (i, tuple(sorted(remaining)) if symmetric else remaining)
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
    offset: float = 0.0,
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
        report = run_rewards(instance, policy, penalty, rewards, offset=offset)
        e_alg += prob * report.reward
        e_off += prob * (
            offline_opt_exact(RealizedInstance(instance, rewards), penalty) + offset
        )
    return e_alg, e_off


# ---------------------------------------------------------------------------
# adversary LP via the tight recurrence
# ---------------------------------------------------------------------------


def adversary_lp_tight(
    policy: ThresholdPolicy, f: float, N: float, t: int
) -> AdversaryProfile:
    """Solve the adversary LP's constraint system with all equalities tight.

    Forward recurrence ``beta_{j+1} = beta_1 - (sum_{l<=j} w_l beta_l)/(f t)``
    from ``beta_1 = N/t``, with ``w_l = 1/q_{d+1-u(l)}``; this is the LP
    optimum without a general solver.
    """
    if t < 2:
        raise DomainError(f"t must be >= 2, got {t}")
    w = index_weights(policy.dist, policy.thresholds, t)
    beta = np.empty(t)
    beta[0] = N / t
    running = w[0] * beta[0]
    for j in range(1, t):
        beta[j] = beta[0] - running / (f * t)
        running += w[j] * beta[j]
    return AdversaryProfile(t=t, beta=beta)


def lp_residuals(
    profile: AdversaryProfile, policy: ThresholdPolicy, f: float, N: float
) -> Dict[str, float]:
    """Residuals of the LP constraint system at the given profile.

    ``equality``: max |f t beta_1 - f t beta_{j+1} - sum_{l<=j} w_l beta_l|,
    ``beta1``: |beta_1 - N/t|, ``negativity``: max(0, -min beta).
    """
    t = profile.t
    beta = profile.beta
    w = index_weights(policy.dist, policy.thresholds, t)
    lhs = f * t * (beta[0] - beta[1:])
    rhs = np.cumsum(w * beta)[:-1]
    return {
        "equality": float(np.max(np.abs(lhs - rhs))) if t > 1 else 0.0,
        "beta1": abs(float(beta[0]) - N / t),
        "negativity": max(0.0, -float(beta.min())),
    }
