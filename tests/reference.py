"""Reference computations the library replaced, kept for differential tests.

Each is the code that left ``src/`` as it was there: the d^Q enumeration
behind ``exhaustive_values``, the grid oracle of ``ub_continuous`` and the
conditional mean below an atom.  None has a size limit of its own; a test
keeps its inputs small.
"""

import itertools
import math

import numpy as np

from yieldopt.dist import RewardDistribution, _distribution
from yieldopt.engine import run_rewards
from yieldopt.errors import DomainError, _integer, _real
from yieldopt.oracle import RealizedInstance, offline_opt_exact
from yieldopt.policy import ThresholdPolicy, _checked, _ub_terms

DEFAULT_GRID = 1.0 / 200.0


def enumerated_values(instance, dist, penalty, policy):
    """(E[threshold algorithm], E[offline optimum]) over all d^Q reward realizations, each with its probability."""
    masses = dist.point_masses()
    support = dist.support
    e_alg = 0.0
    e_off = 0.0
    for combo in itertools.product(range(dist.d), repeat=instance.total_queries):
        prob = 1.0
        for u in combo:
            prob *= masses[u]
        rewards = tuple(support[u] for u in combo)
        report = run_rewards(instance, policy, penalty, rewards)
        e_alg += prob * report.reward
        e_off += prob * offline_opt_exact(RealizedInstance(instance, rewards), penalty)
    return e_alg, e_off


def cond_mean_below(dist: RewardDistribution, u: int) -> float:
    """Mean reward conditioned on the reward being at most ``r_u`` (1-based u)."""
    _distribution(dist)
    u = _integer(u, "index u")
    if not 1 <= u <= dist.d:
        raise DomainError(f"index u={u} out of range 1..{dist.d}")
    masses = dist.point_masses()
    acc = sum(masses[i] * dist.support[i] for i in range(u))
    return float(acc / dist.cum_mass[u - 1])


def _grid_values(grid: float) -> np.ndarray:
    grid = _real(grid, "grid step", math.ulp(0.0), math.nextafter(1.0, 0.0), "in (0, 1)")
    n = int(math.floor(1.0 / grid + 1e-9))
    values = np.arange(n + 1) * grid
    if values[-1] < 1.0 - 1e-12:
        values = np.append(values, 1.0)
    values[-1] = 1.0
    return values


def optimize_thresholds_grid(
    dist: RewardDistribution,
    f: float,
    c: float,
    grid: float = DEFAULT_GRID,
) -> ThresholdPolicy:
    """Exact optimum of ``ub_continuous`` over monotone grid threshold vectors.

    An independent oracle for :func:`optimize_thresholds_exact`, for any d
    and in ``dist``'s own units; a common shift of rewards and ``c`` moves nothing.
    Maximizing the objective minimizes ``sum_v a_v exp(-X_v)``, which nests
    as ``e_1 (a_1 + e_2 (a_2 + ...))`` with ``e_v = exp(-(s_v - s_{v-1}) w_v)``
    and ``w_v = 1/(f q_{d+1-v})``: one backward pass picks the best
    ``s_v >= s_{v-1}`` for every grid value of ``s_{v-1}``, the smallest on a
    tie, so the result is the first optimum in lexicographic order.  Each
    ``e_v`` is computed whole: the factored ``exp(s_{v-1} w_v) exp(-s_v w_v)``
    overflows or cancels at large ``w_v``.  O(d |grid|^2) time.
    """
    checked, f, c, _ = _checked(dist, f, c)
    ys = _grid_values(grid)
    _, a, inv_q = _ub_terms(checked.support, checked.cum_mass, c)
    w = inv_q / f
    # tail[k]: the least e_v (a_v + e_{v+1} (a_{v+1} + ...)) given s_{v-1} = ys[k]
    tail = a[-1] * np.exp((ys - 1.0) * w[-1])  # v = d, where s_d = 1
    picks = []
    for v in range(checked.d - 1, 0, -1):
        gap = np.subtract.outer(ys if v > 1 else ys[:1], ys)  # s_{v-1} - s_v, with s_0 = 0
        cost = np.exp(np.minimum(gap, 0.0) * w[v - 1]) * (a[v - 1] + tail)
        cost[gap > 0.0] = np.inf
        picks.append(cost.argmin(axis=1))
        tail = cost.min(axis=1)
    k, thresholds = 0, []
    for pick in reversed(picks):
        k = pick[k]
        thresholds.append(ys[k])
    return ThresholdPolicy((*thresholds, 1.0), checked)
