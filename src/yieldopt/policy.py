"""Threshold computation for the online serving policy.

The serving engine needs ``d`` satisfaction-ratio thresholds
``s_1 <= ... <= s_d = 1``; while the minimum satisfaction ratio lies in
``[s_{u-1}, s_u)`` the exchange must beat the reserve ``r_{d+1-u}`` to win
the query.  This module computes those thresholds:

* closed form for binary distributions,
* the adversarial impression profile ``beta*`` and the resulting
  objective, both at finite quantile resolution ``t`` (``lb_discrete``)
  and in its exact large-``t`` closed form (``ub_continuous``); slice ``j``
  of ``t`` is count ``j - 1`` at demand ``t``, in ``serve_query``'s segment,
* the exact maximizer of that objective for any support size, a
  water-filling closed form that generalizes the binary one, plus an
  exact grid oracle, a backward recursion over grid thresholds, used to
  check it.

All operations are pure functions of immutable inputs and safe to run in
parallel across parameter grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from .dist import RewardDistribution, _distribution, _lowered, validate
from .errors import _BOOLS, DomainError, InfeasibleDecay, _binary, _check_thresholds, _demand, _penalty
from .errors import _positive, _real, _supply, _typed

DEFAULT_GRID = 1.0 / 200.0

# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdPolicy:
    """Sorted thresholds over the satisfaction ratio plus the reserve lookup.

    ``reserves[u-1]``, the reserve price while the minimum satisfaction
    ratio lies in segment ``u`` (1-based), is the ``(d+1-u)``-th support
    value: the lower the least-satisfied contract sits, the higher the
    exchange bid must be.  :meth:`cutoffs` gives the segments as integer
    delivered counts.
    """

    thresholds: Tuple[float, ...]
    dist: RewardDistribution
    reserves: Tuple[float, ...] = field(init=False, repr=False, compare=False)
    # demand n -> cutoffs(n), filled on first use; not part of the value.  A fill
    # stores what any other would, so concurrent callers can only repeat work.
    _cuts: Dict[int, Tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _distribution(self.dist)  # its reserves would come unchecked
        object.__setattr__(self, "thresholds", _check_thresholds(self.thresholds, self.dist.d))
        object.__setattr__(self, "reserves", self.dist.support[::-1])
        object.__setattr__(self, "_cuts", {})

    @property
    def d(self) -> int:
        return self.dist.d

    def cutoffs(self, n: int) -> Tuple[int, ...]:
        """Segment cutoffs for demand ``n``, exact and memoized per ``n``.

        ``cut[u-1]`` is the largest delivered count ``k`` with ``k/n < s_u``:
        with ``s_u = p/q`` exactly, ``k <= cut`` if and only if ``k*q < p*n``,
        so ``cut = (p*n - 1) // q``.  It is -1 for ``s_u = 0`` and ``n - 1``
        for ``s_u = 1``, and non-decreasing in ``u``.  Raises ``DomainError``
        unless ``n`` is an integer >= 1.
        """
        if type(n) not in _BOOLS:  # True == 1 would find demand 1's cutoffs
            try:
                return self._cuts[n]
            except (KeyError, TypeError):
                pass
        n = _positive(n, "demand")
        ratios = map(float.as_integer_ratio, self.thresholds)
        cut = self._cuts[n] = tuple((p * n - 1) // q for p, q in ratios)
        return cut


# ---------------------------------------------------------------------------
# closed form for binary support
# ---------------------------------------------------------------------------


def binary_threshold(f: float, q: float, r: float, c: float) -> float:
    """Optimal single threshold for the binary distribution (0 w.p. q, r w.p. 1-q).

    Returns ``max(0, 1 + f*q*ln(1 - r/c))``; never exceeds 1 since r < c.
    """
    q, r = _binary(q, r)
    f, c = _supply(f), _penalty(c)
    if r >= c:
        raise DomainError(f"need r < c, got r={r}, c={c}")
    return max(0.0, 1.0 + f * q * math.log(1.0 - r / c))


# ---------------------------------------------------------------------------
# quantile-grid machinery shared by the finite-t computations
# ---------------------------------------------------------------------------


def _checked(dist: RewardDistribution, f: float, c: float, N: float = 1.0) -> tuple:
    """``(dist, f, c, N)`` checked, each number as the float computed with; ``dist`` validated against ``c``."""
    f, N, c = _supply(f), _demand(N), _penalty(c)
    return validate(dist, c), f, c, N


def _slice_segments(policy: ThresholdPolicy, t: int) -> np.ndarray:
    # 0-based segment of each 1/t slice j: serve_query's for count j - 1 at
    # demand t, the first u with j - 1 <= cut_u.  Checks t.
    _typed(policy, ThresholdPolicy)
    t = _positive(t, "t")
    return np.searchsorted(policy.cutoffs(t), np.arange(t))


def index_weights(policy: ThresholdPolicy, t: int) -> np.ndarray:
    """Per-slice LP weights ``w_j = 1/q_{d+1-u(j)}`` of the policy as a length-t array.

    ``u(j)`` is the segment ``serve_query`` applies to count ``j - 1`` at
    demand ``t``.  Raises ``DomainError`` unless ``t`` is an integer >= 1.
    """
    segments = _slice_segments(policy, t)
    return 1.0 / np.asarray(policy.dist.cum_mass[::-1])[segments]


def beta_closed_form(policy: ThresholdPolicy, f: float, N: float, t: int) -> np.ndarray:
    """Piecewise-geometric optimal LP solution, the adversary's profile ``beta``.

    ``beta[j-1]`` is the expected number of impressions allocated while the
    recipient had ``j - 1`` of ``t`` delivered, the 1/t slice ``j``.  Within
    its segment ``u`` (:func:`index_weights`) the profile decays by
    ``1 - (1/q_{d+1-u})/(t*f)`` per slice, chained across segments,
    starting from ``beta_1 = N/t``.
    """
    t = _positive(t, "t")
    f, N = _supply(f), _demand(N)
    w = index_weights(policy, t)
    factors = 1.0 - w / (t * f)
    if np.any(factors < 0.0):
        bad = float(np.max(w[factors < 0.0]))
        raise InfeasibleDecay(
            f"decay weight {bad} exceeds t*f = {t * f}; increase t"
        )
    return (N / t) * np.cumprod(np.concatenate(([1.0], factors[:-1])))


def lb_discrete(policy: ThresholdPolicy, f: float, c: float, N: float, t: int) -> float:
    """Objective of the serving policy against the worst case, at resolution t.

    ``-cN + sum_u fN (q_u - q_{u-1}) r_u
    + sum_j beta*_j (c - E[r | r <= r_{d+1-u(j)}])``
    in the units of the policy's distribution, whose top reward is at most
    ``c``, with slice ``j`` and segment ``u(j)`` as in :func:`index_weights`.
    From ``ub_continuous``'s terms, ``c - E[r | r <= r_k] = sum_{i<=k} m_i (c - r_i) / q_k``.
    """
    _typed(policy, ThresholdPolicy)
    dist, f, c, N = _checked(policy.dist, f, c, N)
    beta = beta_closed_form(policy, f, N, t)  # checks t
    mean, a, inv_q = _ub_terms(dist.support, dist.cum_mass, c)
    coefs = np.cumsum(a[::-1])[::-1] * inv_q
    return float(-c * N + f * N * mean + beta @ coefs[_slice_segments(policy, len(beta))])


# ---------------------------------------------------------------------------
# exact large-t objective
# ---------------------------------------------------------------------------


def _ub_terms(
    support: Sequence[float], cum_mass: Sequence[float], c: float
) -> Tuple[float, np.ndarray, np.ndarray]:
    # ub_continuous's decomposition: the mean reward, and per segment v the
    # coefficient a_v = m_{d+1-v} (c - r_{d+1-v}) and weight 1/q_{d+1-v}.
    support = np.asarray(support, dtype=float)
    cum = np.asarray(cum_mass, dtype=float)
    masses = np.diff(cum, prepend=0.0)
    return float(masses @ support), (masses * (c - support))[::-1], 1.0 / cum[::-1]


def _ub_value(
    support: Sequence[float],
    cum_mass: Sequence[float],
    thresholds: ArrayLike,
    f: float,
    c: float,
    N: float,
) -> np.ndarray:
    # Raw-array core of ub_continuous: one objective per threshold vector,
    # a row of ``thresholds``.  Tests call it directly on batches.
    _real(f * N * c, "f * N * c")  # bounds every term, as 0 <= r <= c
    mean, coefs, inv_q = _ub_terms(support, cum_mass, c)
    diffs = np.diff(np.asarray(thresholds, dtype=float), prepend=0.0, axis=-1)
    # X_v = sum_{j<=v} (s_j - s_{j-1}) / (f q_{d+1-j})
    X = np.cumsum(diffs * inv_q, axis=-1) / f
    return -c * N + f * N * mean + f * N * ((1.0 - np.exp(-X)) @ coefs)


def ub_continuous(
    thresholds: Sequence[float],
    dist: RewardDistribution,
    f: float,
    c: float,
    N: float = 1.0,
) -> float:
    """Exact closed-form objective for the threshold vector as t grows large.

    ``-cN + sum_u fN (q_u - q_{u-1}) r_u + fN * sum_u
    (1 - exp(-sum_{j<=d+1-u} (s_j - s_{j-1})/(f q_{d+1-j}))) (q_u - q_{u-1}) (c - r_u)``
    in ``dist``'s own units, its top reward at most ``c``.  Lowering every
    reward and ``c`` by ``r_1`` lowers it by ``(f - 1) N r_1`` (``normalize``).
    """
    checked, f, c, N = _checked(dist, f, c, N)
    ts = _check_thresholds(thresholds, checked.d)
    return float(_ub_value(checked.support, checked.cum_mass, ts, f, c, N))


# ---------------------------------------------------------------------------
# threshold optimization
# ---------------------------------------------------------------------------


def optimize_thresholds_exact(dist: RewardDistribution, f: float, c: float) -> ThresholdPolicy:
    """Closed-form maximizer of ``ub_continuous`` (water-filling).

    With ``Z_k = X_{d+1-k}`` the objective is ``fN sum_k m_k (c - r_k)
    (1 - exp(-Z_k))`` under ``sum_k m_k Z_k = 1/f``, ``Z >= 0``: a
    separable concave problem whose optimum is
    ``Z_k = max(0, ln((c - r_k)/lambda))``.  Since ``c - r_k`` decreases in
    ``k`` the ordering ``Z_1 >= ... >= Z_d`` holds on its own, so this is
    also the optimum over ordered thresholds.  Eliminating ``lambda`` gives
    each threshold directly, generalizing the binary closed form:

    ``s_{d+1-k} = max(0, 1 + f sum_{i<k} m_i ln((c - r_k)/(c - r_i)))``

    which is non-decreasing in the threshold index, equals 1 for ``k = 1``
    and is 0 for every atom with ``r_k = c``.  Only differences of
    ``ln(c - r)`` enter, so ``dist`` (top reward at most ``c``) is solved in
    its own units with every logarithm taken of ``(c - r)/(c - r_1)``: as
    well conditioned for a large lowest reward ``r_1`` as for ``r_1 = 0``,
    and a common shift of the rewards and ``c`` gives the same thresholds.
    """
    checked, f, c, _ = _checked(dist, f, c)
    masses = checked.point_masses()
    low = checked.support[0]
    top = c - low
    logs = [-math.inf if r - low >= top else math.log(1.0 - (r - low) / top) for r in checked.support]
    thresholds = [1.0]  # s_d, s_{d-1}, ..., s_1
    partial = 0.0  # sum_{i<k} m_i ln((c - r_i)/(c - r_1))
    for k in range(1, checked.d):
        partial += masses[k - 1] * logs[k - 1]
        s = max(0.0, 1.0 + f * checked.cum_mass[k - 1] * logs[k] - f * partial)
        thresholds.append(min(s, thresholds[-1]))
    return ThresholdPolicy(tuple(reversed(thresholds)), checked)


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


def make_policy(
    dist: RewardDistribution,
    penalty: float,
    f: float,
    N: float = 1.0,
) -> Tuple[ThresholdPolicy, float, float]:
    """Validate and optimize once; return ``(policy, objective, offset)``.

    The policy is :func:`optimize_thresholds_exact` on ``dist`` itself, for
    any support size.  The objective is :func:`ub_continuous` of that policy
    with every reward and the penalty lowered by the lowest reward ``r_1``
    as :func:`~yieldopt.dist.normalize` lowers them, and ``offset`` is its
    ``(f - 1) N r_1``: adding it gives ``ub_continuous`` in ``dist``'s units.
    The policy and its distribution are scored as checked, without a copy.
    Rejects a supply factor below 1 and a total demand of 0 or below, and
    either non-finite, and a non-finite ``f * N * (penalty - r_1)``, the
    scale of the objective.
    """
    f, N = _supply(f), _demand(N)
    policy = optimize_thresholds_exact(dist, f, penalty)
    support, lowered, offset = _lowered(policy.dist, penalty, f, N)
    objective = _ub_value(support, policy.dist.cum_mass, policy.thresholds, f, lowered, N)
    return policy, float(objective), offset
