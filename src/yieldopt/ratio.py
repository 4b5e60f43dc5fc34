"""Competitive-ratio formulas and the worst-case fixed-mean distribution.

The binary case has closed forms for both the algorithm's guarantee and
the offline optimum, so the ratio is explicit.  For a fixed mean, the
distribution minimizing the best-achievable reward is a point mass or one
of two extremal binary distributions; ``worst_case_distribution``
constructs the valid candidates and evaluates each one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .dist import RewardDistribution
from .errors import DomainError, _check_binary, _check_demand, _check_finite, _check_supply, _finite
from .policy import _ub_value, optimize_thresholds_exact, optimize_thresholds_grid


@dataclass(frozen=True)
class RatioReport:
    """Per-unit-demand guarantee, offline optimum, and their ratio.

    ``case`` records which branch applied: interior vs boundary threshold,
    and which side of 1/f the low-reward mass q falls on.  The ratio is
    never clamped; penalty-dominated regimes can make it negative.  It is
    ``None`` when the offline optimum is zero.
    """

    alg_bound: float
    opt: float
    ratio: Optional[float]
    case: str


def binary_alg_bound(f: float, q: float, r: float, c: float) -> Tuple[float, bool]:
    """Worst-case reward per unit demand of the optimal binary threshold.

    Returns ``(value, interior)``: when the unclamped threshold
    ``1 + f q ln(1 - r/c)`` is positive the interior form
    ``cf((1-1/f) - (1-r/c)^(1-q) e^(-1/f))`` applies, otherwise the
    threshold clamps to 0 and the value is
    ``cf((1-1/f) - (1-q)(1-r/c) - q e^(-1/(qf)))``.
    """
    _check_binary(q, r)
    _check_supply(f)
    _check_finite(c, "penalty")
    if r > c or c <= 0.0:
        raise DomainError(f"need r <= c and c > 0, got r={r}, c={c}")
    unclamped = 1.0 + f * q * math.log(1.0 - r / c) if r < c else -math.inf
    if unclamped > 0.0:
        value = c * f * ((1.0 - 1.0 / f) - (1.0 - r / c) ** (1.0 - q) * math.exp(-1.0 / f))
        return value, True
    value = c * f * (
        (1.0 - 1.0 / f) - (1.0 - q) * (1.0 - r / c) - q * math.exp(-1.0 / (q * f))
    )
    return value, False


def binary_opt(f: float, q: float, r: float) -> float:
    """Offline optimum per unit demand for the binary distribution."""
    _check_supply(f)
    _check_binary(q, r)
    return f * (1.0 - q) * r if q > 1.0 / f else f * (1.0 - 1.0 / f) * r


def binary_ratio(f: float, q: float, r: float, c: float) -> RatioReport:
    """Competitive ratio of the optimal binary threshold policy.

    The branch is selected from the sign of the unclamped threshold, which
    keeps the reported bound identical to the threshold objective itself.
    When the offline optimum is zero (``f = 1`` or ``r = 0``) the ratio is
    undefined: the report then has ``ratio=None`` and still carries the
    absolute bound and the case.
    """
    alg, interior = binary_alg_bound(f, q, r, c)  # checks f, q, r and c
    if r == c:
        raise DomainError(f"need r < c, got r={r}, c={c}")
    opt = binary_opt(f, q, r)
    case = (
        f"{'interior' if interior else 'boundary'}-threshold|"
        f"{'q>1/f' if q > 1.0 / f else 'q<=1/f'}"
    )
    ratio = alg / opt if opt != 0.0 else None
    return RatioReport(alg_bound=alg, opt=opt, ratio=ratio, case=case)


# ---------------------------------------------------------------------------
# worst-case distribution for a fixed mean
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorstCaseSpec:
    """Candidate worst-case distributions for mean mu, with their values."""

    mean: float
    penalty: float
    supply: float
    candidates: Tuple[Tuple[str, RewardDistribution, float], ...]

    @property
    def worst(self) -> Tuple[str, RewardDistribution, float]:
        return min(self.candidates, key=lambda item: item[2])

    @property
    def worst_value(self) -> float:
        return self.worst[2]


def best_achievable_reward(
    dist: RewardDistribution,
    penalty: float,
    f: float,
    N: float = 1.0,
    method: str = "exact",
) -> float:
    """Best objective any threshold vector attains against the adversary.

    ``ub_continuous`` of the solver's policy, in ``dist``'s own units.
    ``method="exact"`` uses the closed-form solver behind ``make_policy``;
    ``method="grid"`` the ``DEFAULT_GRID``-spaced optimum of
    ``optimize_thresholds_grid``, an independent check of the exact solver.
    """
    if method not in ("exact", "grid"):
        raise DomainError(f"unknown method {method!r}")
    solver = optimize_thresholds_exact if method == "exact" else optimize_thresholds_grid
    policy = solver(dist, f, penalty)
    _check_demand(N)
    return float(_ub_value(policy.dist.support, policy.dist.cum_mass, policy.thresholds, f, penalty, N))


def worst_case_distribution(mu: float, c: float, f: float) -> WorstCaseSpec:
    """Reward-minimizing distributions among all with mean mu.

    Candidates: (i) the point mass at mu; (ii) zero with probability 1/f
    and ``f mu/(f-1)`` otherwise, valid while that top value stays within
    the penalty; (iii) ``f mu - (f-1) c`` with probability 1/f and the
    penalty c otherwise, valid while that low value is non-negative.  The
    two binary candidates are mutually exclusive except at the boundary
    where they coincide.
    """
    _check_finite(c, "penalty")
    if not (_finite(mu) and 0.0 < mu <= c):
        raise DomainError(f"need 0 < mu <= c, got mu={mu!r}, c={c!r}")
    _check_supply(f)
    if f <= 1.0:
        raise DomainError(f"supply factor must exceed 1, got {f}")
    tol = 1e-12
    candidates = []

    def evaluate(label: str, dist: RewardDistribution) -> None:
        candidates.append((label, dist, best_achievable_reward(dist, c, f)))

    evaluate("point", RewardDistribution.point_mass(mu))
    top = f / (f - 1.0) * mu
    if top <= c + tol:
        evaluate("zero-low", RewardDistribution((0.0, min(top, c)), (1.0 / f, 1.0)))
    low = f * mu - (f - 1.0) * c
    if low >= -tol:
        low = max(low, 0.0)
        if abs(low - c) <= tol:
            dist = RewardDistribution.point_mass(c)
        else:
            dist = RewardDistribution((low, c), (1.0 / f, 1.0))
        evaluate("penalty-high", dist)
    return WorstCaseSpec(mean=mu, penalty=c, supply=f, candidates=tuple(candidates))
