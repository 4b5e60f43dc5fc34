"""Competitive ratios and the worst-case fixed-mean distribution.

``competitive_ratio`` gives, for any bid distribution, the guarantee of
the optimal threshold policy, the expected offline optimum and their
ratio.  ``binary_alg_bound`` keeps the binary closed form of that
guarantee as a reference.  For a fixed mean, the distribution minimizing
the guarantee is a point mass or one of two extremal binary
distributions; ``worst_case_distribution`` constructs the valid
candidates and scores each one with ``competitive_ratio``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .dist import RewardDistribution
from .errors import DomainError, _check_binary, _check_finite, _check_supply, _finite
from .oracle import offline_opt_formula
from .policy import optimize_thresholds_exact, ub_continuous


@dataclass(frozen=True)
class RatioReport:
    """Per-unit-demand guarantee, offline optimum, and their ratio.

    ``clamped`` counts the thresholds ``s_1..s_{d-1}`` that the optimal
    policy puts at 0, each leaving its segment empty; for a binary
    distribution it is 1 exactly when the closed-form threshold is at its
    boundary.  The ratio is never clamped; penalty-dominated regimes can
    make it negative.  It is ``None`` when the offline optimum is zero.
    """

    alg_bound: float
    opt: float
    ratio: Optional[float]
    clamped: int


def competitive_ratio(dist: RewardDistribution, c: float, f: float) -> RatioReport:
    """Competitive ratio of the optimal threshold policy for any bid distribution.

    Per unit of demand: ``alg_bound`` is ``ub_continuous`` of the
    ``optimize_thresholds_exact`` policy, the best objective any threshold
    vector attains against the adversary; ``opt`` is
    ``offline_opt_formula(dist, f, 1)`` and ``ratio`` is ``alg_bound /
    opt``, ``None`` when ``opt`` is 0 (``f = 1``, or every bid 0).  Both
    are in the bids' own units.  With a lowest bid ``r_1 > 0`` each
    includes the ``(f - 1) r_1`` that every allocation earns
    (``normalize``), so this is the ratio of absolute rewards, not of the
    rewards above that floor: raising every bid and ``c`` by the same ``r``
    raises both by ``(f - 1) r`` and moves the ratio toward 1.
    """
    policy = optimize_thresholds_exact(dist, f, c)  # checks dist, c and f
    alg = ub_continuous(policy.thresholds, dist, f, c)
    opt = offline_opt_formula(dist, f, 1.0)
    clamped = policy.thresholds[:-1].count(0.0)
    return RatioReport(alg_bound=alg, opt=opt, ratio=alg / opt if opt != 0.0 else None, clamped=clamped)


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


# ---------------------------------------------------------------------------
# worst-case distribution for a fixed mean
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorstCaseSpec:
    """Candidate worst-case distributions for mean mu, each with its ``competitive_ratio``."""

    mean: float
    penalty: float
    supply: float
    candidates: Tuple[Tuple[str, RewardDistribution, RatioReport], ...]

    @property
    def worst(self) -> Tuple[str, RewardDistribution, RatioReport]:
        return min(self.candidates, key=lambda item: item[2].alg_bound)

    @property
    def worst_value(self) -> float:
        return self.worst[2].alg_bound


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
        candidates.append((label, dist, competitive_ratio(dist, c, f)))

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
