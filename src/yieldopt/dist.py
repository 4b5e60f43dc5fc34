"""Discrete ad-exchange reward distributions.

A distribution is stored by its support values ``r_1 < ... < r_d`` and the
cumulative masses ``q_1 < ... < q_d = 1`` (``q_u`` is the probability that
the reward is at most ``r_u``; ``q_0 = 0`` is implicit).  Cumulative storage
matches the parameterization used by every downstream formula and avoids
re-summation drift.

Instances are immutable after construction and safe to share across threads;
random streams are always passed in by the caller, never stored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, MalformedDistribution, RewardExceedsPenalty
from .errors import _binary, _demand, _integer, _penalty, _positive, _real, _reals, _rng, _supply, _typed

# Construction-time renormalization window for the final cumulative mass.
_MASS_TOL = 1e-12
# Most levels found by one comparison pass each rather than a binary search:
# sample_array's atoms and offline_opt_exact's distinct rewards.
_FEW_LEVELS = 8


@dataclass(frozen=True)
class RewardDistribution:
    """Discrete distribution of the highest exchange bid.

    Attributes
    ----------
    support : tuple of float
        Strictly increasing reward values, all >= 0.
    cum_mass : tuple of float
        Strictly increasing cumulative masses in (0, 1], final entry
        exactly 1 (renormalized at construction when within 1e-12).
    """

    support: Tuple[float, ...]
    cum_mass: Tuple[float, ...]

    def __post_init__(self):
        support = tuple(_reals(self.support, "support", MalformedDistribution).tolist())
        cum = tuple(_reals(self.cum_mass, "cum_mass", MalformedDistribution).tolist())
        if len(support) == 0:
            raise MalformedDistribution("support must be non-empty")
        if len(support) != len(cum):
            raise MalformedDistribution(
                f"support and cum_mass lengths differ: {len(support)} vs {len(cum)}"
            )
        if any(v < 0.0 for v in support):
            raise MalformedDistribution("rewards must be non-negative")
        if any(b <= a for a, b in zip(support, support[1:])):
            raise MalformedDistribution("support must be strictly increasing")
        if any(b <= a for a, b in zip(cum, cum[1:])):
            raise MalformedDistribution("cum_mass must be strictly increasing")
        if cum[0] <= 0.0:
            raise MalformedDistribution("masses must be positive")
        if abs(cum[-1] - 1.0) > _MASS_TOL:
            raise MalformedDistribution(
                f"final cumulative mass is {cum[-1]!r}, expected 1"
            )
        if cum[-1] != 1.0:
            total = cum[-1]
            cum = tuple(v / total for v in cum[:-1]) + (1.0,)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "cum_mass", cum)

    # ---- constructors ----

    @classmethod
    def point_mass(cls, reward: float) -> "RewardDistribution":
        return cls((reward,), (1.0,))

    @classmethod
    def binary(cls, q: float, r: float) -> "RewardDistribution":
        """Reward 0 with probability q, reward r > 0 with probability 1 - q."""
        q, r = _binary(q, r)
        return cls((0.0, r), (q, 1.0))

    @classmethod
    def from_masses(cls, support: Sequence[float], masses: Sequence[float]) -> "RewardDistribution":
        """Build from point masses instead of cumulative masses."""
        return cls(support, np.cumsum(_reals(masses, "masses", MalformedDistribution)))

    # ---- basic queries ----

    @property
    def d(self) -> int:
        return len(self.support)

    def point_masses(self) -> Tuple[float, ...]:
        prev = 0.0
        out = []
        for q in self.cum_mass:
            out.append(q - prev)
            prev = q
        return tuple(out)

    def mean(self) -> float:
        return float(sum(m * r for m, r in zip(self.point_masses(), self.support)))

    # ---- JSON wire format ----

    def to_json(self) -> str:
        return json.dumps({"support": list(self.support), "cum_mass": list(self.cum_mass)})

    @classmethod
    def from_json(cls, text: str) -> "RewardDistribution":
        obj = json.loads(text)
        try:
            return cls(obj["support"], obj["cum_mass"])
        except (KeyError, TypeError) as exc:
            raise MalformedDistribution(f"bad distribution JSON: {exc}") from exc


# the type rule of every public function taking a distribution
_distribution = partial(_typed, cls=RewardDistribution, error=MalformedDistribution)


def validate(dist: RewardDistribution, penalty: float) -> RewardDistribution:
    """Gate for every downstream operation; returns ``dist`` itself.

    Checks the type (``_distribution``), then requires the top reward not to
    exceed the penalty.  A top reward above the penalty means those queries
    should always be sold on the exchange; we refuse rather than silently
    truncating, so the caller can pre-filter.  A non-finite penalty is a
    :class:`DomainError`.
    """
    penalty = _penalty(penalty)
    _distribution(dist)
    if dist.support[-1] > penalty:
        raise RewardExceedsPenalty(f"top reward {dist.support[-1]} exceeds penalty {penalty}")
    return dist


def _lowered(
    dist: RewardDistribution, penalty: float, f: float, total_demand: float
) -> Tuple[Tuple[float, ...], float, float]:
    """:func:`normalize`'s shift without its distribution: ``(support, penalty, offset)``.

    The support is ``dist.support`` itself when ``r_1 = 0``.
    """
    f, total_demand, penalty = _supply(f), _demand(total_demand), _penalty(penalty)
    r1 = validate(dist, penalty).support[0]
    if r1 == 0.0:
        return dist.support, penalty, 0.0
    return tuple(v - r1 for v in dist.support), penalty - r1, (f - 1.0) * total_demand * r1


def normalize(
    dist: RewardDistribution, penalty: float, f: float, total_demand: float
) -> Tuple[RewardDistribution, float, float]:
    """Shift rewards and penalty down by the lowest support value.

    Every allocation's objective in the original units exceeds the shifted
    objective by exactly ``(f - 1) * total_demand * r_1``: each of the
    ``f*N`` queries loses ``r_1`` of exchange value while each of the at
    most ``N`` undelivered impressions costs ``r_1`` less, and the delivered
    counts cancel.  Returns ``(shifted distribution, shifted penalty,
    offset)`` with the offset to add back when reporting absolute reward.
    The threshold solvers and objectives need no shift; ``make_policy``
    takes the same shift from ``_lowered``, building no shifted
    distribution, only to report its objective in shifted units.
    """
    support, lowered, offset = _lowered(dist, penalty, f, total_demand)
    if support is not dist.support:
        dist = RewardDistribution(support, dist.cum_mass)
    return dist, lowered, offset


def cond_mean_below(dist: RewardDistribution, u: int) -> float:
    """Mean reward conditioned on the reward being at most ``r_u`` (1-based u)."""
    _distribution(dist)
    u = _integer(u, "index u")
    if not 1 <= u <= dist.d:
        raise DomainError(f"index u={u} out of range 1..{dist.d}")
    masses = dist.point_masses()
    acc = sum(masses[i] * dist.support[i] for i in range(u))
    return float(acc / dist.cum_mass[u - 1])


def top_quantile_mean(dist: RewardDistribution, p: float) -> float:
    """Mean of the top ``p`` probability mass, splitting the boundary atom.

    ``p = 0`` returns 0 by convention; ``p = 1`` returns the full mean.  The
    atom straddling the ``1 - p`` quantile contributes only the part of its
    mass that lies inside the top ``p``.  When the top atom alone covers
    ``p``, the mean is its reward exactly, which ``p * r / p`` can miss by a
    last bit.
    """
    _distribution(dist)
    p = _real(p, "p", 0.0, 1.0, "in [0, 1]")
    if p == 0.0:
        return 0.0
    masses = dist.point_masses()
    if masses[-1] >= p:
        return float(dist.support[-1])
    remaining = p
    acc = 0.0
    for i in range(dist.d - 1, -1, -1):
        take = min(remaining, masses[i])
        acc += take * dist.support[i]
        remaining -= take
        if remaining <= 0.0:
            break
    return float(acc / p)


def sample_array(
    dist: RewardDistribution, rng: Union[int, np.random.Generator], size: int
) -> np.ndarray:
    """``size`` rewards drawn from ``rng``, a ``Generator`` or a seed for ``default_rng``.

    Identical generator state gives identical draws, so a seed draws what
    a fresh generator of that seed does.  One ``random(size)`` call takes
    the uniforms ``u``, and a draw is the atom whose index counts the
    cumulative masses at or below its ``u``.  With at most ``_FEW_LEVELS``
    atoms that count is one comparison pass ``u >= q_k`` per mass but the
    last, summed into ``uint8``; with more, a binary search
    (``searchsorted``, ``side="right"``) finds it.  Both give the same
    index bit for bit: the masses strictly increase and the last is
    exactly 1.0, above every ``u``.

    Measured on a 2-vCPU Xeon with the uniforms drawn apart (0.036 ms for
    12k, 0.45 ms for 200k), at d = 2, 3, 6, 8, 9 and 12 atoms the passes
    take 0.035, 0.038, 0.048, 0.054, 0.063 and 0.073 ms for 12k draws
    against the search's 0.096, 0.118, 0.175, 0.214, 0.234 and 0.269 ms,
    and 0.59, 0.64, 0.80, 0.82, 0.94 and 1.08 ms for 200k against 2.90,
    3.28, 4.31, 4.99, 5.34 and 5.71 ms.  Each pass is a Python-level call,
    so below about 200 draws at d = 2 and 2,000 at d = 8 the search wins
    by a few microseconds.  The passes still win at 12 atoms on large
    draws; the bound is the one ``offline_opt_exact`` measured, where more
    than 8 rewards lose on small instances.
    """
    _distribution(dist)
    u = _rng(rng).random(_positive(size, "size", least=0))
    cum = dist.cum_mass
    if len(cum) <= _FEW_LEVELS:
        idx = np.zeros(len(u), np.uint8)
        for q in cum[:-1]:
            idx += u >= q
    else:
        idx = np.searchsorted(cum, u, side="right")
    return np.asarray(dist.support, dtype=float)[idx]
