"""Online serving engine.

The threshold rule, per arriving query: find the eligible advertiser with
the lowest satisfaction ratio (SR = delivered / demand, ties toward the
smallest id), look up the reserve of the segment that SR falls in, and send
the query to the exchange only when the reward beats the reserve.

:func:`serve_query` applies it to one query and is the reference; it reads
the reserve from the policy's precomputed ``reserves`` and returns a
:class:`Decision`, an immutable ``NamedTuple`` (so besides its named fields
it unpacks and compares like a tuple), built by one C call.
:func:`run_rewards` serves a whole instance against a fixed reward sequence
with the same delivered vector, by segment jumps instead of a Python step
per query.  Within a group the eligible set ``E`` is fixed, so the group's
deliveries go to the keys ``(k/n_a, a)``, ``a`` in ``E`` and ``k = k_a ..
n_a - 1`` from its delivered count ``k_a``, in sorted order.  A key's
segment is monotone in its SR, so segment ``u`` takes exactly as many
deliveries as it holds keys, ``D_u``, and the ``D_u``-th reward at or below
its reserve ends it; then one water-level placement puts the group's
deliveries on its first keys.  A group's ids are a view of the instance's
id index, one read-only ``np.intp`` array built with the instance.  With
equal demands every id shares one cutoff row, the only one the run builds,
so one sort of the group's delivered counts and their prefix sums gives
both the ``D_u`` (:func:`_ends_equal`) and the integer water level
(:func:`_fill_equal`); a group whose least count is the demand is
saturated and sells every query.
Otherwise the ``D_u`` are sums over the group's columns of a per-advertiser
cutoff table, and only the keys between two continuous levels are listed
and sorted (:func:`_fill`); a group that takes at most one delivery per id
needs only the upper level.  Either way a group costs a fixed number of
numpy passes over its ids.

Exactness: no SR is ever a float.  Both paths order SRs by the integer
``floor(k * D / n)``, with ``D`` the squared largest demand
(:func:`_sr_scale`).  It is strictly increasing in ``k/n``: distinct ratios
with denominators at most ``sqrt(D)`` differ by at least ``1/D``, so their
scaled values differ by at least 1.  Per query, ``AllocationState.rank[a]
= floor(k_a * D / n_a) * m + a`` therefore orders advertisers exactly by
(SR, id), ties included, and the target is the eligible id of least rank;
``_fill`` sorts a group's keys by the same integer.  Both paths take
segments from :meth:`ThresholdPolicy.cutoffs`: ``cutoffs(n)[u-1]`` is the
largest ``k`` with ``k/n < s_u``, from the threshold's exact integer ratio,
so a delivered count lies in the first segment whose cutoff it does not
exceed.  The water level is found by integer cross-multiplication.

``delivered`` is written only through :func:`_deliver`, which keeps ``rank``
in step with it.  One ``AllocationState`` belongs to one run and is mutated
single-threaded; runs are independent and parallelizable across seeds.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .dist import RewardDistribution, sample_array
from .errors import DomainError
from .errors import _check_rewards, _demands, _finite, _integers, _penalty, _real, _typed
from .instances import Instance
from .policy import ThresholdPolicy


def _sr_scale(demands: Sequence[int]) -> int:
    """``D``, the squared largest demand: ``floor(k * D / n)`` orders SRs exactly."""
    top = max(demands)
    return top * top


@dataclass
class AllocationState:
    """Per-advertiser delivery progress plus running exchange revenue.

    ``scale`` is ``D`` and ``rank[a]`` is advertiser ``a``'s exact (SR, id)
    key (module docstring); both are derived, and :func:`_deliver` keeps
    ``rank`` in step.  Raises ``DomainError`` unless the demands are
    integers >= 1 and ``delivered`` holds one integer ``0 <= k <= n`` per
    demand ``n``.
    """

    demands: Tuple[int, ...]
    delivered: List[int]
    exchange_revenue: float = 0.0
    queries: int = 0
    rank: List[int] = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        demands = _demands(self.demands)
        delivered = _integers(self.delivered, "delivered count")
        if len(delivered) != len(demands):
            raise DomainError(f"expected {len(demands)} delivered counts, got {len(delivered)}")
        for k, n in zip(delivered, demands):
            if not 0 <= k <= n:
                raise DomainError(f"delivered count must be in [0, {n}], got {k}")
        m, scale = len(demands), _sr_scale(demands)
        self.demands, self.delivered, self.scale = demands, delivered, scale
        self.rank = [k * scale // n * m + a for a, (k, n) in enumerate(zip(delivered, demands))]

    @classmethod
    def fresh(cls, demands: Sequence[int]) -> "AllocationState":
        return cls(tuple(demands), [0] * len(demands))


def _deliver(state: AllocationState, a: int) -> None:
    # the one writer of delivered, and of rank after construction
    k = state.delivered[a] + 1
    state.delivered[a] = k
    state.rank[a] = k * state.scale // state.demands[a] * len(state.demands) + a


class Decision(NamedTuple):
    """Outcome of a single query: contract target or exchange, with context.

    An immutable named tuple: fields read by name, and it also unpacks,
    indexes and compares like a plain tuple of its four fields.
    """

    kind: str  # "contract" | "exchange"
    advertiser: Optional[int] = None
    reserve: Optional[float] = None
    min_sr_advertiser: Optional[int] = None


@dataclass(frozen=True)
class RunReport:
    """Realized reward decomposition for one completed run."""

    reward: float
    exchange_revenue: float
    penalty_paid: float
    offset: float
    demands: Tuple[int, ...]
    delivered: Tuple[int, ...]
    queries: int

    @property
    def fill_rate(self) -> float:
        return sum(self.delivered) / sum(self.demands)


# Decision's fields in order, built by one C call (tuple.__new__) instead of
# NamedTuple's keyword __new__
_decision = partial(tuple.__new__, Decision)


def serve_query(
    state: AllocationState,
    policy: ThresholdPolicy,
    eligible: Iterable[int],
    reward: float,
) -> Decision:
    """Route one query; mutates ``state``. Deterministic given its inputs.

    ``eligible`` may be any iterable of advertiser ids, in any order; the
    reward is read as a float, as :func:`run_rewards` reads it.  Raises
    ``DomainError``, leaving ``state`` as it was, on a reward that is not a
    finite real number and on an id that is not an integer in ``0..m-1``
    (a negative id or a bool only when it would be the target).
    """
    if type(reward) is float:  # checked inline: errors._finite costs every query a call
        finite = math.isfinite(reward)
    else:
        finite = _finite(reward)
        reward = float(reward) if finite else reward  # the float64 run_rewards compares and sums
    if not finite:
        raise DomainError(f"reward must be finite, got {reward!r}")
    # The target is the eligible id of least rank, the first one met on a tie
    # (ranks of distinct ids differ): smallest SR, ties toward the smallest id.
    # Its reserve is that of the first segment u with k <= cut_u, found by
    # bisection since the cutoffs are non-decreasing; it stays None when no
    # eligible advertiser can take the query (none, or saturated).  A negative
    # id -j reads rank[m - j], and a bool rank[0] or rank[1]: unless it is the
    # target, the target is the valid ids' own, and when it is, the query is
    # rejected.
    rank = state.rank
    best, least, reserve = None, math.inf, None
    try:
        for a in eligible:
            r = rank[a]
            if r < least:
                best, least = a, r
    except (TypeError, IndexError) as exc:
        raise DomainError(f"advertiser ids must be integers in 0..{len(rank) - 1}: {exc}") from exc
    if best is not None:
        if best < 0 or type(best) is bool:
            raise DomainError(f"advertiser ids must be integers in 0..{len(rank) - 1}, got {best}")
        k, n = state.delivered[best], state.demands[best]
        if k < n:
            reserve = policy.reserves[bisect_left(policy.cutoffs(n), k)]
    state.queries += 1
    if reserve is not None and reward <= reserve:
        _deliver(state, best)
        return _decision(("contract", best, reserve, best))
    state.exchange_revenue += reward
    return _decision(("exchange", None, reserve, best))


def finalize(state: AllocationState, penalty: float) -> RunReport:
    """Reward = exchange revenue - penalty * undelivered, in the rewards' units.

    Raises ``DomainError`` on a non-finite penalty.
    """
    _typed(state, AllocationState)
    return _report(
        state.demands, tuple(state.delivered), state.exchange_revenue, state.queries, penalty, 0.0
    )


def _report(
    demands: Tuple[int, ...],
    delivered: Tuple[int, ...],
    revenue: float,
    queries: int,
    penalty: float,
    offset: float,
) -> RunReport:
    penalty, offset = _penalty(penalty), _real(offset, "offset")
    undelivered = sum(n - k for n, k in zip(demands, delivered))
    penalty_paid = penalty * undelivered
    return RunReport(
        reward=revenue - penalty_paid + offset,
        exchange_revenue=revenue,
        penalty_paid=penalty_paid,
        offset=offset,
        demands=demands,
        delivered=delivered,
        queries=queries,
    )


# ---------------------------------------------------------------------------
# whole-instance runs
# ---------------------------------------------------------------------------


def _fill(k: np.ndarray, n: np.ndarray, t: int, scale: int) -> np.ndarray:
    """Delivered counts after ``t`` deliveries to the first ``t`` keys.

    The keys of advertiser ``i`` are ``(j / n[i], i)`` for ``j = k[i] ..
    n[i] - 1``, taken in sorted order; ``t`` is at most their number.  Two
    continuous water levels bound the keys that can be taken, and only the
    keys between them are listed and sorted by ``floor(j * scale / n)``.
    When ``t <= len(k)``, the usual case on wide eligibility sets, the lower
    level is the least ratio and skips nothing, so only the upper one is
    found.  Levels and counts are Python integers; the arrays see three floor
    divisions: the advertisers' order, the upper bound, the listed keys' order.
    """
    # F(x) = sum (x n - k)^+ is the continuous count of keys below level x.
    # With the advertisers sorted by k/n and the first i + 1 of them filling,
    # F(x) = v solves to x = (v + sum k) / (sum n), valid while that is at or
    # above the (i + 1)-th ratio, i.e. ks * sn <= ns * (sk + v); the test is
    # monotone in i.  The exact counts straddle F: below x at least F(x), at
    # most F(x) + len(k).  A level is kept as (numerator, denominator).
    order = (k * scale // n).argsort()
    ks, ns = k[order], n[order]
    sk, sn = ks.cumsum(), ns.cumsum()
    ksn = ks * sn

    def level(v: int) -> Tuple[int, int]:
        i = np.count_nonzero(ksn <= ns * (sk + v)) - 1
        return v + int(sk[i]), int(sn[i])

    # every key taken lies at or below F = t, a level of at most 1; at 1 (t is
    # every key) the listed j = n keys sort last, by their key scale.  Every
    # key strictly below F = t - len(k) is taken (fewer than t of them), and
    # at most 2 len(k) keys lie between the two levels
    num, den = level(t)
    first = k
    if t > len(k):
        low, below = level(t - len(k))
        first = np.maximum(-(-low * n // below), k)
        t -= int((first - k).sum())
    span = num * n // den - first + 1
    span = np.maximum(span, 0, out=span).astype(np.int64, copy=False)
    owner = np.arange(len(k)).repeat(span)
    # listed keys by owner, then j; a stable sort breaks key ties toward the smaller id
    j = (first - (span.cumsum() - span))[owner] + np.arange(len(owner))
    taken = (j * scale // n[owner]).argsort(kind="stable")[:t]
    return first + np.bincount(owner[taken], minlength=len(k))


def _fill_equal(k: np.ndarray, ks: np.ndarray, sk: np.ndarray, t: int, steps: np.ndarray) -> np.ndarray:
    """:func:`_fill` when every advertiser has the same demand, without listing keys.

    ``ks`` is ``k`` sorted, ``sk`` its prefix sums and ``steps`` the run's
    ``1, 2, ...``, at least ``len(k)`` long.  The keys are then ``(j, i)``:
    every count below a level ``L`` rises to ``L``, and the deliveries left
    over, fewer than the counts now at ``L``, go one each to the smallest ids
    among them; those ids are looked up only when some are left over.  ``L``
    is below the demand because a key is left.  ``k`` is not written.
    """
    # lifting the first i + 1 sorted counts to ks[i] takes (i + 1) ks[i] - sk[i]
    # deliveries, non-decreasing in i; the last i where that is at most t leaves
    # ks[i] <= L < ks[i + 1], so exactly the first i + 1 counts reach L
    i = int((steps[: len(ks)] * ks - sk).searchsorted(t, side="right")) - 1
    level, extra = divmod(t + int(sk[i]), i + 1)
    out = np.maximum(k, level)
    if extra:
        out[(k <= level).nonzero()[0][:extra]] += 1
    return out


def _ends_equal(ks: np.ndarray, sk: np.ndarray, reach: np.ndarray) -> List[int]:
    """An equal-demand group's keys in segments ``1..u+1``, for each ``u``.

    From its sorted counts ``ks``, their prefix sums ``sk`` and ``reach[u] =
    cut_u(n) + 1``: the ``b`` counts below ``reach[u]`` hold ``reach[u] * b -
    sk[b - 1]`` keys.
    """
    below = ks.searchsorted(reach).tolist()
    return [r * b - int(sk[b - 1]) if b else 0 for r, b in zip(reach.tolist(), below)]


def run_rewards(
    instance: Instance,
    policy: ThresholdPolicy,
    penalty: float,
    rewards: Sequence[float],
    offset: float = 0.0,
) -> RunReport:
    """Serve every query of ``instance`` against a fixed reward sequence.

    Same delivered vector and query count as calling :func:`serve_query` per
    query, computed a group at a time by segment jumps (module docstring).
    With equal demands the run builds only the one cutoff row every id
    shares, and each group sorts its delivered counts once: that sort gives
    both its segment ends and its water level.  Exchange revenue is the numpy
    (pairwise) sum of every reward times its 0/1 sold flag, a multiply-sum
    that costs less than compacting the sold rewards out of their mask; not
    a dot product, whose BLAS rounding depends on its thread split.  It may
    differ from a replay's sequential sum, and from the exact sum, in the
    last bits.  ``offset`` is added to the reward as given; rewards in the
    distribution's own units need none.  Raises ``DomainError`` unless
    ``rewards`` holds one finite real number per query, and on a non-finite
    penalty or offset.
    """
    _typed(instance, Instance)
    _typed(policy, ThresholdPolicy)
    rewards = _check_rewards(rewards, instance.total_queries)
    demands = instance.demands
    top, scale = max(demands), _sr_scale(demands)
    equal = len(set(demands)) == 1
    # products in _fill stay below top**3 and top * total demand, and the
    # equal-demand path's reach_u * below_u and (i + 1) * ks[i] at most
    # top * total demand; past int64 the same code runs on Python integers
    dtype = np.int64 if max(top * scale, top * instance.total_demand) < 2**63 else object
    n = np.array(demands, dtype=dtype)
    k = np.zeros(len(demands), dtype=dtype)
    # reach[u, a]: keys j <= cut_u(n_a), how far segments 1..u+1 take a from 0, one contiguous row
    # per segment so a group's columns come out in one take; equal demands share one column, reach[u]
    cuts = policy.cutoffs(top) if equal else [policy.cutoffs(v) for v in demands]
    reach = np.ascontiguousarray(np.array(cuts, dtype=dtype).T) + 1
    steps = np.arange(1, len(demands) + 1)  # for equal demands
    sold = np.ones(len(rewards), dtype=bool)
    ids, bounds = instance._eligible_index
    end = 0
    for (count, _), lo, hi in zip(instance.groups, bounds, bounds[1:]):
        p, end = end, end + count
        if lo == hi or not count:
            continue
        e = ids[lo:hi]
        ke = k[e]
        # the group's keys in segments 1..u+1, for each u; the last entry counts all of them
        if equal:  # one sort feeds both the ends and the placement
            ks = ke.copy()
            ks.sort()
            if ks[0] == top:  # every eligible advertiser is saturated: the group sells every query
                continue
            sk = ks.cumsum()
            ends = _ends_equal(ks, sk, reach)
        else:
            left = reach.take(e, axis=1)
            left -= ke
            ends = np.maximum(left, 0, out=left).sum(axis=1).tolist()
        taken = 0
        for reserve, total in zip(policy.reserves, ends):
            if total == taken:
                continue
            low = rewards[p:end] <= reserve
            hits = low.nonzero()[0]
            if len(hits) < total - taken:  # the group ends inside this segment
                np.logical_not(low, out=sold[p:end])
                taken += len(hits)
                break
            stop = p + int(hits[total - taken - 1]) + 1
            np.logical_not(low[: stop - p], out=sold[p:stop])
            taken, p = total, stop
        # past the last key every eligible advertiser is saturated: the rest stays sold
        if taken:
            k[e] = _fill_equal(ke, ks, sk, taken, steps) if equal else _fill(ke, n[e], taken, scale)
    revenue = float((rewards * sold).sum())
    return _report(demands, tuple(k.tolist()), revenue, len(rewards), penalty, offset)


def run_instance(
    instance: Instance,
    policy: ThresholdPolicy,
    penalty: float,
    dist: RewardDistribution,
    seed: Union[int, np.random.Generator],
) -> RunReport:
    """Sample a reward per query from ``dist`` under ``seed`` and run, in ``dist``'s units."""
    _typed(instance, Instance)
    rewards = sample_array(dist, seed, instance.total_queries)
    return run_rewards(instance, policy, penalty, rewards)
