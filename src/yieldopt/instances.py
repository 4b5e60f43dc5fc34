"""Instance model, adversarial generator, and supply-factor computation.

An instance is a set of contractual advertisers with impression demands and
an ordered list of query groups, each group carrying its eligibility set.
Groups that are already canonical (a ``(count, ids)`` tuple of exact ints,
the ids strictly increasing in ``0..m-1``) are kept as given, after a few
whole-instance passes; every other input goes through the per-group rule,
which converts it or raises.  Either way the same passes then build the id
index whole-instance runs read, once, at construction.

The supply factor of an instance is the largest ``f`` such that a
fractional offline allocation can deliver ``f * n_a`` to every advertiser.
It is never declared: :func:`supply_factor` computes it, as ``Q / N`` when
one exact integer flow places every query, else by binary search over
max-flow feasibility.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import List, Optional, Tuple, Union

import numpy as np

from ._flow import _Flow
from .errors import DomainError, NonIntegralGroupSize, _demands, _integers, _positive, _real
from .errors import _rng, _sequence, _typed

_INTEGRALITY_TOL = 1e-9  # generators: relative distance of f*n from an integer
_SUPPLY_TOL = 1e-9  # supply_factor: width of the final bisection interval


@dataclass(frozen=True)
class Instance:
    """Advertiser demands plus ordered query groups with eligibility sets.

    A group is a ``(count, eligible ids)`` pair.  When every group is
    canonical, a tuple of an exact ``int`` count >= 0 and a tuple of exact
    ``int`` ids strictly increasing in ``0..m-1``, the groups are kept as
    given.  Any other input goes through the per-group rule: the count and
    the ids must be integers (``3.0`` and ``numpy`` integers pass, bools do
    not), the count >= 0 and the ids in ``0..m-1``; the ids are sorted and
    repeats dropped.  Both give the same value for the same groups.

    Construction also builds ``_eligible_index``, every group's ids in one
    read-only ``np.intp`` array plus offsets (group ``g``'s are
    ``ids[bounds[g]:bounds[g + 1]]``).  No part of the value, it is built
    again by construction from a pickle or copy, which holds the value alone.
    """

    demands: Tuple[int, ...]
    groups: Tuple[Tuple[int, Tuple[int, ...]], ...]

    def __post_init__(self):
        demands = _demands(self.demands)
        m = len(demands)
        groups = _sequence(self.groups, "groups")
        index = _canonical(groups, m)
        if index is None:  # the rule's groups are canonical, so the second call builds the index
            groups = [_group(i, group, m) for i, group in enumerate(groups)]
            index = _canonical(groups, m)
        object.__setattr__(self, "demands", demands)
        object.__setattr__(self, "groups", tuple(groups))
        object.__setattr__(self, "_eligible_index", index)

    def __reduce__(self):
        # pickles and copies the value alone; __post_init__ rebuilds the index
        return type(self), (self.demands, self.groups)

    @property
    def m(self) -> int:
        return len(self.demands)

    @property
    def total_demand(self) -> int:
        return sum(self.demands)

    @property
    def total_queries(self) -> int:
        return sum(count for count, _ in self.groups)

    def expand(self) -> List[Tuple[int, ...]]:
        """Eligibility set per query in arrival order (small instances only)."""
        out: List[Tuple[int, ...]] = []
        for count, elig in self.groups:
            out.extend([elig] * count)
        return out

    # ---- JSON wire format ----

    def to_json(self) -> str:
        groups = [{"count": c, "eligible": list(e)} for c, e in self.groups]
        return json.dumps({"demands": list(self.demands), "groups": groups})

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        obj = json.loads(text)
        try:
            if "supply_factor" in obj:
                raise DomainError("key 'supply_factor' rejected: the supply factor is computed")
            return cls(
                tuple(obj["demands"]),
                tuple((g["count"], tuple(g["eligible"])) for g in obj["groups"]),
            )
        except (KeyError, TypeError) as exc:
            raise DomainError(f"bad instance JSON: {exc}") from exc


def _canonical(groups: list, m: int) -> Optional[Tuple[np.ndarray, Tuple[int, ...]]]:
    """``Instance._eligible_index`` of canonical groups, else ``None``.

    Canonical: every group a ``(count, ids)`` tuple of exact ints, the ids
    strictly increasing in ``0..m-1``.  Whole-instance passes in C, typed
    before anything is read, so it never raises: a ``None`` sends the
    groups through :func:`_group`.
    """
    if not set(map(type, groups)) <= {tuple} or not set(map(len, groups)) <= {2}:
        return None
    counts, elig = zip(*groups) if groups else ((), ())
    if not (set(map(type, counts)) <= {int} and set(map(type, elig)) <= {tuple}):
        return None
    if not (set(map(type, chain.from_iterable(elig))) <= {int} and min(counts, default=0) >= 0):
        return None
    bounds = np.cumsum([0, *map(len, elig)])
    try:
        ids = np.fromiter(chain.from_iterable(elig), np.intp, int(bounds[-1]))
    except OverflowError:  # an id beyond intp is out of range; the group rule says so
        return None
    if ids.size and (ids.min() < 0 or ids.max() >= m):
        return None
    rises = ids[1:] > ids[:-1]
    # a group's first id need not exceed the previous group's last; an empty group's start is the next one's
    starts = bounds[1:-1]
    rises[starts[(starts > 0) & (starts < ids.size)] - 1] = True
    if not rises.all():
        return None
    ids.flags.writeable = False
    return ids, tuple(bounds.tolist())


def _group(i: int, group, m: int) -> Tuple[int, Tuple[int, ...]]:
    """Group ``i`` as ``(count, ids)``: integers, count >= 0, ids sorted, unique and in ``0..m-1``."""
    try:
        count, elig = group
        iter(elig)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"group {i} must be a (count, eligible ids) pair, got {group!r}") from exc
    count = _positive(count, "group count", least=0)
    ids = tuple(sorted(set(_integers(elig, "advertiser id"))))
    if ids and (ids[0] < 0 or ids[-1] >= m):
        raise DomainError(f"eligibility ids out of range 0..{m - 1}: {ids}")
    return count, ids


def _query_count(m, n, f: float, per_group: bool) -> Tuple[int, int, int]:
    """Checked ``(m, n, count)`` of a generator; ``count`` is ``f*n``, or ``f*m*n`` in all.

    Exact: the float value of ``f`` times the integer, rounded to the nearest
    integer when within ``_INTEGRALITY_TOL`` of it, relatively.
    """
    m, n = _positive(m, "m"), _positive(n, "n")
    f = _real(f, "supply factor", math.ulp(0.0), domain="finite and > 0")
    count = Fraction(f) * (n if per_group else m * n)
    nearest = round(count)
    if abs(count - nearest) > Fraction(_INTEGRALITY_TOL) * max(1, count):
        raise NonIntegralGroupSize(f"{'f*n' if per_group else 'f*m*n'} = {float(count)} is not an integer")
    return m, n, nearest


def _triangle(perm: np.ndarray, n: int, group_size: int) -> Instance:
    """Demand ``n`` each; group ``i`` of ``group_size`` queries is eligible to ``j`` with ``perm[j] >= i``.

    Advertiser ``j`` leaves after group ``perm[j]``: walking the advertisers
    in leaving order, each group is the ids not yet gone, all groups built
    from one shared id list.
    """
    left = list(range(len(perm)))
    groups = []
    for a in np.argsort(perm).tolist():
        groups.append((group_size, tuple(left)))
        left.remove(a)
    return Instance((n,) * len(perm), tuple(groups))


def gen_upper_triangular(
    m: int, n: int, f: float, seed: Union[int, np.random.Generator]
) -> Instance:
    """Adversarial construction: m groups of f*n queries under a random permutation.

    Group ``i`` (0-based, arrival order) is eligible exactly to advertisers
    ``j`` with ``pi(j) >= i``, so one randomly chosen advertiser drops out
    per group.  Its supply factor is ``f`` by construction (Hall-tight).
    ``pi`` is the stream's first draw, ``permutation(m)``, so a seed and a
    fresh ``Generator`` of it build the same instance.
    """
    m, n, group_size = _query_count(m, n, f, per_group=True)
    return _triangle(_rng(seed).permutation(m), n, group_size)


def complete_instance(m: int, n: int, f: float) -> Instance:
    """Single fully-eligible group of f*m*n queries."""
    m, n, total = _query_count(m, n, f, per_group=False)
    return Instance((n,) * m, ((total, tuple(range(m))),))


def _flow_feasible(instance: Instance, f: float, tol: float = 1e-9) -> bool:
    import networkx as nx  # imported here only: it is most of the package's import time

    g = nx.DiGraph()
    src, snk = "s", "t"
    for i, (count, elig) in enumerate(instance.groups):
        if count == 0:
            continue
        g.add_edge(src, ("g", i), capacity=float(count))
        for a in elig:
            g.add_edge(("g", i), ("a", a), capacity=float(count))
    target = 0.0
    for a, n in enumerate(instance.demands):
        need = f * n
        g.add_edge(("a", a), snk, capacity=need)
        target += need
    value = nx.maximum_flow_value(g, src, snk)
    return value >= target - tol * max(1.0, target)


def supply_factor(instance: Instance) -> float:
    """Largest f such that a fractional allocation delivers f*n_a to everyone.

    0 when some advertiser has no eligible queries.  ``Q / N`` when one
    level of the exact integer flow ``_flow._Flow`` places all ``Q * N``
    units: advertiser ``a`` needs ``Q * n_a`` and each group with queries
    supplies ``count * N``, smallest eligible set first.  Else binary search
    on max-flow feasibility, narrowed below ``_SUPPLY_TOL``.  The flow shares
    ``offline_opt_exact``'s counted-work cap and raises :class:`SizeLimit` past it.
    """
    _typed(instance, Instance)
    groups = instance.groups
    if len(set().union(*(elig for count, elig in groups if count))) < instance.m:
        return 0.0
    Q, N = instance.total_queries, instance.total_demand
    flow = _Flow(tuple(Q * n for n in instance.demands), [e for _, e in groups])
    order = sorted(range(len(groups)), key=lambda g: len(groups[g][1]))
    [(_, placed)] = flow.levels((0, g, groups[g][0] * N) for g in order if groups[g][0])
    hi = Q / N
    if placed == Q * N:
        return hi
    lo = 0.0
    while hi - lo > _SUPPLY_TOL:
        mid = (lo + hi) / 2.0
        if _flow_feasible(instance, mid):
            lo = mid
        else:
            hi = mid
    return lo
