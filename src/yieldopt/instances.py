"""Instance model, adversarial generator, and supply-factor computation.

An instance is a set of contractual advertisers with impression demands and
an ordered list of query groups, each group carrying its eligibility set.
When an instance declares a supply factor ``f`` the total query count must
equal ``f * N`` exactly (``N`` = total demand).

The supply factor of an arbitrary instance is the largest ``f`` such that a
fractional offline allocation can deliver ``f * n_a`` to every advertiser;
it is computed by binary search over max-flow feasibility.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import networkx as nx
import numpy as np

from .errors import DomainError, NonIntegralGroupSize

_INTEGRALITY_TOL = 1e-9


def _integer(value, what: str) -> int:
    """``value`` as an int; integral floats pass, fractions and non-numbers raise."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what} must be an integer, got {value!r}") from exc
    if as_int != value:
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return as_int


@dataclass(frozen=True)
class Instance:
    """Advertiser demands plus ordered query groups with eligibility sets."""

    demands: Tuple[int, ...]
    groups: Tuple[Tuple[int, Tuple[int, ...]], ...]
    supply: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self):
        demands = tuple(_integer(n, "demand") for n in self.demands)
        if not demands or any(n <= 0 for n in demands):
            raise DomainError(f"demands must be positive integers: {demands}")
        m = len(demands)
        groups = []
        for count, elig in self.groups:
            count = _integer(count, "group count")
            if count < 0:
                raise DomainError(f"group count must be >= 0, got {count}")
            ids = tuple(sorted(set(_integer(a, "advertiser id") for a in elig)))
            if ids and (ids[0] < 0 or ids[-1] >= m):
                raise DomainError(f"eligibility ids out of range 0..{m - 1}: {ids}")
            groups.append((count, ids))
        object.__setattr__(self, "demands", demands)
        object.__setattr__(self, "groups", tuple(groups))
        if self.supply is not None:
            if not math.isfinite(self.supply):
                raise DomainError(f"supply factor must be finite, got {self.supply}")
            target = float(self.supply) * self.total_demand
            if abs(target - round(target)) > _INTEGRALITY_TOL * max(1.0, target):
                raise DomainError(
                    f"supply factor {self.supply} times demand {self.total_demand} "
                    "is not an integer query count"
                )
            if self.total_queries != round(target):
                raise DomainError(
                    f"declared supply factor {self.supply} requires "
                    f"{round(target)} queries, instance has {self.total_queries}"
                )

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
        obj = {
            "demands": list(self.demands),
            "groups": [{"count": c, "eligible": list(e)} for c, e in self.groups],
        }
        if self.supply is not None:
            obj["supply_factor"] = self.supply
        if self.seed is not None:
            obj["seed"] = self.seed
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        obj = json.loads(text)
        try:
            return cls(
                tuple(obj["demands"]),
                tuple((g["count"], tuple(g["eligible"])) for g in obj["groups"]),
                supply=obj.get("supply_factor"),
                seed=obj.get("seed"),
            )
        except (KeyError, TypeError) as exc:
            raise DomainError(f"bad instance JSON: {exc}") from exc


def gen_upper_triangular(m: int, n: int, f: float, seed: int) -> Instance:
    """Adversarial construction: m groups of f*n queries under a random permutation.

    Group ``i`` (0-based, arrival order) is eligible exactly to advertisers
    ``j`` with ``pi(j) >= i``, so one randomly chosen advertiser drops out
    per group.  Its supply factor is ``f`` by construction (Hall-tight).
    """
    if m < 1 or n < 1:
        raise DomainError(f"need m, n >= 1, got m={m}, n={n}")
    group_size = f * n
    if abs(group_size - round(group_size)) > _INTEGRALITY_TOL * max(1.0, group_size):
        raise NonIntegralGroupSize(f"f*n = {group_size} is not an integer")
    group_size = int(round(group_size))
    perm = np.random.default_rng(seed).permutation(m)
    groups = tuple(
        (group_size, tuple(int(j) for j in np.nonzero(perm >= i)[0]))
        for i in range(m)
    )
    return Instance((n,) * m, groups, supply=f, seed=seed)


def complete_instance(m: int, n: int, f: float) -> Instance:
    """Single fully-eligible group of f*m*n queries."""
    total = f * m * n
    if abs(total - round(total)) > _INTEGRALITY_TOL * max(1.0, total):
        raise NonIntegralGroupSize(f"f*m*n = {total} is not an integer")
    return Instance((n,) * m, ((int(round(total)), tuple(range(m))),), supply=f)


def _flow_feasible(instance: Instance, f: float, tol: float = 1e-9) -> bool:
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
    if target == 0.0:
        return True
    value = nx.maximum_flow_value(g, src, snk)
    return value >= target - tol * max(1.0, target)


def supply_factor(instance: Instance, tol: float = 1e-9) -> float:
    """Largest f such that a fractional allocation delivers f*n_a to everyone.

    Binary search on max-flow feasibility; the interval is narrowed below
    ``tol``.  Returns 0 when some advertiser has no eligible queries.
    """
    covered = set()
    for _, elig in instance.groups:
        covered.update(elig)
    if len(covered) < instance.m:
        return 0.0
    hi = instance.total_queries / instance.total_demand
    if _flow_feasible(instance, hi):
        return hi
    lo = 0.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if _flow_feasible(instance, mid):
            lo = mid
        else:
            hi = mid
    return lo
