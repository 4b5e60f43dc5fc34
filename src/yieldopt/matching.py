"""Online vertex-weighted bipartite matching with surplus supply.

Perturbed greedy with the supply-aware potential ``psi(x) = 1 - e^{-(1-x)/f}``:
draw a uniform rank per unit advertiser, match each arriving query to the
available eligible advertiser maximizing ``c_a * psi(x_a)``.  With equal
weights this is exactly RANKING (largest potential = lowest rank).  The
guarantee is ``f - f e^{-1/f}``, measured here empirically on the
upper-triangular instance family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError


@dataclass(frozen=True, eq=False)
class MatchingInstance:
    """Unit-demand advertisers (originals split into copies) plus query groups."""

    weights: np.ndarray  # weight per unit copy
    groups: Tuple[Tuple[int, np.ndarray], ...]  # (query count, eligible copy ids)
    f: int

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if int(self.f) != self.f or self.f < 1:
            raise DomainError(f"supply factor must be a positive integer, got {self.f}")
        object.__setattr__(self, "f", int(self.f))


def triangular_matching_instance(
    m: int,
    n: int,
    f: int,
    rng: np.random.Generator,
    weights: Optional[Sequence[float]] = None,
) -> MatchingInstance:
    """Upper-triangular instance with each original advertiser split into n copies."""
    if int(f) != f or f < 1:
        raise DomainError(f"supply factor must be a positive integer, got {f}")
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    if len(w) != m:
        raise DomainError(f"expected {m} weights, got {len(w)}")
    perm = rng.permutation(m)
    copy_weights = np.repeat(w, n)
    groups = []
    for i in range(m):
        originals = np.nonzero(perm >= i)[0]
        copies = (originals[:, None] * n + np.arange(n)[None, :]).ravel()
        groups.append((int(f) * n, np.sort(copies)))
    return MatchingInstance(copy_weights, tuple(groups), int(f))


def perturbed_greedy(
    instance: MatchingInstance, seed: Union[int, np.random.Generator]
) -> float:
    """Run one trial; returns total matched weight.

    Ranks are 64-bit uniforms, one per copy; ties in ``c_a * psi(x_a)``
    break toward the smallest advertiser id.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    x = rng.random(len(instance.weights))
    psi = 1.0 - np.exp(-(1.0 - x) / instance.f)
    score = instance.weights * psi
    avail = score.copy()
    matched = 0.0
    for count, elig in instance.groups:
        sub = avail[elig]
        for _ in range(count):
            j = int(np.argmax(sub))
            if sub[j] == -np.inf:
                break
            copy = int(elig[j])
            matched += float(instance.weights[copy])
            sub[j] = -np.inf
            avail[copy] = -np.inf
    return matched


def trial_weights(
    m: int,
    n: int,
    f: int,
    trials: int,
    seed: int,
    weights: Optional[Sequence[float]] = None,
) -> Iterator[float]:
    """Matched weight of each trial on a fresh triangular instance, in order.

    Trial streams derive from the root seed by a counter construction and
    are independent.
    """
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        instance = triangular_matching_instance(m, n, f, rng, weights)
        yield perturbed_greedy(instance, rng)


def empirical_ratio(
    m: int,
    n: int,
    f: int,
    trials: int,
    seed: int,
    weights: Optional[Sequence[float]] = None,
) -> Tuple[float, float]:
    """Monte Carlo mean and standard error of matched weight / OPT.

    On the triangular family every advertiser is saturable offline, so
    ``OPT = sum_a c_a n_a``.  Trials come from :func:`trial_weights`.
    """
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    opt = float(w.sum()) * n
    ratios = np.fromiter(trial_weights(m, n, f, trials, seed, weights), float, trials) / opt
    mean = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


def guarantee(f: float) -> float:
    """The tight competitive ratio ``f - f e^{-1/f}``."""
    return f - f * math.exp(-1.0 / f)
