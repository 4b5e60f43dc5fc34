"""Online vertex-weighted bipartite matching with surplus supply.

Perturbed greedy with the supply-aware potential ``psi(x) = 1 - e^{-(1-x)/f}``:
draw a uniform rank per unit advertiser, match each arriving query to the
available eligible advertiser maximizing ``c_a * psi(x_a)``.  With equal
weights this is exactly RANKING (largest potential = lowest rank).  The
guarantee is ``f - f e^{-1/f}``, measured here empirically on the
upper-triangular instance family.

Two paths compute the same trials.  :func:`triangular_matching_instance`
plus :func:`perturbed_greedy` build and serve one instance at a time: the
plain reference.  :func:`trial_weights` serves every trial of a call at once
on a ``(trials x copies)`` score matrix.  It draws each trial's permutation
and uniforms from the same stream in the same order, applies the same
elementwise float operations, picks by the same first-maximum rule and adds
the picked weights in the same order, so its weights equal the reference's
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, _check_supply, _integers, _positive, _reals, _sequence

# Copies per working array in one block of trials; bounds trial_weights'
# memory independently of the trial count.
_BLOCK_ELEMENTS = 1 << 18


def _advertiser_weights(m: int, weights: Optional[Sequence[float]]) -> np.ndarray:
    """Per-advertiser weights: ones by default, else finite, non-negative, not all zero."""
    if weights is None:
        return np.ones(m)
    w = _reals(weights, "weights")
    if len(w) != m:
        raise DomainError(f"expected {m} weights, got {len(w)}")
    if (w < 0).any():
        raise DomainError(f"weights must be non-negative, got {w.tolist()}")
    if w.sum() == 0:
        raise DomainError("weights sum to 0, so the offline optimum is 0")
    return w


@dataclass(frozen=True, eq=False)
class MatchingInstance:
    """Unit-demand advertisers (originals split into copies) plus query groups.

    Raises ``DomainError`` unless each group is a pair of a query count, an
    integer >= 0, and eligible copy ids, integers in ``0..len(weights)-1``.
    """

    weights: np.ndarray  # weight per unit copy
    groups: Tuple[Tuple[int, np.ndarray], ...]  # (query count, eligible copy ids)
    f: int

    def __post_init__(self):
        weights = _reals(self.weights, "weights")
        groups = []
        for i, group in enumerate(_sequence(self.groups, "groups")):
            try:
                count, elig = group
            except (TypeError, ValueError) as exc:
                raise DomainError(f"group {i} must be a (count, eligible copy ids) pair, got {group!r}") from exc
            ids = _integers(elig, "copy id")
            if ids and (min(ids) < 0 or max(ids) >= len(weights)):
                raise DomainError(f"copy ids must be in 0..{len(weights) - 1}, got {ids}")
            groups.append((_positive(count, "group count", least=0), np.array(ids, dtype=np.intp)))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "groups", tuple(groups))
        object.__setattr__(self, "f", _positive(self.f, "supply factor"))


def triangular_matching_instance(
    m: int,
    n: int,
    f: int,
    rng: np.random.Generator,
    weights: Optional[Sequence[float]] = None,
) -> MatchingInstance:
    """Upper-triangular instance with each original advertiser split into n copies.

    Group ``i`` holds ``f * n`` queries eligible to the copies of every
    original whose permutation value is at least ``i``.
    """
    m, n, f = _positive(m, "m"), _positive(n, "n"), _positive(f, "supply factor")
    w = _advertiser_weights(m, weights)
    perm = rng.permutation(m)
    copy_weights = np.repeat(w, n)
    groups = []
    for i in range(m):
        originals = np.nonzero(perm >= i)[0]
        copies = (originals[:, None] * n + np.arange(n)[None, :]).ravel()
        groups.append((f * n, np.sort(copies)))
    return MatchingInstance(copy_weights, tuple(groups), f)


def perturbed_greedy(
    instance: MatchingInstance, seed: Union[int, np.random.Generator]
) -> float:
    """Run one trial; returns total matched weight.

    Ranks are 64-bit uniforms, one per copy; ties in ``c_a * psi(x_a)``
    break toward the smallest advertiser id.  This is the per-instance
    reference that :func:`trial_weights` reproduces bit for bit.
    """
    rng = seed
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(_positive(seed, "seed", least=0))
    x = rng.random(len(instance.weights))
    psi = 1.0 - np.exp(-(1.0 - x) / instance.f)
    score = instance.weights * psi
    avail = score.copy()
    matched = 0.0
    for count, elig in instance.groups:
        sub = avail[elig]
        for _ in range(min(count, len(elig))):  # each copy is matched at most once
            j = int(np.argmax(sub))
            if sub[j] == -np.inf:
                break
            copy = int(elig[j])
            matched += float(instance.weights[copy])
            sub[j] = -np.inf
            avail[copy] = -np.inf
    return matched


def _greedy_block(
    copy_w: np.ndarray, m: int, n: int, f: int, seed: int, trials: range
) -> np.ndarray:
    """Matched weight of each trial in ``trials``, served side by side."""
    rows = np.arange(len(trials))
    leaving = np.empty((len(trials), m), dtype=np.intp)  # [t, i]: original of rank i
    x = np.empty((len(trials), m * n))
    for r, trial in enumerate(trials):
        rng = np.random.default_rng([seed, trial])
        leaving[r] = np.argsort(rng.permutation(m))
        rng.random(out=x[r])
    score = copy_w * (1.0 - np.exp(-(1.0 - x) / f))
    offsets = np.arange(n)
    matched = np.zeros(len(trials))
    for i in range(m):
        if i:
            # group i is eligible to the ranks >= i: retire rank i - 1's copies
            score[rows[:, None], leaving[:, i - 1, None] * n + offsets] = -np.inf
        for _ in range(f * n):
            pick = score.argmax(axis=1)  # first maximum = smallest copy id
            live = score[rows, pick] > -np.inf
            if not live.any():
                return matched  # every row is all -inf, now and in later groups
            matched += np.where(live, copy_w[pick], 0.0)
            score[rows, pick] = -np.inf
    return matched


def trial_weights(
    m: int,
    n: int,
    f: int,
    trials: int,
    seed: int,
    weights: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Matched weight of each trial on a fresh triangular instance, in order.

    Trial ``t`` draws from ``default_rng([seed, t])`` and its weight equals
    :func:`triangular_matching_instance` plus :func:`perturbed_greedy` on
    that generator, bit for bit.  All trials of a block are served
    together: group by group in arrival order, the copies whose rank has
    left the group's eligible suffix are masked to ``-inf``, then ``f * n``
    row-wise ``argmax`` steps each match one copy per row and add its
    weight.  A row stops when its maximum is ``-inf``.  Blocks hold about
    ``_BLOCK_ELEMENTS`` copies, so memory does not grow with ``trials``.
    """
    m, n, f = _positive(m, "m"), _positive(n, "n"), _positive(f, "supply factor")
    trials, seed = _positive(trials, "trials"), _positive(seed, "seed", least=0)
    copy_w = np.repeat(_advertiser_weights(m, weights), n)
    block = max(1, _BLOCK_ELEMENTS // (m * n))
    out = np.empty(trials)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        out[start:stop] = _greedy_block(copy_w, m, n, f, seed, range(start, stop))
    return out


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
    matched = trial_weights(m, n, f, trials, seed, weights)  # validates every argument
    ratios = matched / (float(_advertiser_weights(int(m), weights).sum()) * n)
    mean = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


def guarantee(f: float) -> float:
    """The tight competitive ratio ``f - f e^{-1/f}``, for a finite ``f >= 1``."""
    _check_supply(f)
    return f - f * math.exp(-1.0 / f)
