"""Online vertex-weighted bipartite matching with surplus supply.

Perturbed greedy with the supply-aware potential ``psi(x) = 1 - e^{-(1-x)/f}``:
draw a uniform rank per unit advertiser, match each arriving query to the
available eligible advertiser maximizing ``c_a * psi(x_a)``.  With equal
weights this is exactly RANKING (largest potential = lowest rank).  The
guarantee is ``f - f e^{-1/f}``, measured here empirically on the
upper-triangular instance family.

The matching instance is the yield-optimization :class:`Instance`: an
advertiser's demand ``n_a`` is ``n_a`` unit copies.  Two paths compute the
same trials.  :func:`perturbed_greedy` serves any ``Instance`` one trial at
a time: the plain reference, fed the triangular family by
:func:`~yieldopt.instances.gen_upper_triangular` from the same generator.
:func:`trial_weights` serves every trial of a call on that family at once
on a ``(trials x copies)`` score matrix.  It draws each trial's permutation
and uniforms from the same stream in the same order, applies the same
elementwise float operations, picks by the same first-maximum rule and
adds the picked weights in the same order, so its weights equal the
reference's bit for bit.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import _check_weights, _positive, _rng, _supply, _typed
from .instances import Instance, _query_count

# Copies per working array in one block of trials; bounds trial_weights'
# memory independently of the trial count.
_BLOCK_ELEMENTS = 1 << 18


def perturbed_greedy(
    instance: Instance,
    f: float,
    seed: Union[int, np.random.Generator],
    weights: Optional[Sequence[float]] = None,
) -> float:
    """Run one trial on ``instance``; returns the total matched weight.

    Advertiser ``a``'s demand ``n_a`` becomes ``n_a`` unit copies of weight
    ``w_a``, numbered in advertiser order, each with one 64-bit uniform rank
    ``x``.  Each query takes the available eligible copy maximizing
    ``w_a * psi(x)``; ties break toward the smallest copy id.  The ranks
    come from ``seed``, a ``Generator`` or a seed for ``default_rng``.  Given
    the generator that drew a :func:`~yieldopt.instances.gen_upper_triangular`
    instance, this is the reference that :func:`trial_weights` reproduces
    bit for bit.
    """
    _typed(instance, Instance)
    f = _supply(f)
    w = _check_weights(instance.m, weights)
    rng = _rng(seed)
    owner = np.repeat(np.arange(instance.m), instance.demands)  # [copy]: its advertiser
    copy_w = w[owner]
    score = copy_w * (1.0 - np.exp(-(1.0 - rng.random(len(owner))) / f))
    matched = 0.0
    for count, elig in instance.groups:
        copies = np.flatnonzero(np.isin(owner, elig))
        sub = score[copies]
        for _ in range(min(count, len(copies))):  # each copy is matched at most once
            j = int(np.argmax(sub))
            if sub[j] == -np.inf:
                break
            matched += float(copy_w[copies[j]])
            sub[j] = -np.inf
            score[copies[j]] = -np.inf
    return matched


def _greedy_block(
    copy_w: np.ndarray, m: int, n: int, f: float, size: int, seed: int, trials: range
) -> np.ndarray:
    """Matched weight of each trial in ``trials``, served side by side; groups hold ``size`` queries."""
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
        for _ in range(size):
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
    f: float,
    trials: int,
    seed: int,
    weights: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Matched weight of each trial on a fresh triangular instance, in order.

    Trial ``t`` draws from the generator ``default_rng`` seeds with
    ``[seed, t]``, so ``seed`` is an integer.  Its weight equals
    :func:`perturbed_greedy` on the :func:`~yieldopt.instances.gen_upper_triangular`
    instance drawn from that generator, bit for bit.  ``f`` is finite and
    >= 1, with ``f * n`` an integer.  All trials of a block are served
    together: group by group in arrival order, the copies whose rank has
    left the group's eligible suffix are masked to ``-inf``, then ``f * n``
    row-wise ``argmax`` steps each match one copy per row and add its
    weight.  A row stops when its maximum is ``-inf``.  Blocks hold about
    ``_BLOCK_ELEMENTS`` copies, so memory does not grow with ``trials``.
    """
    f = _supply(f)
    m, n, size = _query_count(m, n, f, per_group=True)
    trials, seed = _positive(trials, "trials"), _positive(seed, "seed", least=0)
    copy_w = np.repeat(_check_weights(m, weights), n)
    block = max(1, _BLOCK_ELEMENTS // (m * n))
    out = np.empty(trials)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        out[start:stop] = _greedy_block(copy_w, m, n, f, size, seed, range(start, stop))
    return out


def empirical_ratio(
    m: int,
    n: int,
    f: float,
    trials: int,
    seed: int,
    weights: Optional[Sequence[float]] = None,
) -> Tuple[float, float]:
    """Monte Carlo mean and standard error of matched weight / OPT.

    On the triangular family every advertiser is saturable offline, so
    ``OPT = sum_a c_a n_a``.  Trials come from :func:`trial_weights`.
    """
    matched = trial_weights(m, n, f, trials, seed, weights)  # validates every argument
    ratios = matched / (float(_check_weights(int(m), weights).sum()) * n)
    mean = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


def guarantee(f: float) -> float:
    """The tight competitive ratio ``f - f e^{-1/f}``, for a finite ``f >= 1``."""
    x = 1.0 / _supply(f)  # as (1 - e^{-x}) / x: f - f e^{-1/f} cancels to nothing at large f
    return -math.expm1(-x) / x
