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
:func:`trial_weights` serves that family alone, one trial at a time in one
pass.  Its eligible sets are nested (group ``g`` is eligible to the
advertisers with ``pi(a) >= g``), so the reference's picks are the copies
in score order, ties by copy id, less those whose advertiser left before
the group being filled.  It draws each trial's permutation and uniforms
from the same stream in the same order, applies the same elementwise
float operations and adds the picked weights in the same order, so its
weights equal the reference's bit for bit, at O(m n log(m n)) per trial.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import _check_weights, _positive, _rng, _supply, _typed
from .instances import Instance, _query_count


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
    w = _check_weights(weights, instance.demands)
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
    >= 1, with ``f * n`` an integer.  Each trial draws ``pi =
    permutation(m)`` and one uniform per copy, scores the copies as the
    reference does, and takes them in one pass in score order, ties by
    copy id: group ``g`` is eligible to the advertisers with ``pi(a) >= g``,
    so a copy skipped at ``g`` is ineligible to every later group, and the
    next copy accepted is the reference's next pick.  The group advances
    after ``f * n`` acceptances, and past the last group no copy is
    eligible.  O(m n log(m n)) per trial.
    """
    f = _supply(f)
    m, n, size = _query_count(m, n, f, per_group=True)
    trials, seed = _positive(trials, "trials"), _positive(seed, "seed", least=0)
    copy_w = np.repeat(_check_weights(weights, (n,) * m), n)
    out = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        leaves = rng.permutation(m)  # [a]: the last group eligible to advertiser a
        score = copy_w * (1.0 - np.exp(-(1.0 - rng.random(m * n)) / f))
        order = np.argsort(-score, kind="stable")
        matched, group, taken = 0.0, 0, 0
        for last, w in zip(leaves[order // n].tolist(), copy_w[order].tolist()):
            if last >= group:
                matched += w
                taken += 1
                if taken == size:
                    group, taken = group + 1, 0
        out[t] = matched
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
    ratios = matched / (float(_check_weights(weights, (int(n),) * int(m)).sum()) * n)
    mean = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


def guarantee(f: float) -> float:
    """The tight competitive ratio ``f - f e^{-1/f}``, for a finite ``f >= 1``."""
    x = 1.0 / _supply(f)  # as (1 - e^{-x}) / x: f - f e^{-1/f} cancels to nothing at large f
    return -math.expm1(-x) / x
