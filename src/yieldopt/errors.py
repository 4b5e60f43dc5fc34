"""Exception types, and the input rules that raise them.

Every error is a :class:`YieldOptError`, and every subclass is also a
``ValueError``: :class:`DomainError` for an input outside its domain,
:class:`MalformedDistribution` for a bad reward distribution, or a value
given for one that is not a ``RewardDistribution``, and one type
per refused computation: :class:`RewardExceedsPenalty`,
:class:`InfeasibleDecay`, :class:`NonIntegralGroupSize` and
:class:`SizeLimit`.  Each input rule below is written once and called by
every public function taking that input; each raises ``DomainError``.  No
rule takes a bool (``bool`` or ``numpy.bool_``) for a number.
``_integer``: an integer (``3.0`` passes; ``3.9``, NaN and inf do not);
``_sequence``: an iterable, as a list (demands, delivered counts, groups);
``_integers``: ``_integer`` applied to every value of a sequence (delivered
counts, ids); ``_demands``: a non-empty sequence of integers >= 1, as a
tuple (``Instance``, ``AllocationState``); ``_positive``: one >= 1, or >=
``least`` (a count; a seed or a sample size, >= 0; a resolution ``t``, >= 2
for ``adversary_lp_tight``);
``_finite``: whether a value is a finite real number, False for a string,
``None``, a bool, a complex number or an int beyond float range;
``_reals``: ``_finite`` applied to every value of a sequence, as a float64
array (support, masses, thresholds, ``lp_residuals``' beta, rewards,
weights);
``_check_finite``: a finite scalar (penalty, offset); ``_check_supply``: a
supply factor, finite and >= 1; ``_check_demand``: a total demand, finite
and > 0; ``_check_rewards``: ``_reals`` with one reward per query;
``_check_binary``: ``0 < q < 1`` and ``r`` finite and >= 0 (each caller
bounds ``r`` by ``c`` itself); ``_check_thresholds``: ``d`` thresholds,
``_reals``, non-decreasing in [0, 1] with the last exactly 1 (``ThresholdPolicy``,
``ub_continuous``); ``_check_weights``: ``m`` matching weights,
``_reals``, each >= 0 and not all 0, or ones for ``None``; ``_rng``: a
random stream, a ``numpy.random.Generator`` as given or a seed, ``_positive``
with ``least=0``, for ``numpy.random.default_rng``; ``_typed``: the type
rule, an instance of a given class.  A domain object (``Instance``,
``RealizedInstance``, ``ThresholdPolicy``, ``AllocationState``) is checked
when it is built, so a public function taking one checks its type alone,
raising ``DomainError``; a distribution's type rule is
``dist._distribution``, the same rule raising ``MalformedDistribution``.
``serve_query`` checks only its reward and ids: it runs once per query.
"""

import math
import reprlib

import numpy as np


class YieldOptError(Exception):
    """Base class for all yieldopt errors."""


class MalformedDistribution(YieldOptError, ValueError):
    """Reward distribution violates ordering / mass invariants, or is not a ``RewardDistribution``."""


class RewardExceedsPenalty(YieldOptError, ValueError):
    """Top support value exceeds the under-delivery penalty.

    Queries whose exchange reward beats the penalty should always be sold;
    the caller must pre-filter them instead of feeding them in here.
    """


class DomainError(YieldOptError, ValueError):
    """Parameter outside the mathematical domain of an operation."""


class InfeasibleDecay(YieldOptError, ValueError):
    """Quantile grid too coarse: a per-step decay factor would go negative."""


class NonIntegralGroupSize(YieldOptError, ValueError):
    """Supply factor times per-advertiser demand is not an integer."""


class SizeLimit(YieldOptError, ValueError):
    """Instance too large for an exact oracle computation."""


# the types of a bool: Python and numpy read one as the number 0 or 1
_BOOLS = frozenset((bool, np.bool_))


def _integer(value, what: str) -> int:
    """``value`` as an int; integral floats pass, fractions, bools and non-numbers raise."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what} must be an integer, got {value!r}") from exc
    if as_int != value or type(value) in _BOOLS:
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return as_int


def _sequence(values, what: str) -> list:
    """``values`` as a list; raises unless it is iterable."""
    try:
        return list(values)
    except TypeError as exc:
        raise DomainError(f"{what} must be a sequence, got {values!r}") from exc


def _integers(values, what: str) -> list[int]:
    """``_integer`` of every value, as a list; converts and compares in C unless one fails.

    ``what`` names one value; the sequence is named by its plural.
    """
    values = _sequence(values, f"{what}s")
    try:
        as_ints = list(map(int, values))
    except (TypeError, ValueError, OverflowError):
        as_ints = None
    if as_ints != values or not _BOOLS.isdisjoint(map(type, values)):
        as_ints = [_integer(v, what) for v in values]
    return as_ints


def _demands(values) -> tuple:
    """``values`` as a tuple of ints, each >= 1; raises if it is empty."""
    demands = tuple(_integers(values, "demand"))
    if not demands:
        raise DomainError("demands must not be empty")
    if min(demands) < 1:
        raise DomainError(f"demand must be an integer >= 1, got {min(demands)}")
    return demands


def _positive(value, what: str, least: int = 1) -> int:
    count = _integer(value, what)
    if count < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {value!r}")
    return count


def _finite(value) -> bool:
    # float() would read a bool as 0 or 1 and drop a complex number's imaginary part
    if type(value) in _BOOLS or isinstance(value, np.complexfloating):
        return False
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _reals(values, what: str, error: type = DomainError) -> np.ndarray:
    """``_finite`` of every value, as a 1-D float64 array; raises ``error`` naming ``what``.

    Any iterable passes whose values ``_finite`` accepts; nested sequences
    do not.  Checked in C, and a float64 array is returned uncopied.  numpy
    would read a bool among numbers as 0 or 1, so a sequence holding one is
    read as objects, value by value.
    """
    try:
        if isinstance(values, np.ndarray):
            arr = values
        else:
            seq = _sequence(values, what)
            arr = np.asarray(seq, dtype=None if _BOOLS.isdisjoint(map(type, seq)) else object)
        if arr.dtype == object and all(map(_finite, arr)):
            arr = arr.astype(float)
        out = arr.astype(float, copy=False) if arr.dtype.kind in "iuf" else None
    except (TypeError, ValueError, OverflowError):  # DomainError is a ValueError
        out = None
    if out is None or out.ndim != 1 or not np.isfinite(out).all():
        raise error(f"{what} must be a sequence of finite real numbers, got {reprlib.repr(values)}")
    return out


def _check_finite(value: float, what: str) -> None:
    if not _finite(value):
        raise DomainError(f"{what} must be finite, got {value!r}")


def _check_supply(f: float) -> None:
    if not (_finite(f) and f >= 1.0):
        raise DomainError(f"supply factor must be finite and >= 1, got {f!r}")


def _check_demand(N: float) -> None:
    if not (_finite(N) and N > 0.0):
        raise DomainError(f"total demand must be finite and > 0, got {N!r}")


def _check_rewards(rewards, count: int) -> np.ndarray:
    out = _reals(rewards, "rewards")
    if len(out) != count:
        raise DomainError(f"expected {count} rewards, got {len(out)}")
    return out


def _check_binary(q: float, r: float) -> None:
    if not (_finite(q) and 0.0 < q < 1.0):
        raise DomainError(f"q must be in (0, 1), got {q!r}")
    if not (_finite(r) and r >= 0.0):
        raise DomainError(f"r must be finite and >= 0, got {r!r}")


def _check_thresholds(values, d: int) -> tuple:
    """``d`` thresholds as a tuple of floats, non-decreasing in [0, 1], the last exactly 1."""
    thresholds = tuple(_reals(values, "thresholds").tolist())
    if len(thresholds) != d:
        raise DomainError(
            f"expected {d} thresholds for support size {d}, got {len(thresholds)}"
        )
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        raise DomainError("thresholds must be non-decreasing")
    if not all(0.0 <= v <= 1.0 for v in thresholds):
        raise DomainError("thresholds must lie in [0, 1]")
    if thresholds[-1] != 1.0:
        raise DomainError(f"final threshold must be exactly 1, got {thresholds[-1]}")
    return thresholds


def _check_weights(m: int, weights) -> np.ndarray:
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


def _typed(value, cls: type, error: type = DomainError) -> None:
    """Raise ``error`` unless ``value`` is a ``cls``: a domain object was fully checked when it was built."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise error(f"expected {article} {cls.__name__}, got {type(value).__name__}")


def _rng(seed) -> np.random.Generator:
    """``seed`` itself if it is a ``numpy.random.Generator``, else ``default_rng`` of an integer >= 0."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_positive(seed, "seed", least=0))
