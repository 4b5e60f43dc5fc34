"""Exception types shared across the package."""


class YieldOptError(Exception):
    """Base class for all yieldopt errors."""


class MalformedDistribution(YieldOptError, ValueError):
    """Reward distribution violates ordering / mass invariants."""


class RewardExceedsPenalty(YieldOptError, ValueError):
    """Top support value exceeds the under-delivery penalty.

    Queries whose exchange reward beats the penalty should always be sold;
    the caller must pre-filter them instead of feeding them in here.
    """


class DomainError(YieldOptError, ValueError):
    """Parameter outside the mathematical domain of an operation."""


class InfeasibleDecay(YieldOptError, ValueError):
    """Quantile grid too coarse: a per-step decay factor would go negative."""


class TooManyThresholds(YieldOptError, ValueError):
    """Exhaustive threshold enumeration requested for too large a support."""


class NonIntegralGroupSize(YieldOptError, ValueError):
    """Supply factor times per-advertiser demand is not an integer."""


class SizeLimit(YieldOptError, ValueError):
    """Instance too large for an exact oracle computation."""


class MalformedBidSet(YieldOptError, ValueError):
    """Multi-exchange bid set flags more than one highest bidder."""
