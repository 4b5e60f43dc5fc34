"""yieldopt: threshold-based online allocation across contracts and an ad exchange.

Library layout:

* :mod:`yieldopt.dist`: discrete exchange reward distributions
* :mod:`yieldopt.policy`: threshold computation (closed forms, objectives, grid oracle)
* :mod:`yieldopt.engine`: the online serving engine
* :mod:`yieldopt.instances`: instance model, adversarial generator, supply factor
* :mod:`yieldopt.oracle`: offline/online ground-truth computations
* :mod:`yieldopt.ratio`: competitive ratios and worst fixed-mean distributions
* :mod:`yieldopt.matching`: surplus-supply online matching (perturbed greedy)
* :mod:`yieldopt.repro`: named end-to-end verification experiments
* :mod:`yieldopt.cli`: the ``yieldopt`` command
"""

from .dist import (
    RewardDistribution,
    cond_mean_below,
    normalize,
    sample_array,
    top_quantile_mean,
    validate,
)
from .engine import (
    AllocationState,
    Decision,
    RunReport,
    finalize,
    run_instance,
    run_rewards,
    serve_query,
)
from .errors import (
    DomainError,
    InfeasibleDecay,
    MalformedDistribution,
    NonIntegralGroupSize,
    RewardExceedsPenalty,
    SizeLimit,
    YieldOptError,
)
from .instances import Instance, complete_instance, gen_upper_triangular, supply_factor
from .matching import empirical_ratio, guarantee, perturbed_greedy
from .oracle import (
    RealizedInstance,
    adversary_lp_tight,
    exhaustive_values,
    lp_residuals,
    offline_opt_exact,
    offline_opt_formula,
    online_opt_bruteforce,
    sample_realized,
)
from .policy import (
    ThresholdPolicy,
    beta_closed_form,
    binary_threshold,
    lb_discrete,
    make_policy,
    optimize_thresholds_exact,
    optimize_thresholds_grid,
    ub_continuous,
)
from .ratio import (
    RatioReport,
    WorstCaseSpec,
    binary_alg_bound,
    competitive_ratio,
    worst_case_distribution,
)

__version__ = "0.1.0"
