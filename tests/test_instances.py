import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yieldopt import _flow
from yieldopt.dist import RewardDistribution, cond_mean_below, normalize, sample_array, top_quantile_mean, validate
from yieldopt.engine import AllocationState, finalize, run_instance, run_rewards, serve_query
from yieldopt.errors import DomainError, MalformedDistribution, NonIntegralGroupSize, SizeLimit
from yieldopt.errors import _finite, _integer, _integers, _reals
from yieldopt.instances import (
    Instance,
    _triangle,
    complete_instance,
    gen_upper_triangular,
    supply_factor,
)
from yieldopt.matching import empirical_ratio, guarantee, perturbed_greedy, trial_weights
from yieldopt.oracle import (
    RealizedInstance,
    adversary_lp_tight,
    exhaustive_values,
    lp_residuals,
    offline_opt_exact,
    offline_opt_formula,
    online_opt_bruteforce,
    sample_realized,
)
from yieldopt.policy import (
    ThresholdPolicy,
    beta_closed_form,
    binary_threshold,
    index_weights,
    lb_discrete,
    make_policy,
    optimize_thresholds_exact,
    optimize_thresholds_grid,
    segment_bounds,
    ub_continuous,
)
from yieldopt.ratio import binary_alg_bound, competitive_ratio, worst_case_distribution

BINARY = RewardDistribution((0.0, 0.5), (0.5, 1.0))
POLICY = ThresholdPolicy((0.3, 1.0), BINARY)
BETA = beta_closed_form(POLICY, 2.0, 1.0, 100)
TINY = Instance((1,), ((2, (0,)),))
MATCH = gen_upper_triangular(2, 1, 1, np.random.default_rng(0))

# every function that takes a supply factor f, a total demand N, a penalty c,
# an offset, a binary q or r, a resolution t, a 1-based index u, a reward
# array, or an advertiser's demand or delivered count, with valid other
# arguments (f = 2 where another one is under test)
RULES = {
    ("binary_threshold", "f"): lambda f: binary_threshold(f, 0.5, 0.5, 1.0),
    ("optimize_thresholds_exact", "f"): lambda f: optimize_thresholds_exact(BINARY, f, 1.0),
    ("optimize_thresholds_grid", "f"): lambda f: optimize_thresholds_grid(BINARY, f, 1.0),
    ("make_policy", "f"): lambda f: make_policy(BINARY, 1.0, f),
    ("ub_continuous", "f"): lambda f: ub_continuous(POLICY.thresholds, BINARY, f, 1.0),
    ("lb_discrete", "f"): lambda f: lb_discrete(POLICY, f, 1.0, 1.0, 100),
    ("beta_closed_form", "f"): lambda f: beta_closed_form(POLICY, f, 1.0, 100),
    ("adversary_lp_tight", "f"): lambda f: adversary_lp_tight(POLICY, f, 1.0, 100),
    ("lp_residuals", "f"): lambda f: lp_residuals(BETA, POLICY, f, 1.0),
    ("offline_opt_formula", "f"): lambda f: offline_opt_formula(BINARY, f, 1.0),
    ("binary_alg_bound", "f"): lambda f: binary_alg_bound(f, 0.5, 0.5, 1.0),
    ("competitive_ratio", "f"): lambda f: competitive_ratio(BINARY, 1.0, f),
    ("guarantee", "f"): guarantee,
    ("worst_case_distribution", "f"): lambda f: worst_case_distribution(0.3, 1.0, f),
    ("normalize", "N"): lambda N: normalize(BINARY, 1.0, 2.0, N),
    ("make_policy", "N"): lambda N: make_policy(BINARY, 1.0, 2.0, N=N),
    ("ub_continuous", "N"): lambda N: ub_continuous(POLICY.thresholds, BINARY, 2.0, 1.0, N),
    ("lb_discrete", "N"): lambda N: lb_discrete(POLICY, 2.0, 1.0, N, 100),
    ("beta_closed_form", "N"): lambda N: beta_closed_form(POLICY, 2.0, N, 100),
    ("adversary_lp_tight", "N"): lambda N: adversary_lp_tight(POLICY, 2.0, N, 100),
    ("lp_residuals", "N"): lambda N: lp_residuals(BETA, POLICY, 2.0, N),
    ("offline_opt_formula", "N"): lambda N: offline_opt_formula(BINARY, 2.0, N),
    ("normalize", "f"): lambda f: normalize(BINARY, 1.0, f, 1.0),
    ("validate", "c"): lambda c: validate(BINARY, c),
    ("make_policy", "c"): lambda c: make_policy(BINARY, c, 2.0),
    ("optimize_thresholds_exact", "c"): lambda c: optimize_thresholds_exact(BINARY, 2.0, c),
    ("competitive_ratio", "c"): lambda c: competitive_ratio(BINARY, c, 2.0),
    ("lb_discrete", "c"): lambda c: lb_discrete(POLICY, 2.0, c, 1.0, 100),
    ("offline_opt_exact", "c"): lambda c: offline_opt_exact(RealizedInstance(TINY, (0.0, 0.5)), c),
    ("online_opt_bruteforce", "c"): lambda c: online_opt_bruteforce(TINY, BINARY, c),
    ("finalize", "c"): lambda c: finalize(AllocationState.fresh((1,)), c),
    ("run_rewards", "c"): lambda c: run_rewards(TINY, POLICY, c, (0.0, 0.5)),
    ("run_rewards", "offset"): lambda o: run_rewards(TINY, POLICY, 1.0, (0.0, 0.5), o),
    ("binary_threshold", "q"): lambda q: binary_threshold(2.0, q, 0.5, 1.0),
    ("binary_alg_bound", "q"): lambda q: binary_alg_bound(2.0, q, 0.5, 1.0),
    ("binary_threshold", "r"): lambda r: binary_threshold(2.0, 0.5, r, 4.0),
    ("binary_alg_bound", "r"): lambda r: binary_alg_bound(2.0, 0.5, r, 4.0),
    ("beta_closed_form", "t"): lambda t: beta_closed_form(POLICY, 2.0, 1.0, t),
    ("lb_discrete", "t"): lambda t: lb_discrete(POLICY, 2.0, 1.0, 1.0, t),
    ("adversary_lp_tight", "t"): lambda t: adversary_lp_tight(POLICY, 2.0, 1.0, t),
    ("cond_mean_below", "u"): lambda u: cond_mean_below(BINARY, u),
    ("run_rewards", "rewards"): lambda x: run_rewards(TINY, POLICY, 1.0, x),
    ("RealizedInstance", "rewards"): lambda x: RealizedInstance(TINY, x),
    ("segment_bounds", "t"): lambda t: segment_bounds(POLICY, t),
    ("index_weights", "t"): lambda t: index_weights(POLICY, t),
    ("AllocationState", "demand"): lambda n: serve_query(AllocationState.fresh((n, 2)), POLICY, [0, 1], 0.0),
    ("AllocationState", "delivered"): lambda k: serve_query(AllocationState((2,), [k]), POLICY, [0], 0.0),
    ("gen_upper_triangular", "seed"): lambda s: gen_upper_triangular(3, 2, 2.0, seed=s),
    ("Instance", "group"): lambda g: Instance((1,), (g,)),
    ("Instance", "demands"): lambda d: Instance(d, ((1, (0,)),)),
    ("Instance", "groups"): lambda g: Instance((1,), g),
    ("AllocationState", "demands"): lambda d: AllocationState(d, [0]),
    ("AllocationState", "delivered counts"): lambda k: AllocationState((1,), k),
    ("gen_upper_triangular", "generator f"): lambda f: gen_upper_triangular(3, 2, f, 1),
    ("complete_instance", "generator f"): lambda f: complete_instance(3, 2, f),
    ("serve_query", "advertiser id"): lambda a: serve_query(AllocationState.fresh((2, 2)), POLICY, [a], 0.0),
    ("serve_query", "reward"): lambda r: serve_query(AllocationState.fresh((2,)), POLICY, [0], r),
    ("ThresholdPolicy.cutoffs", "demand"): POLICY.cutoffs,
    ("RewardDistribution.binary", "q"): lambda q: RewardDistribution.binary(q, 0.5),
    ("RewardDistribution.binary", "r"): lambda r: RewardDistribution.binary(0.5, r),
    ("top_quantile_mean", "p"): lambda p: top_quantile_mean(BINARY, p),
    ("worst_case_distribution", "mu"): lambda mu: worst_case_distribution(mu, 1.0, 2.0),
    ("worst_case_distribution", "c"): lambda c: worst_case_distribution(0.3, c, 2.0),
    ("run_instance", "seed"): lambda s: run_instance(TINY, POLICY, 1.0, BINARY, s),
    ("sample_realized", "seed"): lambda s: sample_realized(TINY, BINARY, s),
    ("trial_weights", "seed"): lambda s: trial_weights(2, 1, 1, 2, s),
    ("empirical_ratio", "seed"): lambda s: empirical_ratio(2, 1, 1, 2, s),
    ("perturbed_greedy", "seed"): lambda s: perturbed_greedy(MATCH, 1, s),
    ("optimize_thresholds_grid", "grid"): lambda g: optimize_thresholds_grid(BINARY, 2.0, 1.0, grid=g),
    ("perturbed_greedy", "f"): lambda f: perturbed_greedy(MATCH, f, 0),
    ("sample_array", "rng"): lambda g: sample_array(BINARY, g, 2),
    ("sample_array", "size"): lambda n: sample_array(BINARY, np.random.default_rng(0), n),
}
# a bool is not a number: these args' rows also refuse True and np.True_ (JSON
# has only the one), in cases after all the others; the real-number args
# refuse both in test_real_number_rule
BOOL_ARGS = ("t", "u", "demand", "delivered", "seed", "generator f", "advertiser id", "reward", "rng", "size")
BAD = {
    "f": (math.nan, math.inf, 0.5),
    "N": (math.nan, math.inf, 0.0),
    "c": (math.nan, math.inf, -math.inf),
    "offset": (math.nan, math.inf, -math.inf),
    "q": (math.nan, 0.0, 1.0, 1.5),
    "r": (math.nan, math.inf, -0.5),
    "t": (math.nan, 2.5, 0),
    "u": (math.nan, math.inf, 1.5),
    "rewards": ((0.0,), (0.0, 0.5, 0.5), (0.0, math.nan), (math.inf, 0.0)),
    "demand": (0, -1, 2.5, math.nan, math.inf),
    "delivered": (-1, 3, 2.5, math.nan, math.inf),
    "seed": (1.5, -1, "abc", math.nan, math.inf),
    "group": ((1, 0), (1,), 5),
    "demands": (5, None),
    "groups": (5, None),
    "delivered counts": (5, None),
    "generator f": ("2", None, math.nan, 0.0),
    # -1 would be served as advertiser 1 if it were not rejected
    "advertiser id": (-1, 2, 1.0, "0", None),
    "reward": ("0.3", None, math.nan, math.inf, np.complex128(1 + 1j), Decimal("sNaN")),
    "p": (math.nan, -0.5, 1.5),
    "mu": (math.nan, 0.0, 1.5),
    "grid": ("0.1", None, math.nan, 0.0, 1.0),
    # a random stream: the seed rule, and None (default_rng would read it as fresh entropy)
    "rng": (1.5, -1, "abc", math.nan, math.inf, None),
    "size": (-1, 2.5, math.nan, "3", None),
}
MESSAGE = {
    "f": "supply factor",
    "N": "total demand",
    "c": "penalty must be finite",
    "offset": "offset must be finite",
    "q": "q must be in",
    "r": "r must be finite",
    "t": "t must be",
    "u": "u must be an integer",
    "rewards": "rewards",
    "demand": "demand must be an integer",
    "delivered": "delivered count must be",
    "seed": "seed must be an integer",
    "group": "group 0 must be a",
    "demands": "demands must be a sequence",
    "groups": "groups must be a sequence",
    "delivered counts": "delivered counts must be a sequence",
    "generator f": "supply factor must be finite and > 0",
    "advertiser id": "advertiser ids must be integers in 0..1",
    "reward": "reward must be finite",
    "p": "p must be in",
    "mu": "mu must be in",
    "grid": "grid step must be in",
    "rng": "seed must be an integer",
    "size": "size must be an integer",
}
VALID = {  # any other argument takes 2.0
    "q": 0.5,
    "rewards": (0.0, 0.5),
    "group": (1, (0,)),
    "demands": (1,),
    "groups": ((1, (0,)),),
    "delivered counts": [0],
    "advertiser id": 1,
    "p": 0.5,
    "mu": 0.3,
    "grid": 0.3,
    "rng": np.random.default_rng(0),
}


def _spelling(value) -> str:
    # a number, a string or None as pytest spells it; anything else (a tuple, a
    # numpy bool, whose str is "True") by its repr
    return str(value) if value is None or isinstance(value, (str, int, float, complex)) else repr(value)


def cases(names: str, values: list):
    """Parametrize over ``values``, each case named by its own values joined by "-".

    pytest would name a case it cannot spell by its position in the list, so
    deleting one row would rename every later case.
    """
    ids = ["-".join(map(_spelling, case)) for case in values]
    assert len(set(ids)) == len(ids), "two cases share a name"
    return pytest.mark.parametrize(names, values, ids=ids)


@cases(
    "name, arg, bad",
    [(name, arg, bad) for name, arg in sorted(RULES) for bad in BAD[arg]]
    + [(name, arg, bad) for name, arg in sorted(RULES) if arg in BOOL_ARGS
       for bad in ((True,) if name.endswith("from_json") else (True, np.True_))],
)
def test_domain_rule(name, arg, bad):
    call = RULES[name, arg]
    call(VALID.get(arg, 2.0))  # the valid value goes through
    with pytest.raises(DomainError, match=MESSAGE[arg]):
        call(bad)


# the real-valued arguments: each is read as the float it converts to
REAL_ARGS = ("f", "N", "c", "offset", "q", "r", "p", "mu", "grid")


@cases("name, arg", [(name, arg) for name, arg in sorted(RULES) if arg in REAL_ARGS])
def test_real_number_rule(name, arg):
    # a value that is not a real number, or not one a float holds, is outside every real domain
    for bad in ("2", None, 1j, np.complex128(1 + 1j), 10**400, True, np.True_, Decimal("sNaN")):
        with pytest.raises(DomainError, match=MESSAGE[arg]):
            RULES[name, arg](bad)


# every function that takes a sequence of real numbers: the call, a valid
# value and the error the rule raises there
SEQUENCES = {
    ("RewardDistribution", "support"): (lambda v: RewardDistribution(v, (0.5, 1.0)), (0.0, 0.5), MalformedDistribution),
    ("RewardDistribution", "cum_mass"): (lambda v: RewardDistribution((0.0, 0.5), v), (0.5, 1.0), MalformedDistribution),
    ("RewardDistribution.from_masses", "support"): (
        lambda v: RewardDistribution.from_masses(v, (0.5, 0.5)), (0.0, 0.5), MalformedDistribution
    ),
    ("RewardDistribution.from_masses", "masses"): (
        lambda v: RewardDistribution.from_masses((0.0, 0.5), v), (0.5, 0.5), MalformedDistribution
    ),
    ("ThresholdPolicy", "thresholds"): (lambda v: ThresholdPolicy(v, BINARY), (0.3, 1.0), DomainError),
    ("lp_residuals", "beta"): (lambda v: lp_residuals(v, POLICY, 2.0, 1.0), (0.5, 0.25), DomainError),
    ("run_rewards", "rewards"): (lambda v: run_rewards(TINY, POLICY, 1.0, v), (0.0, 0.5), DomainError),
    ("RealizedInstance", "rewards"): (lambda v: RealizedInstance(TINY, v), (0.0, 0.5), DomainError),
    ("perturbed_greedy", "weights"): (lambda v: perturbed_greedy(MATCH, 1, 0, v), (1.0, 2.0), DomainError),
    ("trial_weights", "weights"): (lambda v: trial_weights(2, 1, 1, 2, 0, v), (1.0, 2.0), DomainError),
}
# a first value outside the rule, or a whole sequence outside it
NOT_REALS = {
    "string": lambda valid: ("0.3", *valid[1:]),
    "None": lambda valid: (None, *valid[1:]),
    "complex": lambda valid: (1j, *valid[1:]),
    "numpy-complex": lambda valid: np.array([np.complex128(1 + 1j), *map(Fraction, valid[1:])], dtype=object),
    "huge-int": lambda valid: (10**400, *valid[1:]),
    "nan": lambda valid: (math.nan, *valid[1:]),
    "inf": lambda valid: np.array([math.inf, *valid[1:]]),
    "ragged": lambda valid: ([valid[0]], *valid[1:]),
    "matrix": lambda valid: np.array([valid]),
    "strings": lambda valid: [str(v) for v in valid],
    "not-a-sequence": lambda valid: valid[0],
}


@cases("bad, name, arg", [(bad, name, arg) for bad in NOT_REALS for name, arg in sorted(SEQUENCES)])
def test_sequence_rule(bad, name, arg):
    call, valid, error = SEQUENCES[name, arg]
    call(valid)
    call(iter(valid))  # any iterable
    with pytest.raises(error, match=f"{arg} must be a sequence of finite real numbers"):
        call(NOT_REALS[bad](valid))


def test_exact_values_build_their_float_spellings():
    # an int, a Fraction or a numpy number stands for the float it converts to
    tri = RewardDistribution((0.0, 0.25, 0.75), (0.5, 0.75, 1.0))
    assert RewardDistribution((0, Fraction(1, 4), np.float32(0.75)), (Fraction(1, 2), np.float64(0.75), 1)) == tri
    assert RewardDistribution.from_masses([0, Fraction(1, 4), 0.75], np.array([2, 1, 1]) / 4) == tri
    assert RewardDistribution.binary(Fraction(1, 2), np.float32(0.5)) == BINARY
    assert ThresholdPolicy((np.float32(0.5), 1), BINARY) == ThresholdPolicy((0.5, 1.0), BINARY)
    assert ThresholdPolicy(np.array([Fraction(3, 10), np.int64(1)], dtype=object), BINARY) == POLICY
    assert lp_residuals((1, Fraction(1, 4)), POLICY, 2.0, 1.0) == lp_residuals((1.0, 0.25), POLICY, 2.0, 1.0)
    beta = beta_closed_form(POLICY, Fraction(2), Fraction(1), 100)
    assert beta.dtype == np.float64 and beta.tolist() == BETA.tolist()
    assert run_rewards(TINY, POLICY, 1.0, (0, Fraction(1, 2))) == run_rewards(TINY, POLICY, 1.0, (0.0, 0.5))
    assert RealizedInstance(TINY, [np.int64(0), np.float32(0.5)]) == RealizedInstance(TINY, (0.0, 0.5))
    w = [1, Fraction(5, 2), np.float32(0.5)]
    match = gen_upper_triangular(3, 2, 2, np.random.default_rng(4))
    assert perturbed_greedy(match, 2, 4, w).hex() == perturbed_greedy(match, 2, 4, [1.0, 2.5, 0.5]).hex()


def _bits(result) -> str:
    # a result's type, value and bits: its repr, a numpy array's by its dtype and values
    if isinstance(result, np.ndarray):
        return repr((result.dtype, result.tolist()))
    if isinstance(result, tuple):  # make_policy's (policy, objective, offset)
        return repr(tuple(map(_bits, result)))
    return repr(result)


@cases("name, arg", [(name, arg) for name, arg in sorted(RULES) if arg in (*REAL_ARGS, "generator f")])
def test_scalar_spellings_compute_as_their_float(name, arg):
    # every spelling of a real value computes what its float does, in float64;
    # float32 holds each value exactly, so a float32 result would show
    value = {"q": 0.5, "p": 0.5, "mu": 0.25, "grid": 0.25}.get(arg, 2.0)
    expected = _bits(RULES[name, arg](value))
    spellings = [np.float32(value), np.float64(value), Fraction(value), Decimal(value)]
    if value.is_integer():
        spellings += [int(value), np.int64(value)]
    for spelling in spellings:
        assert _bits(RULES[name, arg](spelling)) == expected, repr(spelling)


def test_range_is_checked_on_the_float():
    # a value the float rounds across a bound takes the float's verdict
    with pytest.raises(DomainError, match="total demand must be finite and > 0"):
        beta_closed_form(POLICY, 2.0, Fraction(1, 10**400), 100)  # rounds to 0.0
    f = 1 - Fraction(1, 10**30)  # below 1, rounds to 1.0
    assert _bits(make_policy(BINARY, 1.0, f)) == _bits(make_policy(BINARY, 1.0, 1.0))


# every kind of value an id, demand or count can arrive as, valid or not
ANY_VALUE = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(-(2**52), 2**52).map(float),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.sampled_from([0.5, -2.5, math.nan, math.inf, -math.inf, "3", "a", None, np.float64(1.5)]),
    st.floats(),
)


def _outcome(rule, *args):
    try:
        return "ok", rule(*args)
    except DomainError as exc:
        return "DomainError", str(exc)


class TestIntegerRule:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(ANY_VALUE, max_size=8))
    def test_integers_matches_integer_per_value(self, values):
        got = _outcome(_integers, values, "id")
        assert got == _outcome(lambda vs: [_integer(v, "id") for v in vs], values)
        if got[0] == "ok":
            assert all(type(a) is int for a in got[1])

    def test_integers_takes_any_iterable(self):
        assert _integers((2, 1.0), "id") == [2, 1]
        assert _integers(iter([np.int64(4), 1.0]), "id") == [4, 1]
        for flag in (True, np.True_):  # equal to 1, but no integer
            with pytest.raises(DomainError, match="id must be an integer, got (np.)?True"):
                _integers([1, flag], "id")
        with pytest.raises(DomainError, match="id must be an integer, got 0.5"):
            _integers((1, 0.5, "x"), "id")


class TestRealsRule:
    # every kind of value a reward, mass or threshold can arrive as
    VALUE = st.one_of(
        st.floats(),
        st.integers(-(2**1100), 2**1100),
        st.fractions(),
        st.booleans(),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.integers(0, 2**64 - 1).map(np.uint64),
        st.floats(width=32).map(np.float32),
        st.sampled_from(["0.5", "a", None, 1j, np.complex128(1 + 1j), np.complex64(0.5j), b"1", [0.5]]),
    )

    @settings(max_examples=400, deadline=None)
    @given(st.lists(VALUE, max_size=6), st.sampled_from([list, tuple, iter, np.array]))
    def test_matches_finite_and_float_per_value(self, values, form):
        try:
            seq = form(values)
        except (ValueError, OverflowError):  # numpy refuses a ragged or huge list itself
            seq = values
        if isinstance(seq, np.ndarray):  # the rule sees the values numpy made (a bool among numbers is 0 or 1)
            values = seq.tolist()
        got = _outcome(_reals, seq, "values")
        if all(map(_finite, values)):
            assert got[0] == "ok" and got[1].tolist() == [float(v) for v in values]
        else:
            assert got[0] == "DomainError" and got[1].startswith("values must be a sequence of finite real numbers")

    def test_a_float64_array_is_not_copied(self):
        rewards = np.linspace(0.0, 1.0, 5)
        assert _reals(rewards, "rewards") is rewards
        assert _reals(rewards.astype(np.float32), "rewards").dtype == np.float64


def _triangular_reference(m, n, f, seed):
    """The generator as first written: one ``int(j)`` per eligible id."""
    perm = np.random.default_rng(seed).permutation(m)
    groups = tuple(
        (int(round(f * n)), tuple(int(j) for j in np.nonzero(perm >= i)[0]))
        for i in range(m)
    )
    return Instance((n,) * m, groups)


REALIZED = RealizedInstance(TINY, (0.1, 0.2))
STATE = AllocationState.fresh((1,))

# every public function taking an Instance, ThresholdPolicy, RealizedInstance
# or AllocationState, by the argument under test, with valid other arguments
TYPED = {
    ("run_rewards", "instance"): (TINY, lambda x: run_rewards(x, POLICY, 1.0, (0.5, 0.0))),
    ("run_rewards", "policy"): (POLICY, lambda p: run_rewards(TINY, p, 1.0, (0.5, 0.0))),
    ("run_instance", "instance"): (TINY, lambda x: run_instance(x, POLICY, 1.0, BINARY, 1)),
    ("run_instance", "policy"): (POLICY, lambda p: run_instance(TINY, p, 1.0, BINARY, 1)),
    ("finalize", "state"): (STATE, lambda s: finalize(s, 1.0)),
    ("supply_factor", "instance"): (TINY, supply_factor),
    ("RealizedInstance", "instance"): (TINY, lambda x: RealizedInstance(x, (0.1, 0.2))),
    ("sample_realized", "instance"): (TINY, lambda x: sample_realized(x, BINARY, 1)),
    ("offline_opt_exact", "realized"): (REALIZED, lambda r: offline_opt_exact(r, 1.0)),
    ("online_opt_bruteforce", "instance"): (TINY, lambda x: online_opt_bruteforce(x, BINARY, 1.0)),
    ("exhaustive_values", "instance"): (TINY, lambda x: exhaustive_values(x, BINARY, 1.0, POLICY)),
    ("exhaustive_values", "policy"): (POLICY, lambda p: exhaustive_values(TINY, BINARY, 1.0, p)),
    ("perturbed_greedy", "instance"): (TINY, lambda x: perturbed_greedy(x, 2.0, 1)),
    ("segment_bounds", "policy"): (POLICY, lambda p: segment_bounds(p, 10)),
    ("index_weights", "policy"): (POLICY, lambda p: index_weights(p, 10)),
    ("beta_closed_form", "policy"): (POLICY, lambda p: beta_closed_form(p, 2.0, 1.0, 100)),
    ("lb_discrete", "policy"): (POLICY, lambda p: lb_discrete(p, 2.0, 1.0, 1.0, 100)),
    ("adversary_lp_tight", "policy"): (POLICY, lambda p: adversary_lp_tight(p, 2.0, 1.0, 100)),
    ("lp_residuals", "policy"): (POLICY, lambda p: lp_residuals(BETA, p, 2.0, 1.0)),
}


class TestTypeRule:
    """A domain object is checked when it is built; every public function taking one checks its type and no more."""

    @pytest.mark.parametrize("valid, call", TYPED.values(), ids=[f"{f}:{a}" for f, a in TYPED])
    def test_tuple_and_duck_typed_rejected(self, valid, call):
        call(valid)
        fields = tuple(getattr(valid, f.name) for f in dataclasses.fields(valid) if f.init)
        # reads like the real one, every attribute and method included, but was never checked as one
        duck = SimpleNamespace(**{k: getattr(valid, k) for k in dir(valid) if not k.startswith("__")})
        for fake in (fields, duck, None):
            with pytest.raises(DomainError, match=f"expected an? {type(valid).__name__}, got {type(fake).__name__}$"):
                call(fake)


class TestExactGroupSize:
    """A generator's group size is the exact value of float ``f`` times ``n``, rounded only within 1e-9 of an integer."""

    def test_past_two_to_the_53(self):
        # f * n in floats rounds 2**54 + 2 to 2**54, and the supply factor below 2
        n = 2**53 + 1
        inst = complete_instance(1, n, 2.0)
        assert inst.total_queries == 2 * n and supply_factor(inst) == 2.0
        assert gen_upper_triangular(2, n, 2.0, 1).groups[0][0] == 2 * n

    def test_past_the_float_range(self):
        # f * n in floats overflows; f is finite and > 0, so the instance builds
        big = int(1e308)  # the exact value of the float
        assert [c for c, _ in gen_upper_triangular(2, 2, 1e308, 1).groups] == [2 * big] * 2
        assert complete_instance(2, 2, 1e308).total_queries == 4 * big
        assert empirical_ratio(2, 2, 1e308, 3, 1) == (1.0, 0.0)

    def test_near_integers_kept(self):
        assert [c for c, _ in gen_upper_triangular(3, 10, 1.1, 1).groups] == [11] * 3
        assert [c for c, _ in gen_upper_triangular(3, 2, np.float32(1.5), 1).groups] == [3] * 3
        with pytest.raises(NonIntegralGroupSize, match=r"f\*n = 4.5 is not"):
            gen_upper_triangular(3, 3, 1.5, 1)
        with pytest.raises(NonIntegralGroupSize, match=r"f\*m\*n = 4.5 is not"):
            complete_instance(3, 1, 1.5)


class TestGenUpperTriangular:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 2**32), st.sampled_from([1.0, 1.5, 2.0]))
    def test_matches_reference_construction(self, m, seed, f):
        inst = gen_upper_triangular(m, 2, f, seed)
        assert inst == _triangular_reference(m, 2, f, seed)
        assert all(type(a) is int for _, elig in inst.groups for a in elig)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 60).flatmap(lambda m: st.permutations(range(m))), st.integers(0, 5))
    def test_triangle_matches_the_mask_formula(self, perm, size):
        perm = np.array(perm)
        mask = tuple((size, tuple(np.flatnonzero(perm >= i).tolist())) for i in range(len(perm)))
        inst = _triangle(perm, 3, size)
        assert inst.groups == mask and inst.demands == (3,) * len(perm)
        assert all(type(a) is int for _, elig in inst.groups for a in elig)

    def test_group_structure(self):
        inst = gen_upper_triangular(m=3, n=2, f=2.0, seed=1)
        assert len(inst.groups) == 3
        assert all(count == 4 for count, _ in inst.groups)
        assert len(inst.groups[-1][1]) == 1  # last group: exactly one advertiser
        assert inst.total_queries == 2.0 * inst.total_demand

    def test_eligibility_is_nested(self):
        inst = gen_upper_triangular(m=6, n=1, f=1.0, seed=9)
        sets = [set(e) for _, e in inst.groups]
        for a, b in zip(sets, sets[1:]):
            assert b < a

    def test_single_advertiser(self):
        inst = gen_upper_triangular(m=1, n=5, f=1.0, seed=0)
        assert inst.groups == ((5, (0,)),)

    def test_non_integral_group_size_rejected(self):
        with pytest.raises(NonIntegralGroupSize):
            gen_upper_triangular(m=3, n=3, f=1.5 + 1e-7, seed=0)

    def test_supply_factor_recovered(self):
        for f in (1.0, 1.5, 2.0, 3.0):
            inst = gen_upper_triangular(m=4, n=4, f=f, seed=2)
            assert supply_factor(inst) == inst.total_queries / inst.total_demand == f

    def test_sizes_checked(self):
        for m, n, f in ((2.5, 2, 1.0), (0, 2, 1.0), (2, -1, 1.0), (2, 2, 0.0), (2, 2, -1.0)):
            with pytest.raises(DomainError):
                gen_upper_triangular(m, n, f, 1)
            with pytest.raises(DomainError):
                complete_instance(m, n, f)

    def test_permutation_depends_on_seed(self):
        a = gen_upper_triangular(m=6, n=1, f=1.0, seed=1)
        b = gen_upper_triangular(m=6, n=1, f=1.0, seed=2)
        assert a.groups != b.groups
        assert a == gen_upper_triangular(m=6, n=1, f=1.0, seed=1)

    @pytest.mark.parametrize("seed", [0, 7, 7919])
    def test_generator_draws_the_permutation_first(self, seed):
        # a Generator builds the triangle of its first draw, permutation(m): the instance its seed builds
        inst = gen_upper_triangular(9, 2, 1.5, np.random.default_rng(seed))
        assert inst == _triangle(np.random.default_rng(seed).permutation(9), 2, 3)
        assert inst == gen_upper_triangular(9, 2, 1.5, seed)

    def test_full_size_spellings_and_json_agree(self):
        # the generator's groups are canonical and kept as given; the same groups spelled as lists
        # take the per-group rule at full size and must build the same instance, as must its JSON round trip
        inst = gen_upper_triangular(500, 200, 2.0, 7919)
        assert Instance(inst.demands, [(c, list(e)) for c, e in inst.groups]) == inst
        assert Instance.from_json(inst.to_json()) == inst

    def test_a_gen_file_with_its_seed_loads_to_the_generators_instance(self):
        # `yieldopt gen --kind triangular` writes the seed it drew from; reading ignores it
        text = (
            '{"demands": [3, 3, 3, 3], "groups": [{"count": 6, "eligible": [0, 1, 2, 3]}, '
            '{"count": 6, "eligible": [1, 2, 3]}, {"count": 6, "eligible": [1, 3]}, '
            '{"count": 6, "eligible": [3]}], "seed": 7}'
        )
        inst = Instance.from_json(text)
        assert inst == gen_upper_triangular(4, 3, 2.0, 7)
        assert json.loads(inst.to_json()) == {k: v for k, v in json.loads(text).items() if k != "seed"}


class TestInstanceValidation:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_id_spellings_build_equal_instances(self, data):
        m = data.draw(st.integers(1, 8))
        demands = data.draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
        ids = st.lists(st.integers(0, m - 1), unique=True).map(sorted)
        groups = data.draw(st.lists(st.tuples(st.integers(0, 9), ids), max_size=6))
        spell = st.sampled_from([int, float, np.int64, np.float64])
        spelled = []
        for count, elig in groups:
            again = elig + data.draw(st.lists(st.sampled_from(elig), max_size=4)) if elig else []
            again = data.draw(st.permutations(again))
            spelled.append((data.draw(spell)(count), [data.draw(spell)(a) for a in again]))
        expected = Instance(tuple(demands), tuple((c, tuple(e)) for c, e in groups))
        got = Instance([data.draw(spell)(n) for n in demands], spelled)
        assert got == expected
        assert all(type(a) is int for _, elig in got.groups for a in elig)

    # one change to one group of a canonical instance, each of which the group rule converts or refuses
    MUTATIONS = {
        "duplicate id": lambda c, e, m, k: (c, e + e[-1:] if e else (0, 0)),
        "swapped pair": lambda c, e, m, k: (c, (e[1], e[0]) + e[2:] if len(e) > 1 else (m - 1, 0)),
        "bool id": lambda c, e, m, k: (c, e[:k] + (True,) + e[k:]),
        "numpy id": lambda c, e, m, k: (c, e[:k] + (np.int64(m - 1),) + e[k:]),
        "float id": lambda c, e, m, k: (c, e[:k] + (3.0,) + e[k:]),
        "id m": lambda c, e, m, k: (c, e + (m,)),
        "id -1": lambda c, e, m, k: (c, (-1,) + e),
        "id 2**63": lambda c, e, m, k: (c, e + (2**63,)),
        "count -1": lambda c, e, m, k: (-1, e),
        "count True": lambda c, e, m, k: (True, e),
        "count 2.0": lambda c, e, m, k: (2.0, e),
        "namedtuple group": lambda c, e, m, k: namedtuple("Group", "count ids")(c, e),
    }

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_canonical_groups_match_the_group_rule(self, data):
        # a list-spelled group always takes the group rule, so it is the reference for the canonical one
        m = data.draw(st.integers(2, 8))
        demands = tuple(data.draw(st.lists(st.integers(1, 5), min_size=m, max_size=m)))
        ids = st.lists(st.integers(0, m - 1), unique=True).map(lambda e: tuple(sorted(e)))
        groups = data.draw(st.lists(st.tuples(st.integers(0, 9), ids), max_size=6))
        for at in data.draw(st.sets(st.sampled_from((0, len(groups) // 2, len(groups))))):
            groups.insert(at, (data.draw(st.integers(0, 9)), ()))  # empty groups at the start, middle and end
        groups = tuple(groups)

        def listed(gs):
            return [(c, list(e)) for c, e in gs]

        inst = Instance(demands, groups)
        assert inst == Instance(demands, listed(groups))
        assert all(a is b for a, b in zip(inst.groups, groups)), "canonical groups are kept as given"
        # the check's id array is the index, seeded in construction; the group rule's instance builds it lazily
        ids, bounds = vars(inst)["_eligible_index"]
        lazy_ids, lazy_bounds = Instance(demands, listed(groups))._eligible_index
        assert ids.tolist() == lazy_ids.tolist() and bounds == lazy_bounds and not ids.flags.writeable
        if not groups:
            return
        g = data.draw(st.integers(0, len(groups) - 1))
        count, elig = groups[g]
        mutate = self.MUTATIONS[data.draw(st.sampled_from(sorted(self.MUTATIONS)))]
        bad = groups[:g] + (mutate(count, elig, m, data.draw(st.integers(0, len(elig)))),) + groups[g + 1 :]
        got = _outcome(Instance, demands, bad)
        assert got == _outcome(Instance, demands, listed(bad))
        if got[0] == "ok":
            assert all(type(group) is tuple and type(group[1]) is tuple for group in got[1].groups)
            assert all(type(a) is int for c, e in got[1].groups for a in (c, *e))

    @pytest.mark.parametrize(
        "groups, expected",
        [
            (((1, (1, 2)), (0, ()), (1, (0, 2))), ((1, (1, 2)), (0, ()), (1, (0, 2)))),
            (((1, (1, 2)), (0, ()), (1, (2, 0))), ((1, (1, 2)), (0, ()), (1, (0, 2)))),
            (((0, ()), (1, (0, 2, 1))), ((0, ()), (1, (0, 1, 2)))),
            (((1, (2, 1)), (0, ())), ((1, (1, 2)), (0, ()))),
            (((1, (0,)), (0, ()), (0, ()), (1, (1, 1))), ((1, (0,)), (0, ()), (0, ()), (1, (1,)))),
            ((), ()),
        ],
        ids=["descent-across-empty", "descent-after-empty", "empty-first", "empty-last", "two-empty", "no-groups"],
    )
    def test_empty_groups_move_no_group_start(self, groups, expected):
        # an empty group's start is the next group's: only a descent across groups is allowed
        assert Instance((1, 1, 1), groups).groups == expected

    def test_declared_supply_rejected(self):
        # the supply factor is computed, never declared: no field, and the JSON key is refused
        with pytest.raises(TypeError):
            Instance((2, 2), ((8, (0, 1)),), supply=2.0)
        declared = {
            "demands": [1, 1],
            "groups": [{"count": 3, "eligible": [0]}, {"count": 1, "eligible": [1]}],
            "supply_factor": 2.0,  # queries / demand, but the graph gives 1
        }
        with pytest.raises(DomainError, match="'supply_factor'.*computed"):
            Instance.from_json(json.dumps(declared))

    def test_non_integral_supply_times_demand(self):
        with pytest.raises(NonIntegralGroupSize):
            complete_instance(3, 1, 1.7)  # f*m*n = 5.1
        with pytest.raises(NonIntegralGroupSize):
            gen_upper_triangular(3, 3, 1.7, seed=0)  # f*n = 5.1

    def test_eligibility_ids_checked(self):
        with pytest.raises(DomainError):
            Instance((1,), ((1, (0, 3)),))

    @pytest.mark.parametrize("count", (-1, 1.5, math.nan, "1", None, True, np.True_))
    def test_group_count_checked(self, count):
        # a count of -1 would serve nothing rather than be refused
        with pytest.raises(DomainError, match="group count must be an integer"):
            Instance((1, 1), ((count, (0,)),))

    @pytest.mark.parametrize("a", (-1, 2, 0.5, math.nan, True, np.True_))
    def test_group_ids_checked(self, a):
        # -1 would read the last advertiser
        with pytest.raises(DomainError, match="advertiser id|eligibility ids"):
            Instance((1, 1), ((1, (a,)),))

    def test_demands_positive(self):
        with pytest.raises(DomainError):
            Instance((0,), ((1, (0,)),))

    def test_fractional_counts_rejected(self):
        with pytest.raises(DomainError):
            Instance((1.7, 2.2), ((3, (0, 1)),))
        with pytest.raises(DomainError):
            Instance((1, 2), ((3.9, (0, 1)),))
        with pytest.raises(DomainError):
            Instance((1, 2), ((3, (0, 1.5)),))
        text = '{"demands": [1.7, 2.2], "groups": [{"count": 3.9, "eligible": [0, 1]}]}'
        with pytest.raises(DomainError):
            Instance.from_json(text)
        with pytest.raises(DomainError):
            Instance.from_json('{"demands": [2], "groups": [{"count": NaN, "eligible": [0]}]}')

    def test_integral_floats_accepted(self):
        inst = Instance.from_json(
            '{"demands": [1.0, 2.0], "groups": [{"count": 3.0, "eligible": [0, 1]}]}'
        )
        assert inst == Instance((1, 2), ((3, (0, 1)),))
        assert all(type(n) is int for n in inst.demands + (inst.groups[0][0],))

    def test_non_finite_supply_rejected(self):
        for f in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                gen_upper_triangular(3, 2, f, seed=0)
            with pytest.raises(DomainError):
                complete_instance(3, 2, f)

    def test_expand_order(self):
        inst = Instance((1, 1), ((2, (0, 1)), (1, (1,))))
        assert inst.expand() == [(0, 1), (0, 1), (1,)]


def _hall_supply_factor(inst: Instance) -> Fraction:
    """Exact supply factor by Hall: min over advertiser sets B of supply(N(B)) / n(B) (small m only)."""

    def ratio(mask: int) -> Fraction:
        supply = sum(count for count, elig in inst.groups if any(mask >> a & 1 for a in elig))
        return Fraction(supply, sum(n for a, n in enumerate(inst.demands) if mask >> a & 1))

    return min(map(ratio, range(1, 1 << inst.m)))


class TestSupplyFactor:
    def test_networkx_loaded_only_by_supply_factor(self):
        # networkx is most of the package's import time; only a supply factor that needs a max flow loads it
        import yieldopt

        code = (
            "import sys, yieldopt\n"
            "assert 'networkx' not in sys.modules, 'import yieldopt loaded networkx'\n"
            "assert yieldopt.supply_factor(yieldopt.gen_upper_triangular(50, 20, 2.0, 1)) == 2.0\n"
            "assert 'networkx' not in sys.modules, 'a certified supply factor loaded networkx'\n"
            "assert yieldopt.supply_factor(yieldopt.Instance((1, 1, 1), ((1, (0, 1)), (2, (0, 2))))) == 1.0\n"
            "assert 'networkx' not in sys.modules, 'a search-certified supply factor loaded networkx'\n"
            "assert abs(yieldopt.supply_factor(yieldopt.Instance((2, 2), ((4, (0,)), (2, (0, 1))))) - 1.0) <= 1e-6\n"
            "assert 'networkx' in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(yieldopt.__file__))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_complete_bipartite(self):
        for f in (1.0, 1.5, 2.0, 3.0):
            inst = complete_instance(m=3, n=4, f=f)
            assert supply_factor(inst) == inst.total_queries / inst.total_demand == f

    def test_empty_eligibility_gives_zero(self):
        inst = Instance((1, 1), ((3, (0,)),))
        assert supply_factor(inst) == 0.0

    def test_empty_group_covers_nobody(self):
        # advertiser 0's only group has no queries, so nothing covers it
        inst = Instance((1, 1), ((0, (0,)), (2, (1,))))
        assert supply_factor(inst) == 0.0

    def test_bottleneck_instance(self):
        # 6 queries, but advertiser 1 only reachable from the 2-query group
        inst = Instance((2, 2), ((4, (0,)), (2, (0, 1))))
        assert supply_factor(inst) == pytest.approx(1.0, abs=1e-6)

    def test_fractional_bottleneck(self):
        # advertiser 1 sees only 3 queries against demand 2: f = 1.5 caps it
        inst = Instance((2, 2), ((5, (0,)), (3, (0, 1))))
        assert supply_factor(inst) == pytest.approx(1.5, abs=1e-6)

    def test_invariant_under_id_permutation(self):
        inst = Instance((2, 3), ((4, (0,)), (6, (0, 1))))
        swapped = Instance((3, 2), ((4, (1,)), (6, (0, 1))))
        assert supply_factor(inst) == pytest.approx(supply_factor(swapped), abs=1e-9)

    def test_invariant_under_advertiser_split(self):
        inst = Instance((4,), ((6, (0,)),))
        split = Instance((2, 2), ((6, (0, 1)),))
        assert supply_factor(inst) == pytest.approx(supply_factor(split), abs=1e-9)

    def test_greedy_miss_falls_back_to_the_flow(self):
        # f* = 1 (group 0's query to advertiser 1, group 1's two to 0 and 2), but the pour puts
        # group 0 on advertiser 0 and leaves group 1 a query over: an augmenting path places it
        inst = Instance((1, 1, 1), ((1, (0, 1)), (2, (0, 2))))
        assert _hall_supply_factor(inst) == 1
        assert supply_factor(inst) == 1.0

    def test_zero_count_group_among_covered_ones(self):
        # group 0 has no queries; given to the flow as a class it would pour first and leave a
        # zero-unit edge on advertiser 0, and group 2's search would reach advertiser 1 along it
        # and move nothing
        inst = Instance((1, 1, 1), ((0, (0, 1)), (1, (0, 1)), (2, (0, 2))))
        assert _hall_supply_factor(inst) == 1
        assert supply_factor(inst) == 1.0

    def test_tolerance_edge_is_not_certified(self):
        # f* = 1 but Q / N = 1.000000001: a float max flow short of the target by 1e-9 of it passed
        inst = Instance((1, 10**9), ((1, (0,)), (10**9 + 1, (1,))))
        assert _hall_supply_factor(inst) == 1
        assert 1.0 <= supply_factor(inst) < inst.total_queries / inst.total_demand

    def test_certificate_shares_the_work_cap(self, monkeypatch):
        # the pour counts 3 ids, the search from group 1 then 4 (two ids, two flow edges)
        inst = Instance((1, 1, 1), ((1, (0, 1)), (2, (0, 2))))
        monkeypatch.setattr(_flow, "_MAX_EXACT_WORK", 3)
        with pytest.raises(SizeLimit, match="counted work 7 exceeds exact-solver limit 3"):
            supply_factor(inst)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_certificate_against_brute_force_hall(self, data):
        m = data.draw(st.integers(1, 6))
        demands = data.draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
        ids = st.lists(st.integers(0, m - 1), max_size=m).map(lambda e: tuple(sorted(set(e))))
        groups = data.draw(st.lists(st.tuples(st.integers(0, 6), ids), max_size=6))
        inst = Instance(tuple(demands), tuple(groups))
        exact = _hall_supply_factor(inst)
        if exact == Fraction(inst.total_queries, inst.total_demand):
            assert supply_factor(inst) == inst.total_queries / inst.total_demand
        else:
            assert supply_factor(inst) == pytest.approx(float(exact), abs=1e-6)
            assert supply_factor(inst) != inst.total_queries / inst.total_demand


# every function that takes a random stream: an int seed >= 0 or a numpy Generator
STREAMS = {
    "sample_array": lambda s: sample_array(BINARY, s, 5),
    "gen_upper_triangular": lambda s: gen_upper_triangular(3, 2, 2.0, s),
    "run_instance": lambda s: run_instance(TINY, POLICY, 1.0, BINARY, s),
    "sample_realized": lambda s: sample_realized(TINY, BINARY, s),
    "perturbed_greedy": lambda s: perturbed_greedy(MATCH, 1, s),
}


class TestStreamRule:
    @pytest.mark.parametrize("seed", [0, 3, 2**40])
    def test_a_seed_draws_what_its_generator_draws(self, seed):
        gen = np.random.default_rng
        assert sample_array(BINARY, seed, 50).tolist() == sample_array(BINARY, gen(seed), 50).tolist()
        inst = gen_upper_triangular(4, 3, 2.0, 1)
        assert run_instance(inst, POLICY, 1.0, BINARY, gen(seed)) == run_instance(inst, POLICY, 1.0, BINARY, seed)
        assert sample_realized(inst, BINARY, gen(seed)) == sample_realized(inst, BINARY, seed)
        assert perturbed_greedy(inst, 2, gen(seed)) == perturbed_greedy(inst, 2, seed)

    def test_a_generator_is_used_as_given(self):
        # its state moves on: two draws of 5 are the first 10 of a fresh stream
        rng = np.random.default_rng(11)
        halves = sample_array(BINARY, rng, 5).tolist() + sample_array(BINARY, rng, 5).tolist()
        assert halves == sample_array(BINARY, 11, 10).tolist()

    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_only_a_generator_or_a_seed(self, name):
        STREAMS[name](4)
        STREAMS[name](np.random.default_rng(4))
        state = np.random.RandomState(0)
        with pytest.raises(DomainError, match=re.escape(f"seed must be an integer, got {state!r}")):
            STREAMS[name](state)
        with pytest.raises(DomainError, match="seed must be an integer, got None"):
            STREAMS[name](None)

    @pytest.mark.parametrize("call", [trial_weights, empirical_ratio])
    def test_trials_take_an_integer_seed(self, call):
        # trial t draws from default_rng([seed, t]), so one Generator cannot stand for the seed
        with pytest.raises(DomainError, match="seed must be an integer"):
            call(2, 1, 1, 2, np.random.default_rng(0))


class TestJsonRoundtrip:
    def test_roundtrip(self):
        inst = gen_upper_triangular(m=3, n=2, f=2.0, seed=4)
        back = Instance.from_json(inst.to_json())
        assert back == inst

    def test_wire_format(self):
        inst = Instance((1, 2), ((2, (0, 1)), (1, (1,))))
        obj = json.loads(inst.to_json())
        assert obj["demands"] == [1, 2]
        assert obj["groups"][0] == {"count": 2, "eligible": [0, 1]}
        assert "supply_factor" not in obj
        assert "supply_factor" not in json.loads(gen_upper_triangular(3, 2, 2.0, 4).to_json())

    def test_bad_json_rejected(self):
        with pytest.raises(DomainError):
            Instance.from_json('{"demands": [1]}')
