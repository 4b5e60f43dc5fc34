import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yieldopt.dist import RewardDistribution, normalize, validate
from yieldopt.errors import DomainError
from yieldopt.oracle import offline_opt_formula
from yieldopt.policy import binary_threshold, optimize_thresholds_exact, optimize_thresholds_grid, ub_continuous
from yieldopt.ratio import (
    binary_alg_bound,
    competitive_ratio,
    worst_case_distribution,
)
from yieldopt.repro import random_mean_distribution

CANONICAL_RATIO = 0.28447223007858624  # 2*(0.5 - sqrt(0.5) e^{-0.5}) / 0.5


def binary_opt(f, q, r):
    """Offline optimum per unit demand for the binary distribution, in two branches.

    Of the ``f`` queries per unit of demand, sell the top ``1 - 1/f`` of the
    bid mass: all of the ``1 - q`` mass at ``r`` while ``q > 1/f``,
    otherwise ``1 - 1/f`` of it.
    """
    return f * (1.0 - q) * r if q > 1.0 / f else f * (1.0 - 1.0 / f) * r


def binary_ratio(f, q, r, c):
    """The binary competitive ratio from the closed forms: ``(ratio, interior)``.

    The branch is the sign of the unclamped threshold, as in
    ``binary_alg_bound``; ``ratio`` is ``None`` when the offline optimum is 0.
    """
    alg, interior = binary_alg_bound(f, q, r, c)
    opt = binary_opt(f, q, r)
    return (alg / opt if opt != 0.0 else None), interior


def grid_best(dist, c, f):
    """The grid oracle's best objective: ``ub_continuous`` of ``optimize_thresholds_grid``'s policy."""
    return ub_continuous(optimize_thresholds_grid(dist, f, c).thresholds, dist, f, c)


def ratio_of_binary(f, q, r, c):
    # competitive_ratio of the binary distribution, in binary_alg_bound's argument order
    return competitive_ratio(RewardDistribution.binary(q, r), c, f)


class TestBinaryRatio:
    """``competitive_ratio`` on binary distributions."""

    def test_canonical(self):
        report = ratio_of_binary(2.0, 0.5, 0.5, 1.0)
        assert report.ratio == pytest.approx(CANONICAL_RATIO, abs=1e-12)
        assert report.alg_bound == pytest.approx(0.14223611503929323, abs=1e-12)
        assert report.opt == pytest.approx(0.5)
        assert report.clamped == 0
        assert report.ratio == pytest.approx(binary_ratio(2.0, 0.5, 0.5, 1.0)[0], abs=1e-12)

    def test_zero_reward_undefined(self):
        # r = 0 leaves one bid, 0
        report = competitive_ratio(RewardDistribution.point_mass(0.0), 1.0, 2.0)
        assert report.ratio is None and report.opt == 0.0 and report.clamped == 0
        assert report.alg_bound == pytest.approx(binary_alg_bound(2.0, 0.5, 0.0, 1.0)[0], abs=1e-15)

    def test_f_one_undefined(self):
        report = ratio_of_binary(1.0, 0.5, 0.5, 1.0)
        assert report.ratio is None and report.opt == 0.0
        assert report.alg_bound == pytest.approx(binary_alg_bound(1.0, 0.5, 0.5, 1.0)[0], abs=1e-15)

    def test_monotone_in_supply_factor(self):
        ratios = [ratio_of_binary(f, 0.5, 0.5, 1.0).ratio for f in (2, 4, 8, 16, 32, 64, 100)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(r < 1.0 for r in ratios)
        assert ratios[-1] > 0.99  # approaches the r-selling ideal

    def test_boundary_branch_selected_from_threshold_sign(self):
        report = ratio_of_binary(4.0, 0.5, 0.5, 1.0)
        assert report.clamped == 1
        assert binary_threshold(4.0, 0.5, 0.5, 1.0) == 0.0
        assert binary_ratio(4.0, 0.5, 0.5, 1.0)[1] is False

    def test_negative_ratio_possible_and_not_clamped(self):
        report = ratio_of_binary(1.05, 0.9, 0.05, 1.0)
        assert report.ratio < 0.0
        assert report.ratio == pytest.approx(binary_ratio(1.05, 0.9, 0.05, 1.0)[0], rel=1e-12)

    def test_selected_formula_matches_objective_at_optimum(self):
        # the reported bound must equal the objective of the optimal
        # threshold itself, for every branch combination
        for f in (1.5, 2.0, 4.0):
            for q in np.arange(0.1, 0.95, 0.1):
                for rc in np.arange(0.1, 0.95, 0.1):
                    d = RewardDistribution.binary(float(q), float(rc))
                    alg, _ = binary_alg_bound(f, float(q), float(rc), 1.0)
                    s1 = binary_threshold(f, float(q), float(rc), 1.0)
                    assert alg == pytest.approx(
                        ub_continuous((s1, 1.0), d, f, 1.0, 1.0), abs=1e-9
                    )

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "fn",
        [binary_threshold, binary_alg_bound, ratio_of_binary],
        ids=["binary_threshold", "binary_alg_bound", "competitive_ratio"],
    )
    def test_non_finite_penalty_rejected(self, fn, c):
        with pytest.raises(DomainError, match="penalty must be finite"):
            fn(2.0, 0.5, 0.5, c)

    def test_opt_cases(self):
        # both branches of the oracle, against the general formula
        for q in (0.75, 0.25):
            assert offline_opt_formula(RewardDistribution.binary(q, 0.5), 2.0, 1.0) == pytest.approx(
                binary_opt(2.0, q, 0.5), abs=1e-15
            )
        assert binary_opt(2.0, 0.75, 0.5) == pytest.approx(2 * 0.25 * 0.5)
        assert binary_opt(2.0, 0.25, 0.5) == pytest.approx(2 * 0.5 * 0.5)


@st.composite
def binary_problems(draw):
    """``(f, q, r, c)`` with f in (1, 5], q in (0.01, 0.99), c in (0.5, 3) and 0 < r < c."""
    f = draw(st.floats(1.0, 5.0, exclude_min=True))
    q = draw(st.floats(0.01, 0.99, exclude_min=True, exclude_max=True))
    c = draw(st.floats(0.5, 3.0, exclude_min=True, exclude_max=True))
    r = c * draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return f, q, r, c


@st.composite
def shifted_ratio_problems(draw):
    """A distribution (d <= 4) under a penalty c, a supply factor f in (1, 8] and a shift r >= 0."""
    d = draw(st.integers(1, 4))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=d - 1, max_size=d - 1))
    support = tuple(float(v) for v in np.cumsum([0.0] + steps))
    masses = draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d))
    cum = tuple(np.cumsum(masses)[:-1] / sum(masses)) + (1.0,)
    c = support[-1] + draw(st.just(0.0) | st.floats(0.01, 1.0))
    f = draw(st.floats(1.0, 8.0, exclude_min=True))
    r = draw(st.floats(0.0, 1000.0))
    return RewardDistribution(support, cum), c, f, r


class TestCompetitiveRatio:
    """``competitive_ratio`` against the binary closed forms, and under a common shift.

    The tolerances come from 6,000 random problems of each kind: the bound
    and OPT differed from the closed forms by at most 3.9e-16 ``c f``, with
    no disagreement on the clamped branch, and a shift by ``r`` up to 1000
    moved both by ``(f - 1) r`` to within 3.7e-16 ``(c + r) f``.
    """

    @settings(max_examples=300, deadline=None)
    @given(problem=binary_problems())
    def test_matches_binary_closed_forms(self, problem):
        f, q, r, c = problem
        report = ratio_of_binary(f, q, r, c)
        alg, _ = binary_alg_bound(f, q, r, c)
        assert abs(report.alg_bound - alg) <= 1e-12 * c * f
        assert abs(report.opt - binary_opt(f, q, r)) <= 1e-12 * f * c
        assert report.clamped == (binary_threshold(f, q, r, c) == 0.0)
        assert report.ratio == (report.alg_bound / report.opt if report.opt else None)  # r may underflow OPT

    @settings(max_examples=300, deadline=None)
    @given(problem=shifted_ratio_problems())
    # the top atom alone covers the top mass: p * r / p lost the last bits of a subnormal r
    @example(problem=(RewardDistribution((0.0,), (1.0,)), 0.0, 5.875, 2.2250738585e-313))
    def test_common_shift_adds_f_minus_one_r(self, problem):
        dist, c, f, r = problem
        raised = RewardDistribution(tuple(v + r for v in dist.support), dist.cum_mass)
        base, up = competitive_ratio(dist, c, f), competitive_ratio(raised, c + r, f)
        tol = 1e-12 * (c + r) * f + 2 * math.ulp(0.0)  # a subnormal r rounds in absolute terms
        assert abs(up.alg_bound - (base.alg_bound + (f - 1.0) * r)) <= tol
        assert abs(up.opt - (base.opt + (f - 1.0) * r)) <= tol

    @settings(max_examples=300, deadline=None)
    @given(problem=shifted_ratio_problems())
    def test_grid_oracle_never_beats_alg_bound(self, problem):
        # the grid's optimum is over a subset of the exact solver's; on 3,000 random problems it never exceeded it
        dist, c, f, r = problem
        raised = RewardDistribution(tuple(v + r for v in dist.support), dist.cum_mass)
        for d, cost in ((dist, c), (raised, c + r)):
            assert grid_best(d, cost, f) <= competitive_ratio(d, cost, f).alg_bound + 1e-12 * cost * f

    def test_three_point_distribution(self):
        three = RewardDistribution((0.0, 0.4, 0.9), (0.3, 0.7, 1.0))
        assert competitive_ratio(three, 1.0, 2.0).clamped == 1  # thresholds (0.0, 0.6935..., 1.0)
        # its twin with every bid and the penalty raised by 0.25 is scored in its own units
        raised = RewardDistribution((0.25, 0.65, 1.15), (0.3, 0.7, 1.0))
        for dist, c in ((three, 1.0), (raised, 1.25)):
            report = competitive_ratio(dist, c, 2.0)
            exact = optimize_thresholds_exact(dist, 2.0, c)
            assert report.alg_bound == ub_continuous(exact.thresholds, dist, 2.0, c)
            assert report.opt == offline_opt_formula(dist, 2.0, 1.0)
            assert report.ratio == report.alg_bound / report.opt


class TestWorstCase:
    def test_mu_small_candidates(self):
        spec = worst_case_distribution(0.3, 1.0, 2.0)
        labels = {label for label, _, _ in spec.candidates}
        assert labels == {"point", "zero-low"}
        zero_low = dict((l, d) for l, d, _ in spec.candidates)["zero-low"]
        assert zero_low.support == pytest.approx((0.0, 0.6))
        assert zero_low.cum_mass == pytest.approx((0.5, 1.0))

    def test_mu_large_candidates(self):
        spec = worst_case_distribution(0.6, 1.0, 2.0)
        labels = {label for label, _, _ in spec.candidates}
        assert labels == {"point", "penalty-high"}
        ph = dict((l, d) for l, d, _ in spec.candidates)["penalty-high"]
        assert ph.support == pytest.approx((0.2, 1.0))
        assert ph.cum_mass == pytest.approx((0.5, 1.0))

    def test_boundary_mean_has_both_binaries(self):
        spec = worst_case_distribution(0.5, 1.0, 2.0)
        labels = {label for label, _, _ in spec.candidates}
        assert labels == {"point", "zero-low", "penalty-high"}
        by_label = {l: d for l, d, _ in spec.candidates}
        assert by_label["zero-low"].support == pytest.approx((0.0, 1.0))
        assert by_label["penalty-high"].support == pytest.approx((0.0, 1.0))

    def test_mu_equal_penalty_degenerates(self):
        spec = worst_case_distribution(1.0, 1.0, 2.0)
        for _, d, _ in spec.candidates:
            assert d.support == (1.0,)

    def test_candidate_means_are_mu(self):
        for mu in (0.3, 0.5, 0.6, 0.9):
            spec = worst_case_distribution(mu, 1.0, 2.0)
            for _, d, _ in spec.candidates:
                assert d.mean() == pytest.approx(mu, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            worst_case_distribution(1.2, 1.0, 2.0)
        with pytest.raises(DomainError):
            worst_case_distribution(0.3, 1.0, 1.0)

    def test_no_random_distribution_beats_candidates_small(self):
        rng = np.random.default_rng(314)
        spec = worst_case_distribution(0.3, 1.0, 2.0)
        for _ in range(15):
            d = random_mean_distribution(rng, 0.3, 1.0)
            assert grid_best(d, 1.0, 2.0) >= spec.worst_value - 1e-6

    def test_best_achievable_handles_shifted_support(self):
        d = RewardDistribution((0.2, 0.7), (0.5, 1.0))
        value_exact = competitive_ratio(d, 1.0, 2.0).alg_bound
        value_grid = grid_best(d, 1.0, 2.0)
        assert value_grid - 1e-12 <= value_exact <= value_grid + 2e-4
        # offset route: shifted problem plus (f-1) N r_1
        shifted, c_s, offset = normalize(validate(d, 1.0), 1.0, 2.0, 1.0)
        s1 = binary_threshold(2.0, 0.5, shifted.support[1], c_s)
        direct = ub_continuous((s1, 1.0), shifted, 2.0, c_s, 1.0) + offset
        assert value_exact == pytest.approx(direct, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(mu=st.floats(0.0, 1.0, exclude_min=True), f=st.floats(1.0, 8.0, exclude_min=True))
    def test_candidates_scored_by_competitive_ratio(self, mu, f):
        spec = worst_case_distribution(mu, 1.0, f)
        for _, d, report in spec.candidates:
            assert report == competitive_ratio(d, 1.0, f)
        assert spec.worst_value == min(report.alg_bound for _, _, report in spec.candidates)
        assert spec.worst[2].alg_bound == spec.worst_value
