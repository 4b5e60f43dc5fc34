import math

import numpy as np
import pytest

from yieldopt.dist import RewardDistribution, normalize, validate
from yieldopt.errors import DomainError
from yieldopt.policy import binary_threshold, ub_continuous
from yieldopt.ratio import (
    best_achievable_reward,
    binary_alg_bound,
    binary_opt,
    binary_ratio,
    worst_case_distribution,
)
from yieldopt.repro import random_mean_distribution

CANONICAL_RATIO = 0.28447223007858624  # 2*(0.5 - sqrt(0.5) e^{-0.5}) / 0.5


class TestBinaryRatio:
    def test_canonical(self):
        report = binary_ratio(2.0, 0.5, 0.5, 1.0)
        assert report.ratio == pytest.approx(CANONICAL_RATIO, abs=1e-12)
        assert report.alg_bound == pytest.approx(0.14223611503929323, abs=1e-12)
        assert report.opt == pytest.approx(0.5)
        assert report.case == "interior-threshold|q<=1/f"

    def test_zero_reward_undefined(self):
        report = binary_ratio(2.0, 0.5, 0.0, 1.0)
        assert report.ratio is None and report.opt == 0.0
        assert report.alg_bound == binary_alg_bound(2.0, 0.5, 0.0, 1.0)[0]

    def test_f_one_undefined(self):
        report = binary_ratio(1.0, 0.5, 0.5, 1.0)
        assert report.ratio is None and report.opt == 0.0
        assert report.alg_bound == binary_alg_bound(1.0, 0.5, 0.5, 1.0)[0]

    def test_monotone_in_supply_factor(self):
        ratios = [binary_ratio(f, 0.5, 0.5, 1.0).ratio for f in (2, 4, 8, 16, 32, 64, 100)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(r < 1.0 for r in ratios)
        assert ratios[-1] > 0.99  # approaches the r-selling ideal

    def test_boundary_branch_selected_from_threshold_sign(self):
        report = binary_ratio(4.0, 0.5, 0.5, 1.0)
        assert report.case.startswith("boundary-threshold")
        assert binary_threshold(4.0, 0.5, 0.5, 1.0) == 0.0

    def test_negative_ratio_possible_and_not_clamped(self):
        report = binary_ratio(1.05, 0.9, 0.05, 1.0)
        assert report.ratio < 0.0

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
    @pytest.mark.parametrize("fn", [binary_threshold, binary_alg_bound, binary_ratio])
    def test_non_finite_penalty_rejected(self, fn, c):
        with pytest.raises(DomainError, match="penalty must be finite"):
            fn(2.0, 0.5, 0.5, c)

    def test_opt_cases(self):
        assert binary_opt(2.0, 0.75, 0.5) == pytest.approx(2 * 0.25 * 0.5)
        assert binary_opt(2.0, 0.25, 0.5) == pytest.approx(2 * 0.5 * 0.5)


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
            value = best_achievable_reward(d, 1.0, f=2.0, method="grid")
            assert value >= spec.worst_value - 1e-6

    def test_best_achievable_handles_shifted_support(self):
        d = RewardDistribution((0.2, 0.7), (0.5, 1.0))
        value_exact = best_achievable_reward(d, 1.0, 2.0)
        value_grid = best_achievable_reward(d, 1.0, 2.0, method="grid")
        assert value_grid - 1e-12 <= value_exact <= value_grid + 2e-4
        # offset route: shifted problem plus (f-1) N r_1
        shifted, c_s, offset = normalize(validate(d, 1.0), 1.0, 2.0, 1.0)
        s1 = binary_threshold(2.0, 0.5, shifted.support[1], c_s)
        direct = ub_continuous((s1, 1.0), shifted, 2.0, c_s, 1.0) + offset
        assert value_exact == pytest.approx(direct, abs=1e-12)

    def test_unknown_method_rejected(self):
        d = RewardDistribution((0.0, 0.5), (0.5, 1.0))
        assert best_achievable_reward(d, 1.0, 2.0, method="exact") == best_achievable_reward(d, 1.0, 2.0)
        with pytest.raises(DomainError):
            best_achievable_reward(d, 1.0, 2.0, method="dp")
