import math
from collections import Counter
from itertools import combinations_with_replacement
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yieldopt.dist import RewardDistribution, cond_mean_below, normalize, sample_array, top_quantile_mean, validate
from yieldopt.engine import run_instance
from yieldopt.errors import DomainError, InfeasibleDecay, MalformedDistribution
from yieldopt.instances import Instance
from yieldopt.oracle import (
    adversary_lp_tight,
    exhaustive_values,
    lp_residuals,
    offline_opt_formula,
    online_opt_bruteforce,
    sample_realized,
)
from yieldopt.policy import (
    ThresholdPolicy,
    _grid_values,
    _ub_value,
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
from yieldopt.ratio import competitive_ratio

BINARY = RewardDistribution((0.0, 0.5), (0.5, 1.0))
TINY = Instance((1,), ((2, (0,)),))
S_STAR = 1.0 + math.log(0.5)  # canonical f=2, q=0.5, r=0.5, c=1
CANONICAL_VALUE = 0.14223611503929323  # = 2*(0.5 - sqrt(0.5)*exp(-0.5))


def rhs_objective(x, f, q, r, c, N=1.0):
    # single-variable objective of the binary max-min problem, x = s/f
    return (
        N * c * (f - 1.0)
        + (1.0 - q) * (r - c) * f * N * math.exp(-x)
        - q * f * N * c * math.exp((1.0 - q) / q * x - 1.0 / (q * f))
    )


@st.composite
def normalized_problems(draw):
    """Normalized distribution (d <= 4), supply factor in [1, 8], penalty >= top reward."""
    d = draw(st.integers(1, 4))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=d - 1, max_size=d - 1))
    support = tuple(float(v) for v in np.cumsum([0.0] + steps))
    masses = draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d))
    cum = tuple(np.cumsum(masses)[:-1] / sum(masses)) + (1.0,)
    at_penalty = d > 1 and draw(st.booleans())
    c = support[-1] + (0.0 if at_penalty else draw(st.floats(0.01, 1.0)))
    f = draw(st.floats(1.0, 8.0))
    return RewardDistribution(support, cum), f, c


@st.composite
def shifted_problems(draw):
    """A normalized problem with every reward and the penalty raised by r >= 0, and a demand N."""
    dist, f, c = draw(normalized_problems())
    r = draw(st.just(0.0) | st.floats(0.0, 1000.0))
    N = draw(st.floats(1.0, 100.0))
    return RewardDistribution(tuple(v + r for v in dist.support), dist.cum_mass), f, c + r, N


def simplex_gradient(dist, thresholds, f, c):
    """Gradient of ub_continuous in the increments y_j = s_j - s_{j-1}, up to fN.

    ``w_j * sum_{v >= j} a_v exp(-X_v)`` with ``w_j = 1/q_{d+1-j}`` and
    ``a_v = m_{d+1-v} (c - r_{d+1-v})``; returned with the increments.
    """
    support = np.asarray(dist.support)
    cum = np.asarray(dist.cum_mass)
    masses = np.diff(np.concatenate(([0.0], cum)))
    w = 1.0 / cum[::-1]
    y = np.diff(np.concatenate(([0.0], thresholds)))
    X = np.cumsum(y * w) / f
    a = (masses * (c - support))[::-1]
    tail = np.cumsum((a * np.exp(-X))[::-1])[::-1]
    return w * tail, y


class TestBinaryThreshold:
    def test_canonical_value(self):
        assert binary_threshold(2.0, 0.5, 0.5, 1.0) == pytest.approx(S_STAR, abs=1e-12)

    def test_canonical_vs_grid_search(self):
        # independent oracle: maximize RHS(x) over a fine grid of x = s/f
        f, q, r, c = 2.0, 0.5, 0.5, 1.0
        xs = np.linspace(0.0, 1.0 / f, 200001)
        vals = [rhs_objective(x, f, q, r, c) for x in xs]
        x_best = xs[int(np.argmax(vals))]
        assert binary_threshold(f, q, r, c) == pytest.approx(f * x_best, abs=1e-4)

    def test_clamped_to_zero(self):
        assert binary_threshold(1.0, 0.9, 0.99, 1.0) == 0.0

    def test_zero_reward_gives_one(self):
        for f in (1.0, 2.0, 7.5):
            assert binary_threshold(f, 0.3, 0.0, 1.0) == 1.0

    def test_reward_at_penalty_rejected(self):
        with pytest.raises(DomainError):
            binary_threshold(2.0, 0.5, 1.0, 1.0)

    def test_affine_in_supply_factor(self):
        q, r, c = 0.4, 0.3, 1.0
        slope = q * math.log(1.0 - r / c)
        for f in (1.0, 1.5, 2.0):
            assert binary_threshold(f, q, r, c) == pytest.approx(1.0 + f * slope)


class TestBetaClosedForm:
    def test_first_entry_is_demand_over_t(self):
        policy = ThresholdPolicy((0.3, 1.0), BINARY)
        beta = beta_closed_form(policy, 2.0, 1.0, 50)
        assert beta.dtype == np.float64 and beta.shape == (50,)
        assert beta[0] == pytest.approx(1.0 / 50)

    def test_binary_piecewise_formula(self):
        # explicit two-branch geometric expression, written out independently
        N, t, f, q = 1.0, 10, 2.0, 0.5
        policy = ThresholdPolicy((0.3, 1.0), BINARY)
        beta = beta_closed_form(policy, f, N, t)
        st = 3  # s*t
        for j in range(1, t + 1):
            if j <= st + 1:
                expected = (N / t) * (1.0 - 1.0 / (t * f)) ** (j - 1)
            else:
                expected = (
                    (N / t)
                    * (1.0 - 1.0 / (t * f)) ** st
                    * (1.0 - (1.0 / q) / (t * f)) ** (j - st - 1)
                )
            assert beta[j - 1] == pytest.approx(expected, abs=1e-12)

    def test_matches_tight_recurrence_d3(self):
        d3 = RewardDistribution((0.0, 0.4, 0.9), (1 / 3, 2 / 3, 1.0))
        policy = ThresholdPolicy((0.2, 0.6, 1.0), d3)
        closed = beta_closed_form(policy, 2.0, 1.0, 100)
        tight = adversary_lp_tight(policy, 2.0, 1.0, 100)
        assert np.max(np.abs(closed - tight)) <= 1e-9

    def test_infeasible_decay(self):
        skewed = RewardDistribution((0.0, 0.5), (0.001, 1.0))
        policy = ThresholdPolicy((0.3, 1.0), skewed)
        with pytest.raises(InfeasibleDecay):
            beta_closed_form(policy, 1.0, 1.0, 10)

    def test_non_increasing(self):
        policy = ThresholdPolicy((0.3, 1.0), BINARY)
        beta = beta_closed_form(policy, 2.0, 1.0, 500)
        assert np.all(np.diff(beta) <= 1e-15)


class TestLbDiscrete:
    def test_canonical_binary(self):
        policy = ThresholdPolicy((S_STAR, 1.0), BINARY)
        value = lb_discrete(policy, 2.0, 1.0, 1.0, 10**5)
        assert value == pytest.approx(CANONICAL_VALUE, abs=1e-3)

    def test_point_mass_f1_matches_continuous_limit(self):
        # worst-case value of the all-deliver policy at f=1 is -cN/e
        point = RewardDistribution.point_mass(0.0)
        policy = ThresholdPolicy((1.0,), point)
        value = lb_discrete(policy, 1.0, 1.0, 1.0, 10**5)
        assert value == pytest.approx(-math.exp(-1.0), abs=1e-4)
        assert value == pytest.approx(ub_continuous((1.0,), point, 1.0, 1.0, 1.0), abs=1e-4)

    def test_matches_ub_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            support = (0.0,) + tuple(np.sort(rng.uniform(0.05, 1.0, d - 1)))
            cum = tuple(np.sort(rng.uniform(0.05, 0.95, d - 1))) + (1.0,)
            dist = RewardDistribution(support, cum)
            c = support[-1] + float(rng.uniform(0.05, 0.5))
            ts = tuple(np.sort(rng.uniform(0.0, 1.0, d - 1))) + (1.0,)
            f = float(rng.uniform(1.0, 4.0))
            policy = ThresholdPolicy(ts, dist)
            lb = lb_discrete(policy, f, c, 1.0, 10**5)
            ub = ub_continuous(ts, dist, f, c, 1.0)
            assert abs(lb - ub) <= 1e-3 * c

    def test_requires_normalized(self):
        # a lowest reward above 0 is no longer refused: the value moves by (f - 1) N r_1
        shifted = RewardDistribution((0.2, 0.7), (0.5, 1.0))
        policy = ThresholdPolicy((0.3, 1.0), shifted)
        normalized = ThresholdPolicy((0.3, 1.0), RewardDistribution((0.0, 0.5), (0.5, 1.0)))
        lb = lb_discrete(policy, 2.0, 1.2, 10.0, 100)
        assert lb == pytest.approx(lb_discrete(normalized, 2.0, 1.0, 10.0, 100) + 2.0, rel=1e-14)

    def test_degenerate_threshold_vectors(self):
        # zero, duplicate, and all-saturating thresholds keep the identity
        d3 = RewardDistribution((0.0, 0.4, 0.9), (0.3, 0.7, 1.0))
        for ts in [(0.0, 0.0, 1.0), (0.5, 0.5, 1.0), (1.0, 1.0, 1.0), (0.0, 1.0, 1.0)]:
            policy = ThresholdPolicy(ts, d3)
            lb = lb_discrete(policy, 2.0, 1.0, 1.0, 10**5)
            ub = ub_continuous(ts, d3, 2.0, 1.0, 1.0)
            assert abs(lb - ub) <= 1e-3


class TestUbContinuous:
    def test_canonical_binary(self):
        value = ub_continuous((S_STAR, 1.0), BINARY, 2.0, 1.0, 1.0)
        assert value == pytest.approx(CANONICAL_VALUE, abs=1e-12)

    def test_canonical_matches_rhs_form(self):
        value = ub_continuous((S_STAR, 1.0), BINARY, 2.0, 1.0, 1.0)
        assert value == pytest.approx(rhs_objective(S_STAR / 2.0, 2.0, 0.5, 0.5, 1.0), abs=1e-12)

    def test_zero_threshold_boundary_form(self):
        # cf((1-1/f) - (1-q)(1-r/c) - q e^{-1/(qf)}) at s1 = 0
        f, q, r, c = 4.0, 0.5, 0.5, 1.0
        expected = c * f * ((1 - 1 / f) - (1 - q) * (1 - r / c) - q * math.exp(-1 / (q * f)))
        value = ub_continuous((0.0, 1.0), BINARY, f, c, 1.0)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(rhs_objective(0.0, f, q, r, c), abs=1e-12)

    def test_point_mass_identity_with_lb_large_t(self):
        point = RewardDistribution.point_mass(0.0)
        for f in (1.0, 2.0):
            policy = ThresholdPolicy((1.0,), point)
            lb = lb_discrete(policy, f, 1.0, 1.0, 10**6)
            ub = ub_continuous((1.0,), point, f, 1.0, 1.0)
            assert lb == pytest.approx(ub, abs=1e-5)

    def test_atom_split_invariance(self):
        # splitting an atom in two equal halves at the same reward, with the
        # matching threshold duplicated, leaves the objective unchanged
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            support = (0.0,) + tuple(np.sort(rng.uniform(0.05, 0.9, d - 1)))
            cum = tuple(np.sort(rng.uniform(0.05, 0.95, d - 1))) + (1.0,)
            ts = tuple(np.sort(rng.uniform(0.0, 1.0, d - 1))) + (1.0,)
            f = float(rng.uniform(1.0, 3.0))
            c = 1.0
            base = _ub_value(support, cum, ts, f, c, 1.0)
            u = int(rng.integers(1, d + 1))  # atom to split (1-based)
            prev = cum[u - 2] if u >= 2 else 0.0
            mid = prev + (cum[u - 1] - prev) / 2.0
            support2 = support[: u - 1] + (support[u - 1], support[u - 1]) + support[u:]
            cum2 = cum[: u - 1] + (mid,) + cum[u - 1 :]
            p = d + 1 - u  # duplicate threshold s_p
            ts2 = ts[:p] + (ts[p - 1],) + ts[p:]
            split = _ub_value(support2, cum2, ts2, f, c, 1.0)
            assert split == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize(
        "thresholds",
        [
            (math.nan, 0.5, 1.0),
            (0.6, 0.4, 1.0),
            (-0.1, 0.5, 1.0),
            (0.5, 1.5, 1.0),
            (0.2, 0.5),
            (0.2, 0.4, 0.6, 1.0),
            (0.2, 0.5, 0.9),
        ],
        ids=["nan", "decreasing", "negative", "above-one", "short", "long", "last-not-one"],
    )
    def test_bad_thresholds_rejected(self, thresholds):
        three = RewardDistribution((0.0, 0.4, 0.9), (0.3, 0.7, 1.0))
        with pytest.raises(DomainError):
            ub_continuous(thresholds, three, 2.0, 1.0, 1.0)

    def test_rows_match_ub_continuous(self):
        # a batched call is the same objective row by row
        rng = np.random.default_rng(5)
        for d in range(1, 5):
            support = (0.0,) + tuple(np.sort(rng.uniform(0.05, 0.9, d - 1)))
            cum = tuple(np.sort(rng.uniform(0.05, 0.95, d - 1))) + (1.0,)
            dist = RewardDistribution(support, cum)
            block = np.sort(rng.uniform(0.0, 1.0, (50, d)), axis=1)
            block[:, -1] = 1.0
            f = float(rng.uniform(1.0, 3.0))
            values = _ub_value(support, cum, block, f, 1.0, 2.0)
            assert values.shape == (50,)
            for row, value in zip(block, values):
                expected = ub_continuous(tuple(row), dist, f, 1.0, 2.0)
                assert value == pytest.approx(expected, rel=0, abs=1e-12)


def _grid_neighbours(s, eps):
    lo = math.floor(s / eps) * eps
    return {round(lo, 12), round(min(1.0, lo + eps), 12)}


def _enumerated_grid_optimum(dist, f, c, grid):
    """The grid oracle by enumeration: every monotone grid vector, first maximum."""
    ys = _grid_values(grid)
    rows = [(*row, 1.0) for row in combinations_with_replacement(ys.tolist(), dist.d - 1)]
    rows = np.array(rows)
    values = _ub_value(dist.support, dist.cum_mass, rows, f, c, 1.0)
    return tuple(rows[int(np.argmax(values))].tolist())


@st.composite
def grid_problems(draw):
    """A normalized problem (d <= 6) and a grid coarse enough to enumerate.

    Atoms at the penalty, equal masses, f = 1 and cumulative masses down to
    1e-9 all occur.
    """
    d = draw(st.integers(1, 6))
    fine = [1 / 200] if d <= 3 else []
    medium = [1 / 50, 1 / 20] if d <= 4 else []
    grid = draw(st.sampled_from(fine + medium + [1 / 7, 0.3]))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=d - 1, max_size=d - 1))
    support = tuple(float(v) for v in np.cumsum([0.0] + steps))
    if draw(st.booleans()):
        masses = np.ones(d)
    else:
        masses = 10.0 ** np.array(draw(st.lists(st.floats(-9.0, 0.0), min_size=d, max_size=d)))
    cum = tuple(np.cumsum(masses)[:-1] / masses.sum()) + (1.0,)
    at_penalty = d > 1 and draw(st.booleans())
    c = support[-1] + (0.0 if at_penalty else draw(st.floats(0.01, 1.0)))
    f = draw(st.one_of(st.just(1.0), st.floats(1.0, 10.0)))
    return RewardDistribution(support, cum), f, c, grid


class TestOptimizers:
    # The test_dp_* names predate the closed-form solver; each now checks
    # optimize_thresholds_exact at a gate at least as tight as the DP's.

    def test_dp_binary_matches_closed_form(self):
        policy = optimize_thresholds_exact(BINARY, 2.0, 1.0)
        assert abs(policy.thresholds[0] - S_STAR) <= 1e-12
        assert policy.thresholds[1] == 1.0

    def test_dp_binary_grid_subset(self):
        for f in (1.0, 2.0, 4.0):
            for q in (0.2, 0.5, 0.8):
                for rc in (0.1, 0.5, 0.9):
                    d = RewardDistribution.binary(q, rc)
                    policy = optimize_thresholds_exact(d, f, 1.0)
                    target = binary_threshold(f, q, rc, 1.0)
                    assert abs(policy.thresholds[0] - target) <= 1e-12

    def test_dp_point_mass_trivial(self):
        point = RewardDistribution.point_mass(0.0)
        assert optimize_thresholds_exact(point, 2.0, 1.0).thresholds == (1.0,)

    def test_dp_matches_grid_oracle_d3(self):
        rng = np.random.default_rng(23)
        eps = 1 / 200
        for _ in range(5):
            support = (0.0,) + tuple(np.sort(rng.uniform(0.1, 0.9, 2)))
            cum = tuple(np.sort(rng.uniform(0.1, 0.9, 2))) + (1.0,)
            dist = RewardDistribution(support, cum)
            f = float(rng.uniform(1.2, 3.0))
            exact = optimize_thresholds_exact(dist, f, 1.0)
            grid = optimize_thresholds_grid(dist, f, 1.0, grid=eps)
            v_exact = ub_continuous(exact.thresholds, dist, f, 1.0, 1.0)
            v_grid = ub_continuous(grid.thresholds, dist, f, 1.0, 1.0)
            assert v_exact >= v_grid - 1e-12

    def test_dp_matches_grid_oracle_d4(self):
        rng = np.random.default_rng(41)
        support = (0.0,) + tuple(np.sort(rng.uniform(0.05, 0.95, 3)))
        cum = tuple(np.sort(rng.uniform(0.05, 0.95, 3))) + (1.0,)
        dist = RewardDistribution(support, cum)
        exact = optimize_thresholds_exact(dist, 2.0, 1.0)
        grid = optimize_thresholds_grid(dist, 2.0, 1.0)
        v_exact = ub_continuous(exact.thresholds, dist, 2.0, 1.0, 1.0)
        v_grid = ub_continuous(grid.thresholds, dist, 2.0, 1.0, 1.0)
        assert v_exact >= v_grid - 1e-12

    def test_grid_matches_dp_binary(self):
        # the 1-d objective is concave, so the grid optimum is a grid
        # neighbour of the exact threshold and never beats it
        eps = 1 / 200
        exact = optimize_thresholds_exact(BINARY, 2.0, 1.0)
        grid = optimize_thresholds_grid(BINARY, 2.0, 1.0, grid=eps)
        assert round(grid.thresholds[0], 12) in _grid_neighbours(exact.thresholds[0], eps)
        v_exact = ub_continuous(exact.thresholds, BINARY, 2.0, 1.0, 1.0)
        assert v_exact >= ub_continuous(grid.thresholds, BINARY, 2.0, 1.0, 1.0) - 1e-12

    def test_grid_two_atoms(self):
        two = RewardDistribution((0.0, 0.3), (0.4, 1.0))
        exact = optimize_thresholds_exact(two, 1.5, 1.0)
        grid = optimize_thresholds_grid(two, 1.5, 1.0)
        assert abs(exact.thresholds[0] - binary_threshold(1.5, 0.4, 0.3, 1.0)) <= 1e-12
        assert round(grid.thresholds[0], 12) in _grid_neighbours(exact.thresholds[0], 1 / 200)

    def test_grid_point_mass(self):
        point = RewardDistribution.point_mass(0.0)
        assert optimize_thresholds_grid(point, 2.0, 1.0).thresholds == (1.0,)

    def test_dp_matches_grid_oracle_beyond_four_atoms(self):
        # the recursion has no support-size cap
        rng = np.random.default_rng(43)
        for d in (5, 6):
            support = (0.0,) + tuple(np.sort(rng.uniform(0.05, 0.95, d - 1)))
            cum = tuple(np.sort(rng.uniform(0.05, 0.95, d - 1))) + (1.0,)
            dist = RewardDistribution(support, cum)
            exact = optimize_thresholds_exact(dist, 2.0, 1.0)
            grid = optimize_thresholds_grid(dist, 2.0, 1.0)
            assert len(grid.thresholds) == d
            v_exact = ub_continuous(exact.thresholds, dist, 2.0, 1.0, 1.0)
            v_grid = ub_continuous(grid.thresholds, dist, 2.0, 1.0, 1.0)
            assert v_exact >= v_grid - 1e-12

    def test_grid_ties_go_to_the_smallest_threshold(self):
        # a_1 = 0 (top atom at the penalty) and weights of 5e8 and 1e9 make
        # every row with s_1 < s_2 < 1 score exactly the same: the first such
        # row in lexicographic order is returned, as the enumeration does
        tied = RewardDistribution((0.0, 0.5, 1.0), (1e-9, 2e-9, 1.0))
        want = (0.0, 0.005, 1.0)
        assert _enumerated_grid_optimum(tied, 1.0, 1.0, 1 / 200) == want
        assert optimize_thresholds_grid(tied, 1.0, 1.0).thresholds == want

    def test_dp_deterministic(self):
        d3 = RewardDistribution((0.0, 0.4, 0.9), (0.3, 0.7, 1.0))
        a = optimize_thresholds_exact(d3, 2.0, 1.0)
        b = optimize_thresholds_exact(d3, 2.0, 1.0)
        assert a.thresholds == b.thresholds

    def test_grid_step_not_dividing_one(self):
        policy = optimize_thresholds_grid(BINARY, 2.0, 1.0, grid=0.3)
        assert policy.thresholds[-1] == 1.0
        assert round(policy.thresholds[0], 12) in {0.0, 0.3, 0.6, 0.9, 1.0}

    def test_bad_grid_rejected(self):
        with pytest.raises(DomainError):
            optimize_thresholds_grid(BINARY, 2.0, 1.0, grid=0.0)
        with pytest.raises(DomainError):
            optimize_thresholds_grid(BINARY, 2.0, 1.0, grid=1.5)

    def test_exact_top_reward_at_penalty_inactive(self):
        # an atom with r = c gains nothing from delivery: its segment is empty
        d3 = RewardDistribution((0.0, 0.4, 1.0), (0.3, 0.7, 1.0))
        assert optimize_thresholds_exact(d3, 2.0, 1.0).thresholds[0] == 0.0

    @settings(max_examples=150, deadline=None)
    @given(data=normalized_problems())
    def test_exact_beats_grid_and_satisfies_kkt(self, data):
        dist, f, c = data
        exact = optimize_thresholds_exact(dist, f, c)
        grid = optimize_thresholds_grid(dist, f, c, grid=1 / 50)
        v_exact = ub_continuous(exact.thresholds, dist, f, c, 1.0)
        assert v_exact >= ub_continuous(grid.thresholds, dist, f, c, 1.0) - 1e-12
        grad, y = simplex_gradient(dist, exact.thresholds, f, c)
        top = float(np.max(grad[y > 0.0]))
        assert np.all(np.abs(grad[y > 0.0] - top) <= 1e-9 * top)
        assert np.all(grad[y == 0.0] <= top * (1.0 + 1e-9))

    @settings(max_examples=200, deadline=None)
    @given(data=grid_problems())
    def test_grid_recursion_matches_enumeration(self, data):
        dist, f, c, grid = data
        got = optimize_thresholds_grid(dist, f, c, grid=grid).thresholds
        want = _enumerated_grid_optimum(dist, f, c, grid)
        if got != want:
            # The enumeration sums every segment's term before comparing rows,
            # so a difference below the rounding of that sum (a term such as
            # a_v exp(-X_v) with a tiny mass or a large X_v) ties its rows and
            # it keeps the first.  The recursion compares each subproblem on
            # its own scale and can tell such rows apart; it may then return
            # a different row, but one the enumeration scored exactly the same.
            values = _ub_value(dist.support, dist.cum_mass, np.array([got, want]), f, c, 1.0)
            assert values[0] == values[1]


class TestLpTightness:
    def test_closed_form_satisfies_lp_with_equality(self):
        d3 = RewardDistribution((0.0, 0.4, 0.9), (0.3, 0.7, 1.0))
        policy = ThresholdPolicy((0.2, 0.6, 1.0), d3)
        beta = beta_closed_form(policy, 2.0, 1.0, 200)
        resid = lp_residuals(beta, policy, 2.0, 1.0)
        assert resid["equality"] <= 1e-9
        assert resid["beta1"] == 0.0
        assert resid["negativity"] == 0.0


class TestThresholdPolicyType:
    def test_reserve_lookup_mirrors_index(self):
        d3 = RewardDistribution((0.0, 0.4, 0.9), (0.3, 0.7, 1.0))
        policy = ThresholdPolicy((0.2, 0.6, 1.0), d3)
        assert policy.reserves == (0.9, 0.4, 0.0)

    @pytest.mark.parametrize(
        "thresholds",
        [(0.5, 0.4, 1.0), (0.5, 0.9), (0.2, 0.5, 0.9), (-0.1, 1.0), (0.3, 1.1), (math.nan, 1.0)],
    )
    def test_bad_thresholds_rejected(self, thresholds):
        d = RewardDistribution((0.0, 0.4), (0.3, 1.0)) if len(thresholds) == 2 else (
            RewardDistribution((0.0, 0.4, 0.9), (0.3, 0.7, 1.0))
        )
        with pytest.raises(DomainError):
            ThresholdPolicy(thresholds, d)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_reserves_precompute_reserve(self, d):
        cum = tuple((i + 1) / d for i in range(d))
        dist = RewardDistribution(tuple(0.1 * i for i in range(d)), cum)
        policy = ThresholdPolicy(tuple((i + 1) / d for i in range(d)), dist)
        # segment u's reserve is the (d+1-u)-th support value
        assert policy.reserves == tuple(dist.support[d - u] for u in range(1, d + 1))
        other = RewardDistribution(tuple(0.3 + 0.2 * i for i in range(d)), cum)
        rebound = ThresholdPolicy(policy.thresholds, other)
        assert rebound.reserves == tuple(other.support[d - u] for u in range(1, d + 1))

    def test_reserves_outside_eq_hash_repr(self):
        d3 = RewardDistribution((0.0, 0.4, 0.9), (0.3, 0.7, 1.0))
        a = ThresholdPolicy((0.2, 0.6, 1.0), d3)
        b = ThresholdPolicy((0.2, 0.6, 1.0), d3)
        object.__setattr__(b, "reserves", (7.0, 8.0, 9.0))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) and "reserves" not in repr(a)

    def test_segment_bounds_pin_last(self):
        assert segment_bounds(ThresholdPolicy((0.305, 1.0), BINARY), 10) == [0, 3, 10]
        assert segment_bounds(ThresholdPolicy((0.0, 1.0), BINARY), 7) == [0, 0, 7]

    def test_index_weights_repeat_segments(self):
        w = index_weights(ThresholdPolicy((0.3, 1.0), BINARY), 10)
        assert np.allclose(w, [1.0] * 3 + [2.0] * 7)

    @pytest.mark.parametrize("thresholds", [(0.5,), (math.nan, 1.0)])
    def test_slices_need_a_checked_policy(self, thresholds):
        # a bare vector one entry short used to broadcast into 2t weights, and a
        # NaN threshold to raise a bare ValueError; only a policy gets this far,
        # and a bare vector is refused by the type rule
        with pytest.raises(DomainError):
            index_weights(ThresholdPolicy(thresholds, BINARY), 10)
        with pytest.raises(DomainError, match="expected a ThresholdPolicy, got tuple"):
            index_weights(thresholds, 10)
        with pytest.raises(DomainError, match="expected a ThresholdPolicy, got tuple"):
            segment_bounds(thresholds, 10)


class TestMakePolicy:
    def test_binary_uses_closed_form(self):
        policy, objective, offset = make_policy(BINARY, 1.0, 2.0)
        assert policy.thresholds[0] == pytest.approx(S_STAR, abs=1e-12)
        assert objective == pytest.approx(CANONICAL_VALUE, abs=1e-12)
        assert offset == 0.0

    def test_shifted_distribution_rebound_to_original(self):
        shifted = RewardDistribution((0.2, 0.7), (0.5, 1.0))
        policy, objective, offset = make_policy(shifted, 1.2, 2.0, N=10.0)
        # thresholds from the normalized problem, reserves in original units
        assert policy.reserves[0] == 0.7
        assert offset == pytest.approx(10.0 * 0.2)

    def test_top_reward_at_penalty_prefers_selling(self):
        level = RewardDistribution((0.0, 1.0), (0.5, 1.0))
        policy, _, _ = make_policy(level, 1.0, 2.0)
        assert policy.thresholds[0] == 0.0

    def test_supply_factor_below_one_rejected_for_every_support(self):
        d3 = RewardDistribution((0.0, 0.4, 0.9), (0.3, 0.7, 1.0))
        for dist in (RewardDistribution.point_mass(0.0), BINARY, d3):
            with pytest.raises(DomainError):
                make_policy(dist, 1.0, 0.5)

    def test_non_finite_supply_factor_rejected(self):
        for f in (math.nan, math.inf):
            with pytest.raises(DomainError):
                make_policy(BINARY, 1.0, f)

    def test_objective_past_the_float_range_rejected(self):
        # f * N * c overflows on finite inputs; the objective came out NaN, the offline optimum inf
        dist = RewardDistribution.binary(0.5, 0.5)
        for call in (
            lambda: make_policy(dist, 1.0, 1e308, 10.0),
            lambda: ub_continuous((0.0, 1.0), dist, 1e308, 1.0, 10.0),
        ):
            with pytest.raises(DomainError, match=r"f \* N \* c must be finite, got inf"):
                call()
        with pytest.raises(DomainError, match=r"\(f - 1\) \* N \* top mean must be finite, got inf"):
            offline_opt_formula(dist, 1e308, 10.0)
        # the offline value is checked, not f * N * r_d: a top atom of little mass keeps it finite
        thin = RewardDistribution((0.0, 1e300), (1.0 - 1e-12, 1.0))
        assert offline_opt_formula(thin, 2.0, 1e10) == pytest.approx(2.0 * thin.point_masses()[1] * 1e300 * 1e10)
        assert make_policy(dist, 1.0, 1e307, 10.0)[1] == pytest.approx(-10.0 + 1e307 * 10.0 * 0.25)

    def test_three_point_thresholds_closed_form(self):
        # s_{d+1-k} = max(0, 1 + f sum_{i<k} m_i ln((c - r_k)/(c - r_i)))
        d3 = RewardDistribution((0.0, 0.4, 0.9), (0.3, 0.7, 1.0))
        policy, objective, _ = make_policy(d3, 1.0, 2.0)
        s2 = 1.0 + 2.0 * 0.3 * math.log(0.6)
        s1 = max(0.0, 1.0 + 2.0 * (0.3 * math.log(0.1) + 0.4 * math.log(0.1 / 0.6)))
        assert policy.thresholds == pytest.approx((s1, s2, 1.0), abs=1e-12)
        assert objective == pytest.approx(ub_continuous(policy.thresholds, d3, 2.0, 1.0), abs=1e-15)


class TestChecksOnce:
    """A distribution is checked when it is built; every public function taking one checks its type and no more."""

    # reads like a RewardDistribution but was never checked as one
    DUCK = SimpleNamespace(support=(0.0, 0.5), cum_mass=(0.5, 1.0), d=2)
    # (support, cum_mass) as a tuple, not built into a RewardDistribution
    PAIR = ((0.0, 0.5), (0.5, 1.0))

    @pytest.mark.parametrize(
        "call",
        [
            lambda d: validate(d, 1.0),
            lambda d: normalize(d, 1.0, 2.0, 1.0),
            lambda d: make_policy(d, 1.0, 2.0),
            lambda d: competitive_ratio(d, 1.0, 2.0),
            lambda d: ub_continuous((0.3, 1.0), d, 2.0, 1.0),
            lambda d: lb_discrete(ThresholdPolicy((0.3, 1.0), d), 2.0, 1.0, 1.0, 100),
            lambda d: ThresholdPolicy((0.3, 1.0), d),
            lambda d: cond_mean_below(d, 1),
            lambda d: top_quantile_mean(d, 0.5),
            lambda d: sample_array(d, 1, 5),
            lambda d: optimize_thresholds_exact(d, 2.0, 1.0),
            lambda d: optimize_thresholds_grid(d, 2.0, 1.0, 0.1),
            lambda d: run_instance(TINY, ThresholdPolicy((0.3, 1.0), BINARY), 1.0, d, 1),
            lambda d: sample_realized(TINY, d, 1),
            lambda d: offline_opt_formula(d, 2.0, 1.0),
            lambda d: online_opt_bruteforce(TINY, d, 1.0),
            lambda d: exhaustive_values(TINY, d, 1.0, ThresholdPolicy((0.3, 1.0), BINARY)),
        ],
        ids=["validate", "normalize", "make_policy", "competitive_ratio", "ub_continuous", "lb_discrete",
             "ThresholdPolicy", "cond_mean_below", "top_quantile_mean", "sample_array",
             "optimize_thresholds_exact", "optimize_thresholds_grid", "run_instance", "sample_realized",
             "offline_opt_formula", "online_opt_bruteforce", "exhaustive_values"],
    )
    def test_duck_typed_distribution_rejected(self, call):
        call(BINARY)
        for fake in (self.DUCK, self.PAIR):
            with pytest.raises(MalformedDistribution, match=f"expected a RewardDistribution, got {type(fake).__name__}"):
                call(fake)

    def test_validate_returns_its_argument(self):
        assert validate(BINARY, 1.0) is BINARY

    @pytest.mark.parametrize(
        "solve",
        [
            lambda d: make_policy(d, 1.2, 2.0, 10.0),
            lambda d: competitive_ratio(d, 1.2, 2.0),
            lambda d: optimize_thresholds_grid(d, 2.0, 1.2),
        ],
        ids=["make_policy", "competitive_ratio", "optimize_thresholds_grid"],
    )
    def test_one_policy_per_solve(self, monkeypatch, solve):
        # r_1 > 0, so a shifted copy would be a second distribution
        dist = RewardDistribution((0.2, 0.5, 0.7), (0.3, 0.6, 1.0))
        built = Counter()
        for cls in (RewardDistribution, ThresholdPolicy):
            def counted(self, post=cls.__post_init__, name=cls.__name__):
                built[name] += 1
                post(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        solve(dist)
        assert dict(built) == {"ThresholdPolicy": 1}


class TestShiftCovariance:
    """Solvers and objectives in a distribution's own units, against its shift by ``r_1``.

    Lowering every reward and the penalty by ``r_1`` lowers both objectives by
    ``(f - 1) N r_1`` and moves no optimal threshold.  The tolerance comes from
    6,000 random problems with ``r_1`` up to 1000: the objectives differed by
    at most 3.9e-16 ``c f N``, the size of their terms, and the thresholds of
    both solvers were equal.
    """

    @settings(max_examples=300, deadline=None)
    @given(data=shifted_problems())
    def test_original_units_equal_shifted_plus_constant(self, data):
        dist, f, c, N = data
        shifted, c_s, offset = normalize(dist, c, f, N)
        assert offset == (f - 1.0) * N * dist.support[0]
        tol = 2e-15 * c * f * N
        exact = optimize_thresholds_exact(dist, f, c)
        assert exact.thresholds == optimize_thresholds_exact(shifted, f, c_s).thresholds
        grid = optimize_thresholds_grid(dist, f, c, grid=1 / 50)
        assert grid.thresholds == optimize_thresholds_grid(shifted, f, c_s, grid=1 / 50).thresholds
        for ts in (exact.thresholds, grid.thresholds):
            ub = ub_continuous(ts, dist, f, c, N)
            assert abs(ub - (ub_continuous(ts, shifted, f, c_s, N) + offset)) <= tol
            lb = lb_discrete(ThresholdPolicy(ts, dist), f, c, N, 1000)
            lb_shifted = lb_discrete(ThresholdPolicy(ts, shifted), f, c_s, N, 1000)
            assert abs(lb - (lb_shifted + offset)) <= tol
        policy, objective, off = make_policy(dist, c, f, N)
        assert (policy, off) == (exact, offset)
        assert objective == ub_continuous(policy.thresholds, shifted, f, c_s, N)
        assert abs(objective + off - ub_continuous(policy.thresholds, dist, f, c, N)) <= tol

    def test_solvers_accept_a_positive_lowest_reward(self):
        dist = RewardDistribution((0.2, 0.7), (0.5, 1.0))
        base = RewardDistribution((0.0, 0.5), (0.5, 1.0))
        ts = optimize_thresholds_exact(dist, 2.0, 1.2).thresholds
        assert ts == pytest.approx(optimize_thresholds_exact(base, 2.0, 1.0).thresholds, abs=1e-15)
        # far from 0, ln(1 - r/c) would be off by about 1e-10; c - r is exact in floats here
        r1, r2, c = 1e6, 1e6 + 0.3, 1e6 + 0.6
        far = RewardDistribution((r1, r2, 1e6 + 0.5), (0.3, 0.6, 1.0))
        s2 = 1.0 + 2.0 * 0.3 * math.log((c - r2) / (c - r1))
        assert optimize_thresholds_exact(far, 2.0, c).thresholds[1] == pytest.approx(s2, abs=1e-14)
        assert optimize_thresholds_grid(dist, 2.0, 1.2).thresholds == (
            optimize_thresholds_grid(base, 2.0, 1.0).thresholds
        )
        shifted = ub_continuous(ts, base, 2.0, 1.0, 10.0)
        assert ub_continuous(ts, dist, 2.0, 1.2, 10.0) == pytest.approx(shifted + 2.0, rel=1e-12)
