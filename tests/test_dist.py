import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yieldopt.dist import (
    _FEW_LEVELS,
    RewardDistribution,
    cond_mean_below,
    normalize,
    sample_array,
    top_quantile_mean,
    validate,
)
from yieldopt.errors import DomainError, MalformedDistribution, RewardExceedsPenalty


@st.composite
def distributions(draw, dmax=5):
    d = draw(st.integers(1, dmax))
    deltas = draw(
        st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d).map(sorted)
    )
    support = tuple(np.cumsum(deltas) - deltas[0])
    masses = draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d))
    cum = tuple(np.cumsum(masses) / sum(masses))
    return RewardDistribution(support, cum[:-1] + (1.0,))


class TestValidate:
    def test_canonical_binary_is_valid(self):
        d = RewardDistribution((0.0, 0.5), (0.5, 1.0))
        assert validate(d, 1.0) is not None

    def test_reward_above_penalty_rejected(self):
        d = RewardDistribution((0.0, 1.5), (0.5, 1.0))
        with pytest.raises(RewardExceedsPenalty):
            validate(d, 1.0)

    def test_positive_lowest_reward_allowed(self):
        d = RewardDistribution((0.2, 0.7), (0.3, 1.0))
        assert validate(d, 1.0).support == (0.2, 0.7)

    @pytest.mark.parametrize(
        "support,cum",
        [
            ((0.5, 0.2), (0.5, 1.0)),  # unordered support
            ((0.0, 0.2), (0.7, 0.5)),  # unordered masses
            ((0.0, 0.2), (0.5, 0.9)),  # final mass not 1
            ((-0.1, 0.2), (0.5, 1.0)),  # negative reward
            ((0.0,), (0.0,)),  # zero mass
            ((0.0, 0.2), (1.0,)),  # length mismatch
        ],
    )
    def test_malformed_rejected(self, support, cum):
        with pytest.raises(MalformedDistribution):
            RewardDistribution(support, cum)

    def test_renormalization_within_tolerance(self):
        d = RewardDistribution((0.0, 0.5), (0.5, 1.0 - 1e-13))
        assert d.cum_mass[-1] == 1.0

    def test_point_mass_is_legal(self):
        d = RewardDistribution.point_mass(0.3)
        assert d.d == 1 and validate(d, 1.0)

    @pytest.mark.parametrize(
        "support,cum",
        [
            ((0.0, float("nan")), (0.5, 1.0)),
            ((0.0, 0.5), (0.5, float("nan"))),  # used to renormalize to (nan, 1.0)
            ((0.0, float("inf")), (0.5, 1.0)),
            ((float("-inf"), 0.0), (0.5, 1.0)),
        ],
    )
    def test_non_finite_rejected(self, support, cum):
        with pytest.raises(MalformedDistribution):
            RewardDistribution(support, cum)
        with pytest.raises(MalformedDistribution):
            RewardDistribution.from_json(json.dumps({"support": support, "cum_mass": cum}))

    @pytest.mark.parametrize("penalty", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_penalty_rejected(self, penalty):
        d = RewardDistribution((0.0, 0.5), (0.5, 1.0))
        with pytest.raises(DomainError):
            validate(d, penalty)


class TestNormalize:
    def test_shift_and_offset(self):
        d = RewardDistribution((0.2, 0.7), (0.3, 1.0))
        shifted, c, offset = normalize(d, 1.0, f=2.0, total_demand=100)
        assert shifted.support == pytest.approx((0.0, 0.5))
        assert c == pytest.approx(0.8)
        assert offset == pytest.approx(20.0)

    def test_zero_low_reward_unchanged(self):
        d = RewardDistribution((0.0, 0.5), (0.5, 1.0))
        shifted, c, offset = normalize(d, 1.0, 2.0, 100)
        assert shifted is d or shifted.support == d.support
        assert (c, offset) == (1.0, 0.0)

    def test_point_mass_f1_offset_zero(self):
        d = RewardDistribution.point_mass(0.3)
        shifted, c, offset = normalize(d, 1.0, 1.0, 10)
        assert shifted.support == (0.0,)
        assert c == pytest.approx(0.7)
        assert offset == 0.0

    def test_objective_preserved_up_to_offset(self):
        # replay one fixed allocation under both parameterizations
        d = RewardDistribution((0.2, 0.7), (0.3, 1.0))
        f, N, c = 2.0, 4, 1.0
        shifted, c_s, offset = normalize(d, c, f, N)
        rng = np.random.default_rng(7)
        rewards = sample_array(d, rng, int(f * N))
        # fixed rule: deliver queries 0..2 (3 of 4 demanded), sell the rest
        delivered = 3
        sold = rewards[delivered:]
        original = float(sold.sum()) - c * (N - delivered)
        shifted_obj = float((sold - d.support[0]).sum()) - c_s * (N - delivered)
        assert original == pytest.approx(shifted_obj + offset)


class TestCondMeanBelow:
    def test_binary_bottom_atom(self):
        d = RewardDistribution((0.0, 0.5), (0.5, 1.0))
        assert cond_mean_below(d, 1) == 0.0

    def test_binary_full_support(self):
        d = RewardDistribution((0.0, 0.5), (0.5, 1.0))
        assert cond_mean_below(d, 2) == pytest.approx(0.25)

    def test_point_mass(self):
        assert cond_mean_below(RewardDistribution.point_mass(0.3), 1) == pytest.approx(0.3)

    def test_out_of_range(self):
        d = RewardDistribution((0.0, 0.5), (0.5, 1.0))
        with pytest.raises(DomainError):
            cond_mean_below(d, 3)

    @given(distributions())
    @settings(max_examples=60, deadline=None)
    def test_full_index_equals_mean(self, d):
        assert cond_mean_below(d, d.d) == pytest.approx(d.mean(), abs=1e-12)


class TestTopQuantileMean:
    def test_binary_top_half(self):
        d = RewardDistribution((0.0, 0.5), (0.5, 1.0))
        assert top_quantile_mean(d, 0.5) == pytest.approx(0.5)

    def test_binary_whole(self):
        d = RewardDistribution((0.0, 0.5), (0.5, 1.0))
        assert top_quantile_mean(d, 1.0) == pytest.approx(0.25)

    def test_point_mass(self):
        assert top_quantile_mean(RewardDistribution.point_mass(0.3), 0.4) == pytest.approx(0.3)

    def test_p_zero_is_zero(self):
        d = RewardDistribution((0.0, 0.5), (0.5, 1.0))
        assert top_quantile_mean(d, 0.0) == 0.0

    def test_atom_split(self):
        # top 0.75 of the binary takes the whole 0.5-atom plus 0.25 of the zeros
        d = RewardDistribution((0.0, 0.5), (0.5, 1.0))
        assert top_quantile_mean(d, 0.75) == pytest.approx(0.5 * 0.5 / 0.75)

    @given(distributions(), st.floats(0.01, 0.99))
    @settings(max_examples=80, deadline=None)
    def test_mass_conservation(self, d, p):
        # p * top-mean + (1-p) * bottom-mean == full mean
        top = top_quantile_mean(d, p)
        bottom_total = d.mean() - p * top
        assert p * top + bottom_total == pytest.approx(d.mean(), abs=1e-12)
        # bottom part is itself a mean over mass 1-p, so it stays in range
        bottom = bottom_total / (1.0 - p)
        assert d.support[0] - 1e-12 <= bottom <= d.support[-1] + 1e-12


class TestSampling:
    def test_point_mass_always_same(self):
        d = RewardDistribution.point_mass(0.3)
        rng = np.random.default_rng(0)
        assert all(sample_array(d, rng, 1)[0] == 0.3 for _ in range(20))

    def test_binary_frequency_clt(self):
        d = RewardDistribution((0.0, 0.5), (0.5, 1.0))
        rng = np.random.default_rng(42)
        draws = sample_array(d, rng, 10**6)
        freq_zero = float(np.mean(draws == 0.0))
        assert 0.498 <= freq_zero <= 0.502

    def test_seed_replay_identical(self):
        d = RewardDistribution((0.0, 0.2, 0.9), (0.3, 0.6, 1.0))
        a = sample_array(d, np.random.default_rng(42), 1000)
        b = sample_array(d, np.random.default_rng(42), 1000)
        assert np.array_equal(a, b)

    def test_draws_live_on_support(self):
        d = RewardDistribution((0.0, 0.2, 0.9), (0.3, 0.6, 1.0))
        draws = sample_array(d, np.random.default_rng(3), 500)
        assert set(np.unique(draws)) <= set(d.support)


def searched_draws(dist, seed, size):
    """The binary-search sampler: ``sample_array``'s reference."""
    u = np.random.default_rng(seed).random(size)
    return np.asarray(dist.support, dtype=float)[np.searchsorted(dist.cum_mass, u, side="right")]


@st.composite
def from_masses(draw):
    d = draw(st.integers(1, 12))
    support = sorted(draw(st.lists(st.floats(0.0, 100.0), min_size=d, max_size=d, unique=True)))
    weights = np.array(draw(st.lists(st.integers(1, 1000), min_size=d, max_size=d)), dtype=float)
    return RewardDistribution.from_masses(support, weights / weights.sum())


def uniform(d):
    return RewardDistribution.from_masses([0.1 * k for k in range(d)], np.full(d, 1.0 / d))


class TestSamplerMatchesSearch:
    """Comparison passes up to ``_FEW_LEVELS`` atoms, a binary search above: the same draws either way."""

    def check(self, dist, seed, size, generator):
        rng = np.random.default_rng(seed) if generator else seed
        draws = sample_array(dist, rng, size)
        expected = searched_draws(dist, seed, size)
        assert draws.dtype == expected.dtype and draws.shape == expected.shape
        assert draws.tobytes() == expected.tobytes()
        if generator:  # one random(size) call, no more and no less
            after = np.random.default_rng(seed)
            after.random(size)
            assert rng.bit_generator.state == after.bit_generator.state

    @given(dist=from_masses(), seed=st.integers(0, 2**32 - 1), size=st.integers(0, 5000), generator=st.booleans())
    @example(dist=uniform(10), seed=1, size=3000, generator=True)  # ten masses of 0.1 sum to 1 - 2**-53: renormalized
    @example(dist=uniform(_FEW_LEVELS), seed=2, size=5000, generator=False)
    @example(dist=uniform(_FEW_LEVELS + 1), seed=3, size=5000, generator=True)
    @settings(max_examples=150, deadline=None)
    def test_from_masses(self, dist, seed, size, generator):
        self.check(dist, seed, size, generator)

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 400),
        generator=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_draws_on_a_cumulative_mass(self, seed, size, generator, data):
        # every mass but the last is one of the stream's own draws, so those draws fall exactly on it
        u = np.random.default_rng(seed).random(size)
        picks = data.draw(st.lists(st.sampled_from(u.tolist()), min_size=1, max_size=11, unique=True))
        cum = (*sorted(q for q in picks if q > 0.0), 1.0)
        dist = RewardDistribution(tuple(range(len(cum))), cum)
        self.check(dist, seed, size, generator)

    def test_a_draw_on_a_mass_takes_the_atom_above(self):
        u = np.random.default_rng(5).random(4)
        dist = RewardDistribution((0.0, 0.5), (u[1], 1.0))
        assert sample_array(dist, 5, 4)[1] == 0.5


class TestJson:
    def test_roundtrip(self):
        d = RewardDistribution((0.0, 0.2, 0.9), (0.3, 0.6, 1.0))
        assert RewardDistribution.from_json(d.to_json()) == d

    def test_wire_format_keys(self):
        d = RewardDistribution((0.0, 0.5), (0.5, 1.0))
        obj = json.loads(d.to_json())
        assert set(obj) == {"support", "cum_mass"}

    def test_bad_json_rejected(self):
        with pytest.raises(MalformedDistribution):
            RewardDistribution.from_json('{"support": [0.0]}')
