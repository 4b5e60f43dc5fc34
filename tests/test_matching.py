import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yieldopt.errors import DomainError, NonIntegralGroupSize
from yieldopt.instances import Instance, gen_upper_triangular
from yieldopt.matching import empirical_ratio, guarantee, perturbed_greedy, trial_weights


def copies_of(instance):
    # advertiser a's demand n_a as n_a unit copies, numbered in advertiser order
    starts = np.cumsum((0, *instance.demands))
    return [range(starts[a], starts[a + 1]) for a in range(instance.m)]


def ranking_match(instance, ranks):
    # independent matcher: lowest rank wins among available eligible copies
    available = np.ones(len(ranks), dtype=bool)
    copies = copies_of(instance)
    matched = 0
    for count, elig in instance.groups:
        for _ in range(count):
            candidates = [c for a in elig for c in copies[a] if available[c]]
            if not candidates:
                break
            winner = min(candidates, key=lambda c: ranks[c])
            available[winner] = False
            matched += 1
    return matched


def greedy_match(instance, f, seed, weights):
    # independent weighted matcher: one copy at a time, the highest score
    # w_a * psi(x) wins, ties toward the smallest copy id
    copies = copies_of(instance)
    owner = [a for a in range(instance.m) for _ in copies[a]]
    x = np.random.default_rng(seed).random(len(owner))
    score = list(np.array(weights)[owner] * (1.0 - np.exp(-(1.0 - x) / f)))
    available = set(range(len(owner)))
    matched = 0.0
    for count, elig in instance.groups:
        for _ in range(count):
            candidates = [c for a in elig for c in copies[a] if c in available]
            if not candidates:
                break
            winner = max(candidates, key=lambda c: (score[c], -c))
            available.remove(winner)
            matched += weights[owner[winner]]
    return matched


@st.composite
def instances(draw):
    # any Instance: unequal demands, empty and overlapping groups, repeated ids
    m = draw(st.integers(1, 6))
    demands = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    group = st.tuples(st.integers(0, 6), st.lists(st.integers(0, m - 1), max_size=m + 1))
    return Instance(demands, draw(st.lists(group, max_size=6)))


class TestPerturbedGreedy:
    def test_equal_weights_is_ranking(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            inst = gen_upper_triangular(10, 2, 2, rng)
            weight = perturbed_greedy(inst, 2, rng)
            # replay the identical stream to recover the ranks
            rng2 = np.random.default_rng(seed)
            inst2 = gen_upper_triangular(10, 2, 2, rng2)
            ranks = rng2.random(inst2.total_demand)
            assert weight == ranking_match(inst2, ranks)

    def test_single_advertiser_single_query(self):
        assert perturbed_greedy(Instance((1,), ((1, (0,)),)), 1, 0, [2.5]) == pytest.approx(2.5)

    def test_group_with_no_eligible_copy_matches_nothing(self):
        assert perturbed_greedy(Instance((1,), ((2, ()), (3, (0,)))), 1, 0, [2.5]) == 2.5

    @settings(max_examples=150, deadline=None)
    @given(
        inst=instances(),
        f=st.sampled_from((1, 1.5, 2, 4)),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from((None, 1.0, 5e-324)),
    )
    def test_any_instance_matches_independent_greedy(self, inst, f, seed, scale):
        weights = None if scale is None else [scale * (1 + a % 3) for a in range(inst.m)]
        expected = greedy_match(inst, f, seed, [1.0] * inst.m if weights is None else weights)
        assert perturbed_greedy(inst, f, seed, weights) == expected

    def test_repeated_id_is_one_advertiser(self):
        # a group naming advertiser 0 twice still has its one unit copy
        assert perturbed_greedy(Instance((1,), ((2, (0, 0)),)), 1, 0, [1.0]) == 1.0

    @pytest.mark.parametrize("weights, message", [([-1.0, 2.0], "non-negative"), ([0.0, 0.0], "sum to 0")])
    def test_bad_weights_rejected(self, weights, message):
        # a negative weight would make matching its copy a loss
        with pytest.raises(DomainError, match=message):
            perturbed_greedy(Instance((1, 1), ((2, (0, 1)),)), 1, 0, weights)

    def test_scale_invariance_of_decisions(self):
        base = np.array([0.5, 1.0, 2.0, 4.0, 1.5])
        for seed in (3, 4, 5):
            rng_a = np.random.default_rng(seed)
            inst_a = gen_upper_triangular(5, 1, 1, rng_a)
            w_a = perturbed_greedy(inst_a, 1, rng_a, base)
            rng_b = np.random.default_rng(seed)
            inst_b = gen_upper_triangular(5, 1, 1, rng_b)
            w_b = perturbed_greedy(inst_b, 1, rng_b, base * 10)
            assert w_b == pytest.approx(10 * w_a)

    def test_integral_group_size_required(self):
        # f need not be an integer, but the triangular family's group size f * n must be
        rng = np.random.default_rng(0)
        assert gen_upper_triangular(4, 2, 1.5, rng).groups[0][0] == 3
        with pytest.raises(NonIntegralGroupSize, match="4.5"):
            gen_upper_triangular(4, 3, 1.5, rng)
        with pytest.raises(DomainError, match="supply factor"):
            perturbed_greedy(Instance((1,), ((1, (0,)),)), 0, 0)


class TestEmpiricalRatio:
    def test_single_advertiser_saturates(self):
        mean, stderr = empirical_ratio(m=1, n=3, f=2, trials=5, seed=1)
        assert mean == pytest.approx(1.0)
        assert stderr == pytest.approx(0.0)

    def test_deterministic_given_seed(self):
        a = empirical_ratio(m=20, n=1, f=2, trials=20, seed=5)
        b = empirical_ratio(m=20, n=1, f=2, trials=20, seed=5)
        assert a == b

    @pytest.mark.parametrize("f", [1, 2, 4])
    def test_guarantee_bracket(self, f):
        # mean ratio within [g - 3 se, g + O(1/m) + 3 se] around f - f e^{-1/f}
        m, trials = 100, 150
        mean, stderr = empirical_ratio(m=m, n=1, f=f, trials=trials, seed=100 + f)
        g = guarantee(f)
        assert mean >= g - 3 * stderr
        assert mean <= g + 1.5 / m + 3 * stderr

    def test_demand_splitting_variant(self):
        # demand-n copies rather than n=1 with more advertisers
        mean, stderr = empirical_ratio(m=40, n=3, f=2, trials=60, seed=9)
        g = guarantee(2)
        assert abs(mean - g) <= 0.05

    def test_weighted_ratio_uses_weighted_opt(self):
        weights = [3.0, 1.0, 1.0, 1.0]
        mean, _ = empirical_ratio(m=4, n=1, f=2, trials=50, seed=2, weights=weights)
        assert 0.5 <= mean <= 1.0


def test_guarantee_values():
    assert guarantee(1.0) == pytest.approx(1 - math.exp(-1))
    assert guarantee(2.0) == pytest.approx(2 - 2 * math.exp(-0.5))
    assert guarantee(4.0) == pytest.approx(4 - 4 * math.exp(-0.25))


def test_guarantee_keeps_its_precision_for_large_f():
    # f - f e^{-1/f} cancelled: it read 1.0 at f = 1e8, 2.0 at 1e16 and 0.0 at 1e17
    fs = np.logspace(0, 300, 601).tolist()
    values = [guarantee(f) for f in fs]
    assert max(values) <= 1.0
    assert values == sorted(values)
    for f, g in zip(fs, values):
        if f >= 1e6:
            assert abs(g - (1 - 1 / (2 * f) + 1 / (6 * f * f))) <= 1e-15, f


def reference_weights(m, n, f, trials, seed, weights=None):
    # one instance and one perturbed-greedy run per trial, on that trial's stream
    out = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        out.append(perturbed_greedy(gen_upper_triangular(m, n, f, rng), f, rng, weights))
    return out


def assert_same_bits(batched, reference):
    assert [float(v).hex() for v in batched] == [v.hex() for v in reference]


@st.composite
def trial_configs(draw):
    m = draw(st.integers(1, 30))
    # Zero weights tie at score 0 but cannot change the matched weight.  Scores
    # of multiples of the smallest subnormal round to a few equal values, so
    # there the smallest-id rule decides which copies stay for later groups.
    units = st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any)
    scaled = st.builds(lambda u, s: [k * s for k in u], units, st.sampled_from((5e-324, 1.0)))
    floats = st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m).filter(lambda w: sum(w) > 0)
    weights = draw(st.none() | scaled | floats)
    # f * n must be an integer: a fractional f gets an even n
    f = draw(st.sampled_from((1, 1.5, 2, 2.5, 4)))
    n = draw(st.integers(1, 4)) * (2 if f % 1 else 1)
    return m, n, f, draw(st.integers(1, 12)), weights


class TestTrialWeights:
    @settings(max_examples=150, deadline=None)
    @given(config=trial_configs(), seed=st.integers(0, 2**32 - 1))
    def test_batched_equals_per_trial_reference(self, config, seed):
        m, n, f, trials, weights = config
        assert_same_bits(
            trial_weights(m, n, f, trials, seed, weights),
            reference_weights(m, n, f, trials, seed, weights),
        )

    def test_fractional_supply_factor(self):
        # f = 1.5 with f * n = 3: the batch is the reference bit for bit, and the ratio their mean
        reference = reference_weights(4, 2, 1.5, 5, 1)
        assert_same_bits(trial_weights(4, 2, 1.5, 5, 1), reference)
        mean, _ = empirical_ratio(4, 2, 1.5, 5, 1)
        assert mean == float((np.array(reference) / 8.0).mean())

    @pytest.mark.parametrize("call", [trial_weights, empirical_ratio])
    def test_non_integral_group_size_rejected(self, call):
        with pytest.raises(NonIntegralGroupSize, match="f\\*n = 4.5"):
            call(4, 3, 1.5, 5, 1)

    @pytest.mark.parametrize("m, n, f", [(50, 20, 2), (200, 5, 3)])
    @pytest.mark.parametrize("kind", ["zero", "tied"])
    def test_larger_shapes_equal_reference(self, m, n, f, kind):
        # beyond the strategy's sizes: zero weights, and subnormal weights whose scores tie
        scale = 1.0 if kind == "zero" else 5e-324
        weights = [scale * (a % 3 if kind == "zero" else 1 + a % 3) for a in range(m)]
        assert_same_bits(trial_weights(m, n, f, 3, 7, weights), reference_weights(m, n, f, 3, 7, weights))

    def test_groups_that_cannot_fill(self):
        # 3 copies against groups of 4 queries: the first group takes every copy
        weights = trial_weights(3, 1, 4, 5, 2)
        assert_same_bits(weights, reference_weights(3, 1, 4, 5, 2))
        assert weights.tolist() == [3.0] * 5


BAD_WEIGHTS = {
    "nan": [float("nan"), 1.0, 1.0],
    "inf": [float("inf"), 1.0, 1.0],
    "-inf": [1.0, float("-inf"), 1.0],
    "negative": [-1.0, 1.0, 1.0],
    "all zero": [0.0, 0.0, 0.0],
}


class TestInputValidation:
    @pytest.mark.parametrize("weights", BAD_WEIGHTS.values(), ids=BAD_WEIGHTS)
    def test_bad_weights(self, weights):
        with pytest.raises(DomainError):
            perturbed_greedy(gen_upper_triangular(3, 1, 2, np.random.default_rng(0)), 2, 0, weights)
        with pytest.raises(DomainError):
            trial_weights(3, 1, 2, 5, 1, weights)
        with pytest.raises(DomainError):
            empirical_ratio(3, 1, 2, 5, 1, weights)

    def test_overflowing_weight_bound(self):
        # every weight is finite, but sum_a w_a * copies_a is not: a matched weight could read inf
        with pytest.raises(DomainError, match="matched weight bound"):
            perturbed_greedy(Instance((3,), ((3, (0,)),)), 1, 0, [1e308])
        with pytest.raises(DomainError, match="matched weight bound"):
            perturbed_greedy(Instance((1, 10**400), ((1, (0,)),)), 1, 0, [1.0, 1e-300])
        for call in (trial_weights, empirical_ratio):
            with pytest.raises(DomainError, match="matched weight bound"):
                call(2, 1, 1, 2, 0, [1e308, 1e308])
            with pytest.raises(DomainError, match="matched weight bound"):
                call(1, 2, 1, 2, 0, [1e308])
        # one copy of the largest float is a finite bound
        assert trial_weights(1, 1, 1, 2, 0, [1.7976931348623157e308]).tolist() == [1.7976931348623157e308] * 2

    @pytest.mark.parametrize(
        "m, n, f",
        [(0, 1, 2), (-2, 1, 2), (1.5, 1, 2), (4, 0, 2), (4, 1.5, 2), (4, float("nan"), 2),
         (4, 1, 0), (4, 1, 0.5), (4, 1, float("nan"))],
    )
    def test_bad_counts(self, m, n, f):
        with pytest.raises(DomainError):
            trial_weights(m, n, f, 5, 1)
        with pytest.raises(DomainError):
            empirical_ratio(m, n, f, 5, 1)
        # the generator takes any finite f > 0: f = 0.5 builds once f * n is an integer
        if f == 0.5:
            assert gen_upper_triangular(m, 2 * n, f, np.random.default_rng(0)).groups[0][0] == 1
        else:
            with pytest.raises(DomainError):
                gen_upper_triangular(m, n, f, np.random.default_rng(0))

    @pytest.mark.parametrize("trials", [0, -1, 2.5, float("inf")])
    def test_bad_trial_count(self, trials):
        with pytest.raises(DomainError):
            trial_weights(4, 1, 2, trials, 1)
        with pytest.raises(DomainError):
            empirical_ratio(4, 1, 2, trials, 1)

    @pytest.mark.parametrize("f", [0, -1, 0.5, float("nan"), float("inf")])
    def test_bad_guarantee_supply(self, f):
        with pytest.raises(DomainError):
            guarantee(f)

    def test_integral_floats_accepted(self):
        assert trial_weights(4.0, 1.0, 2.0, 3.0, 1).tolist() == trial_weights(4, 1, 2, 3, 1).tolist()
        assert empirical_ratio(4.0, 2.0, 2, 3, 1) == empirical_ratio(4, 2, 2, 3, 1)
