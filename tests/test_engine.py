import copy
import dataclasses
import math
import pickle
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yieldopt.dist import RewardDistribution, sample_array
from yieldopt.engine import (
    AllocationState,
    Decision,
    _ends_equal,
    _fill,
    _fill_equal,
    finalize,
    run_instance,
    run_rewards,
    serve_query,
)
from yieldopt.errors import DomainError, MalformedDistribution
from yieldopt.instances import Instance, gen_upper_triangular
from yieldopt.policy import ThresholdPolicy, make_policy

BINARY = RewardDistribution((0.0, 0.5), (0.5, 1.0))
TRI3 = RewardDistribution((0.0, 0.4, 0.9), (0.3, 0.7, 1.0))
S_STAR = 1.0 + math.log(0.5)
BPOL = ThresholdPolicy((S_STAR, 1.0), BINARY)


def state_with(demands, delivered):
    return AllocationState(tuple(demands), list(delivered))


class TestServeQuery:
    def test_low_sr_reward_at_reserve_goes_to_contract(self):
        state = state_with([10], [1])  # SR = 0.1 < s*
        decision = serve_query(state, BPOL, [0], reward=0.5)
        assert decision.kind == "contract" and decision.advertiser == 0
        assert decision.reserve == 0.5  # inclusive: reward == reserve stays contract
        assert state.delivered == [2]

    def test_high_sr_nonzero_reward_goes_to_exchange(self):
        state = state_with([10], [5])  # SR = 0.5 >= s*
        decision = serve_query(state, BPOL, [0], reward=0.5)
        assert decision.kind == "exchange"
        assert decision.reserve == 0.0
        assert state.exchange_revenue == 0.5

    def test_saturated_advertisers_send_to_exchange(self):
        state = state_with([2, 3], [2, 3])
        decision = serve_query(state, BPOL, [0, 1], reward=0.0)
        assert decision.kind == "exchange"

    def test_empty_eligibility_goes_to_exchange(self):
        state = state_with([2], [0])
        decision = serve_query(state, BPOL, [], reward=0.5)
        assert decision.kind == "exchange" and decision.min_sr_advertiser is None

    def test_min_sr_restricted_to_eligible(self):
        # advertiser 0 is hungrier but not eligible
        state = state_with([10, 10], [0, 9])
        decision = serve_query(state, BPOL, [1], reward=0.0)
        assert decision.advertiser == 1

    def test_min_sr_tie_breaks_to_smallest_id(self):
        state = state_with([10, 10], [3, 3])
        decision = serve_query(state, BPOL, [1, 0], reward=0.0)
        assert decision.advertiser == 0

    def test_half_open_segment_boundary(self):
        # SR exactly at a threshold belongs to the segment above it
        policy = ThresholdPolicy((0.5, 1.0), BINARY)
        state = state_with([2], [1])  # SR = 0.5 exactly
        decision = serve_query(state, policy, [0], reward=0.5)
        assert decision.reserve == 0.0  # segment u=2: reserve r_1
        assert decision.kind == "exchange"

    def test_eligible_as_set_or_generator(self):
        state = state_with([10, 10, 5], [3, 3, 2])
        decision = serve_query(state, BPOL, {2, 1, 0}, reward=0.0)
        assert decision.advertiser == 0  # 3/10 ties 3/10, below 2/5
        decision = serve_query(state, BPOL, (a for a in (2, 1)), reward=0.0)
        assert decision.advertiser == 1
        assert state.delivered == [4, 4, 2]

    def test_non_finite_reward_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            state = state_with([2], [0])
            with pytest.raises(DomainError):
                serve_query(state, BPOL, [0], reward=bad)
            assert state.queries == 0 and state.exchange_revenue == 0.0

    def test_reward_read_as_float(self):
        # as run_rewards reads it: a Fraction that rounds to the reserve 0.5
        # meets it, and a float32 bid adds its exact value to a float revenue
        state = state_with([10], [1])
        assert serve_query(state, BPOL, [0], Fraction(1, 2) + Fraction(1, 10**30)).kind == "contract"
        state = state_with([10], [5])
        serve_query(state, BPOL, [0], 0.4)
        serve_query(state, BPOL, [0], np.float32(0.25))
        assert type(state.exchange_revenue) is float and state.exchange_revenue == 0.4 + 0.25

    def test_bad_id_or_reward_leaves_state_unchanged(self):
        # the id and reward rules are rows of test_domain_rule
        state = state_with([2, 2], [1, 0])
        for eligible in ([0, 2], [1.0], [-1], [True], 5):
            with pytest.raises(DomainError, match="advertiser ids must be integers in 0..1"):
                serve_query(state, BPOL, eligible, 0.0)
        for reward in ("0.3", None):
            with pytest.raises(DomainError, match="reward must be finite"):
                serve_query(state, BPOL, [0], reward)
        assert state == state_with([2, 2], [1, 0]) and state.rank == [4, 1]

    def test_negative_id_that_is_not_the_target_changes_nothing(self):
        # -1 reads advertiser 1's rank; advertiser 0 is hungrier, so the
        # decision is that of the valid ids alone
        for reward in (0.0, 0.5):
            state, twin = state_with([4, 2], [1, 1]), state_with([4, 2], [1, 1])
            assert serve_query(state, BPOL, [-1, 0], reward) == serve_query(twin, BPOL, [0], reward)
            assert state == twin and state.rank == twin.rank

    @pytest.mark.parametrize(
        "demands, delivered, message",
        [
            ((2, 3), [0], "expected 2 delivered counts, got 1"),
            ((2,), [0, 0], "expected 1 delivered counts, got 2"),
            ((), [], "demands must not be empty"),
        ],
        ids=["short", "long", "empty"],
    )
    def test_bad_state_shape_rejected(self, demands, delivered, message):
        # the demand and delivered-count rules are rows of test_domain_rule
        with pytest.raises(DomainError, match=message):
            serve_query(AllocationState(demands, delivered), BPOL, range(len(demands)), 0.0)

    def test_min_sr_invariant_each_call(self):
        rng = np.random.default_rng(4)
        state = state_with([3, 5, 2], [0, 0, 0])
        policy = ThresholdPolicy((0.4, 1.0), BINARY)
        for _ in range(16):
            eligible = [a for a in range(3) if rng.random() < 0.8]
            before = list(state.delivered)
            decision = serve_query(state, policy, eligible, float(rng.choice([0.0, 0.5])))
            if eligible:
                a = decision.min_sr_advertiser
                sr_a = Fraction(before[a], state.demands[a])
                assert all(
                    sr_a <= Fraction(before[b], state.demands[b]) for b in eligible
                )


class TestDecision:
    def test_named_tuple_fields_and_defaults(self):
        assert Decision._fields == ("kind", "advertiser", "reserve", "min_sr_advertiser")
        assert Decision("exchange") == ("exchange", None, None, None)
        kind, advertiser, reserve, min_sr = serve_query(
            state_with([10], [1]), BPOL, [0], reward=0.5
        )
        assert (kind, advertiser, reserve, min_sr) == ("contract", 0, 0.5, 0)

    def test_immutable(self):
        decision = serve_query(state_with([10], [1]), BPOL, [0], reward=0.5)
        for name in Decision._fields:
            with pytest.raises(AttributeError):
                setattr(decision, name, None)
        assert decision.kind == "contract" and decision.advertiser == 0

    @pytest.mark.parametrize(
        "demands, delivered, eligible, reward, expected",
        [
            ([10], [1], [0], 0.5, Decision("contract", advertiser=0, reserve=0.5, min_sr_advertiser=0)),
            ([10], [5], [0], 0.5, Decision("exchange", reserve=0.0, min_sr_advertiser=0)),
            ([2, 3], [2, 3], [1, 0], 0.0, Decision("exchange", min_sr_advertiser=0)),
            ([2], [0], [], 0.5, Decision("exchange")),
        ],
        ids=["contract", "exchange-above-reserve", "all-saturated", "no-eligible"],
    )
    def test_serve_query_fields(self, demands, delivered, eligible, reward, expected):
        assert serve_query(state_with(demands, delivered), BPOL, eligible, reward) == expected


class TestFinalize:
    def test_pure_penalty_baseline(self):
        state = state_with([10], [0])
        report = finalize(state, 1.0)
        assert report.reward == -10.0
        assert report.penalty_paid == 10.0

    def test_everything_delivered(self):
        state = state_with([5], [5])
        state.exchange_revenue = 3.25
        report = finalize(state, 1.0)
        assert report.reward == 3.25

    def test_offset_added(self):
        # only run_rewards still takes an offset; finalize's reward is in the rewards' units
        state = state_with([2], [1])
        report = finalize(state, 1.0)
        assert (report.reward, report.offset, report.fill_rate) == (-1.0, 0.0, 0.5)
        inst = Instance((2,), ((2, (0,)),))
        report = run_rewards(inst, BPOL, 1.0, [0.0, 0.5], offset=7.0)
        assert report.reward == report.exchange_revenue - report.penalty_paid + 7.0
        with pytest.raises(TypeError):
            finalize(state, 1.0, 7.0)


class TestRewardPastFloatRange:
    """A reward built from finite values that is not finite raises ``DomainError``, with no overflow warning."""

    HUGE = ThresholdPolicy((0.5, 1.0), RewardDistribution((0.0, 1e308), (0.5, 1.0)))

    def test_revenue_overflows(self):
        # one delivery, and two sales of 1e308 each
        with pytest.raises(DomainError, match="reward must be finite, got revenue inf"):
            run_rewards(Instance((1,), ((3, (0,)),)), self.HUGE, 1e308, [1e308] * 3)

    def test_penalty_paid_overflows(self):
        # three deliveries, and seven undelivered at 1e308 each
        with pytest.raises(DomainError, match="penalty inf"):
            run_rewards(Instance((10,), ((3, (0,)),)), self.HUGE, 1e308, [1e308] * 3)

    def test_finalize(self):
        with pytest.raises(DomainError, match="penalty inf"):
            finalize(AllocationState((10**308,), [0]), 1e308)
        # an undelivered count no float holds
        with pytest.raises(DomainError, match="penalty inf"):
            finalize(AllocationState((10**400,), [0]), 1.0)
        state = AllocationState.fresh((1,))
        for _ in range(2):
            serve_query(state, self.HUGE, [], 1e308)
        with pytest.raises(DomainError, match="revenue inf"):
            finalize(state, 1.0)

    def test_offset_overflows(self):
        with pytest.raises(DomainError, match=r"revenue 1e\+308 - penalty 0.0 \+ offset 1e\+308"):
            run_rewards(Instance((1,), ((2, (0,)),)), BPOL, 1.0, [0.0, 1e308], offset=1e308)


class TestRunEquivalence:
    def run_via_serve(self, inst, policy, penalty, rewards):
        return finalize(replay(inst, policy, rewards)[0], penalty)

    def test_grouped_runner_replays_serve_query(self):
        rng = np.random.default_rng(17)
        for trial in range(12):
            m = int(rng.integers(1, 4))
            demands = tuple(int(v) for v in rng.integers(1, 4, m))
            groups = []
            for _ in range(int(rng.integers(1, 4))):
                elig = tuple(
                    int(a) for a in range(m) if rng.random() < 0.7
                )
                groups.append((int(rng.integers(0, 5)), elig))
            inst = Instance(demands, tuple(groups))
            rewards = sample_array(BINARY, rng, inst.total_queries)
            a = self.run_via_serve(inst, BPOL, 1.0, rewards)
            b = run_rewards(inst, BPOL, 1.0, rewards)
            assert a.reward == pytest.approx(b.reward, abs=1e-12)
            assert a.delivered == b.delivered
            assert a.exchange_revenue == pytest.approx(b.exchange_revenue, abs=1e-12)

    def test_unequal_demands_path(self):
        inst = Instance((3, 1), ((4, (0, 1)), (2, (1,))))
        rewards = [0.0, 0.5, 0.0, 0.5, 0.5, 0.0]
        a = self.run_via_serve(inst, BPOL, 1.0, rewards)
        b = run_rewards(inst, BPOL, 1.0, rewards)
        assert a.reward == b.reward and a.delivered == b.delivered

    def test_replay_determinism(self):
        inst = gen_upper_triangular(5, 4, 2.0, seed=12)
        r1 = run_instance(inst, BPOL, 1.0, BINARY, seed=99)
        r2 = run_instance(inst, BPOL, 1.0, BINARY, seed=99)
        assert r1 == r2

    def test_monotone_delivery_and_counts(self):
        inst = gen_upper_triangular(4, 3, 2.0, seed=5)
        rng = np.random.default_rng(1)
        rewards = sample_array(BINARY, rng, inst.total_queries)
        state = AllocationState.fresh(inst.demands)
        pos = 0
        last = [0] * inst.m
        for count, elig in inst.groups:
            for _ in range(count):
                serve_query(state, BPOL, elig, float(rewards[pos]))
                pos += 1
                assert all(state.delivered[a] >= last[a] for a in range(inst.m))
                last = list(state.delivered)
        assert state.queries == inst.total_queries

    def test_simulation_close_to_formula_small(self):
        # small version of the adversarial-instance convergence experiment
        inst = gen_upper_triangular(20, 500, 2.0, seed=31)
        values = []
        for seed in range(5):
            rep = run_instance(inst, BPOL, 1.0, BINARY, seed=7000 + seed)
            values.append(rep.reward / inst.total_demand)
        assert np.mean(values) == pytest.approx(0.142236, rel=0.2)

    def test_non_finite_rewards_rejected(self):
        inst = Instance((2,), ((3, (0,)),))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                run_rewards(inst, BPOL, 1.0, [0.0, bad, 0.5])

    def test_non_finite_penalty_or_offset_rejected(self):
        # a NaN penalty used to come back as reward = nan
        inst = Instance((2,), ((2, (0,)),))
        state = state_with([2], [1])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                run_rewards(inst, BPOL, bad, [0.0, 0.5])
            with pytest.raises(DomainError):
                run_rewards(inst, BPOL, 1.0, [0.0, 0.5], offset=bad)
            with pytest.raises(DomainError):
                finalize(state, bad)

    def test_penalty_and_offset_checked_before_the_rewards(self):
        # checked on entry: a NaN penalty used to raise only after every query was served
        inst = gen_upper_triangular(20, 5, 2.0, seed=1)
        rewards = sample_array(BINARY, 1, inst.total_queries)
        with pytest.raises(DomainError, match="penalty must be finite"):
            run_rewards(inst, BPOL, math.nan, rewards[:-1])
        with pytest.raises(DomainError, match="offset must be finite"):
            run_rewards(inst, BPOL, 1.0, rewards[:-1], offset=math.inf)


def replay(inst, policy, rewards):
    """The serve_query reference: route every query in arrival order.

    Returns the final state and the rewards sent to the exchange, in order.
    """
    state = AllocationState.fresh(inst.demands)
    sold, pos = [], 0
    for count, elig in inst.groups:
        for _ in range(count):
            reward = float(rewards[pos])
            if serve_query(state, policy, elig, reward).kind == "exchange":
                sold.append(reward)
            pos += 1
    return state, sold


def assert_replays(inst, policy, rewards):
    ref, _ = replay(inst, policy, rewards)
    report = run_rewards(inst, policy, 1.0, rewards)
    assert report.delivered == tuple(ref.delivered)
    assert all(type(v) is int for v in report.delivered)
    assert report.queries == ref.queries
    scale = max(1.0, abs(ref.exchange_revenue))
    assert abs(report.exchange_revenue - ref.exchange_revenue) <= 1e-12 * scale


# thresholds on ratios k/n with small n (hit exactly by some SR), near them
# (1/3 as a float) and arbitrary floats
LEVEL = st.one_of(st.sampled_from((0.0, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 11 / 12)), st.floats(0.0, 1.0))


def policy_and_rewards(draw, inst):
    """A threshold policy on 2 to 4 atoms, and one reward per query of ``inst``."""
    d = draw(st.sampled_from((2, 3, 4)))
    ticks = draw(st.lists(st.integers(0, 20), min_size=d, max_size=d, unique=True))
    support = tuple(v / 20 for v in sorted(ticks))
    dist = RewardDistribution.from_masses(support, (1.0 / d,) * d)
    inner = sorted(draw(st.lists(LEVEL, min_size=d - 1, max_size=d - 1)))
    policy = ThresholdPolicy((*inner, 1.0), dist)
    # rewards on the atoms (each one a reserve), between them, and outside
    between = [(a + b) / 2 for a, b in zip(support, support[1:])] + [support[-1] + 0.05]
    values = st.sampled_from(support + tuple(between))
    rewards = draw(st.lists(values, min_size=inst.total_queries, max_size=inst.total_queries))
    return inst, policy, rewards


@st.composite
def engine_cases(draw):
    m = draw(st.integers(1, 6))
    demand = st.one_of(st.just(1), st.just(12), st.integers(1, 12))
    demands = draw(st.lists(demand, min_size=m, max_size=m))
    elig = st.lists(st.integers(0, m - 1), max_size=m)
    groups = draw(st.lists(st.tuples(st.integers(0, 40), elig), min_size=1, max_size=6))
    return policy_and_rewards(draw, Instance(tuple(demands), tuple(groups)))


@st.composite
def wide_equal_cases(draw):
    """Equal-demand instances with wide eligibility sets: triangular, or random sets of up to 100 ids."""
    if draw(st.booleans()):
        f = draw(st.sampled_from((1.0, 1.5, 2.0, 3.0)))
        n = 2 * draw(st.integers(1, 3))  # f * n is an integer
        inst = gen_upper_triangular(draw(st.integers(1, 80)), n, f, draw(st.integers(0, 2**32 - 1)))
    else:
        m = draw(st.integers(1, 100))
        elig = st.lists(st.integers(0, m - 1), max_size=100)
        groups = draw(st.lists(st.tuples(st.integers(0, 60), elig), min_size=1, max_size=8))
        inst = Instance((draw(st.integers(1, 12)),) * m, tuple(groups))
    return policy_and_rewards(draw, inst)


@st.composite
def revenue_cases(draw):
    """Equal-demand, unequal-demand, saturated-group and object-dtype instances, with a policy and rewards.

    A saturated case opens with a group over a set ``S`` of ids holding as
    many queries as ``S`` has demand, every reward 0, at or below every
    reserve; ``S`` is saturated after it, and the closing group over ``S``
    sells every query.  Object-dtype cases have demands past ``2**21``.
    """
    kind = draw(st.sampled_from(("equal", "unequal", "saturated", "object")))
    if kind == "equal":
        return draw(wide_equal_cases())
    m = draw(st.integers(2, 12))
    big = draw(st.sampled_from((3_000_000, 10**12))) if kind == "object" else 0
    demands = [big + v for v in draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))]
    if kind != "unequal" and draw(st.booleans()):
        demands = demands[:1] * m
    elif len(set(demands)) == 1:
        demands[0] += 1
    elig = st.lists(st.integers(0, m - 1), max_size=m)
    groups = draw(st.lists(st.tuples(st.integers(0, 40), elig), min_size=1, max_size=6))
    lead = 0
    if kind == "saturated":
        ids = tuple(draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)))
        lead = sum(demands[a] for a in ids)
        groups = [(lead, ids), *groups, (draw(st.integers(1, 40)), ids)]
    inst, policy, rewards = policy_and_rewards(draw, Instance(tuple(demands), tuple(groups)))
    return inst, policy, [0.0] * lead + rewards[lead:]


class TestSegmentJumpEngine:
    @settings(max_examples=300, deadline=None)
    @given(case=engine_cases())
    def test_replays_serve_query(self, case):
        assert_replays(*case)

    @settings(max_examples=100, deadline=None)
    @given(case=wide_equal_cases())
    def test_replays_serve_query_on_wide_equal_demands(self, case):
        assert_replays(*case)

    @settings(max_examples=200, deadline=None)
    @given(case=revenue_cases())
    def test_revenue_is_the_exact_sum_of_the_replay_sales(self, case):
        inst, policy, rewards = case
        exact = math.fsum(replay(inst, policy, rewards)[1])
        revenue = run_rewards(inst, policy, 1.0, rewards).exchange_revenue
        assert abs(revenue - exact) <= 1e-12 * max(1.0, abs(exact))

    @pytest.mark.parametrize("dist", [BINARY, TRI3], ids=["binary", "three-point"])
    def test_triangular_mid_size(self, dist):
        inst = gen_upper_triangular(50, 400, 2.0, seed=21)
        policy, _, _ = make_policy(dist, 1.0, 2.0)
        rewards = sample_array(dist, np.random.default_rng(22), inst.total_queries)
        assert_replays(inst, policy, rewards)

    def test_unequal_demands_mid_size(self):
        # like a random unequal-demand benchmark item: 40 advertisers with
        # demands 100..199, one group each over about twice its demand,
        # shared with up to 7 others, arriving in random order
        rng = np.random.default_rng(5)
        m = 40
        demands = tuple(int(v) for v in rng.integers(100, 200, m))
        groups = []
        for a in range(m):
            others = rng.choice(m, size=int(rng.integers(0, 8)), replace=False)
            count = math.ceil(rng.uniform(1.5, 2.5) * demands[a])
            groups.append((count, tuple({a, *map(int, others)})))
        inst = Instance(demands, tuple(groups[i] for i in rng.permutation(m)))
        dist = RewardDistribution.from_masses((0.0, 0.2, 0.45, 0.8), (0.25,) * 4)
        policy, _, _ = make_policy(dist, 1.0, 2.0)
        rewards = sample_array(dist, rng, inst.total_queries)
        assert_replays(inst, policy, rewards)

    def test_ties_at_the_water_level_go_to_smallest_ids(self):
        # even ids start one delivery ahead; the wide group then lifts the odd
        # ids level and ends with 7 deliveries at a level all 40 share
        m = 40
        inst = Instance((10,) * m, ((m // 2, tuple(range(0, m, 2))), (m // 2 + 7, tuple(range(m)))))
        report = run_rewards(inst, BPOL, 1.0, [0.0] * inst.total_queries)
        assert report.delivered == (2,) * 7 + (1,) * (m - 7)
        assert_replays(inst, BPOL, [0.0] * inst.total_queries)

    def test_demands_past_int64_products(self):
        # k * D / n orderings need about demand**3; past 2**63 they run on
        # Python integers
        policy, _, _ = make_policy(TRI3, 1.0, 2.0)
        rng = np.random.default_rng(8)
        for demands in ((3_000_000, 10**12), (10**12, 10**12 - 1, 7)):
            groups = ((9, (0, 1)), (6, tuple(range(len(demands)))), (5, (1,)))
            inst = Instance(demands, groups)
            rewards = sample_array(TRI3, rng, inst.total_queries)
            assert_replays(inst, policy, rewards)


def brute_fill(k, n, t, scale):
    """Every key ``(j * scale // n_i, i)`` for ``j = k_i .. n_i - 1``, sorted; the first ``t`` counted."""
    keys = sorted((j * scale // n_i, i) for i, (k_i, n_i) in enumerate(zip(k, n)) for j in range(k_i, n_i))
    out = list(k)
    for _, i in keys[:t]:
        out[i] += 1
    return out


@st.composite
def fill_cases(draw):
    """A group's delivered counts, demands, delivery count and SR scale, as run_rewards passes them.

    Groups reach 600 ids, the wide sets where ``t <= len(k)``.  Small demands
    take any count; demands past ``2**21`` (products past int64, the
    object-dtype path) keep at most 5 keys each so the keys can be listed.
    """
    size = draw(st.one_of(st.integers(1, 8), st.integers(9, 600)))
    equal = draw(st.booleans())
    big = draw(st.sampled_from((0, 3_000_000, 10**12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = np.broadcast_to(rng.integers(1, 13, 1 if equal else size) + big, size)
    left = rng.integers(0, np.minimum(n, 5 if big else n) + 1)
    k, n = (n - left).tolist(), n.tolist()
    # the scale is the instance's largest demand squared, which may exceed the group's
    scale = (max(n) + draw(st.sampled_from((0, 0, 7)))) ** 2
    keys = sum(n) - sum(k)
    t = draw(st.sampled_from((0, 1, size, size + 1, keys, keys - 1)) | st.integers(0, keys))
    return k, n, min(max(t, 0), keys), scale


class TestFill:
    """``_fill`` and ``_fill_equal`` against listing and sorting every key."""

    @settings(max_examples=300, deadline=None)
    @given(case=fill_cases())
    def test_matches_sorted_keys(self, case):
        k, n, t, scale = case
        expected = brute_fill(k, n, t, scale)
        top = max(n)
        dtypes = [object] + ([np.int64] if max(top * scale, top * sum(n)) < 2**63 else [])
        for dtype in dtypes:
            ka, na = np.array(k, dtype=dtype), np.array(n, dtype=dtype)
            assert _fill(ka, na, t, scale).tolist() == expected
            if len(set(n)) == 1:
                ks = np.sort(ka)
                assert _fill_equal(ka, ks, ks.cumsum(), t, np.arange(1, len(k) + 1)).tolist() == expected
            assert ka.tolist() == k  # inputs untouched

    @pytest.mark.parametrize(
        "k, n, t, expected",
        [
            ([3, 1, 1, 2], 5, 2, [3, 2, 2, 2]),  # ids 1 and 2 rise to id 3's count, nothing left over
            ([0, 0, 0], 2, 3, [1, 1, 1]),  # every id rises one step, nothing left over
            ([3, 1, 1, 2], 5, 12, [5, 5, 5, 4]),  # every key but one: the largest id keeps it
            ([2, 0, 2], 2, 1, [2, 1, 2]),  # every key but one, on the one id not saturated
            ([10**12 - 1, 10**12 - 3, 10**12 - 2], 10**12, 5, [10**12, 10**12, 10**12 - 1]),
        ],
        ids=["no-leftover", "no-leftover-every-id", "all-but-one", "all-but-one-of-one-id", "all-but-one-object"],
    )
    def test_equal_demand_edges(self, k, n, t, expected):
        assert brute_fill(k, [n] * len(k), t, n * n) == expected
        for dtype in [object] + ([np.int64] if n**3 < 2**63 else []):
            ka = np.array(k, dtype=dtype)
            ks = np.sort(ka)
            assert _fill_equal(ka, ks, ks.cumsum(), t, np.arange(1, len(k) + 1)).tolist() == expected


@st.composite
def equal_group_cases(draw):
    """An equal-demand group's delivered counts, its demand and its segments' cutoffs.

    Groups reach 600 ids.  Counts sit on a cutoff, just past one, at 0, at
    the demand or anywhere; demands past ``2**21`` take the object-dtype path.
    """
    size = draw(st.one_of(st.integers(1, 8), st.integers(9, 600)))
    n = draw(st.integers(1, 12)) + draw(st.sampled_from((0, 3_000_000, 10**12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # the last cutoff, n - 1 at s_d = 1, holds every key
    d = draw(st.sampled_from((2, 3, 4)))
    cuts = sorted(rng.integers(-1, n, d - 1).tolist()) + [n - 1]
    pool = [0, n, *(c for c in cuts if c >= 0), *(c + 1 for c in cuts), *rng.integers(0, n + 1, 4).tolist()]
    k = [pool[i] for i in rng.integers(0, len(pool), size)]
    return k, n, cuts


class TestEndsEqual:
    """``_ends_equal`` against counting each segment's keys ``j``, ``k_a <= j <= cut_u(n)``."""

    @settings(max_examples=300, deadline=None)
    @given(case=equal_group_cases())
    def test_matches_counted_keys(self, case):
        k, n, cuts = case
        expected = [sum(len(range(k_a, cut + 1)) for k_a in k) for cut in cuts]
        # run_rewards' rule: int64 while its products stay below 2**63
        dtypes = [object] + ([np.int64] if max(n**3, n * n * len(k)) < 2**63 else [])
        for dtype in dtypes:
            ks = np.sort(np.array(k, dtype=dtype))
            assert _ends_equal(ks, ks.cumsum(), np.array(cuts, dtype=dtype) + 1) == expected


def check_index(inst):
    ids, bounds = vars(inst)["_eligible_index"]
    assert ids.dtype == np.intp and not ids.flags.writeable
    with pytest.raises(ValueError):
        ids[0] = 1
    assert type(bounds) is tuple and set(map(type, bounds)) == {int}
    assert [tuple(ids[a:b]) for a, b in zip(bounds, bounds[1:])] == [e for _, e in inst.groups]


class TestEligibleIndex:
    """The group id index whole-instance runs read: built with every ``Instance``, whatever spells its groups,
    built again by every pickle and copy, and no part of the value."""

    def test_seeded_at_construction_and_read_only(self):
        inst = gen_upper_triangular(6, 3, 2.0, seed=4)
        check_index(inst)
        ids, bounds = vars(inst)["_eligible_index"]
        policy, _, _ = make_policy(BINARY, 1.0, 2.0)
        run_rewards(inst, policy, 1.0, [0.5] * inst.total_queries)
        assert inst._eligible_index[0] is ids and inst._eligible_index[1] is bounds

    def test_built_at_construction_and_by_every_copy(self):
        inst = gen_upper_triangular(6, 3, 2.0, seed=4)
        # list-spelled groups take the per-group rule, then the same passes as canonical ones
        for built in (inst, Instance(inst.demands, [(c, list(e)) for c, e in inst.groups])):
            check_index(built)
            pickled = pickle.loads(pickle.dumps(built))
            for copied in (
                pickled, copy.copy(built), copy.deepcopy(built), dataclasses.replace(built, groups=built.groups)
            ):
                check_index(copied)
                assert copied._eligible_index[0] is not built._eligible_index[0]
            assert pickled == built == copy.copy(built) == copy.deepcopy(built)

    def test_value_unchanged_by_a_run(self):
        inst = Instance((2, 3, 1), ((3, (0, 2)), (0, (1,)), (2, ()), (4, (2, 1, 0))))
        twin = Instance(inst.demands, inst.groups)
        rewards = [0.0, 0.5] * 4 + [0.5]
        before = (hash(inst), inst.to_json(), pickle.dumps(inst))
        # the pickle holds the value alone: a fresh construction's, with no array
        assert before[2] == pickle.dumps(twin) and b"numpy" not in before[2]
        first = run_rewards(inst, BPOL, 1.0, rewards)
        assert (hash(inst), inst.to_json(), pickle.dumps(inst)) == before
        assert inst == twin and {inst, twin} == {twin}
        clone = pickle.loads(pickle.dumps(inst))
        assert clone == inst
        check_index(clone)
        assert run_rewards(inst, BPOL, 1.0, rewards) == first == run_rewards(twin, BPOL, 1.0, rewards)
        assert run_rewards(clone, BPOL, 1.0, rewards) == first


class TestCutoffs:
    """``ThresholdPolicy.cutoffs``, the segment table both serving paths read."""

    @settings(max_examples=300, deadline=None)
    @given(
        inner=st.lists(LEVEL, min_size=1, max_size=3),
        n=st.one_of(st.integers(1, 12), st.sampled_from((10**12, 10**12 - 1, 3**25)), st.integers(1, 10**12)),
    )
    def test_largest_count_below_each_threshold(self, inner, n):
        thresholds = (*sorted(inner), 1.0)
        d = len(thresholds)
        policy = ThresholdPolicy(thresholds, RewardDistribution.from_masses(tuple(range(d)), (1 / d,) * d))
        cut = policy.cutoffs(n)
        assert len(cut) == d and list(cut) == sorted(cut)
        for k, s in zip(cut, thresholds):
            # k is in -1..n-1, below s, and k + 1 is not
            assert -1 <= k <= n - 1 and Fraction(k, n) < Fraction(s)
            assert k == n - 1 or Fraction(k + 1, n) >= Fraction(s)
        assert policy.cutoffs(n) is cut  # memoized

    def test_ends(self):
        policy = ThresholdPolicy((0.0, 0.5, 1.0), TRI3)
        assert policy.cutoffs(1) == (-1, 0, 0)
        assert policy.cutoffs(4) == (-1, 1, 3)
        assert policy.cutoffs(4.0) == (-1, 1, 3)

    def test_memo_leaves_the_policy_value_unchanged(self):
        policy, twin = ThresholdPolicy((S_STAR, 1.0), BINARY), ThresholdPolicy((S_STAR, 1.0), BINARY)
        before = (hash(policy), repr(policy))
        for n in (1, 7, 10**12):
            policy.cutoffs(n)
        assert (hash(policy), repr(policy)) == before
        assert policy == twin and hash(policy) == hash(twin) and {policy, twin} == {twin}
        rebound = ThresholdPolicy(policy.thresholds, RewardDistribution((0.0, 1.0), (0.5, 1.0)))
        assert rebound.cutoffs(10) == policy.cutoffs(10) == (3, 9)


def reference_route(demands, delivered, policy, eligible):
    """The threshold rule by Fractions: the least (SR, id) over ``eligible``, and its reserve."""
    if not eligible:
        return None, None
    a = min((Fraction(delivered[b], demands[b]), b) for b in eligible)[1]
    sr = Fraction(delivered[a], demands[a])
    if sr == 1:
        return a, None
    u = next(u for u, s in enumerate(policy.thresholds) if sr < Fraction(s))
    return a, policy.reserves[u]


def recomputed_ranks(state):
    scale, m = max(state.demands) ** 2, len(state.demands)
    return [k * scale // n * m + a for a, (k, n) in enumerate(zip(state.delivered, state.demands))]


FORMS = {
    "list": list,
    "reversed": lambda ids: list(reversed(ids)),
    "set": set,
    "generator": lambda ids: (a for a in ids),
}


@st.composite
def serving_cases(draw):
    d = draw(st.sampled_from((2, 3)))
    support = (0.0, 0.3, 0.6)[:d]
    dist = RewardDistribution.from_masses(support, (1.0 / d,) * d)
    level = st.one_of(st.sampled_from((0.0, 1 / 3, 0.5, 2 / 3)), st.floats(0.0, 1.0))
    inner = sorted(draw(st.lists(level, min_size=d - 1, max_size=d - 1)))
    policy = ThresholdPolicy((*inner, 1.0), dist)
    # demands are multiples of a unit, small or past 2**32 (big-int ranks),
    # and delivered counts often a simple fraction of them, so SRs tie across ids
    m = draw(st.integers(1, 8))
    unit = st.sampled_from((1, 2**32 + 1, 3**25))
    demands = [draw(unit) * draw(st.integers(1, 6)) for _ in range(m)]
    delivered = [
        draw(st.one_of(st.integers(0, n), st.integers(0, 6).map(lambda j, n=n: n * j // 6)))
        for n in demands
    ]
    rewards = st.sampled_from(support + (0.15, 0.45, 0.9))
    step = st.tuples(st.lists(st.integers(0, m - 1), max_size=m + 2), st.sampled_from(sorted(FORMS)), rewards)
    return tuple(demands), delivered, policy, draw(st.lists(step, min_size=1, max_size=25))


class TestServingRule:
    """``serve_query`` against the Fraction reference."""

    @settings(max_examples=200, deadline=None)
    @given(case=serving_cases())
    def test_serve_query(self, case):
        demands, delivered, policy, steps = case
        state = AllocationState(demands, delivered)
        assert state.rank == recomputed_ranks(state)
        for ids, form, reward in steps:
            a, reserve = reference_route(demands, state.delivered, policy, ids)
            expected = list(state.delivered)
            decision = serve_query(state, policy, FORMS[form](ids), reward)
            assert type(decision) is Decision
            if reserve is not None and reward <= reserve:
                assert decision == Decision("contract", a, reserve, a)
                expected[a] += 1
            else:
                assert decision == Decision("exchange", None, reserve, a)
            assert state.delivered == expected
            assert state.rank == recomputed_ranks(state)

    def test_duck_typed_distribution_does_not_serve(self):
        # its support is unsorted, so the reserves would be read in the wrong order
        duck = SimpleNamespace(support=(0.5, 0.0), cum_mass=(0.5, 1.0), d=2)
        with pytest.raises(MalformedDistribution, match="expected a RewardDistribution, got SimpleNamespace"):
            run_rewards(Instance((1,), ((2, (0,)),)), ThresholdPolicy((0.3, 1.0), duck), 1.0, (0.2, 0.4))


# a reward as it may arrive: floats at and between the reserves, ints,
# Fractions (some a float does not hold), numpy numbers, and values outside
# the reward rule
ANY_REWARD = st.one_of(
    st.sampled_from((0.0, 0.25, 0.4, 0.5, 0.9, 1.0)),
    st.integers(0, 2),
    st.fractions(0, 1),
    st.sampled_from((Fraction(1, 2) + Fraction(1, 10**30), Fraction(9, 10))),
    st.sampled_from((np.float64(0.5), np.float32(0.25), np.int64(0), True)),
    st.sampled_from(("0.5", "a", None, math.nan, math.inf, -math.inf, 10**400)),
)
REWARD_FORMS = {"list": list, "tuple": tuple, "array": np.array, "generator": lambda v: (x for x in v)}


@st.composite
def raw_reward_cases(draw):
    m = draw(st.integers(1, 3))
    demands = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    elig = st.lists(st.integers(0, m - 1), max_size=m)
    groups = draw(st.lists(st.tuples(st.integers(0, 5), elig), min_size=1, max_size=4))
    inst = Instance(tuple(demands), tuple(groups))
    policy = draw(st.sampled_from((BPOL, ThresholdPolicy((0.0, 0.5, 1.0), TRI3))))
    values = draw(st.lists(ANY_REWARD, min_size=inst.total_queries, max_size=inst.total_queries))
    return inst, policy, values, draw(st.sampled_from(sorted(REWARD_FORMS)))


def replay_raw(inst, policy, rewards):
    """The serve_query reference on the rewards as given, unconverted."""
    state = AllocationState.fresh(inst.demands)
    rewards = iter(rewards)
    for count, elig in inst.groups:
        for _ in range(count):
            serve_query(state, policy, elig, next(rewards))
    return finalize(state, 1.0)


class TestRewardRule:
    @settings(max_examples=300, deadline=None)
    @given(case=raw_reward_cases())
    def test_batch_and_reference_accept_the_same_rewards(self, case):
        inst, policy, values, form = case
        outcomes = []
        for run in (lambda r: run_rewards(inst, policy, 1.0, r), lambda r: replay_raw(inst, policy, r)):
            try:
                outcomes.append(run(REWARD_FORMS[form](values)))
            except DomainError:
                outcomes.append("DomainError")
        batch, ref = outcomes
        if "DomainError" in outcomes:
            assert batch == ref
        else:
            assert batch.delivered == ref.delivered and batch.queries == ref.queries
            assert batch.exchange_revenue == pytest.approx(float(ref.exchange_revenue), abs=1e-12)
