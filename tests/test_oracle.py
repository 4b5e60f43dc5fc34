import copy
import dataclasses
import math
import pickle

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yieldopt import _flow, oracle, repro
from yieldopt.dist import RewardDistribution
from yieldopt.engine import run_rewards
from yieldopt.errors import DomainError, SizeLimit
from yieldopt.instances import Instance, gen_upper_triangular, supply_factor
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
from yieldopt.policy import ThresholdPolicy, make_policy

BINARY = RewardDistribution((0.0, 0.5), (0.5, 1.0))
TRI3 = RewardDistribution((0.0, 0.4, 0.9), (0.3, 0.7, 1.0))


def offline_bruteforce(realized, penalty):
    # exhaustive assignment search; independent of the augmenting-path solver
    inst = realized.instance
    elig_seq = inst.expand()
    best = -math.inf

    def recurse(i, remaining, value):
        nonlocal best
        if i == len(elig_seq):
            best = max(best, value - penalty * sum(remaining))
            return
        r = realized.rewards[i]
        recurse(i + 1, remaining, value + r)  # sell
        for a in elig_seq[i]:
            if remaining[a] > 0:
                nxt = list(remaining)
                nxt[a] -= 1
                recurse(i + 1, tuple(nxt), value)

    recurse(0, inst.demands, 0.0)
    return best


class TestOfflineOptFormula:
    def test_f1_is_zero(self):
        assert offline_opt_formula(BINARY, 1.0, 10.0) == 0.0

    def test_binary_q_half(self):
        assert offline_opt_formula(BINARY, 2.0, 1.0) == pytest.approx(0.5)

    def test_binary_q_below_one_over_f_both_routes(self):
        # q = 0.25 <= 1/f: case formula f(1-1/f)r must agree with the
        # top-quantile route
        d = RewardDistribution((0.0, 0.5), (0.25, 1.0))
        f = 2.0
        case_formula = f * (1.0 - 1.0 / f) * 0.5
        assert offline_opt_formula(d, f, 1.0) == pytest.approx(case_formula)

    def test_binary_q_above_one_over_f_both_routes(self):
        d = RewardDistribution((0.0, 0.5), (0.75, 1.0))
        f = 2.0
        case_formula = f * (1.0 - 0.75) * 0.5
        assert offline_opt_formula(d, f, 1.0) == pytest.approx(case_formula)

    def test_rejects_f_below_one(self):
        with pytest.raises(DomainError):
            offline_opt_formula(BINARY, 0.5, 1.0)


class TestOfflineOptExact:
    def test_single_advertiser_two_queries(self):
        inst = Instance((1,), ((2, (0,)),))
        value = offline_opt_exact(RealizedInstance(inst, (0.0, 0.5)), 1.0)
        assert value == pytest.approx(0.5)  # deliver the 0, sell the 0.5

    def test_all_zero_rewards(self):
        inst = Instance((2, 1), ((2, (0,)), (1, (1,))))
        value = offline_opt_exact(RealizedInstance(inst, (0.0, 0.0, 0.0)), 1.0)
        assert value == pytest.approx(-0.0)  # all deliverable here

    def test_penalty_when_underdeliverable(self):
        inst = Instance((3,), ((1, (0,)),))
        value = offline_opt_exact(RealizedInstance(inst, (0.0,)), 1.0)
        assert value == pytest.approx(-2.0)

    def test_rerouting_needed(self):
        # greedy must move an earlier assignment to make room
        inst = Instance((1, 1), ((1, (0, 1)), (1, (0,))))
        value = offline_opt_exact(RealizedInstance(inst, (0.1, 0.2)), 1.0)
        # optimal: query 0 -> advertiser 1, query 1 -> advertiser 0
        assert value == pytest.approx(0.0)

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            m = int(rng.integers(1, 4))
            demands = tuple(int(v) for v in rng.integers(1, 3, m))
            groups = []
            for _ in range(int(rng.integers(1, 4))):
                elig = tuple(int(a) for a in range(m) if rng.random() < 0.7)
                groups.append((int(rng.integers(0, 3)), elig))
            inst = Instance(demands, tuple(groups))
            if inst.total_queries == 0 or inst.total_queries > 6:
                continue
            rewards = tuple(
                float(rng.choice([0.0, 0.3, 0.8])) for _ in range(inst.total_queries)
            )
            realized = RealizedInstance(inst, rewards)
            assert offline_opt_exact(realized, 1.0) == pytest.approx(
                offline_bruteforce(realized, 1.0), abs=1e-12
            )

    def test_long_augmenting_path(self):
        # group i is eligible to {i, i+1}; the last query, eligible to {0}
        # only, needs one augmenting path through all 1,501 advertisers
        length = 1500
        groups = tuple((1, (i, i + 1)) for i in range(length)) + ((1, (0,)),)
        inst = Instance((1,) * (length + 1), groups)
        rewards = (0.5,) * length + (0.75,)
        value = offline_opt_exact(RealizedInstance(inst, rewards), 1.0)
        assert value == 0.0  # every query delivered, nothing sold, no penalty

    def test_sums_are_correctly_rounded(self):
        # 90,000 sold queries at 0.1 and 10,000 delivered; with a sequential
        # sum of the rewards the value came out as 9000.000000018848
        inst = Instance((10_000,), ((100_000, (0,)),))
        value = offline_opt_exact(RealizedInstance(inst, (0.1,) * 100_000), 1.0)
        assert value == 9000.0

    def test_size_limit(self, monkeypatch):
        # the cap is on counted work: the pours visit advertiser 0 once each (query 0 takes it,
        # query 1 finds it full); the search from group 1 visits its id 0, follows group 0's
        # unit there, and visits group 0's ids 0 and 1, where it finds room: 6 in all
        realized = RealizedInstance(Instance((1, 1), ((1, (0, 1)), (1, (0,)))), (0.1, 0.2))
        monkeypatch.setattr(_flow, "_MAX_EXACT_WORK", 5)
        with pytest.raises(SizeLimit, match="counted work 6 exceeds exact-solver limit 5"):
            offline_opt_exact(realized, 1.0)
        monkeypatch.setattr(_flow, "_MAX_EXACT_WORK", 6)
        assert offline_opt_exact(realized, 1.0) == pytest.approx(0.0)

    def test_binary_1000_by_100_solves(self):
        # 200,000 queries on 500,500 eligibility edges; the algorithm's reward bounds OPT from
        # below, the sum of the Q - N largest rewards from above
        inst = gen_upper_triangular(1000, 100, 2.0, seed=1)
        realized = sample_realized(inst, BINARY, seed=1)
        policy, _, _ = make_policy(BINARY, 1.0, 2.0, float(inst.total_demand))
        alg = run_rewards(inst, policy, 1.0, realized.rewards).reward
        surplus = inst.total_queries - inst.total_demand
        top_sum = float(np.sort(realized.rewards)[-surplus:].sum())
        assert alg <= offline_opt_exact(realized, 1.0) <= top_sum + 1e-9

    def test_many_queries_few_advertisers_solve(self):
        # 200,000 queries but little search work, (100 + 50) * (1,275 + 50); the algorithm's reward bounds OPT
        inst = gen_upper_triangular(50, 2000, 2.0, seed=1)
        realized = sample_realized(inst, BINARY, seed=1)
        policy, _, _ = make_policy(BINARY, 1.0, 2.0, float(inst.total_demand))
        alg = run_rewards(inst, policy, 1.0, realized.rewards).reward
        assert offline_opt_exact(realized, 1.0) >= alg

    def test_concentrates_to_formula(self):
        inst = gen_upper_triangular(4, 1000, 2.0, seed=3)
        realized = sample_realized(inst, BINARY, seed=8)
        exact = offline_opt_exact(realized, 1.0)
        formula = offline_opt_formula(BINARY, 2.0, float(inst.total_demand))
        assert exact == pytest.approx(formula, rel=0.03)

    def test_bounded_by_top_reward_sum(self):
        # two-sided bracket: close to the formula from below, never above
        # the sum of the (f-1)N largest realized rewards
        f = 2.0
        for dist in (BINARY, TRI3):
            inst = gen_upper_triangular(4, 1000, f, seed=3)
            realized = sample_realized(inst, dist, seed=8)
            exact = offline_opt_exact(realized, 1.0)
            surplus = inst.total_queries - inst.total_demand
            top_sum = float(np.sort(realized.rewards)[-surplus:].sum())
            assert exact <= top_sum + 1e-9
            assert exact >= 0.97 * offline_opt_formula(dist, f, float(inst.total_demand))


def offline_min_cost_flow(realized, penalty):
    # independent of the greedy: a min-cost flow on the aggregated graph,
    # one node per (group, reward) class with reward <= penalty; rewards and
    # the penalty sit on a 1/20 grid, so the costs are integers
    inst = realized.instance
    graph = nx.DiGraph()
    graph.add_node("s")
    pos = 0
    for g, (count, elig) in enumerate(inst.groups):
        rewards = realized.rewards[pos : pos + count]
        pos += count
        for r in set(rewards):
            if r <= penalty:
                cls = ("class", g, r)
                graph.add_edge("s", cls, capacity=rewards.count(r), weight=-round(20 * (penalty - r)))
                for a in elig:
                    graph.add_edge(cls, ("ad", a), weight=0)
    for a, n in enumerate(inst.demands):
        graph.add_edge(("ad", a), "t", capacity=n, weight=0)
    # every s-t augmenting path costs <= 0, so a min-cost maximum flow is a min-cost flow
    cost = nx.cost_of_flow(graph, nx.max_flow_min_cost(graph, "s", "t"))
    return sum(realized.rewards) - penalty * inst.total_demand - cost / 20


@st.composite
def tiny_realized(draw):
    # zero-count groups, empty eligibility sets, rewards equal to and above
    # the penalty, equal rewards across groups
    m = draw(st.integers(1, 3))
    demands = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    elig = st.lists(st.integers(0, m - 1), max_size=m)
    groups = draw(st.lists(st.tuples(st.integers(0, 3), elig), max_size=4))
    inst = Instance(tuple(demands), tuple(groups))
    if inst.total_queries > 7:
        inst = Instance(inst.demands, inst.groups[:1])
    values = st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.5))
    rewards = draw(st.lists(values, min_size=inst.total_queries, max_size=inst.total_queries))
    return RealizedInstance(inst, tuple(rewards))


@st.composite
def mid_realized(draw):
    m = draw(st.integers(1, 12))
    demands = draw(st.lists(st.integers(1, 20), min_size=m, max_size=m))
    elig = st.lists(st.integers(0, m - 1), max_size=m)
    groups = draw(st.lists(st.tuples(st.integers(0, 60), elig), max_size=12))
    inst = Instance(tuple(demands), tuple(groups))
    # up to 12 distinct rewards: both sides of offline_opt_exact's few-levels bound
    ticks = draw(st.lists(st.integers(0, 30), min_size=1, max_size=12, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rewards = rng.choice(np.array(ticks) / 20, size=inst.total_queries)
    return RealizedInstance(inst, tuple(rewards))


def level_bound_case(d):
    # d distinct rewards: at the few-levels bound the levels are counted by comparison
    # passes, one above it by binary search; advertiser 1 is tight and advertiser 2 keeps
    # room, so a query counted in the wrong group or a sold reward delivered moves the value
    inst = Instance((4, 2, 9), ((5, (0, 1)), (4, (2,)), (6, (0, 1, 2)), (3, (1,))))
    rewards = np.random.default_rng(d).permutation(np.resize(np.arange(d) / 10, inst.total_queries))
    return RealizedInstance(inst, rewards)


class TestOfflineOptDifferential:
    @settings(max_examples=300, deadline=None)
    @given(realized=tiny_realized(), penalty=st.sampled_from((0.5, 1.0)))
    def test_matches_bruteforce(self, realized, penalty):
        expected = offline_bruteforce(realized, penalty)
        assert offline_opt_exact(realized, penalty) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(realized=mid_realized(), penalty=st.sampled_from((0.5, 1.0)))
    @example(realized=level_bound_case(oracle._FEW_LEVELS), penalty=0.45)
    @example(realized=level_bound_case(oracle._FEW_LEVELS), penalty=1.0)
    @example(realized=level_bound_case(oracle._FEW_LEVELS + 1), penalty=0.45)
    @example(realized=level_bound_case(oracle._FEW_LEVELS + 1), penalty=1.0)
    def test_matches_min_cost_flow(self, realized, penalty):
        expected = offline_min_cost_flow(realized, penalty)
        assert abs(offline_opt_exact(realized, penalty) - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_many_units_per_push_on_wide_triangular(self):
        inst = gen_upper_triangular(12, 30, 2.0, seed=4)
        for dist in (BINARY, TRI3):
            realized = sample_realized(inst, dist, seed=6)
            expected = offline_min_cost_flow(realized, 1.0)
            assert offline_opt_exact(realized, 1.0) == pytest.approx(expected, abs=1e-9)

    def test_non_finite_penalty_rejected(self):
        realized = RealizedInstance(Instance((1,), ((2, (0,)),)), (0.2, 0.4))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                offline_opt_exact(realized, bad)


def online_opt_recursive(instance, dist, penalty):
    # the memoized recursion online_opt_bruteforce replaced, with its three caps: a reference
    # whose float operations the iterative pass repeats in the same order
    if instance.total_demand > 8:
        raise SizeLimit(f"total demand {instance.total_demand} > 8")
    if instance.total_queries > 12:
        raise SizeLimit(f"{instance.total_queries} queries > 12")
    if dist.d > 3:
        raise SizeLimit(f"support size {dist.d} > 3")
    elig_seq = instance.expand()
    masses = dist.point_masses()
    support = dist.support
    memo = {}

    def value(i, remaining):
        if i == len(elig_seq):
            return -penalty * sum(remaining)
        key = (i, remaining)
        hit = memo.get(key)
        if hit is not None:
            return hit
        keep = value(i + 1, remaining)
        deliver_best = None
        for a in elig_seq[i]:
            if remaining[a] > 0:
                nxt = list(remaining)
                nxt[a] -= 1
                v = value(i + 1, tuple(nxt))
                if deliver_best is None or v > deliver_best:
                    deliver_best = v
        acc = 0.0
        for p, r in zip(masses, support):
            sell = r + keep
            acc += p * (sell if deliver_best is None else max(sell, deliver_best))
        memo[key] = acc
        return acc

    return value(0, instance.demands)


ONLINE_DISTS = (
    BINARY,
    TRI3,
    RewardDistribution.point_mass(0.3),
    RewardDistribution.binary(0.3, 0.7),
    RewardDistribution((0.2, 0.6), (0.5, 1.0)),
)


@st.composite
def online_instance(draw, max_demand, max_queries):
    # total demand and queries within the bounds (max_demand >= 4); zero-count groups and
    # empty eligibility sets
    demands = []
    for n in draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)):
        if sum(demands) + n > max_demand:
            break
        demands.append(n)
    elig = st.lists(st.integers(0, len(demands) - 1), max_size=len(demands))
    groups = []
    for count, ids in draw(st.lists(st.tuples(st.integers(0, 6), elig), min_size=1, max_size=4)):
        groups.append((min(count, max_queries - sum(c for c, _ in groups)), ids))
    return Instance(tuple(demands), tuple(groups))


class TestOnlineOptBruteforce:
    def test_hand_computed_case(self):
        inst = Instance((1,), ((2, (0,)),))
        assert online_opt_bruteforce(inst, BINARY, 1.0) == pytest.approx(0.375)

    def test_zero_queries_pure_penalty(self):
        inst = Instance((2, 1), ())
        assert online_opt_bruteforce(inst, BINARY, 1.0) == pytest.approx(-3.0)

    def test_point_mass_zero_rewards_deliver_greedily(self):
        point = RewardDistribution.point_mass(0.0)
        inst = Instance((2, 1), ((2, (0,)), (1, (0, 1))))
        # max deliverable is 3 via (0,0,1); value 0
        assert online_opt_bruteforce(inst, point, 1.0) == pytest.approx(0.0)

    def test_work_limit(self, monkeypatch):
        # m + 1 = 2 units for each vector and delivery and one per atom: (1,) before query 0
        # costs 2 * 2 + 2 = 6, and (1,), (0,) before query 1 cost 12 more
        inst = Instance((1,), ((2, (0,)),))
        monkeypatch.setattr(oracle, "_MAX_ONLINE_WORK", 17)
        with pytest.raises(SizeLimit, match="online work 18 exceeds the limit 17"):
            online_opt_bruteforce(inst, BINARY, 1.0)
        monkeypatch.setattr(oracle, "_MAX_ONLINE_WORK", 18)
        assert online_opt_bruteforce(inst, BINARY, 1.0) == 0.375
        # each query counts at least one unit, so more queries than the limit are refused before any is built
        monkeypatch.setattr(oracle, "_MAX_ONLINE_WORK", 1)
        with pytest.raises(SizeLimit, match="2 queries exceed the online work limit 1"):
            online_opt_bruteforce(inst, BINARY, 1.0)

    def test_many_advertisers_refused_before_the_layer_is_built(self):
        # few states but long vectors: the second query's 1001 vectors would have 1,001,000
        # deliveries of 1000 entries each (about 4 GB), and the count refuses them unbuilt
        first = 1001 * 1001 + 2
        inst = Instance((1,) * 1000, ((2, tuple(range(1000))),))
        with pytest.raises(SizeLimit, match=f"online work {first + 1001 * first} exceeds"):
            online_opt_bruteforce(inst, BINARY, 1.0)
        # with 5000 advertisers the first query alone is past the limit
        inst = Instance((1,) * 5000, ((2, tuple(range(5000))),))
        with pytest.raises(SizeLimit, match=f"online work {5001 * 5001 + 2} exceeds"):
            online_opt_bruteforce(inst, BINARY, 1.0)

    def test_served_past_the_old_caps(self):
        # total demand 9 and 12 queries, past the recursion's caps of 8 and 12
        assert online_opt_bruteforce(Instance((9,), ((12, (0,)),)), BINARY, 1.0) == 1.4886474609375
        # 4 atoms: V(1, (0,)) = E[r] = 0.16 and V(1, (1,)) = 0, so the first query is sold iff it bids above 0.16
        wide = RewardDistribution((0.0, 0.1, 0.2, 0.3), (0.2, 0.5, 0.7, 1.0))
        value = online_opt_bruteforce(Instance((1,), ((2, (0,)),)), wide, 1.0)
        assert value == pytest.approx(0.5 * 0.16 + 0.2 * 0.2 + 0.3 * 0.3)

    def test_dominates_threshold_policy(self):
        inst = Instance((1, 1), ((2, (0, 1)), (2, (1,))))
        f = max(1.0, supply_factor(inst))
        policy, _, _ = make_policy(BINARY, 1.0, f, N=2.0)
        e_alg, e_off = exhaustive_values(inst, BINARY, 1.0, policy)
        v_onl = online_opt_bruteforce(inst, BINARY, 1.0)
        assert e_alg <= v_onl + 1e-9
        assert v_onl <= e_off + 1e-9

    def test_sandwich_on_three_point_dist(self):
        inst = Instance((2, 1), ((3, (0, 1)), (2, (0,))))
        f = max(1.0, supply_factor(inst))
        policy, _, _ = make_policy(TRI3, 1.0, f, N=3.0)
        e_alg, e_off = exhaustive_values(inst, TRI3, 1.0, policy)
        v_onl = online_opt_bruteforce(inst, TRI3, 1.0)
        assert e_alg <= v_onl + 1e-9 <= e_off + 2e-9

    @settings(max_examples=200, deadline=None)
    @given(
        instance=online_instance(max_demand=8, max_queries=12),
        dist=st.sampled_from(ONLINE_DISTS),
        penalty=st.sampled_from((0.6, 1.0, 1.5)),
    )
    def test_equals_the_recursion_inside_its_caps(self, instance, dist, penalty):
        assert online_opt_bruteforce(instance, dist, penalty) == online_opt_recursive(instance, dist, penalty)

    def test_equals_the_recursion_on_the_sandwich_corpus(self):
        compared = 0
        for instance, dist, penalty in repro._sandwich_corpus():
            try:
                expected = online_opt_recursive(instance, dist, penalty)
            except SizeLimit:  # one of the two cases past the recursion's caps
                continue
            assert online_opt_bruteforce(instance, dist, penalty) == expected
            compared += 1
        assert compared == 24

    @settings(max_examples=25, deadline=None)
    @given(instance=online_instance(max_demand=16, max_queries=10), demand=st.integers(9, 12))
    def test_sandwich_past_the_old_caps(self, instance, demand):
        # total demand raised past 8 on the last advertiser; binary bids, so 2**10 realizations at most
        demands = instance.demands[:-1] + (instance.demands[-1] + max(0, demand - instance.total_demand),)
        instance = Instance(demands, instance.groups)
        f = max(1.0, supply_factor(instance))
        policy, _, _ = make_policy(BINARY, 1.0, f, N=float(instance.total_demand))
        e_alg, e_off = exhaustive_values(instance, BINARY, 1.0, policy)
        v_onl = online_opt_bruteforce(instance, BINARY, 1.0)
        assert e_alg <= v_onl + 1e-9 and v_onl <= e_off + 1e-9


class TestAdversaryLpTight:
    def test_first_entry(self):
        policy = ThresholdPolicy((0.3, 1.0), BINARY)
        beta = adversary_lp_tight(policy, 2.0, 1.0, 10)
        assert beta.dtype == np.float64 and beta.shape == (10,)
        assert beta[0] == pytest.approx(0.1)

    def test_binary_matches_piecewise_closed_form(self):
        N, t, f, q = 1.0, 10, 2.0, 0.5
        policy = ThresholdPolicy((0.3, 1.0), BINARY)
        beta = adversary_lp_tight(policy, f, N, t)
        st = 3
        for j in range(1, t + 1):
            if j <= st + 1:
                expected = (N / t) * (1 - 1 / (t * f)) ** (j - 1)
            else:
                expected = (
                    (N / t)
                    * (1 - 1 / (t * f)) ** st
                    * (1 - (1 / q) / (t * f)) ** (j - st - 1)
                )
            assert beta[j - 1] == pytest.approx(expected, abs=1e-12)

    def test_residuals_vanish(self):
        policy = ThresholdPolicy((0.25, 0.7, 1.0), TRI3)
        beta = adversary_lp_tight(policy, 1.5, 1.0, 300)
        resid = lp_residuals(beta, policy, 1.5, 1.0)
        assert resid["equality"] <= 1e-9
        assert resid["beta1"] == 0.0
        assert resid["negativity"] <= 1e-15

    def test_non_increasing(self):
        policy = ThresholdPolicy((0.25, 0.7, 1.0), TRI3)
        beta = adversary_lp_tight(policy, 1.5, 1.0, 300)
        assert np.all(np.diff(beta) <= 1e-15)

    def test_requires_t_at_least_two(self):
        policy = ThresholdPolicy((0.3, 1.0), BINARY)
        with pytest.raises(DomainError):
            adversary_lp_tight(policy, 2.0, 1.0, 1)


class TestRealizedInstance:
    def test_reward_count_checked(self):
        inst = Instance((1,), ((2, (0,)),))
        with pytest.raises(DomainError):
            RealizedInstance(inst, (0.0,))

    def test_non_finite_rewards_rejected(self):
        # a NaN reward used to make offline_opt_exact return nan
        inst = Instance((1,), ((2, (0,)),))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                RealizedInstance(inst, (0.2, bad))

    def test_sampled_rewards_on_support(self):
        inst = gen_upper_triangular(3, 2, 2.0, seed=0)
        realized = sample_realized(inst, TRI3, seed=5)
        assert set(realized.rewards) <= set(TRI3.support)

    def test_sampling_deterministic(self):
        inst = gen_upper_triangular(3, 2, 2.0, seed=0)
        a = sample_realized(inst, TRI3, seed=5)
        b = sample_realized(inst, TRI3, seed=5)
        assert a == b

    def test_kept_array_is_read_only(self):
        realized = sample_realized(gen_upper_triangular(4, 5, 2.0, seed=1), TRI3, seed=2)
        kept = realized._reward_array
        assert kept.dtype == np.float64 and kept.tolist() == list(realized.rewards)
        with pytest.raises(ValueError):
            kept[0] = 1.0

    def test_callers_array_is_copied(self):
        rewards = np.array([0.1, 0.2])
        realized = RealizedInstance(Instance((1,), ((2, (0,)),)), rewards)
        rewards[0] = 0.9
        assert realized.rewards == (0.1, 0.2) and realized._reward_array.tolist() == [0.1, 0.2]
        assert rewards.flags.writeable

    def test_array_is_no_part_of_the_value(self):
        inst = Instance((1,), ((2, (0,)),))
        a, b = RealizedInstance(inst, (0.1, 0.2)), RealizedInstance(inst, np.array([0.1, 0.2]))
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    def test_pickle_carries_no_array(self):
        realized = sample_realized(gen_upper_triangular(6, 5, 2.0, seed=3), TRI3, seed=4)
        data = pickle.dumps(realized)
        # the value alone, a fresh construction's, which a run does not change
        assert b"numpy" not in data
        assert data == pickle.dumps(RealizedInstance(realized.instance, realized.rewards))
        value = offline_opt_exact(realized, 1.0)
        assert pickle.dumps(realized) == data
        for back in (pickle.loads(data), copy.copy(realized), copy.deepcopy(realized), dataclasses.replace(realized)):
            kept = back._reward_array  # built again by construction
            assert kept is not realized._reward_array and kept.dtype == np.float64
            assert not kept.flags.writeable and kept.tolist() == list(realized.rewards)
            assert back == realized and offline_opt_exact(back, 1.0) == value
