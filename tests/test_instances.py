import json

import pytest

from yieldopt.errors import DomainError, NonIntegralGroupSize
from yieldopt.instances import (
    Instance,
    complete_instance,
    gen_upper_triangular,
    supply_factor,
)


class TestGenUpperTriangular:
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
            assert supply_factor(inst) == pytest.approx(f, abs=1e-6)

    def test_permutation_depends_on_seed(self):
        a = gen_upper_triangular(m=6, n=1, f=1.0, seed=1)
        b = gen_upper_triangular(m=6, n=1, f=1.0, seed=2)
        assert a.groups != b.groups
        assert a == gen_upper_triangular(m=6, n=1, f=1.0, seed=1)


class TestInstanceValidation:
    def test_declared_supply_must_match_queries(self):
        with pytest.raises(DomainError):
            Instance((2, 2), ((5, (0, 1)),), supply=2.0)  # needs 8 queries

    def test_non_integral_supply_times_demand(self):
        with pytest.raises(DomainError):
            Instance((1, 1, 1), ((5, (0, 1, 2)),), supply=1.7)

    def test_eligibility_ids_checked(self):
        with pytest.raises(DomainError):
            Instance((1,), ((1, (0, 3)),))

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
        with pytest.raises(DomainError):
            Instance((1,), ((2, (0,)),), supply=float("nan"))

    def test_expand_order(self):
        inst = Instance((1, 1), ((2, (0, 1)), (1, (1,))))
        assert inst.expand() == [(0, 1), (0, 1), (1,)]


class TestSupplyFactor:
    def test_complete_bipartite(self):
        for f in (1.0, 1.5, 2.0, 3.0):
            inst = complete_instance(m=3, n=4, f=f)
            assert supply_factor(inst) == pytest.approx(f, abs=1e-6)

    def test_empty_eligibility_gives_zero(self):
        inst = Instance((1, 1), ((3, (0,)),))
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


class TestJsonRoundtrip:
    def test_roundtrip(self):
        inst = gen_upper_triangular(m=3, n=2, f=2.0, seed=4)
        back = Instance.from_json(inst.to_json())
        assert back == inst

    def test_wire_format(self):
        inst = Instance((1, 2), ((2, (0, 1)), (1, (1,))), supply=1.0)
        obj = json.loads(inst.to_json())
        assert obj["demands"] == [1, 2]
        assert obj["groups"][0] == {"count": 2, "eligible": [0, 1]}
        assert obj["supply_factor"] == 1.0

    def test_bad_json_rejected(self):
        with pytest.raises(DomainError):
            Instance.from_json('{"demands": [1]}')
