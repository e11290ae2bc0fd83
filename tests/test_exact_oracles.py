import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_instance
from reference import bottleneck_picks, exact_cover_cost, orienteering_pick
from mdkmlp.exact_oracles import (
    BnsTable,
    OracleGuardError,
    bnslb,
    exact_kmlp,
    exact_orienteering,
    exact_pc_paths,
)
from mdkmlp.instance import MetricInstance, evaluate_plan
from mdkmlp.pc_tree import pc_tree

F = Fraction


def brute_bottleneck_strolls(inst):
    """b*_1..b*_n by enumeration: over every k-tuple of simple paths, path i
    from roots[i] through any nodes, the least longest path of a tuple that
    covers at least l nodes. Each root keeps its cheapest path per node set."""
    per_root = []
    for r in inst.roots:
        others = [v for v in inst.nodes if v != r]
        cheapest = {}
        for m in range(len(others) + 1):
            for tail in itertools.permutations(others, m):
                path = (r,) + tail
                cost = sum(inst.dist(u, v) for u, v in zip(path, path[1:]))
                key = frozenset(path)
                if key not in cheapest or cost < cheapest[key]:
                    cheapest[key] = cost
        per_root.append(list(cheapest.items()))
    best = [None] * (inst.n + 1)
    for combo in itertools.product(*per_root):
        cover = len(frozenset().union(*(nodes for nodes, _ in combo)))
        cost = max(c for _, c in combo)
        for ell in range(1, cover + 1):
            if best[ell] is None or cost < best[ell]:
                best[ell] = cost
    return best[1:]


def tie_heavy_instances():
    """Instances with every off-diagonal cost equal, so that many client
    sets tie: n = 3..7, k = 1..3 vehicles at distinct or shared depots."""
    for n in range(3, 8):
        nodes = tuple(f"v{i}" for i in range(n))
        c = 1 + n % 2
        cost = tuple(tuple(0 if i == j else c for j in range(n)) for i in range(n))
        for k in range(1, min(3, n - 1) + 1):
            for roots in dict.fromkeys([nodes[:k], (nodes[0],) * k]):
                yield MetricInstance(nodes=nodes, roots=roots, cost=cost)


class TestExactKmlp:
    def test_fix_a(self, fix_a):
        res = exact_kmlp(fix_a)
        assert res.value == 4
        assert res.witness.routes == (("r", "a", "b"),)

    def test_fix_b(self, fix_b):
        res = exact_kmlp(fix_b)
        assert res.value == 2
        assert set(res.witness.routes) == {("r1", "a"), ("r2", "b")}

    def test_no_clients(self):
        inst = MetricInstance(nodes=("r",), roots=("r",), cost=((0,),))
        res = exact_kmlp(inst)
        assert res.value == 0
        assert res.witness.routes == (("r",),)

    def test_guard_trips_loudly(self):
        n = 12
        cost = tuple(
            tuple(abs(i - j) for j in range(n)) for i in range(n)
        )
        inst = MetricInstance(
            nodes=tuple(f"v{i}" for i in range(n)), roots=("v0",), cost=cost
        )
        with pytest.raises(OracleGuardError, match="clients"):
            exact_kmlp(inst)

    def test_witness_reaches_value(self):
        rng = random.Random(11)
        for _ in range(12):
            inst = random_instance(
                rng, rng.randint(2, 6), rng.randint(1, 2),
                weights=rng.random() < 0.5,
                service=rng.random() < 0.5,
                allowed=rng.random() < 0.5,
            )
            res = exact_kmlp(inst)
            assert evaluate_plan(inst, res.witness) == res.value


class TestBottleneckStroll:
    def test_fix_a_values(self, fix_a):
        table = bnslb(fix_a)
        assert (table.values[0], table.witnesses[0]) == (0, (("r",),))
        assert (table.values[1], table.witnesses[1]) == (1, (("r", "a"),))
        assert (table.values[2], table.witnesses[2]) == (3, (("r", "a", "b"),))

    def test_fix_a_table(self, fix_a):
        table = bnslb(fix_a)
        assert table.values == (F(0), F(1), F(3))
        assert table.bnslb == 4

    def test_fix_b_table(self, fix_b):
        table = bnslb(fix_b)
        assert table.values == (F(0), F(0), F(1), F(1))
        assert table.bnslb == 2

    def test_bound_is_derived_from_the_values(self, fix_a):
        table = bnslb(fix_a)
        assert [f.name for f in dataclasses.fields(table)] == ["values", "witnesses", "offset"]
        with pytest.raises(TypeError):
            BnsTable(values=table.values, witnesses=table.witnesses, bnslb=F(5))
        with pytest.raises(AttributeError):
            table.bnslb = F(5)
        assert table.offset == 0
        assert table.bnslb == sum(table.values) == 4

    def test_service_table_is_the_reductions_halved(self, fix_a):
        # d' = 2c + d_u + d_v with d_a = 1: b'_l = 0, 3, 8 on the same
        # witnesses, stored halved, and the offset is shift/2 = 1/2
        inst = dataclasses.replace(fix_a, service={"a": 1})
        table = bnslb(inst)
        assert table.values == (0, F(3, 2), 4)
        assert table.witnesses == bnslb(fix_a).witnesses
        assert table.offset == F(1, 2)
        assert table.bnslb == 6 == exact_kmlp(inst).value

    def test_table_consistency(self):
        rng = random.Random(13)
        for _ in range(10):
            inst = random_instance(rng, rng.randint(2, 6), rng.randint(1, 2))
            table = bnslb(inst)
            opt = exact_kmlp(
                MetricInstance(nodes=inst.nodes, roots=inst.roots, cost=inst.cost)
            ).value
            brute = brute_bottleneck_strolls(inst)
            # nondecreasing, matches the enumeration, and lower-bounds OPT
            prev = F(0)
            for ell in range(1, inst.n + 1):
                b = table.values[ell - 1]
                assert b >= prev
                assert b == brute[ell - 1]
                routes = table.witnesses[ell - 1]
                covered = set().union(*(set(rt) for rt in routes)) | inst.root_set
                assert len(covered) >= ell
                prev = b
            assert table.bnslb <= opt


    def test_ties_go_to_the_lowest_mask_then_the_larger_size(self):
        # per size the lowest mask of least bottleneck; across sizes that
        # tie, the larger size
        rng = random.Random(41)
        cases = list(tie_heavy_instances()) + [
            random_instance(rng, rng.randint(3, 6), rng.randint(1, 3), span=2)
            for _ in range(8)
        ]
        for inst in cases:
            table = bnslb(inst)
            free = len(inst.root_set)
            for need, (val, U) in enumerate(bottleneck_picks(inst), 1):
                routes = table.witnesses[free + need - 1]
                assert table.values[free + need - 1] == val, (inst.roots, need)
                assert [route[0] for route in routes] == list(inst.roots)
                assert {v for route in routes for v in route[1:]} == U, (inst.roots, need)


class TestOrienteering:
    def test_fix_a_budget_one(self, fix_a):
        res = exact_orienteering(fix_a, "r", F(1), {"a": F(1), "b": F(1)})
        assert res.value == 1
        assert res.witness == ("r", "a")

    def test_fix_a_budget_three(self, fix_a):
        res = exact_orienteering(fix_a, "r", F(3), {"a": F(1), "b": F(1)})
        assert res.value == 2
        assert res.witness == ("r", "a", "b")

    def test_zero_budget(self, fix_a):
        res = exact_orienteering(fix_a, "r", F(0), {"a": F(1), "b": F(1)})
        assert res.value == 0
        assert res.witness == ("r",)

    def test_ties_go_to_the_first_mask_of_largest_reward(self):
        rng = random.Random(42)
        for inst in tie_heavy_instances():
            c = inst.dist(*inst.nodes[:2])
            for root in inst.nodes[:2]:
                rewards = {v: rng.randint(0, 2) for v in inst.nodes if v != root}
                for budget in (0, c, F(5 * c, 2), 4 * c):
                    res = exact_orienteering(inst, root, budget, rewards)
                    val, C = orienteering_pick(inst, root, budget, rewards)
                    assert res.value == val
                    assert res.witness[0] == root and set(res.witness[1:]) == C
                    assert c * len(C) <= budget

    def test_nonzero_root_reward_rejected(self, fix_a):
        with pytest.raises(ValueError, match="root reward"):
            exact_orienteering(fix_a, "r", F(1), {"r": F(1)})

    def test_guard(self):
        n = 13
        cost = tuple(tuple(abs(i - j) for j in range(n)) for i in range(n))
        inst = MetricInstance(
            nodes=tuple(f"v{i}" for i in range(n)), roots=("v0",), cost=cost
        )
        with pytest.raises(OracleGuardError, match="orienteering"):
            exact_orienteering(inst, "v0", F(1), {})


class TestPcPaths:
    def test_fix_a_high_penalties(self, fix_a):
        res = exact_pc_paths(fix_a, "r", {"a": F(10), "b": F(10)})
        assert res.value == 3
        assert res.witness == (("r", "a", "b"),)

    def test_fix_a_zero_penalties(self, fix_a):
        res = exact_pc_paths(fix_a, "r", {})
        assert res.value == 0
        assert res.witness == ()

    def test_fix_a_low_penalties(self, fix_a):
        res = exact_pc_paths(fix_a, "r", {"a": F(2, 5), "b": F(2, 5)})
        assert res.value == F(4, 5)

    def test_negative_penalty_rejected(self, fix_a):
        with pytest.raises(ValueError, match="negative"):
            exact_pc_paths(fix_a, "r", {"a": F(-1)})

    def test_dominates_tree_relaxation(self):
        rng = random.Random(17)
        for _ in range(10):
            inst = random_instance(rng, rng.randint(2, 6), 1)
            root = inst.roots[0]
            lam = F(rng.randint(0, 6))
            pen = {v: lam for v in inst.clients}
            paths = exact_pc_paths(inst, root, pen)
            _, tree_obj = pc_tree(inst, root, {v: lam for v in inst.clients})
            assert tree_obj <= paths.value


class TestCoverOracles:
    def test_cover_cost_examples(self, fix_a):
        assert exact_cover_cost(fix_a, "r", 1) == 0
        assert exact_cover_cost(fix_a, "r", 2) == 1
        assert exact_cover_cost(fix_a, "r", 3) == 3
