import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_instance
from mdkmlp.exact_oracles import (
    OracleGuardError,
    bnslb,
    exact_bottleneck_stroll,
    exact_cover_cost,
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
        assert exact_bottleneck_stroll(fix_a, 1).value == 0
        assert exact_bottleneck_stroll(fix_a, 2).value == 1
        assert exact_bottleneck_stroll(fix_a, 3).value == 3

    def test_fix_a_table(self, fix_a):
        table = bnslb(fix_a)
        assert table.values == (F(0), F(1), F(3))
        assert table.bnslb == 4

    def test_fix_b_table(self, fix_b):
        table = bnslb(fix_b)
        assert table.values == (F(0), F(0), F(1), F(1))
        assert table.bnslb == 2

    def test_out_of_range(self, fix_a):
        with pytest.raises(ValueError):
            exact_bottleneck_stroll(fix_a, 0)
        with pytest.raises(ValueError):
            exact_bottleneck_stroll(fix_a, 4)

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
                stroll = exact_bottleneck_stroll(inst, ell)
                assert (stroll.value, stroll.witness) == (b, table.witnesses[ell - 1])
                routes = table.witnesses[ell - 1]
                covered = set().union(*(set(rt) for rt in routes)) | inst.root_set
                assert len(covered) >= ell
                prev = b
            assert table.bnslb <= opt


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
        assert exact_cover_cost(fix_a, "r", 1).value == 0
        assert exact_cover_cost(fix_a, "r", 2).value == 1
        assert exact_cover_cost(fix_a, "r", 3).value == 3
