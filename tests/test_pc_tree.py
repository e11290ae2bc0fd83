import random
from fractions import Fraction

import pytest

from conftest import random_instance
from mdkmlp import exact_oracles
from mdkmlp.pc_tree import (
    BipointTree,
    ProbeCache,
    RootedTree,
    budget_tree,
    coverage_tree,
    pc_tree,
    uniform_pc_tree,
)

F = Fraction


class TestRootedTree:
    def test_nodes_and_coverage(self):
        t = RootedTree(root="r", arcs=frozenset({("r", "a"), ("a", "b")}), cost=F(3))
        assert t.nodes == {"r", "a", "b"}
        assert t.coverage == 3

    def test_two_parents_rejected(self):
        with pytest.raises(ValueError, match="out-tree"):
            RootedTree(
                root="r",
                arcs=frozenset({("r", "a"), ("b", "a")}),
                cost=F(0),
            )

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="out-tree"):
            RootedTree(
                root="r", arcs=frozenset({("a", "b"), ("b", "a")}), cost=F(0)
            )

    def test_arc_into_root_rejected(self):
        with pytest.raises(ValueError, match="out-tree"):
            RootedTree(root="r", arcs=frozenset({("a", "r")}), cost=F(0))


class TestBipointTree:
    def test_convex_accounting(self):
        t1 = RootedTree(root="r", arcs=frozenset({("r", "a")}), cost=F(1))
        t2 = RootedTree(
            root="r", arcs=frozenset({("r", "a"), ("a", "b")}), cost=F(3)
        )
        bp = BipointTree(a=F(1, 2), b=F(1, 2), T1=t1, T2=t2)
        assert bp.cost == 2
        assert bp.expected_coverage == F(5, 2)
        assert bp.expected_weight(lambda v: 1) == F(5, 2)

    def test_coefficients_must_sum_to_one(self):
        t1 = RootedTree(root="r", arcs=frozenset(), cost=F(0))
        with pytest.raises(ValueError, match="sum to 1"):
            BipointTree(a=F(1, 2), b=F(1, 4), T1=t1, T2=t1)

    def test_mismatched_roots_rejected(self):
        t1 = RootedTree(root="r", arcs=frozenset(), cost=F(0))
        t2 = RootedTree(root="s", arcs=frozenset(), cost=F(0))
        with pytest.raises(ValueError, match="root"):
            BipointTree(a=F(1, 2), b=F(1, 2), T1=t1, T2=t2)


class TestPcTree:
    def test_high_penalties(self, fix_a):
        # full cover: the path r -> a -> b of cost 1 + 2 = 3
        tree, obj = pc_tree(fix_a, "r", {"a": F(10), "b": F(10)})
        assert obj == 3
        assert tree.nodes == {"r", "a", "b"}

    def test_zero_penalties(self, fix_a):
        tree, obj = pc_tree(fix_a, "r", {"a": F(0), "b": F(0)})
        assert obj == 0
        assert tree.nodes == {"r"}

    def test_uniform_lambda_one(self, fix_a):
        tree, obj = uniform_pc_tree(fix_a, "r", F(1))
        assert obj == 2

    def test_negative_lambda_rejected(self, fix_a):
        with pytest.raises(ValueError):
            uniform_pc_tree(fix_a, "r", F(-1))

    def test_never_exceeds_exact_path_collections(self):
        rng = random.Random(23)
        for _ in range(15):
            inst = random_instance(rng, rng.randint(2, 5), 1)
            root = inst.roots[0]
            pen = {v: F(rng.randint(0, 8)) for v in inst.clients}
            tree, obj = pc_tree(inst, root, pen)
            exact = exact_oracles.exact_pc_paths(inst, root, pen)
            assert obj <= exact.value
            uncovered = sum(
                p for v, p in pen.items() if v not in tree.nodes
            )
            assert tree.cost + uncovered == obj


class TestCoverageTree:
    def test_fix_a_b2(self, fix_a):
        out = coverage_tree(fix_a, "r", 2)
        assert isinstance(out, RootedTree)
        assert out.cost == 1
        assert out.coverage == 2

    def test_fix_a_b3(self, fix_a):
        out = coverage_tree(fix_a, "r", 3)
        assert isinstance(out, RootedTree)
        assert out.cost == 3
        assert out.nodes == {"r", "a", "b"}

    def test_b1_is_trivial(self, fix_a):
        out = coverage_tree(fix_a, "r", 1)
        assert out.cost == 0
        assert out.coverage == 1

    def test_out_of_range_rejected(self, fix_a):
        with pytest.raises(ValueError):
            coverage_tree(fix_a, "r", 0)
        with pytest.raises(ValueError):
            coverage_tree(fix_a, "r", 4)

    def test_cache_shares_one_model_per_instance_and_root(self, fix_a):
        cache = ProbeCache()
        coverage_tree(fix_a, "r", 2, cache=cache)
        model, probes = cache.model, dict(cache.probes)
        coverage_tree(fix_a, "r", 3, cache=cache)
        assert cache.model is model
        assert cache.probes.items() >= probes.items()
        with pytest.raises(ValueError, match="another instance or root"):
            coverage_tree(fix_a, "a", 2, cache=cache)

    def test_hits_target_and_cost_bound(self):
        rng = random.Random(29)
        for _ in range(12):
            inst = random_instance(rng, rng.randint(2, 6), 1)
            root = inst.roots[0]
            cache = ProbeCache()
            for B in range(1, inst.n + 1):
                out = coverage_tree(inst, root, B, cache=cache)
                bound = exact_oracles.exact_cover_cost(inst, root, B).value
                if isinstance(out, RootedTree):
                    assert out.coverage >= B
                    assert out.cost <= bound
                else:
                    assert out.expected_coverage == B
                    assert out.cost <= bound


class TestBudgetTree:
    def test_fix_a_budget_one(self, fix_a):
        out = budget_tree(fix_a, "r", {}, F(1))
        assert isinstance(out, RootedTree)
        assert out.cost == 1
        assert out.nodes == {"r", "a"}

    def test_fix_a_budget_two_is_bipoint(self, fix_a):
        out = budget_tree(fix_a, "r", {}, F(2))
        assert isinstance(out, BipointTree)
        assert out.cost == 2
        assert out.expected_weight(lambda v: 1 if v != "r" else 0) == F(3, 2)

    def test_budget_above_full_cover_returns_full_tree(self, fix_a):
        out = budget_tree(fix_a, "r", {}, F(100))
        assert isinstance(out, RootedTree)
        assert out.nodes == {"r", "a", "b"}
        assert out.cost == 3

    def test_negative_budget_rejected(self, fix_a):
        with pytest.raises(ValueError):
            budget_tree(fix_a, "r", {}, F(-1))

    def test_weight_dominates_exact_budget_cover(self):
        rng = random.Random(37)
        for _ in range(10):
            inst = random_instance(rng, rng.randint(2, 5), 1)
            root = inst.roots[0]
            w = {v: F(rng.randint(1, 4)) for v in inst.clients}
            full = sum(
                F(inst.dist(u, v))
                for u, v in zip(inst.nodes, inst.nodes[1:])
            )
            C = F(rng.randint(0, int(full) + 1))
            out = budget_tree(inst, root, w, C)
            exact = exact_oracles.exact_budget_cover(inst, root, C, w).value
            wfun = lambda v: w.get(v, F(0))
            if isinstance(out, RootedTree):
                assert out.cost <= C
                got = sum((wfun(v) for v in out.nodes), F(0))
            else:
                assert out.cost == C
                got = out.expected_weight(wfun)
            assert got >= exact
