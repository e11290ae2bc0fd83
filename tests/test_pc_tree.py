import random
from fractions import Fraction

import pytest

from conftest import random_instance
from reference import exact_cover_cost, hull_split
from mdkmlp import arb_packing, exact_oracles, lp_toolkit
from mdkmlp import pc_tree as pc_tree_mod
from mdkmlp.pc_tree import RootedTree, coverage_tree, pc_tree

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
        tree, obj = pc_tree(fix_a, "r", {"a": F(1), "b": F(1)})
        assert obj == 2

    def test_negative_lambda_rejected(self, fix_a):
        with pytest.raises(ValueError, match="negative penalty"):
            pc_tree(fix_a, "r", {"a": F(-1), "b": F(-1)})

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
    def test_fix_a_trees_in_the_order_met(self, fix_a):
        # lam = 0 meets the trivial tree, lam = 10 the path r -> a -> b, and
        # their crossing at lam = 3/2 the arc r -> a
        trees = coverage_tree(fix_a, "r")
        assert [(t.arcs, t.cost) for t in trees] == [
            (frozenset(), 0),
            (frozenset({("r", "a"), ("a", "b")}), 3),
            (frozenset({("r", "a")}), 1),
        ]

    def test_fix_a_b2(self, fix_a):
        (out,) = hull_split(coverage_tree(fix_a, "r"), 2)
        assert out.cost == 1
        assert out.coverage == 2

    def test_fix_a_b3(self, fix_a):
        (out,) = hull_split(coverage_tree(fix_a, "r"), 3)
        assert out.cost == 3
        assert out.nodes == {"r", "a", "b"}

    def test_b1_is_trivial(self, fix_a):
        (out,) = hull_split(coverage_tree(fix_a, "r"), 1)
        assert out.cost == 0
        assert out.coverage == 1

    def test_hits_target_and_cost_bound(self):
        rng = random.Random(29)
        for _ in range(12):
            inst = random_instance(rng, rng.randint(2, 6), 1)
            root = inst.roots[0]
            trees = coverage_tree(inst, root)
            for B in range(1, inst.n + 1):
                out = hull_split(trees, B)
                bound = exact_cover_cost(inst, root, B)
                if len(out) == 1:
                    assert out[0].coverage == B
                    assert out[0].cost <= bound
                else:
                    a, T1, T2 = out
                    assert a * T1.coverage + (1 - a) * T2.coverage == B
                    assert a * T1.cost + (1 - a) * T2.cost <= bound

    def test_trees_meet_the_pclp_value_at_every_penalty(self):
        # the walk met a vertex optimal at every lam, so some tree's cost
        # plus lam per uncovered node is at most a fresh PC-LP's value
        rng = random.Random(31)
        for _ in range(8):
            inst = random_instance(rng, rng.randint(3, 6), 1)
            root = inst.roots[0]
            trees = coverage_tree(inst, root)
            for _ in range(6):
                lam = F(rng.randint(0, 40), rng.randint(1, 6))
                pen = {v: lam for v in inst.clients}
                sol = lp_toolkit.build_and_solve_pclp(
                    lp_toolkit.pclp_model(inst, root), pen
                )
                assert min(
                    t.cost + lam * (inst.n - t.coverage) for t in trees
                ) <= sol.objective_value


class TestProbeCacheFamilies:
    """The probes of one walk share a cache of packings: the walk packs each
    distinct PC-LP vertex (K, scaled caps) once, and returns the trees of a
    walk that packs every probe afresh."""

    @staticmethod
    def _walks(fresh_family_per_probe):
        packed, instance = [], [0]
        real_pack = arb_packing.pack_arborescences
        real_probe = pc_tree_mod._pc_tree_probe

        def pack(D, r, K):
            packed.append((instance[0], K, frozenset(D.arcs.items())))
            return real_pack(D, r, K)

        def probe(model, penalties, families):
            if fresh_family_per_probe:
                families.clear()
            return real_probe(model, penalties, families)

        rng = random.Random(47)
        trees = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arb_packing, "pack_arborescences", pack)
            mp.setattr(pc_tree_mod, "_pc_tree_probe", probe)
            for instance[0] in range(6):
                inst = random_instance(rng, rng.randint(4, 6), 1)
                out = coverage_tree(inst, inst.roots[0])
                trees.append([(t.arcs, t.cost) for t in out])
        return trees, packed

    def test_each_vertex_packed_once_with_the_same_trees(self):
        trees, packed = self._walks(False)
        ref_trees, ref_packed = self._walks(True)
        assert len(packed) == len(set(packed))
        assert set(packed) == set(ref_packed)
        assert len(ref_packed) > len(packed)
        assert trees == ref_trees
