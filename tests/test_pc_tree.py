import random
from fractions import Fraction

import pytest

from conftest import random_instance
from mdkmlp import arb_packing, exact_oracles
from mdkmlp import pc_tree as pc_tree_mod
from mdkmlp.pc_tree import (
    BipointTree,
    ProbeCache,
    RootedTree,
    coverage_tree,
    pc_tree,
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



class TestProbeCacheFamilies:
    """A coverage search packs each distinct PC-LP vertex (K, scaled caps)
    once, and its trees are those of a search that packs every probe."""

    @staticmethod
    def _searches(fresh_family_per_probe):
        packed, instance = [], [0]
        real_pack = arb_packing.pack_arborescences
        real_probe = pc_tree_mod._pc_tree_probe

        def pack(D, r, K):
            packed.append((instance[0], K, frozenset(D.arcs.items())))
            return real_pack(D, r, K)

        def probe(cache, penalties):
            if fresh_family_per_probe:
                cache.families.clear()
            return real_probe(cache, penalties)

        rng = random.Random(47)
        trees = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arb_packing, "pack_arborescences", pack)
            mp.setattr(pc_tree_mod, "_pc_tree_probe", probe)
            for instance[0] in range(6):
                inst = random_instance(rng, rng.randint(4, 6), 1)
                cache = ProbeCache()
                for B in range(1, inst.n + 1):
                    out = coverage_tree(inst, inst.roots[0], B, cache=cache)
                    parts = [out] if isinstance(out, RootedTree) else [out.T1, out.T2]
                    trees.append([(t.arcs, t.cost) for t in parts])
        return trees, packed

    def test_each_vertex_packed_once_with_the_same_trees(self):
        trees, packed = self._searches(False)
        ref_trees, ref_packed = self._searches(True)
        assert len(packed) == len(set(packed))
        assert set(packed) == set(ref_packed)
        assert len(ref_packed) > len(packed)
        assert trees == ref_trees
