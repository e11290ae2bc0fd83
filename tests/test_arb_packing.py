import random

import pytest

from conftest import random_digraph
from reference import connectivity, covered, verify_packing
from mdkmlp import flows
from mdkmlp.arb_packing import (
    ArbFamily,
    PackingError,
    WeightedDigraph,
    all_pairs_connectivity,
    eulerianize,
    max_splittable,
    pack_arborescences,
)


def _numbered(D):
    """D's arc weights on its nodes' positions in D.nodes."""
    index = {v: i for i, v in enumerate(D.nodes)}
    return {(index[u], index[v]): w for (u, v), w in D.arcs.items()}


def _balance(n, arcs):
    """in-weight - out-weight of each node 0..n-1."""
    excess = [0] * n
    for (u, v), w in arcs.items():
        excess[u] -= w
        excess[v] += w
    return excess


class TestConnectivity:
    """The reference lambda, a minimum over enumerated node sets."""

    def test_single_arc(self):
        D = WeightedDigraph(nodes=("r", "u"), arcs={("r", "u"): 2, ("u", "r"): 2})
        assert connectivity(D, "r", "u") == 2

    def test_two_disjoint_paths(self):
        D = WeightedDigraph(
            nodes=("r", "u", "v"),
            arcs={("r", "u"): 1, ("u", "v"): 1, ("r", "v"): 1},
        )
        assert connectivity(D, "r", "v") == 2

    def test_disconnected(self):
        D = WeightedDigraph(nodes=("r", "u", "v"), arcs={("r", "u"): 1})
        assert connectivity(D, "r", "v") == 0

    def test_unknown_node(self):
        D = WeightedDigraph(nodes=("r", "u"), arcs={("r", "u"): 1})
        with pytest.raises(ValueError, match="unknown node"):
            connectivity(D, "r", "zz")

    def test_equals_max_flow_value(self):
        rng = random.Random(5)
        pairs = 0
        for _ in range(100):
            D, _ = random_digraph(rng, max_nodes=8, max_w=9)
            caps = _numbered(D)
            for i, x in enumerate(D.nodes):
                for j, y in enumerate(D.nodes):
                    if x != y:
                        flow = flows.max_flow_value(len(D.nodes), caps, i, j)
                        assert connectivity(D, x, y) == flow
                        pairs += 1
        assert pairs > 1000


class TestEulerianize:
    """Int states: node i is the i-th name, r = 0."""

    def test_single_imbalance(self):
        out = eulerianize(("r", "u"), {(0, 1): 2}, 0)
        assert out[(1, 0)] == 2
        assert _balance(2, out) == [0, 0]

    def test_eulerian_unchanged(self):
        arcs = {(0, 1): 3, (1, 0): 3}
        assert eulerianize(("r", "u"), arcs, 0) == arcs

    def test_hypothesis_violation_reported(self):
        with pytest.raises(PackingError, match="'u'"):
            eulerianize(("r", "u", "v"), {(0, 1): 1, (1, 2): 3}, 0)


class TestMaxSplittable:
    """Int states on nodes r, u, v = 0, 1, 2."""

    def test_triangle_preserving_connectivity(self):
        arcs = {(0, 1): 1, (1, 2): 1, (2, 0): 1}
        assert max_splittable(3, arcs, (0, 1), (1, 2), {(0, 2): 1}) == 1

    def test_empty_protection_takes_all(self):
        arcs = {(0, 1): 2, (1, 2): 3, (2, 0): 2}
        assert max_splittable(3, arcs, (0, 1), (1, 2), {}) == 2

    def test_zero_weight_arc_rejected(self):
        with pytest.raises(ValueError):
            max_splittable(3, {(0, 1): 1, (2, 0): 1}, (0, 1), (1, 2), {})

    def test_mismatched_middle_rejected(self):
        with pytest.raises(ValueError, match="middle"):
            max_splittable(3, {(0, 1): 1, (2, 0): 1}, (0, 1), (2, 0), {})


class TestPackArborescences:
    def test_single_arc(self):
        D = WeightedDigraph(nodes=("r", "u"), arcs={("r", "u"): 2})
        fam = pack_arborescences(D, "r", 2)
        assert verify_packing(D, "r", 2, fam).ok
        assert covered(fam, "r", "u") == 2

    def test_two_path_example(self):
        D = WeightedDigraph(
            nodes=("r", "u", "v"),
            arcs={("r", "u"): 1, ("u", "v"): 1, ("r", "v"): 1},
        )
        fam = pack_arborescences(D, "r", 2)
        assert verify_packing(D, "r", 2, fam).ok
        assert covered(fam, "r", "u") >= 1  # min(2, lambda=1)
        assert covered(fam, "r", "v") == 2  # min(2, lambda=2)

    def test_k_zero(self):
        D = WeightedDigraph(nodes=("r", "u"), arcs={("r", "u"): 2})
        fam = pack_arborescences(D, "r", 0)
        assert fam.members == ()
        assert verify_packing(D, "r", 0, fam).ok

    @pytest.mark.parametrize(
        "nodes, arcs, message",
        [
            (("r", "u", "r"), {}, "duplicate nodes"),
            (("r", "u"), {("u", "u"): 1}, "self-loop at 'u'"),
            (("r", "u"), {("r", "x"): 1}, "arc ('r','x') uses unknown node"),
            (("r", "u"), {("r", "u"): -1}, "invalid weight on ('r','u')"),
            (("r", "u"), {("r", "u"): True}, "invalid weight on ('r','u')"),
            (("r", "u"), {("r", "u"): 1.0}, "invalid weight on ('r','u')"),
        ],
        ids=["duplicate-nodes", "self-loop", "unknown-node", "negative", "bool", "float"],
    )
    def test_digraph_refusal(self, nodes, arcs, message):
        with pytest.raises(ValueError) as exc:
            WeightedDigraph(nodes=nodes, arcs=arcs)
        assert str(exc.value) == message

    @pytest.mark.parametrize("K", [-1, True, False, 1.0])
    def test_k_must_be_a_nonnegative_int(self, K):
        D = WeightedDigraph(nodes=("r", "u"), arcs={("r", "u"): 2})
        with pytest.raises(PackingError) as exc:
            pack_arborescences(D, "r", K)
        assert str(exc.value) == "K must be a nonnegative integer"

    def test_unknown_root_refused(self):
        D = WeightedDigraph(nodes=("r", "u"), arcs={("r", "u"): 2})
        with pytest.raises(ValueError) as exc:
            pack_arborescences(D, "x", 1)
        assert str(exc.value) == "unknown root 'x'"


class TestVerifyPacking:
    def test_round_trip_passes(self):
        rng = random.Random(17)
        for _ in range(10):
            D, r = random_digraph(rng)
            K = rng.randint(0, 5)
            fam = pack_arborescences(D, r, K)
            report = verify_packing(D, r, K, fam)
            assert report.ok, report.failures

    def test_capacity_overuse_detected(self):
        D = WeightedDigraph(nodes=("r", "u"), arcs={("r", "u"): 1})
        bad = ArbFamily(members=((2, frozenset({("r", "u")})),))
        report = verify_packing(D, "r", 2, bad)
        assert not report.ok
        assert any("capacity" in f for f in report.failures)

    def test_weight_total_mismatch_detected(self):
        D = WeightedDigraph(nodes=("r", "u"), arcs={("r", "u"): 2})
        bad = ArbFamily(members=((1, frozenset({("r", "u")})),))
        report = verify_packing(D, "r", 2, bad)
        assert not report.ok
        assert any("weight total" in f for f in report.failures)

    @pytest.mark.parametrize(
        "arcs, K, members, failure",
        [
            pytest.param(
                {("r", "u"): 2}, 2,
                ((0, {("r", "u")}), (2, {("r", "u")})),
                "nonpositive member weight 0",
                id="nonpositive-weight",
            ),
            pytest.param(
                {("r", "u"): 1, ("r", "v"): 1, ("v", "u"): 1}, 1,
                ((1, {("r", "u"), ("r", "v"), ("v", "u")}),),
                "has a doubled parent",
                id="doubled-parent",
            ),
            pytest.param(
                {("r", "u"): 1, ("u", "r"): 1}, 1,
                ((1, {("r", "u"), ("u", "r")}),),
                "member has an arc into the root",
                id="arc-into-root",
            ),
            pytest.param(
                {("r", "u"): 1, ("u", "v"): 1}, 1,
                ((1, {("u", "v")}),),
                "member not reachable from root",
                id="unreachable-member",
            ),
            pytest.param(
                {("r", "u"): 2}, 2,
                ((2, set()),),
                "node 'u' covered 0 < min(K, lambda)=2",
                id="coverage-shortfall",
            ),
        ],
    )
    def test_each_failure_mode_detected_alone(self, arcs, K, members, failure):
        nodes = tuple(sorted({x for a in arcs for x in a}))
        D = WeightedDigraph(nodes=nodes, arcs=arcs)
        bad = ArbFamily(members=tuple((g, frozenset(F)) for g, F in members))
        report = verify_packing(D, "r", K, bad)
        assert not report.ok
        assert len(report.failures) == 1 and failure in report.failures[0], report.failures


class TestProperties:
    def test_random_packings_satisfy_all_guarantees(self):
        rng = random.Random(99)
        for _ in range(40):
            D, r = random_digraph(rng)
            K = rng.randint(0, 5)
            fam = pack_arborescences(D, r, K)
            report = verify_packing(D, r, K, fam)
            assert report.ok, report.failures
            # coverage guarantee restated independently
            for u in D.nodes:
                if u == r:
                    continue
                assert covered(fam, r, u) >= min(K, connectivity(D, r, u))

    def test_packing_depends_on_the_graph_only(self):
        """Another insertion order of the arcs gives the same family, and
        packing leaves the caller's digraph as it was."""
        rng = random.Random(45)
        for _ in range(30):
            D, r = random_digraph(rng, max_nodes=8)
            K = rng.randint(1, 5)
            items = list(D.arcs.items())
            fam = pack_arborescences(D, r, K)
            assert list(D.arcs.items()) == items
            rng.shuffle(items)
            assert pack_arborescences(WeightedDigraph(D.nodes, dict(items)), r, K) == fam


def _split(arcs, e, f, x):
    """The arc weights after moving x from e=(t,u), f=(u,v) onto (t,v)."""
    out = dict(arcs)
    for a, delta in ((e, -x), (f, -x), ((e[0], f[1]), x)):
        if a[0] != a[1]:
            out[a] = out.get(a, 0) + delta
    return {a: w for a, w in out.items() if w}


def _balanced_states(rng, graphs):
    """(n, arcs): eulerianized random digraphs, each followed by the states
    of up to four random splits, which keep every node balanced."""
    for _ in range(graphs):
        D, r = random_digraph(rng, max_nodes=8)
        n = len(D.nodes)
        work = eulerianize(D.nodes, _numbered(D), D.nodes.index(r))
        yield n, work
        for _ in range(4):
            u = rng.randrange(n)
            ins = sorted(a for a in work if a[1] == u)
            outs = sorted(a for a in work if a[0] == u)
            if not ins or not outs:
                continue
            e, f = rng.choice(ins), rng.choice(outs)
            work = _split(work, e, f, rng.randint(1, min(work[e], work[f])))
            yield n, work


class TestAllPairsConnectivity:
    def test_equals_pairwise_connectivity(self):
        rng = random.Random(61)
        states = pairs = 0
        for n, caps in _balanced_states(rng, 200):
            assert _balance(n, caps) == [0] * n
            lam = all_pairs_connectivity(n, caps)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert lam[i][j] == flows.max_flow_value(n, caps, i, j)
                        pairs += 1
            states += 1
        assert states > 400 and pairs > 10000

    def test_unbalanced_digraph_rejected(self):
        arcs = {(0, 1): 2, (1, 2): 1, (2, 0): 1}
        with pytest.raises(PackingError, match="not balanced"):
            all_pairs_connectivity(3, arcs)
        with pytest.raises(PackingError, match="not balanced"):
            max_splittable(3, arcs, (0, 1), (1, 2), {(0, 2): 1})


class TestWorkCount:
    def test_min_cuts_of_one_seven_node_packing(self, monkeypatch):
        """526 minimum cuts: one flow-equivalent tree per graph state. With
        one max-flow per pair (for each centre choice, each protected pair
        and each protected pair of every splitting probe, and again for each
        undone split) the same packing ran 2446."""
        arcs = {
            ("n0", "n1"): 5, ("n0", "n2"): 2, ("n0", "n3"): 4, ("n0", "n4"): 5,
            ("n0", "n5"): 4, ("n0", "n6"): 1, ("n1", "n2"): 4, ("n1", "n3"): 2,
            ("n1", "n5"): 4, ("n1", "n6"): 3, ("n2", "n3"): 2, ("n2", "n4"): 3,
            ("n2", "n6"): 1, ("n3", "n0"): 1, ("n3", "n1"): 5, ("n3", "n4"): 5,
            ("n3", "n6"): 1, ("n4", "n5"): 3, ("n5", "n1"): 3, ("n5", "n3"): 4,
        }
        D = WeightedDigraph(nodes=tuple(f"n{i}" for i in range(7)), arcs=arcs)
        calls = []
        real = flows.min_cut

        def counted(*args):
            calls.append(args[2:])
            return real(*args)

        monkeypatch.setattr(flows, "min_cut", counted)
        fam = pack_arborescences(D, "n0", 4)
        monkeypatch.undo()
        assert verify_packing(D, "n0", 4, fam).ok
        assert len(calls) == 526
