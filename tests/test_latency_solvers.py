import math
import random
from fractions import Fraction

import pytest

from conftest import random_instance
from mdkmlp.concat_graph import lower_envelope, mu_star
from mdkmlp import lp_toolkit
from mdkmlp.exact_oracles import bnslb, exact_kmlp
from mdkmlp.instance import MetricInstance, evaluate_plan, time_horizon
from mdkmlp.lp_toolkit import (
    build_and_solve_lp1,
    build_and_solve_lp2,
    build_and_solve_lp3,
)
from mdkmlp.latency_solvers import (
    SolverConfig,
    SolverError,
    _combinatorial_points,
    _orient_tour,
    _stitch_by_concat_graph,
    _sample_from,
    bnslb_construction,
    break_cycle_with_service,
    round_lp2,
    solve_kmlp_combinatorial,
    solve_kmlp_lp,
    solve_mlp_lp,
    solve_multidepot,
    split_tree_into_k_tours,
)
from mdkmlp.pc_tree import RootedTree

F = Fraction
MU = mu_star(F(1, 10**9))


def plan_cost(inst, plan):
    return evaluate_plan(inst, plan)


def lp3_of(inst):
    return build_and_solve_lp3(inst, time_horizon(inst).T)


def _no_lp3_build(inst, T):
    pytest.fail("the solver built LP3 although it was given one")


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.seed == 0
        assert cfg.growth is None
        assert cfg.epsilon == F(1, 100)

    def test_growth_bounds(self):
        SolverConfig(growth=F(3, 2))
        with pytest.raises(ValueError, match="growth"):
            SolverConfig(growth=F(1))
        with pytest.raises(ValueError, match="growth"):
            SolverConfig(growth=F(3))

    def test_epsilon_positive(self):
        with pytest.raises(ValueError, match="epsilon"):
            SolverConfig(epsilon=F(0))


class TestSplitTree:
    def path_tree(self):
        return RootedTree(
            root="r", arcs=frozenset({("r", "a"), ("a", "b")}), cost=F(3)
        )

    def test_k1_single_euler_cycle(self, fix_a):
        cycles = split_tree_into_k_tours(fix_a, self.path_tree(), 1)
        assert cycles == [("r", "a", "b")]

    def test_k2_path_tree(self, fix_a):
        cycles = split_tree_into_k_tours(fix_a, self.path_tree(), 2)
        assert len(cycles) == 2
        covered = set().union(*(set(c) for c in cycles))
        assert covered >= {"a", "b"}
        for cyc in cycles:
            assert cyc[0] == "r"
            internal = sum(
                F(fix_a.dist(u, v)) for u, v in zip(cyc[1:], cyc[2:])
            )
            assert internal <= 2 * F(3) / 2

    def test_keep_only_root(self, fix_a):
        cycles = split_tree_into_k_tours(fix_a, self.path_tree(), 3, keep={"r"})
        assert cycles == [("r",)] * 3

    def test_root_must_be_kept(self, fix_a):
        with pytest.raises(ValueError, match="root"):
            split_tree_into_k_tours(fix_a, self.path_tree(), 2, keep={"a"})

    def test_random_trees_respect_limit_and_count(self):
        rng = random.Random(41)
        for _ in range(30):
            inst = random_instance(rng, rng.randint(2, 7), 1, single_depot=True)
            r = inst.roots[0]
            arcs, cost = set(), F(0)
            nodes = [r]
            for v in inst.clients:
                parent = rng.choice(nodes)
                arcs.add((parent, v))
                cost += F(inst.dist(parent, v))
                nodes.append(v)
            tree = RootedTree(root=r, arcs=frozenset(arcs), cost=cost)
            k = rng.randint(1, 3)
            keep = {r} | {
                v for v in inst.clients if rng.random() < 0.7
            }
            cycles = split_tree_into_k_tours(inst, tree, k, keep=keep)
            assert len(cycles) == k
            covered = set().union(*(set(c) for c in cycles))
            assert covered >= keep
            limit = 2 * cost / k
            for cyc in cycles:
                internal = sum(
                    F(inst.dist(u, v)) for u, v in zip(cyc[1:], cyc[2:])
                )
                assert internal <= limit


class TestBreakCycleWithService:
    def test_s_only_root(self, fix_a):
        tree = RootedTree(
            root="r", arcs=frozenset({("r", "a"), ("a", "b")}), cost=F(3)
        )
        cycles = break_cycle_with_service(fix_a, tree, {"r"}, 2)
        assert cycles == [("r",)] * 2

    def test_star(self):
        inst = MetricInstance(
            nodes=("r", "u"), roots=("r",), cost=((0, 1), (1, 0))
        )
        tree = RootedTree(root="r", arcs=frozenset({("r", "u")}), cost=F(1))
        cycles = break_cycle_with_service(inst, tree, {"u"}, 1, d={"u": F(0)})
        assert cycles == [("r", "u")]
        # c(Z) = 2 within the bound 2(c+d)/k + 2L = 2 + 2
        assert 2 * F(inst.dist("r", "u")) <= 2 * F(1) + 2 * F(1)

    def test_s_outside_tree_rejected(self, fix_a):
        tree = RootedTree(root="r", arcs=frozenset({("r", "a")}), cost=F(1))
        with pytest.raises(ValueError, match="subset"):
            break_cycle_with_service(fix_a, tree, {"b"}, 1)

    def test_random_trees_satisfy_mixed_length_bound(self):
        rng = random.Random(43)
        for _ in range(40):
            inst = random_instance(rng, rng.randint(2, 8), 1, single_depot=True)
            r = inst.roots[0]
            arcs, cost = set(), F(0)
            nodes = [r]
            for v in inst.clients:
                parent = rng.choice(nodes)
                arcs.add((parent, v))
                cost += F(inst.dist(parent, v))
                nodes.append(v)
            tree = RootedTree(root=r, arcs=frozenset(arcs), cost=cost)
            d = {v: F(rng.randint(0, 3)) for v in inst.clients}
            S = {v for v in inst.clients if rng.random() < 0.8}
            k = rng.randint(1, 3)
            cycles = break_cycle_with_service(inst, tree, S, k, d=d)
            assert len(cycles) == k
            covered = set().union(*(set(c) for c in cycles))
            assert covered >= S
            dV = sum((d.get(v, F(0)) for v in tree.nodes), F(0))
            L = max(
                (F(inst.dist(r, u)) + d.get(u, F(0)) for u in S),
                default=F(0),
            )
            bound = 2 * (cost + dV) / k + 2 * L
            for cyc in cycles:
                c_len = sum(
                    F(inst.dist(u, v)) for u, v in zip(cyc, cyc[1:])
                )
                c_len += F(inst.dist(cyc[-1], r)) if len(cyc) > 1 else F(0)
                d_len = sum(
                    (d.get(v, F(0)) for v in set(cyc)), F(0)
                )
                assert c_len + 2 * d_len <= bound


class TestLpRoundingSolvers:
    def test_fix_a_kmlp_lp_bound(self, fix_a):
        sol3 = lp3_of(fix_a)
        plan = solve_kmlp_lp(fix_a, lp3sol=sol3)
        assert plan_cost(fix_a, plan) <= 2 * MU * sol3.objective_value

    def test_fix_a_duplicate_root_k2(self, fix_a):
        inst = MetricInstance(
            nodes=fix_a.nodes, roots=("r", "r"), cost=fix_a.cost
        )
        sol3 = lp3_of(inst)
        plan = solve_kmlp_lp(inst, lp3sol=sol3)
        assert len(plan.routes) == 2
        assert plan_cost(inst, plan) <= 2 * MU * sol3.objective_value

    def test_mlp_lp_bound(self, fix_a):
        sol3 = lp3_of(fix_a)
        plan = solve_mlp_lp(fix_a, lp3sol=sol3)
        assert plan_cost(fix_a, plan) <= MU * sol3.objective_value

    def test_mlp_lp_two_equidistant_clients(self):
        inst = MetricInstance(
            nodes=("r", "a", "b"),
            roots=("r",),
            cost=((0, 1, 1), (1, 0, 2), (1, 2, 0)),
        )
        assert exact_kmlp(inst).value == 4
        sol3 = lp3_of(inst)
        plan = solve_mlp_lp(inst, lp3sol=sol3)
        assert plan_cost(inst, plan) <= MU * sol3.objective_value

    def test_single_client(self):
        inst = MetricInstance(
            nodes=("r", "v"), roots=("r",), cost=((0, 2), (2, 0))
        )
        for solver in (solve_kmlp_lp, solve_mlp_lp):
            plan = solver(inst)
            assert plan.routes == (("r", "v"),)

    def test_multi_depot_rejected(self, fix_b):
        for solver in (solve_kmlp_lp, solve_kmlp_combinatorial):
            with pytest.raises(SolverError, match="single-depot"):
                solver(fix_b)
        with pytest.raises(SolverError):
            solve_mlp_lp(fix_b)

    def test_reused_lp3_gives_same_plan(self, fix_a, monkeypatch):
        rng = random.Random(53)
        shared = random_instance(rng, 5, 2, single_depot=True)
        cases = [(solve_kmlp_lp, shared), (solve_kmlp_lp, fix_a), (solve_mlp_lp, fix_a)]
        for solver, inst in cases:
            sol3 = lp3_of(inst)
            fresh = solver(inst)
            # given an LP, the solver rounds that LP and never builds its own
            with monkeypatch.context() as m:
                m.setattr(lp_toolkit, "build_and_solve_lp3", _no_lp3_build)
                assert solver(inst, lp3sol=sol3) == fresh

    def test_reused_lp_must_be_lp3(self, fix_a):
        sol1 = build_and_solve_lp1(fix_a, time_horizon(fix_a).T)
        for solver in (solve_kmlp_lp, solve_mlp_lp):
            with pytest.raises(SolverError, match="bidirected LP"):
                solver(fix_a, lp3sol=sol1)

    def test_random_per_run_bounds(self):
        rng = random.Random(47)
        for _ in range(6):
            inst = random_instance(
                rng, rng.randint(2, 6), rng.randint(1, 2), single_depot=True
            )
            sol3 = lp3_of(inst)
            rng.randint(0, 99)  # unused draw: keeps the instance sequence of seed 47
            plan = solve_kmlp_lp(inst, lp3sol=sol3)
            assert plan_cost(inst, plan) <= 2 * MU * sol3.objective_value


class TestCombinatorialSolver:
    def test_fix_a(self, fix_a):
        plan = solve_kmlp_combinatorial(fix_a)
        table = bnslb(fix_a)
        assert plan_cost(fix_a, plan) <= 2 * MU * table.bnslb

    def test_single_client(self):
        inst = MetricInstance(
            nodes=("r", "v"), roots=("r",), cost=((0, 3), (3, 0))
        )
        plan = solve_kmlp_combinatorial(inst)
        assert plan.routes == (("r", "v"),)

    def test_s_values_within_four_times_bottleneck(self):
        rng = random.Random(53)
        for _ in range(6):
            inst = random_instance(
                rng, rng.randint(2, 6), rng.randint(1, 2), single_depot=True
            )
            plan = solve_kmlp_combinatorial(inst)
            table = bnslb(inst)
            # the s-values the solver stitches along
            env = lower_envelope((cov, y) for cov, y, _ in _combinatorial_points(inst))
            for ell in range(1, inst.n + 1):
                assert env.value(ell) <= 4 * table.values[ell - 1]
            assert plan_cost(inst, plan) <= 2 * MU * table.bnslb


def test_stitch_needs_a_point_covering_every_node(fix_a):
    # coverage stops at 2 of fix_a's 3 nodes: no concatenation path reaches n
    points = [(1, F(0), None), (2, F(2), "w")]
    with pytest.raises(SolverError, match="covers all 3 nodes"):
        _stitch_by_concat_graph(fix_a, points, lambda wit, ell: pytest.fail("stitched"))


class TestBnslbConstruction:
    def test_fix_a(self, fix_a):
        table = bnslb(fix_a)
        plan = bnslb_construction(fix_a, table)
        assert plan_cost(fix_a, plan) <= MU * table.bnslb

    def test_fix_b(self, fix_b):
        table = bnslb(fix_b)
        plan = bnslb_construction(fix_b, table)
        assert plan_cost(fix_b, plan) <= MU * table.bnslb

    def test_single_client(self):
        inst = MetricInstance(
            nodes=("r", "v"), roots=("r",), cost=((0, 2), (2, 0))
        )
        table = bnslb(inst)
        plan = bnslb_construction(inst, table)
        assert plan.routes == (("r", "v"),)
        assert plan_cost(inst, plan) == table.bnslb == 2


class TestMultidepot:
    def test_fix_b_feasible_and_lower_bounded(self, fix_b):
        plan = solve_multidepot(fix_b, SolverConfig(seed=7))
        assert plan_cost(fix_b, plan) >= 2  # OPT is a lower bound

    def test_single_client_every_seed(self):
        inst = MetricInstance(
            nodes=("r", "v"), roots=("r",), cost=((0, 2), (2, 0))
        )
        for seed in range(5):
            plan = solve_multidepot(inst, SolverConfig(seed=seed))
            assert plan.routes == (("r", "v"),)

    def test_seed_determinism(self, fix_b):
        a = solve_multidepot(fix_b, SolverConfig(seed=3))
        b = solve_multidepot(fix_b, SolverConfig(seed=3))
        assert a.routes == b.routes

    def test_extensions_feasible(self):
        rng = random.Random(59)
        for _ in range(6):
            inst = random_instance(
                rng, rng.randint(3, 6), rng.randint(1, 2),
                weights=True, service=rng.random() < 0.5, allowed=True,
            )
            plan = solve_multidepot(inst, SolverConfig(seed=rng.randint(0, 99)))
            # evaluate_plan validates coverage and allowed depots
            assert plan_cost(inst, plan) >= 0


class TestRoundLp2:
    def test_fix_b_feasible(self, fix_b):
        sol = build_and_solve_lp2(fix_b, time_horizon(fix_b).T)
        plan = round_lp2(fix_b, sol, SolverConfig(seed=11))
        assert plan_cost(fix_b, plan) >= 2

    def test_single_client(self):
        inst = MetricInstance(
            nodes=("r", "v"), roots=("r",), cost=((0, 2), (2, 0))
        )
        sol = build_and_solve_lp2(inst, time_horizon(inst).T)
        for seed in range(4):
            plan = round_lp2(inst, sol, SolverConfig(seed=seed))
            assert plan.routes == (("r", "v"),)

    def test_wrong_solution_kind_rejected(self, fix_b):
        sol = build_and_solve_lp3(fix_b, time_horizon(fix_b).T)
        with pytest.raises(SolverError):
            round_lp2(fix_b, sol, SolverConfig())


class _StubRng:
    """Hands out the given values as rng.random() and counts the calls."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.values.pop(0)


def _reference_draw(weighted, u):
    """The Fraction draw: the first item whose running sum exceeds u."""
    acc = F(0)
    for item, p in weighted:
        acc += p
        if u < acc:
            return item
    return None


def _sub_distribution(rng):
    """(item, probability) pairs of total at most 1, denominators <= 10**6."""
    out = []
    if rng.random() < 0.5:  # one denominator, sometimes the whole mass
        # a power of two makes the cumulative values floats, which u can hit
        d = 2 ** rng.randint(0, 19) if rng.random() < 0.3 else rng.randint(1, 10**6)
        left = d if rng.random() < 0.3 else rng.randint(0, d)
        while left and len(out) < 6:
            a = rng.randint(1, left)
            out.append((f"i{len(out)}", F(a, d)))
            left -= a
    else:  # a denominator per item
        left = F(1)
        for i in range(rng.randint(0, 6)):
            d = rng.randint(1, 10**6)
            top = math.floor(left * d)
            if top < 1:
                break
            p = F(rng.randint(1, top), d)
            out.append((f"i{i}", p))
            left -= p
    return out


class TestSampleFrom:
    TABLE = [("a", F(1, 4)), ("b", F(1, 2))]

    def test_u_on_a_cumulative_value_picks_the_next_item(self):
        table = lp_toolkit.draw_table(self.TABLE)
        assert _sample_from(table, _StubRng([0.0])) == "a"
        assert _sample_from(table, _StubRng([0.25])) == "b"
        assert _sample_from(table, _StubRng([math.nextafter(0.25, 0)])) == "a"

    def test_residual_mass_draws_nothing(self):
        table = lp_toolkit.draw_table(self.TABLE)
        assert _sample_from(table, _StubRng([math.nextafter(0.75, 0)])) == "b"
        assert _sample_from(table, _StubRng([0.75])) is None
        assert _sample_from(table, _StubRng([math.nextafter(1.0, 0)])) is None

    def test_empty_table_consumes_one_draw(self):
        rng, ref = random.Random(5), random.Random(5)
        stub = _StubRng([0.5])
        assert _sample_from(lp_toolkit.EMPTY_DRAW, stub) is None
        assert stub.calls == 1
        assert _sample_from(lp_toolkit.EMPTY_DRAW, rng) is None
        ref.random()
        assert rng.random() == ref.random()

    def test_matches_fraction_reference(self):
        rng = random.Random(2024)
        ties = 0
        for _ in range(1000):
            weighted = _sub_distribution(rng)
            table = lp_toolkit.draw_table(weighted)
            us = [rng.random() for _ in range(3)] + [0.0, math.nextafter(1.0, 0)]
            cums = [F(c, table.denom) for c in table.cum]
            for c in cums:
                x = float(c)
                us += [math.nextafter(x, 0), x, math.nextafter(x, 1)]
            for u in us:
                if not 0 <= u < 1:
                    continue
                ties += F(u) in cums
                stub = _StubRng([u])
                assert _sample_from(table, stub) == _reference_draw(weighted, F(u)), (weighted, u)
                assert stub.calls == 1
        assert ties > 0  # some u hit a cumulative value exactly


def test_orientation_same_under_doubled_service_metric():
    def halved(inst):
        def metric(u, v):
            if u == v:
                return F(0)
            return inst.dist(u, v) + F(inst.service_time(u) + inst.service_time(v), 2)
        return metric

    rng = random.Random(31)
    ties = 0
    for _ in range(200):
        inst = random_instance(
            rng, rng.randint(3, 7), rng.randint(1, 2), span=3, service=True,
            weights=rng.random() < 0.5,
        )
        root = inst.roots[0]
        interior = [v for v in inst.nodes if v != root]
        rng.shuffle(interior)
        interior = interior[: rng.randint(2, len(interior))]
        new = {v for v in interior if rng.random() < 0.7}
        picks = [
            [
                _orient_tour(seq, root, new, metric, inst.weight)
                for seq in (interior, interior[::-1])
            ]
            for metric in (inst.service_doubled, halved(inst))
        ]
        assert picks[0] == picks[1]
        ties += picks[1][0] != picks[1][1]  # a tie keeps either given direction
    assert ties > 0
    # an exact tie keeps the given direction under both metrics
    inst = MetricInstance(
        nodes=("r", "a", "b"), roots=("r",), cost=((0, 2, 2), (2, 0, 1), (2, 1, 0)),
        service={"a": 1, "b": 1},
    )
    for metric in (inst.service_doubled, halved(inst)):
        assert _orient_tour(["a", "b"], "r", {"a", "b"}, metric, inst.weight) == ("a", "b")
        assert _orient_tour(["b", "a"], "r", {"a", "b"}, metric, inst.weight) == ("b", "a")
