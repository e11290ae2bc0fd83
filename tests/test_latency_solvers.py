import dataclasses
import math
from itertools import accumulate
import random
import types
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_instance
from reference import envelope_value, sample_from
from mdkmlp.concat_graph import lower_envelope, mu_star
from mdkmlp import latency_solvers, lp_toolkit
from mdkmlp.exact_oracles import bnslb, exact_kmlp
from mdkmlp.instance import MetricInstance, evaluate_plan, time_horizon, without_service
from mdkmlp.lp_toolkit import (
    build_and_solve_lp1,
    build_and_solve_lp2,
    build_and_solve_lp3,
)
from mdkmlp.latency_solvers import (
    ALGORITHMS,
    DEFAULT_GROWTH,
    EPSILON,
    SolverConfig,
    SolverError,
    _combinatorial_points,
    _stitch_by_concat_graph,
    bnslb_construction,
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
        # the seed is the one setting; growth and slack are constants
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["seed"]
        assert SolverConfig().seed == 0
        assert (DEFAULT_GROWTH, EPSILON) == (F(1616, 1000), F(1, 100))


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_per_run_factors_match_the_benchmark_checker():
    # the benchmark derives its guarantee table independently; the records
    # must state the same (bound, factor) pairs. The file is executed from
    # its source, read-only, with no bytecode written next to it.
    mod = types.ModuleType("perfbench_workloads")
    mod.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), mod.__dict__)
    records = {
        alg: (rec.bound, rec.factor)
        for alg, rec in ALGORITHMS.items()
        if rec.factor is not None
    }
    assert records.keys() == mod.GUARANTEES.keys()
    for alg, (bound, factor) in mod.GUARANTEES.items():
        assert records[alg][0] == bound, alg
        assert abs(records[alg][1] - factor) <= F(1, 10**8) * factor, alg


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
                assert envelope_value(env, ell) <= 4 * table.values[ell - 1]
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


@pytest.mark.parametrize("rounding, kind, wrong", [
    (lambda inst, sol: solve_multidepot(inst, lp1sol=sol), "per-vehicle", build_and_solve_lp2),
    (lambda inst, sol: solve_kmlp_lp(inst, lp3sol=sol), "bidirected", build_and_solve_lp2),
    (lambda inst, sol: solve_mlp_lp(inst, lp3sol=sol), "bidirected", build_and_solve_lp1),
    (round_lp2, "joint-configuration", build_and_solve_lp3),
], ids=["multidepot", "kmlp-lp", "mlp-lp", "lp2-round"])
def test_wrong_solution_kind_is_refused_without_clients(rounding, kind, wrong):
    # the kind of the LP solution is checked before the client-free early
    # return, so an empty instance refuses it too
    inst = MetricInstance(nodes=("r",), roots=("r",), cost=((0,),))
    sol = wrong(inst, time_horizon(inst).T)
    assert sol.objective_value == 0
    with pytest.raises(SolverError, match=f"needs a {kind} LP solution"):
        rounding(inst, sol)


class _CountingRng(random.Random):
    """random.Random that counts its random() calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def random(self):
        self.calls += 1
        return super().random()


def _uniforms_of_a_draw(inst, sol, c, seed):
    """1 for the offset plus one per table at each time point reached: the
    points run up to the first after which the draws cover every client, or
    through N when they never do."""
    rng = random.Random(seed)
    h = c ** rng.random()
    T, draws = sol.T, sol.meta["draws"]
    D = 0
    while h * c**D < T:
        D += 1
    N = D + math.ceil(math.log(max(inst.n * T / float(EPSILON), math.e)))
    left = set(inst.clients)
    for j in range(N + 1):
        for table in draws[min(T, int(h * c**j))]:
            for _, tour in sample_from(table, rng) or ():
                left -= set(tour.fwd)
        if not left:
            return 1 + len(draws[1]) * (j + 1)
    return 1 + len(draws[1]) * (N + 1)


class TestRngConsumption:
    """Each draw takes its uniforms in a fixed pattern: one for the offset,
    then one per table at every time point it reaches, tables whose items
    are all gone (or that have none) included."""

    @staticmethod
    def _cases():
        fix_b = MetricInstance(
            nodes=("r1", "a", "b", "r2"), roots=("r1", "r2"),
            cost=((0, 1, 3, 4), (1, 0, 2, 3), (3, 2, 0, 1), (4, 3, 1, 0)),
        )
        allowed = random_instance(random.Random(12), 7, 2, allowed=True)
        assert allowed.allowed_depots
        for inst in (fix_b, allowed):
            T = time_horizon(inst).T
            sol1, sol2 = build_and_solve_lp1(inst, T), build_and_solve_lp2(inst, T)
            yield inst, sol1, float(DEFAULT_GROWTH), lambda cfg, i=inst, s=sol1: (
                solve_multidepot(i, cfg, lp1sol=s))
            yield inst, sol2, float(MU), lambda cfg, i=inst, s=sol2: round_lp2(i, s, cfg)

    def test_one_uniform_per_table_per_time_point(self, monkeypatch):
        made = []

        def counting(seed):
            made.append(_CountingRng(seed))
            return made[-1]

        monkeypatch.setattr(latency_solvers, "random", types.SimpleNamespace(Random=counting))
        for inst, sol, c, rounding in self._cases():
            empty = dataclasses.replace(sol, meta=dict(sol.meta, draws={
                t: (lp_toolkit.EMPTY_DRAW,) * len(tables)
                for t, tables in sol.meta["draws"].items()
            }))
            for seed in range(20):
                made.clear()
                plan = rounding(SolverConfig(seed=seed))
                assert [rng.calls for rng in made] == [_uniforms_of_a_draw(inst, sol, c, seed)]
                assert set(inst.clients) <= {v for route in plan.routes for v in route}
                # no table draws anything: every point is reached, and every
                # client is a leftover, visited once
                rng = _CountingRng(seed)
                plan = latency_solvers._geometric_rounding(inst, c, empty, rng)
                assert rng.calls == _uniforms_of_a_draw(inst, empty, c, seed)
                assert sorted(v for route in plan.routes for v in route[1:]) == sorted(
                    inst.clients
                )

    def test_tables_per_time_point(self):
        mixed = random_instance(random.Random(41), 7, 2)
        mixed = dataclasses.replace(mixed, roots=(mixed.roots[0],) * 2 + mixed.roots[1:])
        for inst, sol, _, _ in (*self._cases(), *[
            (mixed, build(mixed, time_horizon(mixed).T), None, None)
            for build in (build_and_solve_lp1, build_and_solve_lp2)
        ]):
            draws = sol.meta["draws"]
            assert sorted(draws) == list(range(1, sol.T + 1))
            for tables in draws.values():
                if sol.which == "LP1":  # one table per slot, each item one pair of it
                    assert len(tables) == inst.k
                    for slot, table in enumerate(tables):
                        assert all(
                            len(item) == 1 and item[0][0] == slot for item in table.items
                        )
                else:  # one table, each item a pair per nonempty witness path
                    assert len(tables) == 1
                    for item in tables[0].items:
                        slots = [slot for slot, _ in item]
                        assert slots and slots == sorted(set(slots))
                for table in tables:
                    assert len(table.cuts) == len(table.items)
                    assert list(table.cuts) == sorted(table.cuts) and table.cuts[-1:] <= (1.0,)
                    assert all(isinstance(t, lp_toolkit.Tour) for i in table.items for _, t in i)


def test_draws_do_no_one_time_work(monkeypatch):
    """Everything a draw reads is built when its LP is solved: with the
    tour compiler, the draw-table builder and the leftover order made to
    raise afterwards, 50 seeds of each rounding still draw, and every plan
    evaluates (or, for round_lp2 on allowed depots, fails with the known
    disallowed-depot error of ROADMAP item 2)."""
    rng = random.Random(17)
    cases = []
    for family in ("plain", "weights", "service", "allowed", "shared"):
        opts = {} if family in ("plain", "shared") else {family: True}
        inst = random_instance(rng, 7, 2, single_depot=family == "shared", **opts)
        T = time_horizon(inst).T
        sol1 = build_and_solve_lp1(inst, T)
        cases.append((inst, lambda cfg, i=inst, s=sol1: solve_multidepot(i, cfg, lp1sol=s)))
        if inst.default_variant == "plain":
            sol2 = build_and_solve_lp2(inst, T)
            cases.append((inst, lambda cfg, i=inst, s=sol2: round_lp2(i, s, cfg)))

    def built_in_a_draw(*args, **kwargs):
        raise AssertionError("a draw built what its LP solve should have")

    for name in ("compile_tour", "draw_table", "leftover_order"):
        monkeypatch.setattr(lp_toolkit, name, built_in_a_draw)
    valued = 0
    for inst, rounding in cases:
        for seed in range(50):
            plan = rounding(SolverConfig(seed=seed))
            try:
                valued += evaluate_plan(inst, plan) > 0
            except ValueError as exc:
                assert "disallowed depot" in str(exc) and inst.allowed_depots
    assert len(cases) == 8 and valued >= 7 * 50


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
        assert sample_from(table, _StubRng([0.0])) == "a"
        assert sample_from(table, _StubRng([0.25])) == "b"
        assert sample_from(table, _StubRng([math.nextafter(0.25, 0)])) == "a"

    def test_residual_mass_draws_nothing(self):
        table = lp_toolkit.draw_table(self.TABLE)
        assert sample_from(table, _StubRng([math.nextafter(0.75, 0)])) == "b"
        assert sample_from(table, _StubRng([0.75])) is None
        assert sample_from(table, _StubRng([math.nextafter(1.0, 0)])) is None

    def test_empty_table_consumes_one_draw(self):
        rng, ref = random.Random(5), random.Random(5)
        stub = _StubRng([0.5])
        assert sample_from(lp_toolkit.EMPTY_DRAW, stub) is None
        assert stub.calls == 1
        assert sample_from(lp_toolkit.EMPTY_DRAW, rng) is None
        ref.random()
        assert rng.random() == ref.random()

    def test_matches_fraction_reference(self):
        rng = random.Random(2024)
        ties = 0
        for _ in range(1000):
            weighted = _sub_distribution(rng)
            table = lp_toolkit.draw_table(weighted)
            us = [rng.random() for _ in range(3)] + [0.0, math.nextafter(1.0, 0)]
            cums = list(accumulate(p for _, p in weighted))
            for c in cums:
                x = float(c)
                us += [math.nextafter(x, 0), x, math.nextafter(x, 1)]
            for u in us:
                if not 0 <= u < 1:
                    continue
                ties += F(u) in cums
                stub = _StubRng([u])
                assert sample_from(table, stub) == _reference_draw(weighted, F(u)), (weighted, u)
                assert stub.calls == 1
        assert ties > 0  # some u hit a cumulative value exactly


def _oriented(inst, root, seq, new, metric):
    """The orientation rule on the cycle root -> seq -> root, with every
    client outside `new` covered."""
    covered = sum(bit for v, bit in inst.client_bit.items() if v not in new)
    return lp_toolkit.compile_tour(inst, root, seq, metric).oriented(covered)


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
        interior = list(inst.clients)
        rng.shuffle(interior)
        interior = interior[: rng.randint(2, max(2, len(interior)))]
        new = {v for v in interior if rng.random() < 0.7}
        picks = [
            [_oriented(inst, root, seq, new, metric) for seq in (interior, interior[::-1])]
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
        assert _oriented(inst, "r", ["a", "b"], {"a", "b"}, metric) == ("a", "b")
        assert _oriented(inst, "r", ["b", "a"], {"a", "b"}, metric) == ("b", "a")


def _weighted_latency(inst, root, seq, new, metric):
    """The weighted sum of the elapsed times of `new` along root -> seq."""
    total, pos, elapsed = 0, root, 0
    for v in seq:
        elapsed += metric(pos, v)
        if v in new:
            total += inst.weight(v) * elapsed
        pos = v
    return total


def test_orientation_takes_the_smaller_weighted_latency():
    """Against the two directions' directly summed weighted latencies over
    the uncovered clients, under the LP metric and under c: the smaller
    one, forward on a tie."""
    rng = random.Random(47)
    ties = strict = 0
    for _ in range(400):
        inst = random_instance(
            rng, rng.randint(4, 8), rng.randint(1, 3), span=rng.choice((3, 9)),
            weights=rng.random() < 0.6, service=rng.random() < 0.5,
        )
        root = rng.choice(inst.roots)
        order = list(inst.clients)
        rng.shuffle(order)
        order = order[: rng.randint(1, len(order))]
        covered = sum(bit for bit in inst.client_bit.values() if rng.random() < 0.4)
        new = {v for v in order if not covered & inst.client_bit[v]}
        lp_metric = without_service(inst)[0].dist  # the metric LP1 and LP2 measure in
        for metric in (lp_metric, inst.dist):
            tour = lp_toolkit.compile_tour(inst, root, order, metric)
            assert (tour.fwd, tour.rev) == (tuple(order), tuple(order[::-1]))
            assert tour.mask == sum(inst.client_bit[v] for v in order)
            fwd = _weighted_latency(inst, root, order, new, metric)
            rev = _weighted_latency(inst, root, order[::-1], new, metric)
            assert tour.oriented(covered) == (tour.fwd if fwd <= rev else tour.rev)
            ties += fwd == rev and len(order) > 1
            strict += fwd > rev
    assert ties > 0 and strict > 0
