import dataclasses
import random
from fractions import Fraction

import pytest

from conftest import FIX_A_JSON, FIX_B_JSON, random_instance
import reference
from reference import instance_to_json, plan_value
from mdkmlp.instance import (
    VARIANTS,
    MetricInstance,
    RoutePlan,
    evaluate_plan,
    evaluate_plan_detail,
    parse_instance,
    time_horizon,
)


class TestParse:
    def test_fix_a_distances(self):
        inst = parse_instance(FIX_A_JSON)
        assert inst.dist("r", "a") == 1
        assert inst.dist("r", "b") == 3
        assert inst.dist("a", "b") == 2
        assert inst.k == 1

    def test_asymmetric_cost_rejected(self):
        bad = (
            '{"nodes":["u","v"],"roots":["u"],"costs":[[0,5],[4,0]]}'
        )
        with pytest.raises(ValueError, match="asymmetric"):
            parse_instance(bad)

    def test_fix_b_two_depots(self):
        inst = parse_instance(FIX_B_JSON)
        assert inst.k == 2
        assert inst.roots == ("r1", "r2")
        assert inst.clients == ("a", "b")

    def test_triangle_violation_reports_triple(self):
        bad = (
            '{"nodes":["x","y","z"],"roots":["x"],'
            '"costs":[[0,1,9],[1,0,1],[9,1,0]]}'
        )
        with pytest.raises(ValueError, match="triangle"):
            parse_instance(bad)

    def test_root_distance_below_one_rejected(self):
        with pytest.raises(ValueError, match="root distance"):
            MetricInstance(
                nodes=("r", "v"), roots=("r",), cost=((0, 0), (0, 0))
            )

    def test_malformed_json(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_instance("{nope")

    def test_rational_costs_rejected(self):
        bad = '{"nodes":["u","v"],"roots":["u"],"costs":[[0,1.5],[1.5,0]]}'
        with pytest.raises(ValueError, match="non-integer"):
            parse_instance(bad)

    def test_round_trip(self):
        inst = parse_instance(FIX_B_JSON)
        again = parse_instance(instance_to_json(inst))
        assert again == inst

    def test_round_trip_int_ids_with_maps(self):
        inst = MetricInstance(
            nodes=(0, 1, 2, "x"),
            roots=(0, 2),
            cost=((0, 1, 2, 1), (1, 0, 1, 1), (2, 1, 0, 1), (1, 1, 1, 0)),
            weights={1: 3, "x": 2},
            service={1: 2},
            allowed_depots={1: (2,), "x": (0, 2)},
        )
        again = parse_instance(instance_to_json(inst))
        assert again == inst
        assert again.weight(1) == 3 and again.depots_for(1) == (2,)

    @pytest.mark.parametrize(
        "nodes, key, message",
        [
            ('[0, "a"]', "b", "'weights' key 'b' matches no node"),
            ('[0, 1, "1"]', "1", "duplicate node ids 1 and '1'"),
        ],
        ids=["no-node", "two-nodes"],
    )
    def test_map_key_must_name_one_node(self, nodes, key, message):
        n = nodes.count(",") + 1
        costs = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
        bad = (
            f'{{"nodes":{nodes},"roots":[0],"costs":{costs},'
            f'"weights":{{"{key}":2}}}}'
        )
        with pytest.raises(ValueError) as exc:
            parse_instance(bad)
        assert str(exc.value) == message


class TestEvaluate:
    def test_fix_a_plain(self, fix_a):
        plan = RoutePlan(routes=(("r", "a", "b"),))
        assert evaluate_plan(fix_a, plan) == 4

    def test_fix_b_plain(self, fix_b):
        plan = RoutePlan(routes=(("r1", "a"), ("r2", "b")))
        assert evaluate_plan(fix_b, plan) == 2

    def test_fix_a_service_variant(self):
        inst = MetricInstance(
            nodes=("r", "a", "b"),
            roots=("r",),
            cost=((0, 1, 3), (1, 0, 2), (3, 2, 0)),
            service={"a": 2, "b": 1},
        )
        plan = RoutePlan(routes=(("r", "a", "b"),), objective_variant="service")
        # a waits 1+2, b waits (1+2)+2+1
        assert evaluate_plan(inst, plan) == 9

    def test_uncovered_node_rejected(self, fix_a):
        plan = RoutePlan(routes=(("r", "a"),))
        with pytest.raises(ValueError, match="uncovered"):
            evaluate_plan(fix_a, plan)

    def test_disallowed_depot_rejected(self, fix_b):
        inst = MetricInstance(
            nodes=fix_b.nodes,
            roots=fix_b.roots,
            cost=fix_b.cost,
            allowed_depots={"a": ("r1",)},
        )
        plan = RoutePlan(routes=(("r1", "b"), ("r2", "a")))
        with pytest.raises(ValueError, match="disallowed"):
            evaluate_plan(inst, plan)

    REJECTIONS = {
        "route count": ((("r1", "a", "b"),), "plan has 1 routes for a 2-vehicle instance"),
        "route start": ((("r2", "a"), ("r1", "b")), "route 0 must start at its root 'r1'"),
        "empty route": (((), ("r2", "a", "b")), "route 0 must start at its root 'r1'"),
        "unknown node": ((("r1", "a", "zz"), ("r2", "b")), "unknown node 'zz' in route 0"),
        "disallowed depot": (
            (("r1", "b"), ("r2", "a")), "node 'a' served from disallowed depot 'r2'"
        ),
        "uncovered node": ((("r1", "a"), ("r2",)), "uncovered node(s): ['b']"),
    }

    @pytest.mark.parametrize("case", REJECTIONS)
    def test_rejection_message(self, fix_b, case):
        routes, message = self.REJECTIONS[case]
        inst = dataclasses.replace(fix_b, allowed_depots={"a": ("r1",)})
        with pytest.raises(ValueError) as exc:
            evaluate_plan_detail(inst, RoutePlan(routes=routes))
        assert str(exc.value) == message

    def test_detail_latencies_are_ints(self):
        inst = MetricInstance(
            nodes=("r", "a", "b"),
            roots=("r",),
            cost=((0, 1, 3), (1, 0, 2), (3, 2, 0)),
            weights={"a": 2},
            service={"a": 2, "b": 1},
        )
        for variant, total, per_node in (
            ("plain", 4, {"a": 1, "b": 3}),
            ("weighted", 5, {"a": 1, "b": 3}),
            ("service", 9, {"a": 3, "b": 6}),
            ("weighted+service", 12, {"a": 3, "b": 6}),
        ):
            plan = RoutePlan(routes=(("r", "a", "b"),), objective_variant=variant)
            got_total, got = evaluate_plan_detail(inst, plan)
            assert got_total == total and isinstance(got_total, Fraction)
            assert got == per_node
            assert all(type(lat) is int for lat in got.values())

    def test_trivial_routes_do_not_change_value(self):
        rng = random.Random(5)
        for _ in range(20):
            inst = random_instance(rng, rng.randint(2, 6), 1, single_depot=True)
            r = inst.roots[0]
            order = list(inst.clients)
            rng.shuffle(order)
            base = RoutePlan(routes=((r,) + tuple(order),))
            padded = MetricInstance(
                nodes=inst.nodes, roots=(r, r), cost=inst.cost
            )
            plan2 = RoutePlan(routes=((r,) + tuple(order), (r,)))
            assert evaluate_plan(inst, base) == evaluate_plan(padded, plan2)

    def test_latency_at_least_direct_distance(self):
        rng = random.Random(6)
        for _ in range(20):
            inst = random_instance(rng, rng.randint(3, 6), rng.randint(1, 2))
            th = time_horizon(inst)
            total, per_node = evaluate_plan_detail(inst, th.certifying_plan)
            for v in inst.clients:
                direct = min(inst.dist(r, v) for r in inst.depots_for(v))
                assert per_node[v] >= direct
            assert total >= sum(
                min(inst.dist(r, v) for r in inst.depots_for(v))
                for v in inst.clients
            )


def _random_plan(rng, inst):
    """Routes of random nodes with clients repeated and roots inside; about
    half of them then get every client still missing from an allowed root's
    route, and a few get a broken route count, start or node."""
    routes = [
        [r] + [rng.choice(inst.nodes) for _ in range(rng.randint(0, 2 * inst.n))]
        for r in inst.roots
    ]
    if rng.random() < 0.5:
        seen = {v for route in routes for v in route}
        for v in inst.clients:
            if v not in seen:
                ok = [i for i, r in enumerate(inst.roots) if r in inst.depots_for(v)]
                routes[rng.choice(ok)].append(v)
    broken = rng.random()
    i = rng.randrange(len(routes))
    if broken < 0.03:
        routes.append([inst.roots[0]]) if rng.random() < 0.5 else routes.pop()
    elif broken < 0.06:
        other = [v for v in inst.nodes if v != inst.roots[i]]
        routes[i] = [] if rng.random() < 0.5 else [rng.choice(other)] + routes[i]
    elif broken < 0.09:
        routes[i].insert(rng.randint(1, len(routes[i])), "zz")
    return tuple(map(tuple, routes)), rng.choice(VARIANTS)


class TestEvaluateAgainstReference:
    """evaluate_plan_detail equals the reference evaluator on random plans:
    the total, every latency in serving order, or the exception message."""

    @pytest.mark.parametrize("family", ("plain", "weights", "service", "allowed"))
    def test_random_plans(self, family):
        rng = random.Random(f"evaluate/{family}")
        outcomes = set()
        for i in range(500):
            if i % 50 == 0:
                opts = {} if family == "plain" else {family: True}
                inst = random_instance(rng, rng.randint(4, 7), rng.randint(1, 3), **opts)
            routes, variant = _random_plan(rng, inst)
            try:
                want = plan_value(inst, routes, variant)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    evaluate_plan_detail(inst, RoutePlan(routes, variant))
                assert str(got.value) == str(exc), (routes, variant)
                outcomes.add(str(exc).split()[0])
                continue
            total, latencies = evaluate_plan_detail(inst, RoutePlan(routes, variant))
            assert (total, list(latencies.items())) == (want[0], list(want[1].items()))
            outcomes.add("value")
        expected = {"value", "plan", "route", "unknown", "uncovered"}
        assert outcomes >= expected | ({"node"} if family == "allowed" else set())


    @pytest.mark.parametrize("depots", ("shared", "distinct", "mixed"))
    @pytest.mark.parametrize("family", ("plain", "weights", "service", "allowed"))
    def test_random_plans_match_the_previous_evaluator(self, family, depots):
        """The same (value, latencies) pair as the evaluator before its
        per-instance lookup (``reference.evaluate_plan_detail``), or the same
        exception type and message; the plans include mid-route roots,
        repeated clients and every rejection."""
        rng = random.Random(f"evaluate/{family}/{depots}")
        outcomes = set()
        for i in range(300):
            if i % 30 == 0:
                opts = {} if family == "plain" else {family: True}
                k = rng.randint(1, 2) if depots == "mixed" else rng.randint(1, 3)
                inst = random_instance(
                    rng, rng.randint(4, 7), k, single_depot=depots == "shared", **opts
                )
                if depots == "mixed":  # a shared depot beside distinct ones
                    inst = dataclasses.replace(inst, roots=(inst.roots[0],) + inst.roots)
            plan = RoutePlan(*_random_plan(rng, inst))
            try:
                want = reference.evaluate_plan_detail(inst, plan)
            except Exception as exc:  # noqa: BLE001 - compared with the package's
                with pytest.raises(type(exc)) as got:
                    evaluate_plan_detail(inst, plan)
                assert type(got.value) is type(exc) and str(got.value) == str(exc), plan
                outcomes.add(str(exc).split()[0])
                continue
            total, latencies = evaluate_plan_detail(inst, plan)
            assert (total, list(latencies.items())) == (want[0], list(want[1].items()))
            assert type(total) is Fraction
            outcomes.add("value")
            inner = [v for route in plan.routes for v in route[1:]]
            if set(inner) & inst.root_set:
                outcomes.add("mid-route root")
            if len(set(inner) - inst.root_set) < len([v for v in inner if v not in inst.root_set]):
                outcomes.add("repeated client")
        expected = {"value", "mid-route root", "repeated client"}
        expected |= {"plan", "route", "unknown", "uncovered"}
        if family == "allowed" and depots != "shared":
            expected.add("node")
        assert outcomes >= expected


class TestTimeHorizon:
    def test_fix_a(self, fix_a):
        # nearest-neighbor serves a then b; b waits 1 + 2 = 3
        th = time_horizon(fix_a)
        assert th.T == 3
        assert th.certifying_plan.routes == (("r", "a", "b"),)

    def test_fix_b(self, fix_b):
        th = time_horizon(fix_b)
        assert th.T == 1
        assert th.certifying_plan.routes == (("r1", "a"), ("r2", "b"))

    def test_single_node(self):
        inst = MetricInstance(nodes=("r",), roots=("r",), cost=((0,),))
        th = time_horizon(inst)
        assert th.T == 0
        assert th.certifying_plan.routes == (("r",),)

    def test_certificate_has_the_instance_objective(self):
        inst = MetricInstance(
            nodes=("r", "a"), roots=("r",), cost=((0, 1), (1, 0)), weights={"a": 3}
        )
        th = time_horizon(inst)
        assert th.certifying_plan.objective_variant == "weighted"
        assert evaluate_plan(inst, th.certifying_plan) == 3

    def test_certificate_bounds_every_latency(self):
        rng = random.Random(7)
        for _ in range(25):
            inst = random_instance(
                rng, rng.randint(2, 7), rng.randint(1, 3),
                service=rng.random() < 0.5, allowed=True,
            )
            th = time_horizon(inst)
            _, per_node = evaluate_plan_detail(inst, th.certifying_plan)
            assert all(lat <= th.T for lat in per_node.values())
            # analytic safety net
            lb = max(
                (min(inst.dist(r, v) for r in inst.depots_for(v)) for v in inst.clients),
                default=0,
            )
            svc = sum(inst.service_time(v) for v in inst.clients)
            assert th.T <= 2 * inst.n * lb + svc


class TestDerivedValues:
    """Derived values are computed once per instance, outside its fields."""

    CACHED = (
        "node_pos", "root_set", "clients", "client_bit", "depots",
        "has_weights", "has_service", "default_variant",
    )

    def test_unknown_node_raises_key_error_naming_it(self, fix_b):
        with pytest.raises(KeyError, match="unknown node 'zz'"):
            fix_b.index("zz")
        with pytest.raises(KeyError, match="unknown node 'zz'"):
            fix_b.dist("zz", "a")
        with pytest.raises(KeyError, match="unknown node 'zz'"):
            fix_b.dist("a", "zz")
        with pytest.raises(KeyError, match="unknown node 0"):
            fix_b.dist("a", 0)

    def test_equality_and_hash_ignore_cached_values(self):
        a, b = parse_instance(FIX_B_JSON), parse_instance(FIX_B_JSON)
        a.dist("a", "b")
        for name in self.CACHED:
            getattr(a, name)
        assert set(self.CACHED) <= set(vars(a))
        # construction looks up distances, which computes node_pos only
        assert not set(self.CACHED) & set(vars(b)) - {"node_pos"}
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_replace_gives_fresh_values(self):
        a = parse_instance(FIX_B_JSON)
        for name in self.CACHED:
            getattr(a, name)
        b = dataclasses.replace(a, roots=("r1",), service={"a": 2, "r2": 1})
        assert b.root_set == frozenset({"r1"}) and a.root_set == frozenset({"r1", "r2"})
        assert b.clients == ("a", "b", "r2") and a.clients == ("a", "b")
        assert b.has_service and not a.has_service
        assert b.default_variant == "service" and a.default_variant == "plain"
        assert b.depots == ("r1",) and a.depots == ("r1", "r2")
        assert b.client_bit == {"a": 1, "b": 2, "r2": 4} and a.client_bit == {"a": 1, "b": 2}
        c = dataclasses.replace(a, nodes=("r2", "b", "a", "r1"), cost=(
            (0, 1, 3, 4), (1, 0, 2, 3), (3, 2, 0, 1), (4, 3, 1, 0)))
        assert c.index("r2") == 0 and a.index("r2") == 3
        assert c.dist("r2", "a") == 3 and a.dist("r2", "a") == 3

    def test_depots_for_defaults_to_the_distinct_roots(self):
        inst = MetricInstance(
            nodes=("r1", "a", "b", "r2"),
            roots=("r2", "r1", "r2"),
            cost=((0, 1, 3, 4), (1, 0, 2, 3), (3, 2, 0, 1), (4, 3, 1, 0)),
            allowed_depots={"b": ("r1",)},
        )
        assert inst.depots_for("a") == ("r2", "r1")
        assert inst.depots_for("a") is inst.depots_for("a") is inst.depots
        assert inst.depots_for("b") == ("r1",)

    def test_service_doubled_is_twice_the_symmetric_service_metric(self):
        rng = random.Random(12)
        for _ in range(20):
            inst = random_instance(rng, rng.randint(3, 7), rng.randint(1, 2), service=True)
            nodes = inst.nodes
            for u in nodes:
                assert inst.service_doubled(u, u) == 0
                for v in nodes:
                    if u != v:
                        half = Fraction(inst.service_time(u) + inst.service_time(v), 2)
                        assert inst.service_doubled(u, v) == 2 * (inst.dist(u, v) + half)
                    for w in nodes:
                        assert inst.service_doubled(u, v) <= (
                            inst.service_doubled(u, w) + inst.service_doubled(w, v)
                        )
