import dataclasses
import random
from fractions import Fraction

import pytest

from conftest import FIX_A_JSON, FIX_B_JSON, random_instance
from mdkmlp.instance import (
    MetricInstance,
    RoutePlan,
    evaluate_plan,
    evaluate_plan_detail,
    instance_to_json,
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
            ('[0, 1, "1"]', "1", "'weights' key '1' matches nodes 1 and '1'"),
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
            lb = inst.latency_lower_bound()
            svc = sum(inst.service_time(v) for v in inst.clients)
            assert th.T <= 2 * inst.n * lb + svc


class TestDerivedValues:
    """Derived values are computed once per instance, outside its fields."""

    CACHED = ("node_pos", "root_set", "clients", "has_weights", "has_service", "default_variant")

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
        c = dataclasses.replace(a, nodes=("r2", "b", "a", "r1"), cost=(
            (0, 1, 3, 4), (1, 0, 2, 3), (3, 2, 0, 1), (4, 3, 1, 0)))
        assert c.index("r2") == 0 and a.index("r2") == 3
        assert c.dist("r2", "a") == 3 and a.dist("r2", "a") == 3

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
