"""Acceptance gate: nine end-to-end guarantees checked against exact
oracles at desk scale, each with a hard runtime budget and a single
pass/fail line on stdout."""

import math
import random
import statistics
import time
from fractions import Fraction

from conftest import random_instance
from reference import (
    connectivity,
    covered,
    envelope_value,
    exact_cover_cost,
    hull_split,
    plan_value,
    verify_packing,
)
from test_arb_packing import random_digraph
from test_concat_graph import _full_dp, concat_path

from mdkmlp import exact_oracles
from mdkmlp.arb_packing import pack_arborescences
from mdkmlp.concat_graph import lower_envelope, mu_star
from mdkmlp.instance import evaluate_plan, time_horizon, without_service
from mdkmlp.latency_solvers import (
    SolverConfig,
    _combinatorial_points,
    bnslb_construction,
    round_lp2,
    solve_kmlp_combinatorial,
    solve_kmlp_lp,
    solve_mlp_lp,
    solve_multidepot,
)
from mdkmlp.lp_toolkit import (
    build_and_solve_lp1,
    build_and_solve_lp2,
    build_and_solve_lp3,
    build_and_solve_pclp,
    pclp_model,
)
from mdkmlp.pc_tree import coverage_tree, pc_tree

F = Fraction
MU = mu_star(F(1, 10**9))
REL_TOL = 1 + F(1, 10**9)


def report(num: int, ok: bool, detail: str, budget: float, elapsed: float):
    tag = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"[criterion {num}] {tag}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)",
        flush=True,
    )
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num}: over budget ({elapsed:.1f}s)"


def one_sided_95_margin(costs):
    sd = statistics.stdev(costs) if len(costs) > 1 else 0.0
    return 1.645 * sd / math.sqrt(len(costs))


def test_criterion_1_arborescence_packing():
    start = time.monotonic()
    rng = random.Random(1)
    checked = 0
    for _ in range(200):
        D, r = random_digraph(rng, max_nodes=6, max_w=5)
        K = rng.randint(0, 5)
        fam = pack_arborescences(D, r, K)
        rep = verify_packing(D, r, K, fam)
        assert rep.ok, rep.failures
        for u in D.nodes:
            if u != r:
                assert covered(fam, r, u) >= min(K, connectivity(D, r, u))
        checked += 1
    report(1, checked == 200, f"{checked} packings verified exactly",
           60, time.monotonic() - start)


def test_criterion_2_prize_collecting_tree():
    start = time.monotonic()
    rng = random.Random(2)
    checked = 0
    for _ in range(100):
        inst = random_instance(rng, rng.randint(2, 6), 1)
        root = inst.roots[0]
        pen = {v: F(rng.randint(0, 10)) for v in inst.clients}
        _, obj = pc_tree(inst, root, pen)
        lp = build_and_solve_pclp(pclp_model(inst, root), pen).objective_value
        exact = exact_oracles.exact_pc_paths(inst, root, pen).value
        assert obj <= lp <= exact
        checked += 1
    report(2, checked == 100, f"{checked} trees within the LP and path optima",
           120, time.monotonic() - start)


def test_criterion_3_bipoint_coverage():
    # one walk per instance; at each B its trees' lower hull gives a tree of
    # exactly B nodes, or a bipoint on the hull edge over B, within O*(B)
    start = time.monotonic()
    rng = random.Random(3)
    checked = 0
    for _ in range(100):
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
        checked += 1
    report(3, checked == 100, f"{checked} instances, all coverage targets hit",
           180, time.monotonic() - start)


def test_criterion_4_concatenation_graph():
    start = time.monotonic()
    mu_f = float(MU)
    assert abs(mu_f * math.log(mu_f) - mu_f - 1) <= 1e-9
    assert mu_f < 3.5912
    rng = random.Random(4)
    checked = 0
    for _ in range(1000):
        n = rng.randint(1, 20)
        C = (0,) + tuple(F(rng.randint(0, 100)) for _ in range(n - 1))
        got = concat_path(C)
        assert got.length == _full_dp(C)
        assert got.length <= MU / 2 * sum(C) + F(1, 10**6)
        checked += 1
    report(4, checked == 1000, f"{checked} sequences match the DP and the bound",
           10, time.monotonic() - start)


def _lp_values(inst):
    T = time_horizon(inst).T
    return (
        build_and_solve_lp1(inst, T).objective_value,
        build_and_solve_lp2(inst, T).objective_value,
        build_and_solve_lp3(inst, T).objective_value,
    )


def test_criterion_5_lp_chain():
    # LP3 <= LP1 and LP2 >= BNSLB hold on every instance, LP1 = LP2 at k = 1.
    # LP1 <= LP2 holds only where all depots coincide: with distinct depots
    # LP2's snapshot columns may hand a client over to another depot's
    # vehicle, which LP1's per-group linking forbids (README, "Tests and
    # acceptance gate"; frozen counterexample in tests/test_lp_toolkit.py).
    start = time.monotonic()
    rng = random.Random(5)
    checked = handovers = 0
    for _ in range(30):
        inst = random_instance(rng, rng.randint(2, 6), rng.randint(1, 2))
        lp1, lp2, lp3 = _lp_values(inst)
        assert lp3 <= lp1
        assert lp2 >= exact_oracles.bnslb(inst).bnslb
        if inst.k == 1:
            assert lp1 == lp2
        if lp1 > lp2:
            handovers += 1
        checked += 1
    shared = strict = 0
    for _ in range(30):
        inst = random_instance(rng, rng.randint(3, 6), 2, single_depot=True)
        lp1, lp2, lp3 = _lp_values(inst)
        assert lp3 <= lp1 <= lp2
        assert lp2 >= exact_oracles.bnslb(inst).bnslb
        if inst.k >= 2 and len(set(inst.roots)) == 1:
            shared += 1
        if lp1 < lp2:
            strict += 1
        checked += 1
    report(
        5,
        shared > 0,
        f"{checked} instances; LP3 <= LP1 <= LP2 on {shared} shared-depot "
        f"k>=2 instances ({strict} with LP1 < LP2); per-vehicle > snapshot "
        f"on {handovers} distinct-depot draws, as the README's \"Tests and "
        "acceptance gate\" section and the frozen counterexample in "
        "tests/test_lp_toolkit.py allow",
        600,
        time.monotonic() - start,
    )


def test_criterion_6_single_depot_per_run_bounds():
    start = time.monotonic()
    rng = random.Random(6)
    checked = 0
    for _ in range(50):
        inst = random_instance(
            rng, rng.randint(2, 8), rng.randint(1, 3), single_depot=True
        )
        table = exact_oracles.bnslb(inst)

        plan = solve_kmlp_combinatorial(inst)
        assert evaluate_plan(inst, plan) <= 2 * MU * table.bnslb * REL_TOL
        # the s-values the solver stitches along
        env = lower_envelope((cov, y) for cov, y, _ in _combinatorial_points(inst))
        for ell in range(1, inst.n + 1):
            assert envelope_value(env, ell) <= 4 * table.values[ell - 1]

        sol3 = build_and_solve_lp3(inst, time_horizon(inst).T)
        lp3 = sol3.objective_value
        plan = solve_kmlp_lp(inst, lp3sol=sol3)
        assert evaluate_plan(inst, plan) <= 2 * MU * lp3 * REL_TOL

        plan = bnslb_construction(inst, table)
        assert evaluate_plan(inst, plan) <= MU * table.bnslb * REL_TOL

        if inst.k == 1:
            plan = solve_mlp_lp(inst, lp3sol=sol3)
            assert evaluate_plan(inst, plan) <= MU * lp3 * REL_TOL
        checked += 1
    report(6, checked == 50, f"{checked} instances, all per-run bounds hold",
           900, time.monotonic() - start)


def _statistical_check(inst, bound):
    """200-seed sample mean of the per-vehicle rounding vs its bound."""
    T = time_horizon(inst).T
    sol1 = build_and_solve_lp1(inst, T)
    costs = []
    for seed in range(200):
        plan = solve_multidepot(inst, SolverConfig(seed=seed), lp1sol=sol1)
        costs.append(float(evaluate_plan(inst, plan)))
    mean = statistics.fmean(costs)
    limit = bound * float(sol1.objective_value) * 1.01 + one_sided_95_margin(costs)
    return mean, limit


def test_criterion_7_multidepot_statistical():
    start = time.monotonic()
    rng = random.Random(7)
    ok = True
    for _ in range(10):
        inst = random_instance(rng, rng.randint(2, 7), rng.randint(1, 3))
        mean, limit = _statistical_check(inst, 8.4965)
        ok = ok and mean <= limit

        T = time_horizon(inst).T
        sol2 = build_and_solve_lp2(inst, T)
        costs = []
        for seed in range(200):
            plan = round_lp2(inst, sol2, SolverConfig(seed=seed))
            costs.append(float(evaluate_plan(inst, plan)))
        mean = statistics.fmean(costs)
        limit = 3.5912 * float(sol2.objective_value) * 1.01
        limit += one_sided_95_margin(costs)
        ok = ok and mean <= limit
    report(7, ok, "10 instances x 200 seeds, both rounding means in bound",
           1200, time.monotonic() - start)


def _random_routes(rng, inst):
    """Each client, in a random order, appended to a random slot whose depot
    may serve it; now and then a node of the route is visited again or a
    root passed."""
    routes = [[r] for r in inst.roots]
    clients = list(inst.clients)
    rng.shuffle(clients)
    for v in clients:
        slots = [i for i, r in enumerate(inst.roots) if r in inst.depots_for(v)]
        route = routes[rng.choice(slots)]
        route.append(v)
        if rng.random() < 0.2:
            route.append(rng.choice(route + list(inst.roots)))
    return tuple(map(tuple, routes))


def test_criterion_8_service_reduction():
    # without_service is exact: every plan costs (cost' + shift)/2, scored
    # by the definition; kmlp-comb and bnslb-construct on the reduction stay
    # within their factor of the lifted bnslb, itself at most OPT
    start = time.monotonic()
    rng = random.Random(8)
    plans = 0
    for family in ({}, {"weights": True}, {"allowed": True}):
        for _ in range(30):
            k = rng.randint(1, 3)
            inst = random_instance(rng, rng.randint(k + 1, 7), k, service=True, **family)
            plain, shift, scale = without_service(inst)
            if not inst.has_service:
                assert (plain, shift, scale) == (inst, 0, 1)
                continue
            assert scale == 2 and not plain.has_service
            assert (plain.nodes, plain.roots) == (inst.nodes, inst.roots)
            assert (plain.weights, plain.allowed_depots) == (inst.weights, inst.allowed_depots)
            assert shift == sum(inst.weight(v) * inst.service_time(v) for v in inst.clients)
            for _ in range(10):
                routes = _random_routes(rng, inst)
                cost, _ = plan_value(inst, routes, inst.default_variant)
                reduced, _ = plan_value(plain, routes, plain.default_variant)
                assert cost == (reduced + shift) / 2
                plans += 1
    algs = 0
    for _ in range(40):
        inst = random_instance(
            rng, rng.randint(2, 7), rng.randint(1, 3), single_depot=True, service=True
        )
        table = exact_oracles.bnslb(inst)
        res = exact_oracles.exact_kmlp(inst)
        opt = res.value
        assert table.bnslb <= opt == evaluate_plan(inst, res.witness)
        for plan, factor in (
            (solve_kmlp_combinatorial(inst), 2 * MU),
            (bnslb_construction(inst, table), MU),
        ):
            assert opt <= evaluate_plan(inst, plan) <= factor * table.bnslb * REL_TOL
            algs += 1
    report(8, plans > 500 and algs == 80,
           f"{plans} plans cost (cost' + shift)/2 exactly, {algs} plans within "
           "their factor of the lifted bnslb",
           10, time.monotonic() - start)


def test_criterion_9_extensions():
    start = time.monotonic()
    rng = random.Random(9)
    ok = True
    variants = (
        dict(weights=True),
        dict(allowed=True),
        dict(service=True),
    )
    for kwargs in variants:
        for _ in range(3):
            inst = random_instance(rng, rng.randint(3, 6), 2, **kwargs)
            mean, limit = _statistical_check(inst, 8.4965)
            ok = ok and mean <= limit
    report(9, ok, "9 extension instances x 200 seeds feasible and in bound",
           1200, time.monotonic() - start)
