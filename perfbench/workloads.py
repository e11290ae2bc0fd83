"""The benchmark workloads: inputs from a seed, the timed ops, and the
checks on every output.

Each workload splits a run into *units* (one ``mdkmlp bench`` call, one
multi-depot instance) and each unit into *ops* (a table row, a rounding draw
plus its evaluation). The timed phase only runs the program; every output is
kept and checked after the clock stops.

A run draws its units from the seed out of a catalog of candidate inputs of
about equal work (``catalog_pools``), so runs with different seeds carry the
same amount of work. Seeds only choose and order units of these fixed pools.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import time
from fractions import Fraction

CATALOGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "catalog")

# ---------------------------------------------------------------------------
# guarantee constants, derived here rather than read from the program


def _mu_star_upper() -> Fraction:
    """A rational just above mu*, the root of mu*ln(mu) = mu + 1."""
    lo, hi = 3.0, 4.0
    for _ in range(100):
        mid = (lo + hi) / 2
        if mid * math.log(mid) - mid - 1 < 0:
            lo = mid
        else:
            hi = mid
    return Fraction(hi) * (1 + Fraction(1, 10**9))


MU = _mu_star_upper()
# Documented defects of the program. Ops they break count as failed, and are
# tallied by name, but do not make a run incorrect; any other failure does.
KNOWN_DEFECTS = {
    # LP2's bottleneck_cover_table ignores allowed_depots, so round_lp2 serves
    # clients from forbidden depots and evaluate_plan raises
    "lp2-round-allowed-depot",
    # the time-indexed LPs use the nearest-neighbour horizon T, but an optimal
    # plan may need latencies above T, so LP1/LP2/LP3 can exceed opt
    "lp-horizon-above-opt",
}
# per-run factors from the README: algorithm -> (denominator, factor)
GUARANTEES = {
    "kmlp-comb": ("bnslb", 2 * MU),
    "kmlp-lp": ("lp3", 2 * MU),
    "mlp-lp": ("lp3", MU),
    "bnslb-construct": ("bnslb", MU),
}


# ---------------------------------------------------------------------------
# instance data, generation and an independent plan evaluator


def manhattan(pts):
    return [[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in pts] for p in pts]


def distinct_points(rng, n, span):
    while True:
        pts = [(rng.randint(0, span), rng.randint(0, span)) for _ in range(n)]
        if len(set(pts)) == n:
            return pts


def single_depot_data(n, k, cost):
    nodes = [f"v{i}" for i in range(n)]
    return {"nodes": nodes, "roots": [nodes[0]] * k, "costs": cost}


def horizon(data) -> int:
    """The program's nearest-neighbour horizon T, recomputed from the data:
    clients go to their nearest allowed depot, each depot serves its clients
    in nearest-neighbour order, and T is the largest latency reached."""
    nodes, roots, cost = data["nodes"], data["roots"], data["costs"]
    idx = {v: i for i, v in enumerate(nodes)}
    service = data.get("service_times", {})
    allowed = data.get("allowed_depots", {})
    distinct = list(dict.fromkeys(roots))
    assigned = {r: [] for r in distinct}
    for v in nodes:
        if v in assigned:
            continue
        depots = allowed.get(v) or distinct
        best = min(depots, key=lambda r: (cost[idx[r]][idx[v]], roots.index(r)))
        assigned[best].append(v)
    T = 0
    for r, pending in assigned.items():
        pos, elapsed, pending = r, 0, list(pending)
        while pending:
            nxt = min(pending, key=lambda v: (cost[idx[pos]][idx[v]], idx[v]))
            pending.remove(nxt)
            elapsed += cost[idx[pos]][idx[nxt]] + service.get(nxt, 0)
            T = max(T, elapsed)
            pos = nxt
    return T


class PlanError(ValueError):
    pass


def plan_cost(data, routes, variant) -> Fraction:
    """Cost of a plan under the program's documented semantics: routes are
    shortcut past roots and clients already served, service times and weights
    apply per the objective variant. Raises PlanError if infeasible."""
    nodes, roots, cost = data["nodes"], data["roots"], data["costs"]
    idx = {v: i for i, v in enumerate(nodes)}
    weights = data.get("weights", {})
    service = data.get("service_times", {})
    allowed = data.get("allowed_depots", {})
    use_w = "weighted" in variant
    use_d = "service" in variant
    if len(routes) != len(roots):
        raise PlanError("wrong number of routes")
    served = {}
    for i, route in enumerate(routes):
        root = roots[i]
        if not route or route[0] != root:
            raise PlanError(f"route {i} does not start at its root")
        pos, elapsed = root, 0
        for v in route[1:]:
            if v in roots or v in served:
                continue
            if v not in idx:
                raise PlanError(f"unknown node {v!r}")
            if v in allowed and root not in allowed[v]:
                raise PlanError(f"{v!r} served from disallowed depot {root!r}")
            elapsed += cost[idx[pos]][idx[v]] + (service.get(v, 0) if use_d else 0)
            served[v] = elapsed
            pos = v
    missing = [v for v in nodes if v not in roots and v not in served]
    if missing:
        raise PlanError(f"uncovered {missing!r}")
    return Fraction(sum((weights.get(v, 1) if use_w else 1) * t for v, t in served.items()))


def digest(text) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------


class Check:
    """Tallies of one run's output checks. ``golden`` maps unit -> key ->
    value; ``None`` (while capturing it) checks nothing against it."""

    def __init__(self, golden):
        self.golden = golden
        self.errors = []  # unexpected failures: any one makes the run incorrect
        self.known = dict.fromkeys(sorted(KNOWN_DEFECTS), 0)
        self.golden_checked = 0
        self.golden_mismatch = 0
        self.golden_missing = 0
        self.plan_diffs = 0
        self.plan_compared = 0

    def fail(self, op, msg):
        op["failed"] = True
        self.errors.append(msg)

    def defect(self, op, name):
        """An op broken by a documented defect of the program."""
        op["failed"] = True
        self.known[name] += 1

    def _golden(self, op, unit, key):
        """The golden value, or None while capturing. A unit or key golden
        does not cover fails the op: an unchecked value is not a pass."""
        if self.golden is None:
            return None
        want = self.golden.get(unit, {}).get(key)
        if want is None:
            self.golden_missing += 1
            self.fail(op, f"unit {unit}: no golden {key}")
        return want

    def exact(self, op, unit, key, value):
        """Compare an exact value with the golden one for this unit."""
        want = self._golden(op, unit, key)
        if want is None:
            return
        self.golden_checked += 1
        if Fraction(want) != Fraction(value):
            self.golden_mismatch += 1
            self.fail(op, f"unit {unit}: {key}={value}, golden {want}")

    def plan(self, op, unit, key, value):
        """Plans may legitimately differ from golden: count, do not fail."""
        want = self._golden(op, unit, key)
        if want is None:
            return
        self.plan_compared += 1
        if want != value:
            self.plan_diffs += 1


def catalog_pools(wl):
    """Per stratum, the catalogued units a run of ``wl`` may draw.

    The work of a unit swings by 5x between inputs of the same size (a cut
    loop or a parametric search takes as many rounds as it needs, and set
    order breaks its ties), so a run of a few dozen freshly drawn inputs is
    too noisy to compare across seeds. ``build_catalog.py`` records the work
    of the first ``wl.PER_STRATUM`` inputs of each stratum of a fixed
    candidate stream (``wl.work``); the pool of a stratum is those whose work
    lies within ``wl.WINDOW`` of the stratum's median.
    """
    with open(os.path.join(CATALOGS, f"{wl.name}.json"), encoding="utf-8") as fh:
        catalog = json.load(fh)  # key -> [stratum, work]
    pools = []
    for stratum in range(wl.STRATA):
        entries = {key: w for key, (st, w) in catalog.items() if st == stratum}
        mid = sorted(entries.values())[len(entries) // 2]
        pools.append(sorted(key for key, w in entries.items() if abs(w - mid) <= wl.WINDOW * mid))
    return pools


def catalog_units(wl, seed, units, workdir):
    """A run's units, unit u from stratum u % STRATA, drawn from the seed:
    without repeats while a pool lasts, with repeats beyond."""
    rng = random.Random(f"{wl.name}/{seed}")
    picks = []
    for stratum, pool in enumerate(catalog_pools(wl)):
        want = len(range(stratum, units, wl.STRATA))
        picks.append(rng.sample(pool, want) if want <= len(pool) else rng.choices(pool, k=want))
    keys = [picks[u % wl.STRATA][u // wl.STRATA] for u in range(units)]
    made = {key: wl.make_unit(key, workdir) for key in dict.fromkeys(keys)}  # repeats share
    return [made[key] for key in keys]


def _quiet_main(cli, argv):
    """Run ``mdkmlp <argv>`` in-process; returns (exit code, stdout text).
    An exception the CLI lets escape is an op failure, reported as the code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - op boundary, reported as failed
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# ratio-table: ``mdkmlp bench --n 5 --k 2 --trials 4 --seed s``


class RatioTable:
    """The user's headline command. One unit is one ``bench`` call over four
    instances, run by ``cmd_bench`` in its four-thread pool; one op is one
    table row. A row's latency is its call's wall time, because rows reach the
    user only when the call returns; so rows have no tail of their own and
    ``op_tail_s`` is reported as ``op_p50_s``."""

    name = "ratio-table"
    ops_one_by_one = False
    unit_seconds = 8.8  # median wall seconds of a call on 2 vCPUs
    modules = ("instance", "concat_graph", "arb_packing", "flows", "pathdp",
               "lp_toolkit", "pc_tree", "latency_solvers", "exact_oracles", "cli")
    N, K, TRIALS = 5, 2, 4
    # one instance per quarter of the horizons bench's euclid-plane generator
    # gives at n=5 (octiles 29, 33, 36, 40, 43, 46, 51), each band around
    # its quarter's middle, so that the LP3 sizes users meet are all measured
    BANDS = ((28, 30), (36, 38), (42, 44), (50, 52))
    ALGS = ("multidepot", "kmlp-comb", "kmlp-lp", "bnslb-construct")
    STRATA, WINDOW, PER_STRATUM = 1, 0.08, 80

    def bench_instances(self, s):
        """The instances ``bench --seed s`` generates (euclid-plane)."""
        rng = random.Random(s)
        out = []
        for _ in range(self.TRIALS):
            pts = distinct_points(rng, self.N, 4 * self.N)
            out.append(single_depot_data(self.N, self.K, manhattan(pts)))
        return out

    def candidates(self):
        """(catalog key, stratum): bench seeds whose four instances fall one
        per band, from a fixed stream."""
        rng = random.Random(f"{self.name}/catalog")
        while True:
            s = rng.randrange(1, 2**31)
            ts = sorted(horizon(d) for d in self.bench_instances(s))
            if all(lo <= t <= hi for t, (lo, hi) in zip(ts, self.BANDS)):
                yield str(s), 0

    def make_unit(self, key, workdir):
        return {"key": f"bench-{key}", "bench_seed": int(key)}

    @staticmethod
    def work(per_name, counts, cpu):
        """Nonzeros of every LP solved: CPU time is 12-14 us per nonzero."""
        return counts["solve_lp.nnz"]

    def run_unit(self, lib, unit):
        argv = ["bench", "--n", str(self.N), "--k", str(self.K),
                "--trials", str(self.TRIALS), "--seed", str(unit["bench_seed"])]
        t0 = time.perf_counter()
        code, text = _quiet_main(lib.cli, argv)
        dt = time.perf_counter() - t0
        return [{"latency": dt, "code": code, "text": text, "row": r}
                for r in range(self.TRIALS)]

    def check(self, check, units, ops_by_unit, lib):
        for unit, ops in zip(units, ops_by_unit):
            u = unit["key"]
            report = None
            if ops and ops[0]["code"] == 0:
                try:
                    report = json.loads(ops[0]["text"])
                except ValueError:
                    report = None
            for op in ops:
                if report is None:
                    check.fail(op, f"unit {u}: bench exited {op['code']}")
                    continue
                rows = report.get("rows", [])
                if len(rows) != self.TRIALS or list(report["algorithms"]) != list(self.ALGS):
                    check.fail(op, f"unit {u}: unexpected report shape")
                    continue
                self._check_row(check, op, u, rows[op["row"]])

    def _check_row(self, check, op, u, row):
        key = f"{op['row']}"
        vals = {}
        for name in ("opt", "bnslb", "lp1", "lp2", "lp3"):
            if row.get(name) is None:
                check.fail(op, f"unit {u} row {key}: {name} missing")
                return
            vals[name] = Fraction(row[name])
            check.exact(op, u, f"{key}.{name}", vals[name])
        if vals["bnslb"] > vals["opt"]:
            check.fail(op, f"unit {u} row {key}: bnslb exceeds opt")
        if any(vals[name] > vals["opt"] for name in ("lp1", "lp2", "lp3")):
            check.defect(op, "lp-horizon-above-opt")
        for alg in self.ALGS:
            got = row["algs"].get(alg, {})
            if "cost" not in got:
                check.fail(op, f"unit {u} row {key}: {alg} failed: {got.get('error')}")
                continue
            cost = Fraction(got["cost"])
            check.plan(op, u, f"{key}.{alg}", got["cost"])
            if cost < vals["opt"]:
                check.fail(op, f"unit {u} row {key}: {alg} below opt")
            if alg in GUARANTEES:
                denom, factor = GUARANTEES[alg]
                if cost > factor * vals[denom]:
                    check.fail(op, f"unit {u} row {key}: {alg} breaks its guarantee")

    def golden_of(self, units, ops_by_unit):
        out = {}
        for unit, ops in zip(units, ops_by_unit):
            rows = json.loads(ops[0]["text"])["rows"]
            entry = {}
            for r, row in enumerate(rows):
                for name in ("opt", "bnslb", "lp1", "lp2", "lp3"):
                    entry[f"{r}.{name}"] = row[name]
                for alg in self.ALGS:
                    entry[f"{r}.{alg}"] = row["algs"][alg]["cost"]
            out[unit["key"]] = entry
        return out


# ---------------------------------------------------------------------------
# multidepot-seeds: the statistical loop over rounding seeds


class MultidepotSeeds:
    """Distinct depots, (n, k) in SIZES, span 16; a quarter each plain,
    weighted, service-time and allowed-depot. One unit is one instance: LP1,
    LP2 and ``exact_kmlp`` once, then DRAWS seeds of ``solve_multidepot``
    (reusing LP1) and, where the objective is plain, of ``round_lp2``. One op
    is one rounding draw plus ``evaluate_plan``."""

    name = "multidepot-seeds"
    ops_one_by_one = True
    unit_seconds = 0.25  # median wall seconds of a unit on 2 vCPUs
    modules = ("instance", "lp_toolkit", "latency_solvers", "exact_oracles")
    SPAN = 16
    DRAWS = 100
    KINDS = ("plain", "weighted", "service", "allowed")
    # The horizon T sizes LP1, LP2 and the rounding schedule, so each k gets
    # a narrow band of T. LP2 enumerates k-tuples of configurations behind a
    # 500000 guard, which tripped at n=9, k=3 even with T=10 (1 in 60
    # instances) and at T=22-28 with k=2; none of 600 instances of these
    # sizes at T=18 (k=2) and T=10 (k=3) trips it.
    SIZES = ((8, 2), (9, 2), (8, 3))
    BANDS = {2: (17, 19), 3: (9, 11)}
    STRATA, WINDOW, PER_STRATUM = 12, 0.15, 20

    def make(self, rng, n, k, kind):
        pts = distinct_points(rng, n, self.SPAN)
        nodes = [f"v{i}" for i in range(n)]
        roots = [nodes[i] for i in sorted(rng.sample(range(n), k))]
        data = {"nodes": nodes, "roots": roots, "costs": manhattan(pts)}
        clients = [v for v in nodes if v not in roots]
        if kind == "weighted":
            data["weights"] = {v: rng.randint(1, 4) for v in clients}
        elif kind == "service":
            data["service_times"] = {v: rng.randint(0, 3) for v in clients}
        elif kind == "allowed":
            # every client may use one depot only
            data["allowed_depots"] = {v: [rng.choice(roots)] for v in clients}
        return data

    def candidates(self):
        """(catalog key, stratum): stratum i % 12 fixes the kind and size."""
        for i in itertools.count():
            yield str(i), i % self.STRATA

    def make_unit(self, key, workdir):
        i = int(key)
        rng = random.Random(f"{self.name}/{key}")
        kind = self.KINDS[i % 4]
        n, k = self.SIZES[(i // 4) % 3]
        lo, hi = self.BANDS[k]
        while True:
            data = self.make(rng, n, k, kind)
            if lo <= horizon(data) <= hi:
                return {"key": key, "data": data, "kind": kind}

    @staticmethod
    def work(per_name, counts, cpu):
        """CPU seconds, rounded to ms: no LP count tracks the time of the
        draws (nonzeros leave 74% of the spread unexplained)."""
        return round(cpu, 3)

    def run_unit(self, lib, unit):
        inst_mod, lpt, orc, ls = lib.instance, lib.lp_toolkit, lib.exact_oracles, lib.latency_solvers
        t0 = time.perf_counter()
        try:
            inst = inst_mod.parse_instance(json.dumps(unit["data"]))
            T = inst_mod.time_horizon(inst).T
            sol1 = lpt.build_and_solve_lp1(inst, T)
            sol2 = lpt.build_and_solve_lp2(inst, T)
            opt = orc.exact_kmlp(inst).value
        except Exception as exc:  # noqa: BLE001 - op boundary, reported as failed
            return [{"latency": time.perf_counter() - t0, "alg": "lp", "seed": None,
                     "routes": None, "cost": None, "err": f"{type(exc).__name__}: {exc}",
                     "base": None}]
        base = {"lp1": str(sol1.objective_value), "lp2": str(sol2.objective_value), "opt": str(opt)}
        algs = [("multidepot", lambda cfg: ls.solve_multidepot(inst, cfg, lp1sol=sol1))]
        if unit["kind"] in ("plain", "allowed"):
            algs.append(("lp2-round", lambda cfg: ls.round_lp2(inst, sol2, cfg)))
        # ops keep only strings and tuples of strings: thousands of live plan
        # objects would make the collector's full passes pause random ops
        ops = []
        for alg, draw in algs:
            for s in range(self.DRAWS):
                t0 = time.perf_counter()
                plan, cost, err = None, None, None
                try:
                    plan = draw(ls.SolverConfig(seed=s))
                    cost = inst_mod.evaluate_plan(inst, plan)
                except Exception as exc:  # noqa: BLE001 - op boundary, reported as failed
                    err = f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                ops.append({"latency": dt, "alg": alg, "seed": s, "err": err, "base": base,
                            "routes": plan and plan.routes,
                            "variant": plan and plan.objective_variant,
                            "cost": None if cost is None else str(cost)})
        return ops

    def check(self, check, units, ops_by_unit, lib):
        for unit, ops in zip(units, ops_by_unit):
            u, base = unit["key"], ops[0]["base"]
            if base is None:
                check.fail(ops[0], f"unit {u}: {ops[0]['err']}")
                continue
            for key, val in base.items():
                check.exact(ops[0], u, key, val)
            lp1, lp2, opt = (Fraction(base[key]) for key in ("lp1", "lp2", "opt"))
            if lp1 > opt or lp2 > opt:
                check.defect(ops[0], "lp-horizon-above-opt")
            costs = {}
            for op in ops:
                costs.setdefault(op["alg"], []).append(str(op["cost"]))
                self._check_op(check, u, unit, op)
            for alg, seq in costs.items():
                check.plan(ops[0], u, alg, digest(",".join(seq)))

    @staticmethod
    def _check_op(check, u, unit, op):
        where = f"unit {u} {op['alg']} seed {op['seed']}"
        why = "no plan"
        try:
            cost = None if op["routes"] is None else plan_cost(
                unit["data"], op["routes"], op["variant"])
        except PlanError as exc:
            cost, why = None, str(exc)
        if op["err"] is None:
            if cost is None:
                check.fail(op, f"{where}: plan accepted by the program is infeasible: {why}")
            elif cost != Fraction(op["cost"]):
                check.fail(op, f"{where}: cost {op['cost']} differs from recomputed {cost}")
            elif cost < Fraction(op["base"]["opt"]):
                check.fail(op, f"{where}: cost below opt")
            return
        known = (
            op["alg"] == "lp2-round" and unit["kind"] == "allowed"
            and "disallowed depot" in op["err"] and cost is None and "disallowed" in why
        )
        if known:
            check.defect(op, "lp2-round-allowed-depot")
        else:
            check.fail(op, f"{where}: {op['err']}")

    def golden_of(self, units, ops_by_unit):
        out = {}
        for unit, ops in zip(units, ops_by_unit):
            entry = dict(ops[0]["base"])
            seqs = {}
            for op in ops:
                seqs.setdefault(op["alg"], []).append(str(op["cost"]))
            entry.update({alg: digest(",".join(seq)) for alg, seq in seqs.items()})
            out[unit["key"]] = entry
        return out


WORKLOADS = {w.name: w for w in (RatioTable(), MultidepotSeeds())}
