"""Command-line front end: solve, oracle queries, solution verification,
and benchmark ratio tables.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments,
3 solver error, 4 exact-oracle size guard. Identical command lines
(including the seed) produce byte-identical JSON on stdout; text tables
are presentation only and go to stderr.
"""

import argparse
import json
import logging
import os
import random
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import exact_oracles, latency_solvers, lp_toolkit
from .exact_oracles import OracleGuardError
from .instance import (
    MetricInstance,
    RoutePlan,
    evaluate_plan,
    evaluate_plan_detail,
    node_ids,
    node_of_key,
    parse_instance,
    time_horizon,
)
from .latency_solvers import ALGORITHMS, SolverConfig, SolverError

log = logging.getLogger("mdkmlp.cli")

# the time-indexed LPs, each solved by lp_toolkit.build_and_solve_<name>
LPS = ("lp1", "lp2", "lp3")
BOUNDS = ("opt", "bnslb") + LPS


def _frac(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {s!r}") from exc


def _frac_str(x) -> str:
    return str(Fraction(x))


def _read_instance(path: str) -> MetricInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _bound(inst: MetricInstance, name: str, T: Optional[int] = None) -> Tuple:
    """(solution, value) of the bound `name` of `inst`: the exact optimum,
    the bottleneck-stroll table, or an LP at horizon T (default: the
    instance's). The LP builder is looked up when called, so a rebinding of
    the module attribute (a test's monkeypatch, a profiler's wrapper) is
    seen here too."""
    if name == "opt":
        res = exact_oracles.exact_kmlp(inst)
        return res, res.value
    if name == "bnslb":
        table = exact_oracles.bnslb(inst)
        return table, table.bnslb
    if T is None:
        T = time_horizon(inst).T
    sol = getattr(lp_toolkit, f"build_and_solve_{name}")(inst, T)
    return sol, sol.objective_value


def _run_algorithm(
    alg: str,
    inst: MetricInstance,
    cfg: SolverConfig,
    solved: Optional[Dict[str, Tuple]] = None,
):
    """Returns (plan, bounds): the value of the bound the rounding consumed.

    A refused instance fails before any bound is solved. The bound is
    solved here, once, and handed to the rounding, so the value reported is
    the one rounded; `solved` maps bound names to `_bound` results to use
    instead. Past the exact-oracle guard no bound is reported and the
    rounding gets None: it solves its own, which raises the guard again, or
    reads none."""
    latency_solvers.require(inst, alg)
    rec = ALGORITHMS[alg]
    try:
        sol, value = (solved or {}).get(rec.bound) or _bound(inst, rec.bound)
    except OracleGuardError:
        return rec.rounding(inst, cfg, None), {}
    return rec.rounding(inst, cfg, sol), {rec.bound: float(value)}


def _evaluate_own(inst: MetricInstance, plan: RoutePlan):
    """``evaluate_plan_detail`` of a plan an algorithm returned: a plan it
    rejects is the solver's error, not an invalid argument."""
    try:
        return evaluate_plan_detail(inst, plan)
    except ValueError as exc:
        raise SolverError(str(exc)) from exc


def cmd_solve(args) -> int:
    inst = _read_instance(args.input)
    plan, bounds = _run_algorithm(args.alg, inst, SolverConfig(seed=args.seed))
    cost, per_node = _evaluate_own(inst, plan)
    out = {
        "algorithm": args.alg,
        "routes": [list(r) for r in plan.routes],
        "objective_variant": plan.objective_variant,
        "total_latency": float(cost),
        "total_latency_exact": _frac_str(cost),
        "per_node_latency": {str(v): float(l) for v, l in per_node.items()},
        "bounds": bounds,
    }
    if ALGORITHMS[args.alg].factor is None:  # only a randomized rounding reads it
        out["seed"] = args.seed
    text = _dump_json(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_oracle(args) -> int:
    what = args.what
    for flag, value, reads in (
        ("--root", args.root, ("pc-paths", "orienteering")),
        ("--penalty", args.penalty, ("pc-paths",)),
        ("--budget", args.budget, ("orienteering",)),
    ):
        if value is not None and what not in reads:
            raise ValueError(f"{flag} does not apply to --what {what}")
    inst = _read_instance(args.input)
    root = inst.roots[0]
    if args.root is not None:
        root = node_of_key(inst.nodes, args.root, "--root")
    out: Dict = {"what": what}
    if what in BOUNDS:
        sol, value = _bound(inst, what)
        out["value"] = _frac_str(value)
        if what == "opt":
            out["routes"] = [list(r) for r in sol.witness.routes]
        elif what == "bnslb":
            out["table"] = [_frac_str(b) for b in sol.values]
            if sol.offset:  # value = sum of the table + offset
                out["offset"] = _frac_str(sol.offset)
        else:
            out["T"] = sol.T
            out["nonzeros"] = len(sol.values)
    elif what == "pc-paths":
        lam = Fraction(0) if args.penalty is None else args.penalty
        pen = {v: lam for v in inst.nodes if v != root}
        res = exact_oracles.exact_pc_paths(inst, root, pen)
        out["value"] = _frac_str(res.value)
        out["paths"] = [list(p) for p in res.witness]
    elif what == "orienteering":
        if args.budget is None:
            raise ValueError("--budget is required for orienteering")
        rewards = {v: Fraction(1) for v in inst.nodes if v != root}
        res = exact_oracles.exact_orienteering(inst, root, args.budget, rewards)
        out["value"] = _frac_str(res.value)
        out["path"] = list(res.witness)
    print(_dump_json(out))
    return 0


_VERIFY_TOL = Fraction(1, 10**9)


def _recorded_cost(value) -> Fraction:
    """A solution's ``total_latency_exact``: a rational as a string or an int."""
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(
        "'total_latency_exact' must be a rational number as a string or an int, "
        f"not {json.dumps(value)}"
    )


def cmd_verify(args) -> int:
    inst = _read_instance(args.input)
    with open(args.solution, "r", encoding="utf-8") as fh:
        sol = json.load(fh)
    if not isinstance(sol, dict) or not isinstance(sol.get("routes"), list):
        raise ValueError("solution must be an object with a list of 'routes'")
    routes = tuple(node_ids(r, "each route") for r in sol["routes"])
    alg = sol.get("algorithm")
    if alg is not None and not isinstance(alg, str):
        raise ValueError(f"'algorithm' must be a string, not {json.dumps(alg)}")
    recorded = sol.get("total_latency_exact")
    if recorded is not None:
        recorded = _recorded_cost(recorded)
    variant = sol.get("objective_variant", inst.default_variant)
    if variant != inst.default_variant:
        raise ValueError(
            f"solution's objective_variant {variant!r} is not the instance's "
            f"objective {inst.default_variant!r}"
        )
    plan = RoutePlan(routes=routes, objective_variant=variant)
    try:
        cost = evaluate_plan(inst, plan)
    except ValueError as exc:
        print(f"FAIL infeasible: {exc}", file=sys.stderr)
        return 1
    report: Dict = {"feasible": True, "cost": _frac_str(cost)}
    if recorded is not None and recorded != cost:
        print(
            f"FAIL cost mismatch: recorded {recorded}, recomputed {cost}",
            file=sys.stderr,
        )
        return 1
    status = 0
    if args.against:
        _, denom = _bound(inst, args.against)
        report["against"] = args.against
        report["denominator"] = _frac_str(denom)
        report["ratio"] = float(cost / denom) if denom else None
        rec = ALGORITHMS.get(alg)
        if rec is not None and rec.bound == args.against and rec.factor is not None:
            report["bound"] = float(rec.factor)
            if cost > rec.factor * denom * (1 + _VERIFY_TOL):
                print(
                    f"FAIL ratio {report['ratio']} exceeds bound {float(rec.factor)}",
                    file=sys.stderr,
                )
                status = 1
    print(_dump_json(report))
    return status


# ---------------------------------------------------------------------------
# benchmark harness


def _metric_closure(n: int, rng: random.Random) -> List[List[int]]:
    cost = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cost[i][j] = cost[j][i] = rng.randint(1, 10)
    for m in range(n):
        for i in range(n):
            for j in range(n):
                via = cost[i][m] + cost[m][j]
                if via < cost[i][j]:
                    cost[i][j] = via
    return cost


def _gen_instance(n: int, k: int, metric: str, rng: random.Random) -> MetricInstance:
    nodes = tuple(f"v{i}" for i in range(n))
    if metric == "random":
        cost = _metric_closure(n, rng)
    else:
        while True:
            if metric == "euclid-line":
                pts = [(rng.randint(0, 4 * n), 0) for _ in range(n)]
            else:
                pts = [
                    (rng.randint(0, 4 * n), rng.randint(0, 4 * n))
                    for _ in range(n)
                ]
            if len(set(pts)) == n:
                break
        cost = [
            [abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in pts] for p in pts
        ]
    # all k vehicles share one depot so every algorithm applies
    return MetricInstance(
        nodes=nodes,
        roots=(nodes[0],) * k,
        cost=tuple(tuple(row) for row in cost),
    )


def _bench_row(idx: int, inst: MetricInstance, algs, seed: int) -> Dict:
    row: Dict = {"instance": idx}
    # bounds solved once for the row and handed to the roundings; past the
    # oracle guard "opt" and "bnslb" are missing, and their columns null
    solved: Dict[str, Tuple] = {}
    for name in ("opt", "bnslb"):
        try:
            solved[name] = _bound(inst, name)
        except OracleGuardError:
            pass
    T = time_horizon(inst).T
    for name in LPS:
        solved[name] = _bound(inst, name, T)
    oracles = {name: solved[name][1] if name in solved else None for name in BOUNDS}
    for name, val in oracles.items():
        row[name] = _frac_str(val) if val is not None else None
    row["algs"] = {}
    cfg = SolverConfig(seed=seed)
    for alg in algs:
        try:
            plan, _ = _run_algorithm(alg, inst, cfg, solved)
            cost, _ = _evaluate_own(inst, plan)
        except (SolverError, OracleGuardError) as exc:
            row["algs"][alg] = {"error": str(exc)}
            continue
        entry: Dict = {"cost": _frac_str(cost)}
        ratios: Dict[str, Optional[float]] = {}
        for name, val in oracles.items():
            ratios[name] = float(cost / val) if val else None
        entry["ratios"] = ratios
        row["algs"][alg] = entry
    return row


def _bench_table(report: Dict) -> str:
    algs = report["algorithms"]
    header = ["inst", *BOUNDS, *algs]
    lines = ["  ".join(f"{h:>12}" for h in header)]
    for row in report["rows"]:
        cells = [str(row["instance"])]
        for name in BOUNDS:
            cells.append(row[name] if row[name] is not None else "-")
        for alg in algs:
            got = row["algs"].get(alg, {})
            cells.append(got.get("cost", got.get("error", "-")))
        lines.append("  ".join(f"{c:>12}" for c in cells))
    return "\n".join(lines)


def cmd_bench(args) -> int:
    if args.n < 1 or args.k < 1 or args.trials < 0:
        raise ValueError("invalid generator parameters")
    algs = (
        [a.strip() for a in args.algs.split(",") if a.strip()]
        if args.algs
        else ["multidepot", "kmlp-comb", "kmlp-lp", "bnslb-construct"]
        + (["mlp-lp"] if args.k == 1 else [])
    )
    for i, alg in enumerate(algs):
        if alg not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {alg!r}")
        if alg in algs[:i]:
            raise ValueError(f"duplicate algorithm {alg!r}")
    rng = random.Random(args.seed)
    instances = [
        _gen_instance(args.n, args.k, args.metric, rng)
        for _ in range(args.trials)
    ]
    # rows run one after another: the work is pure Python, so threads would
    # only contend for the interpreter lock
    rows = [
        _bench_row(idx, inst, algs, args.seed) for idx, inst in enumerate(instances)
    ]
    aggregate: Dict = {}
    for alg in algs:
        for name in BOUNDS:
            vals = [
                row["algs"][alg]["ratios"][name]
                for row in rows
                if "ratios" in row["algs"].get(alg, {})
                and row["algs"][alg]["ratios"][name] is not None
            ]
            if vals:
                aggregate.setdefault(alg, {})[name] = {
                    "mean": sum(vals) / len(vals),
                    "max": max(vals),
                }
    report = {
        "n": args.n,
        "k": args.k,
        "metric": args.metric,
        "seed": args.seed,
        "algorithms": algs,
        "rows": rows,
        "aggregate": aggregate,
    }
    print(_bench_table(report), file=sys.stderr)
    print(_dump_json(report))
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdkmlp",
        description="Multi-depot minimum-latency solvers, oracles, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a solver on an instance file")
    p.add_argument("--alg", required=True, choices=ALGORITHMS)
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="query an exact oracle or LP value")
    p.add_argument(
        "--what",
        required=True,
        choices=(*BOUNDS, "pc-paths", "orienteering"),
    )
    p.add_argument("--input", required=True)
    p.add_argument("--root", default=None)
    p.add_argument("--penalty", type=_frac, default=None)
    p.add_argument("--budget", type=_frac, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="re-check a solution file")
    p.add_argument("--input", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument(
        "--against", choices=BOUNDS, default=None
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="random-instance benchmark ratio table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--metric",
        choices=("random", "euclid-line", "euclid-plane"),
        default="euclid-plane",
    )
    p.add_argument("--algs", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # getLevelName gives a string for a name that is not a level
    level = logging.getLevelName(os.environ.get("MLP_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (SolverError, lp_toolkit.LpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
