"""One benchmark run of one workload, in a fresh process.

Started by ``run.py``; prints one JSON object on its last stdout line. Modes:

- ``run``: set up, run the workload's units with tracing off, check every
  output, report the end-to-end figures.
- ``trace``: set up, run the first half of the units untraced, then the same
  units traced; report the per-module figures and the tracing overhead.
- ``setup``: set up and exit (``run.py`` repeats set-up to take a median).
- ``capture``: like ``run``, then record the exact values of its units in
  ``golden/<workload>.json`` (only when every check passed).
"""

import argparse
import gzip
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden")


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("run", "trace", "setup", "capture"), required=True)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    return p.parse_args(argv)


class Lib:
    """The program's modules, imported from this checkout's ``src``."""

    def __init__(self):
        sys.path.insert(0, SRC)
        import mdkmlp
        from mdkmlp import cli, exact_oracles, instance, latency_solvers, lp_toolkit

        if not os.path.abspath(mdkmlp.__file__).startswith(SRC + os.sep):
            raise ImportError(f"mdkmlp imported from {mdkmlp.__file__}, not {SRC}")
        self.cli, self.instance, self.lp_toolkit = cli, instance, lp_toolkit
        self.exact_oracles, self.latency_solvers = exact_oracles, latency_solvers


def _timed(wl, lib, units, deadline, tracer=None):
    """Run units in order until done or past the deadline. Returns
    (ops per unit, wall seconds, process CPU seconds)."""
    ops_by_unit = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    for u, unit in enumerate(units):
        if tracer is not None:
            tracer.op_id = u
        ops_by_unit.append(wl.run_unit(lib, unit))
        if time.perf_counter() > deadline:
            break
    wall = time.perf_counter() - w0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    return ops_by_unit, wall, cpu


def _tail(latencies):
    """Highest order statistic with at least ten ops beyond it, but no
    higher than p99: (value, 1-based rank, N). Above p99 of thousands of
    sub-millisecond ops the value is set by a few scheduler stalls of a
    shared machine, not by the program. The maximum below 11 ops."""
    xs = sorted(latencies)
    n = len(xs)
    rank = min(n - 10, math.ceil(0.99 * n)) if n > 10 else n
    return xs[rank - 1], rank, n


def _check(wl, lib, units, ops_by_unit, golden):
    from workloads import Check

    check = Check(golden)
    wl.check(check, units[: len(ops_by_unit)], ops_by_unit, lib)
    ops = [op for unit_ops in ops_by_unit for op in unit_ops]
    return check, ops


def _end_to_end(wl, setup_s, wall, cpu, ops):
    lat = [op["latency"] for op in ops]
    if wl.ops_one_by_one:
        tail, rank, n = _tail(lat)
        tail_info = {"rank": rank, "n": n, "percentile": 100 * rank / n}
    else:  # no op has a latency of its own: no tail to report
        tail = statistics.median(lat)
        tail_info = {"rank": None, "n": len(lat), "equals": "op_p50_s"}
    failed = sum(1 for op in ops if op.get("failed"))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "ops_per_s": (len(ops) / wall, "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": ((len(ops) - failed) / len(ops), "share"),
    }
    return metrics, tail_info


def _per_layer(tracer, plain_wall, traced_wall, ops):
    from tracer import SPAN_NAMES

    per_name, counts = tracer.totals()
    m = {}
    for name in SPAN_NAMES:
        calls, self_s, busy_s = per_name[name]
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (self_s, "s")
        m[f"{name}.busy_s"] = (busy_s, "s")

    def calls(name):
        return per_name[name][0]

    def per(num, den):
        return num / den if den else 0.0

    for key in ("rows", "cols", "nnz"):
        m[f"lp_toolkit.solve_lp.{key}"] = (counts.get(f"solve_lp.{key}", 0), "count")
    for b in ("lp3", "pclp"):
        rounds = per(counts.get(f"solve_lp.in_{b}", 0), calls(f"lp_toolkit.build_and_solve_{b}"))
        m[f"lp_toolkit.{b}.rounds"] = (rounds, "count")
    m["lp_toolkit.cuts"] = (counts.get("cuts", 0), "count")
    solves = calls("lp_toolkit.solve_lp")
    m["lp_toolkit.certified_share"] = (
        1 - per(calls("simplex.exact_simplex"), solves) if solves else 1.0, "share")
    m["arb_packing.members"] = (counts.get("arb.members", 0), "count")
    trees = calls("pc_tree.pc_tree") + calls("pc_tree.coverage_tree")
    m["pc_tree.pclp_per_tree"] = (per(counts.get("pclp.in_tree", 0), trees), "count")
    m["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    m["trace.overhead_share"] = (per(traced_wall - plain_wall, plain_wall), "share")
    failed = sum(1 for op in ops if op.get("failed"))
    m["ops.failed_share"] = (failed / len(ops), "share")
    return m


def _env():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    args = _args(argv)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, catalog_pools, catalog_units

    wl = WORKLOADS[args.workload]
    lib = Lib()
    units_n = max(1, round(args.seconds / wl.unit_seconds))
    if args.mode == "trace":
        units_n = max(1, units_n // 2)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.mode == "capture":  # every unit any run may draw
            units = [wl.make_unit(key, workdir) for pool in catalog_pools(wl) for key in pool]
        else:
            units = catalog_units(wl, args.seed, units_n, workdir)
        setup_s = time.monotonic() - args.t0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = _run(args, wl, lib, units, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def _run(args, wl, lib, units, setup_s):
    golden_path = os.path.join(GOLDEN, f"{wl.name}.json")
    golden = None  # capturing: nothing to check against yet
    if args.mode != "capture":
        with open(golden_path, encoding="utf-8") as fh:
            golden = json.load(fh)
    # stop starting units once a run is twice as slow as sized, well inside
    # the 180 s a run may take with its set-up probes
    limit = min(2 * args.seconds, 120 - setup_s)
    deadline = time.perf_counter() + (float("inf") if args.mode == "capture" else limit)
    result = {"workload": wl.name, "seed": args.seed, "mode": args.mode,
              "env": _env(), "units": len(units)}

    if args.mode == "trace":
        from tracer import Tracer

        plain, plain_wall, _ = _timed(wl, lib, units, time.perf_counter() + limit / 2)
        tracer = Tracer("mdkmlp")
        tracer.install()
        try:
            traced, traced_wall, _ = _timed(wl, lib, units[: len(plain)], deadline, tracer)
        finally:
            tracer.uninstall()
        check, ops = _check(wl, lib, units, traced, golden)
        plain_check, _ = _check(wl, lib, units, plain, golden)
        check.errors += plain_check.errors
        if len(traced) == len(plain) and not check.errors:
            if wl.golden_of(units, plain) != wl.golden_of(units, traced):
                check.errors.append("traced and untraced passes gave different outputs")
        per_name, _ = tracer.totals()
        missing = [m for m in wl.modules
                   if not any(c for n, (c, _, _) in per_name.items() if n.startswith(m + "."))]
        if missing:
            raise RuntimeError(f"modules with no traced calls on {wl.name}: {missing}")
        metrics = _per_layer(tracer, plain_wall, traced_wall, ops)
        _write_spans(args, tracer)
    else:
        ops_by_unit, wall, cpu = _timed(wl, lib, units, deadline)
        check, ops = _check(wl, lib, units, ops_by_unit, golden)
        metrics, result["tail"] = _end_to_end(wl, setup_s, wall, cpu, ops)
        if args.mode == "capture":
            if check.errors:
                raise RuntimeError(f"not capturing golden values: {check.errors[:5]}")
            os.makedirs(GOLDEN, exist_ok=True)
            with open(golden_path, "w", encoding="utf-8") as fh:
                json.dump(wl.golden_of(units, ops_by_unit), fh, sort_keys=True, indent=1)
                fh.write("\n")

    result.update({
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.get("failed")),
        "correct": not check.errors,
        "errors": check.errors[:20],
        "error_count": len(check.errors),
        "checks": {
            "golden_checked": check.golden_checked,
            "golden_mismatch": check.golden_mismatch,
            "golden_missing": check.golden_missing,
            "plan_compared": check.plan_compared,
            "plan_diffs": check.plan_diffs,
            "known_defects": check.known,
        },
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    return result


def _write_spans(args, tracer):
    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for span in tracer.spans():
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    sys.exit(main())
