"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ratio-table, multidepot-seeds (see workloads.py).
Each run executes the workload in a fresh Python process (worker.py) that
imports the program from ``src/`` of this checkout, one client issuing one op
at a time. With ``--trace 0`` it reports the end-to-end metrics; ``setup_s``
is the median over that process and SETUP_PROBES more that only set up,
spread before and after it. With
``--trace 1`` it reports the per-module metrics of a separate traced run.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Lines before it, starting with ``#``, record the
machine, the checks and the tail rank; the full report of each run is kept in
``perfbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("ratio-table", "multidepot-seeds")
# Set-up-only processes per run, half before the timed one and half after,
# so that the median spans the run rather than a few seconds of it.
SETUP_PROBES = 4
# Set iteration order feeds LP row order and so the number of cut rounds: the
# same bench call takes 6.5 s or 12 s under different hash seeds. Pinning it
# makes a run's work a function of its inputs alone.
HASH_SEED = "0"
TIME_LIMIT = 175.0  # seconds for the whole run, children included


class RunError(RuntimeError):
    pass


def _worker(args, mode, started):
    left = TIME_LIMIT - (time.monotonic() - started)
    if left <= 5:
        raise RunError("no time left for another worker")
    t0 = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=left,
                              env=dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise RunError(f"{mode} worker exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()
    load1 = os.getloadavg()[0]
    try:
        if args.trace:
            report = _worker(args, "trace", started)
        else:
            setups = [_worker(args, "setup", started)["setup_s"] for _ in range(SETUP_PROBES // 2)]
            report = _worker(args, "run", started)
            setups.append(report["metrics"]["setup_s"]["value"])
            setups += [_worker(args, "setup", started)["setup_s"]
                       for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            report["setup_samples"] = setups
            report["metrics"]["setup_s"]["value"] = statistics.median(setups)
    except (RunError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report["env"]["load1_at_start"] = load1
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
    print("# env " + json.dumps(report["env"], sort_keys=True))
    print("# checks " + json.dumps(report["checks"], sort_keys=True))
    if "tail" in report:
        print("# op_tail_s " + json.dumps(report["tail"], sort_keys=True))
    for err in report["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
