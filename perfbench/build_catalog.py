"""Build the catalog a workload draws its units from (see
``workloads.catalog_pools`` for why).

    python3 perfbench/build_catalog.py --workload <name>

Runs the first ``PER_STRATUM`` candidate units of each stratum of the
workload's fixed candidate stream, each once untraced and once under the
tracer, and records its stratum and its work
(``work`` of the workload) in ``catalog/<workload>.json``: LP nonzeros,
deterministic under the pinned hash seed and so independent of the machine,
or where no count tracks the time, the unit's CPU seconds.
Resumes from an existing file.
"""

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("ratio-table", "multidepot-seeds"))
    args = p.parse_args(argv)
    sys.path.insert(0, HERE)
    from run import HASH_SEED

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:  # count what runs will run
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    import worker
    from tracer import Tracer
    from workloads import CATALOGS, WORKLOADS

    lib = worker.Lib()
    wl = WORKLOADS[args.workload]
    path = os.path.join(CATALOGS, f"{wl.name}.json")
    catalog = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            catalog = json.load(fh)
    counts = [0] * wl.STRATA
    for stratum, _ in catalog.values():
        counts[stratum] += 1
    workdir = os.path.join(worker.OUT, f"catalog-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(CATALOGS, exist_ok=True)
    try:
        for key, stratum in wl.candidates():
            if min(counts) >= wl.PER_STRATUM:
                break
            if key in catalog or counts[stratum] >= wl.PER_STRATUM:
                continue
            unit = wl.make_unit(key, workdir)
            cpu0 = time.thread_time()
            ops = wl.run_unit(lib, unit)
            cpu = time.thread_time() - cpu0
            tracer = Tracer("mdkmlp")
            tracer.install()
            try:
                wl.run_unit(lib, unit)
            finally:
                tracer.uninstall()
            if ops[0].get("code", 0) != 0 or ops[0].get("alg") == "lp":
                raise SystemExit(f"{wl.name} unit {key} failed: {ops[0]}")
            catalog[key] = [stratum, wl.work(*tracer.totals(), cpu)]
            counts[stratum] += 1
            print(key, *catalog[key], flush=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(catalog, fh, indent=0, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
