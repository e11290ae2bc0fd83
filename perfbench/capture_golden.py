"""Record the golden exact values that later runs are checked against.

    python3 perfbench/capture_golden.py [--workloads <name> ...]

For each workload this runs every unit any run may draw (the catalog pools,
worker.py mode ``capture``) and stores, per unit, the exact LP1/LP2/LP3
objectives, ``opt`` and ``bnslb`` the workload computes, plus digests of its
plans, in ``perfbench/golden/<workload>.json``. Nothing is stored for a
workload whose checks fail.
"""

import argparse
import os
import subprocess
import sys
import time

from run import HASH_SEED, WORKER, WORKLOADS


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = p.parse_args(argv)
    for wl in args.workloads:
        cmd = [sys.executable, WORKER, "--workload", wl, "--seed", "0", "--seconds", "1",
               "--mode", "capture", "--t0", repr(time.monotonic())]
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        code = subprocess.run(cmd, stdout=subprocess.DEVNULL, env=env).returncode
        print(f"{wl}: {'captured' if code == 0 else f'failed ({code})'}")
        if code != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
