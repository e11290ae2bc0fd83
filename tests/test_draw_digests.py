"""Golden digests of the configuration-LP draws over many instances.

`record()` builds 40 seeded random instances, ten per family (plain,
weighted, service-time, allowed-depot), with n 5-8 and k 1-3, every fifth
with all its vehicles at one depot. It solves LP1 (and, where the objective
is plain, LP2) once per instance at the nearest-neighbour horizon and draws
100 plans from each solution, one per seed 0-99: `solve_multidepot(lp1sol=)`
everywhere and `round_lp2` on the plain-objective instances. Per instance and
rounding it keeps the sha256 of the routes and the exact cost from
`evaluate_plan` (or its error text) of the 100 plans, so a change of any one
draw shows, while the file stays small.

Regenerate, only for an intended change of the roundings, with
`PYTHONPATH=src:tests python tests/test_draw_digests.py`.
"""

import hashlib
import json
import random
from pathlib import Path

from conftest import random_instance
from mdkmlp import lp_toolkit
from mdkmlp.instance import evaluate_plan, time_horizon
from mdkmlp.latency_solvers import SolverConfig, round_lp2, solve_multidepot

GOLDEN = Path(__file__).parent / "golden" / "draw_digests.json"
SEEDS = range(100)
FAMILIES = ("plain", "weights", "service", "allowed")


def instances():
    rng = random.Random(33)
    for family in FAMILIES:
        opts = {} if family == "plain" else {family: True}
        for i in range(10):
            n, k, shared = 5 + i % 4, 1 + i % 3, i % 5 == 4
            inst = random_instance(rng, n, k, span=6, single_depot=shared, **opts)
            yield f"{family},{i},n={n},k={k}{',shared' if shared else ''}", inst


def _digest(inst, rounding) -> str:
    draws = []
    for seed in SEEDS:
        plan = rounding(SolverConfig(seed=seed))
        try:
            cost = str(evaluate_plan(inst, plan))
        except ValueError as exc:
            cost = f"ValueError: {exc}"
        draws.append([[list(route) for route in plan.routes], cost])
    return hashlib.sha256(json.dumps(draws).encode()).hexdigest()


def record():
    out = {}
    for label, inst in instances():
        T = time_horizon(inst).T
        sol1 = lp_toolkit.build_and_solve_lp1(inst, T)
        entry = {"multidepot": _digest(inst, lambda cfg: solve_multidepot(inst, cfg, lp1sol=sol1))}
        if inst.default_variant == "plain":
            sol2 = lp_toolkit.build_and_solve_lp2(inst, T)
            entry["lp2-round"] = _digest(inst, lambda cfg: round_lp2(inst, sol2, cfg))
        out[label] = entry
    return out


def test_draws_match_golden_digests():
    assert record() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
