"""Golden record of the configuration-LP roundings over many seeds.

`record()` solves LP1 (and, on plain-objective instances, LP2) once per
instance at the nearest-neighbour horizon and then draws 50 plans from each
solution, one per seed 0-49: `solve_multidepot(lp1sol=)` on every instance
and `round_lp2` on the plain and allowed-depot ones. For each plan it keeps
the routes and the exact cost from `evaluate_plan`, or the error text where
`evaluate_plan` rejects the plan (`round_lp2` can serve a client from a
depot it may not use). Instances: FIX_B, four seeded distinct-depot
random instances, one each plain, weighted, service-time and allowed-depot,
and two plain ones with several vehicles at one depot: three vehicles at
one depot, and two at one depot plus one at another.

Any change to the LP solutions, the column order of a draw, the random
streams, the tour orientation or the evaluation shows up here.

Regenerate, only for an intended change of the roundings, with
`PYTHONPATH=src:tests python tests/test_roundings_golden.py`.
"""

import dataclasses
import json
import random
from pathlib import Path

from conftest import random_instance
from mdkmlp import lp_toolkit
from mdkmlp.instance import MetricInstance, evaluate_plan, time_horizon
from mdkmlp.latency_solvers import SolverConfig, round_lp2, solve_multidepot

GOLDEN = Path(__file__).parent / "golden" / "roundings.json"
SEEDS = range(50)

# (kind, n, k): every random instance has distinct depots
RANDOM_SPECS = (
    ("plain", 7, 2),
    ("weights", 6, 3),
    ("service", 6, 2),
    ("allowed", 7, 2),
)


def instances():
    yield "FIX_B", MetricInstance(
        nodes=("r1", "a", "b", "r2"),
        roots=("r1", "r2"),
        cost=((0, 1, 3, 4), (1, 0, 2, 3), (3, 2, 0, 1), (4, 3, 1, 0)),
    )
    rng = random.Random(37)
    for kind, n, k in RANDOM_SPECS:
        opts = {} if kind == "plain" else {kind: True}
        yield f"{kind},n={n},k={k}", random_instance(rng, n, k, span=6, **opts)
    rng = random.Random(41)
    yield "shared,n=7,k=3", random_instance(rng, 7, 3, span=6, single_depot=True)
    inst = random_instance(rng, 7, 2, span=6)
    r1, r2 = inst.roots
    yield "mixed,n=7,k=2+1", dataclasses.replace(inst, roots=(r1, r1, r2))


def _draws(inst, rounding):
    out = []
    for seed in SEEDS:
        plan = rounding(SolverConfig(seed=seed))
        try:
            cost = str(evaluate_plan(inst, plan))
        except ValueError as exc:
            cost = f"ValueError: {exc}"
        out.append([[list(route) for route in plan.routes], cost])
    return out


def record():
    out = {}
    for label, inst in instances():
        T = time_horizon(inst).T
        sol1 = lp_toolkit.build_and_solve_lp1(inst, T)
        entry = {
            "T": T,
            "multidepot": _draws(inst, lambda cfg: solve_multidepot(inst, cfg, lp1sol=sol1)),
        }
        if inst.default_variant == "plain":
            sol2 = lp_toolkit.build_and_solve_lp2(inst, T)
            entry["lp2-round"] = _draws(inst, lambda cfg: round_lp2(inst, sol2, cfg))
        out[label] = entry
    return out


def test_roundings_match_golden():
    assert record() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=0) + "\n", encoding="utf-8")
