"""Golden record of the exact oracles' optima and witnesses.

`record()` runs `exact_kmlp` and `bnslb` on a fixed set of seeded random
instances: plain, weighted, service-time, allowed-depot and shared-depot;
n = 3 to 9 nodes; k = 1 to 3 vehicles. It keeps the exact optimum and the
witness routes of `exact_kmlp`, and every b*_l with its witness path tuple
of `bnslb`. A subset DP that visits submasks in another order, or breaks a
tie another way, changes a witness even where the values stay the same.
Every recorded witness is also checked on its own: the `exact_kmlp` routes
score the optimum, and each b*_l witness covers at least l nodes with its
longest path at b*_l.

Regenerate, only for an intended change of the oracles, with
`PYTHONPATH=src:tests python tests/test_oracles_golden.py`.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from conftest import random_instance
from mdkmlp import exact_oracles
from mdkmlp.instance import RoutePlan, evaluate_plan

GOLDEN = Path(__file__).parent / "golden" / "oracles.json"
FAMILIES = (
    {},
    {"weights": True},
    {"service": True},
    {"allowed": True},
    {"single_depot": True},
)
COUNT = 80


def instances():
    rng = random.Random(2024)
    for i in range(COUNT):
        opts = FAMILIES[i % len(FAMILIES)]
        n = 3 + (i // len(FAMILIES)) % 7
        k = min(1 + i % 3, n - 1)
        label = ",".join([f"{i}:n={n}", f"k={k}"] + sorted(opts))
        yield label, random_instance(rng, n, k, span=6, **opts)


def _routes(routes):
    return [list(route) for route in routes]


def record():
    out = {}
    for label, inst in instances():
        opt = exact_oracles.exact_kmlp(inst)
        table = exact_oracles.bnslb(inst)
        out[label] = {
            "opt": str(opt.value),
            "opt_routes": _routes(opt.witness.routes),
            "bnslb": str(table.bnslb),
            "bns": [
                [str(val), _routes(routes)]
                for val, routes in zip(table.values, table.witnesses)
            ],
        }
    return out


def test_oracles_match_golden():
    assert record() == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_witnesses_hold():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for label, inst in instances():
        rec = golden[label]
        plan = RoutePlan(tuple(map(tuple, rec["opt_routes"])), inst.default_variant)
        assert evaluate_plan(inst, plan) == Fraction(rec["opt"]), label
        for ell, (val, routes) in enumerate(rec["bns"], 1):
            assert [route[0] for route in routes] == list(inst.roots), (label, ell)
            assert len({v for route in routes for v in route}) >= ell, (label, ell)
            longest = max(
                sum(inst.dist(u, v) for u, v in zip(route, route[1:])) for route in routes
            )
            assert longest == Fraction(val), (label, ell)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
