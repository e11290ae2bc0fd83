"""Golden record of the prize-collecting tree searches.

`record()` runs one `coverage_tree` walk per instance and `pc_tree` for
fixed penalties, on fixed random single-root instances, two each with 3, 4,
5 and 6 nodes. For each call it keeps the trees returned and the ordered
penalty maps handed to the prize-collecting LP, so a walk that probes another
penalty, or the same penalties in another order, fails here even where it
returns the same trees.

Regenerate, only for an intended change of the trees, with
`PYTHONPATH=src:tests python tests/test_pc_tree_golden.py`.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from conftest import random_instance
from mdkmlp import concat_graph, lp_toolkit
from mdkmlp.pc_tree import coverage_tree, pc_tree

F = Fraction
GOLDEN = Path(__file__).parent / "golden" / "pc_tree_seed41.json"


def _tree(out):
    return {"arcs": sorted([u, v] for u, v in out.arcs), "cost": str(out.cost)}


def record():
    probes = []
    real = lp_toolkit.build_and_solve_pclp

    def logged(model, penalties):
        probes.append([[v, str(p)] for v, p in penalties.items()])
        return real(model, penalties)

    def entry(call, arg, out):
        done = {"call": call, "arg": arg, "out": out, "probes": list(probes)}
        probes.clear()
        return done

    rng = random.Random(41)
    calls = []
    lp_toolkit.build_and_solve_pclp = logged
    try:
        for n in (3, 3, 4, 4, 5, 5, 6, 6):
            inst = random_instance(rng, n, 1)
            root = inst.roots[0]
            calls.append({"instance": [list(inst.nodes), [list(r) for r in inst.cost]]})
            trees = coverage_tree(inst, root)
            calls.append(entry("coverage_tree", root, [_tree(t) for t in trees]))
            # a weight draw per client keeps the seeded instance stream
            for _ in inst.clients:
                rng.randint(1, 4), rng.randint(1, 2)
            for lam in (F(0), F(3, 2), F(7)):
                pen = {v: lam * (i + 1) for i, v in enumerate(inst.clients)}
                tree, obj = pc_tree(inst, root, pen)
                calls.append(entry("pc_tree", str(lam), [_tree(tree), str(obj)]))
    finally:
        lp_toolkit.build_and_solve_pclp = real
    return calls


def test_searches_match_golden():
    assert record() == json.loads(GOLDEN.read_text(encoding="utf-8"))


def _without_arcs(rec):
    if isinstance(rec, dict):
        return {key: _without_arcs(val) for key, val in rec.items() if key != "arcs"}
    if isinstance(rec, list):
        return [_without_arcs(val) for val in rec]
    return rec


def _hull_corners(calls):
    """The calls with each walk's trees replaced by the corners of their
    lower hull over (node count, cost)."""
    out = []
    for rec in calls:
        if rec.get("call") == "coverage_tree":
            points = [(len(t["arcs"]) + 1, F(t["cost"])) for t in rec["out"]]
            corners = concat_graph.lower_envelope(points).corners
            rec = {**rec, "out": [[int(x), str(y)] for x, y in corners]}
        out.append(rec)
    return out


def test_linprog_fallback_keeps_probes_and_hull_corners(cold_highs):
    # Each PC-LP solve on a new HiGHS model, in place of warm re-solves. A
    # warm re-solve may pick another optimal vertex, and so other trees of a
    # walk and another pc_tree of the same cost, but every probe, every
    # corner of a walk's hull and every pc_tree cost and objective must be
    # the same.
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _without_arcs(_hull_corners(record())) == _without_arcs(_hull_corners(golden))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
