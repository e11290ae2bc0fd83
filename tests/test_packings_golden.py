"""Golden record of weighted arborescence packings.

`record()` collects packing inputs (D, r, K) from two sources: 60 seeded
`random_digraph`s with up to 8 nodes and K in 0..5, and every z'_t graph and
PC-LP vertex graph that `mdkmlp bench --n 5 --k 2 --trials 2 --seed
1028474078` hands to `pack_arborescences`. Each distinct input is kept once,
in order of first use, with the members of its packing. The test packs every
recorded input again and compares the members, so a change to the splitting
order, the repairs or the member order fails here even where the plans built
from the packings stay the same.

Regenerate, only for an intended change of the packings, with
`PYTHONPATH=src:tests python tests/test_packings_golden.py`.
"""

import contextlib
import io
import json
import random
from pathlib import Path

from conftest import random_digraph
from mdkmlp import arb_packing, cli, latency_solvers
from mdkmlp.arb_packing import WeightedDigraph, pack_arborescences

GOLDEN = Path(__file__).parent / "golden" / "packings.json"
BENCH_ARGS = ["bench", "--n", "5", "--k", "2", "--trials", "2", "--seed", "1028474078"]


def _input(D, r, K):
    arcs = sorted([u, v, w] for (u, v), w in D.arcs.items())
    return {"nodes": list(D.nodes), "root": r, "K": K, "arcs": arcs}


def _members(family):
    return [[g, sorted([u, v] for u, v in F)] for g, F in family.members]


def _bench_inputs():
    seen = []
    real = arb_packing.pack_arborescences

    def logged(D, r, K):
        seen.append(_input(D, r, K))
        return real(D, r, K)

    arb_packing.pack_arborescences = logged
    latency_solvers.pack_arborescences = logged
    try:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            assert cli.main(BENCH_ARGS) == 0
    finally:
        arb_packing.pack_arborescences = real
        latency_solvers.pack_arborescences = real
    return seen


def record():
    rng = random.Random(2031)
    inputs = []
    for _ in range(60):
        D, r = random_digraph(rng, max_nodes=8)
        inputs.append(_input(D, r, rng.randint(0, 5)))
    inputs += _bench_inputs()
    cases, keys = [], set()
    for case in inputs:
        key = json.dumps(case, sort_keys=True)
        if key not in keys:
            keys.add(key)
            cases.append(dict(case, members=_members(_pack(case))))
    return cases


def _pack(case):
    D = WeightedDigraph(
        nodes=tuple(case["nodes"]),
        arcs={(u, v): w for u, v, w in case["arcs"]},
    )
    return pack_arborescences(D, case["root"], case["K"])


def test_packings_match_golden():
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(cases) > 60  # the bench inputs follow the random ones
    for case in cases:
        assert _members(_pack(case)) == case["members"], case


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
