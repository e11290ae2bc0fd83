"""Golden record of the LPs that the configuration and bidirected builders solve.

`record()` builds LP1, LP2 and LP3 on FIX_A, FIX_B and a fixed set of random
instances (plain, weighted, service-time and allowed-depot; shared and
distinct depots; k = 1 to 3) at the nearest-neighbour horizon. For every LP
that reaches `solve_lp` it keeps a digest of the model exactly as HiGHS sees
it: the objective, then per row its sense, rhs and sorted (column index,
coefficient) pairs, with `<=` rows flipped to `>=` and zero coefficients
dropped. It also keeps the exact optimum and a digest of the solution by
column index. Variable names are left out, so renaming a variable does not
change the record, but another column order, row order or coefficient does;
HiGHS may return another optimal vertex for a reordered model, which would
change the rounded plans. LP3's rounds after the first follow the vertices
of HiGHS's warm re-solves; the test that solves each model on a new HiGHS
model pins everything that may not depend on them.

The rows are read from `lp.rows` at each `solve_lp` call, as HiGHS receives
them: each row's integer form divided back by its scale, its columns in the
order stored, so the record also pins that every row keeps its columns
increasing.

Regenerate, only for an intended change of the models, with
`PYTHONPATH=src:tests python tests/test_lp_models_golden.py`.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from conftest import cold_highs_solves, random_instance
from mdkmlp import lp_toolkit
from mdkmlp.instance import MetricInstance, time_horizon

GOLDEN = Path(__file__).parent / "golden" / "lp_models.json"
BUILDERS = (
    ("LP1", "build_and_solve_lp1"),
    ("LP2", "build_and_solve_lp2"),
    ("LP3", "build_and_solve_lp3"),
)

# (n, k, options of random_instance)
RANDOM_SPECS = (
    (3, 1, {}),
    (4, 2, {}),
    (5, 3, {}),
    (4, 2, {"single_depot": True}),
    (5, 3, {"single_depot": True}),
    (4, 1, {"weights": True}),
    (5, 2, {"weights": True}),
    (4, 2, {"weights": True, "single_depot": True}),
    (4, 1, {"service": True}),
    (4, 2, {"service": True}),
    (4, 2, {"service": True, "single_depot": True}),
    (4, 2, {"allowed": True}),
    (5, 2, {"allowed": True}),
    (5, 3, {"allowed": True}),
    (5, 2, {"weights": True, "service": True, "allowed": True}),
    (6, 1, {}),
    (6, 2, {"weights": True, "allowed": True}),
)


def instances():
    yield "FIX_A", MetricInstance(
        nodes=("r", "a", "b"), roots=("r",), cost=((0, 1, 3), (1, 0, 2), (3, 2, 0))
    )
    yield "FIX_B", MetricInstance(
        nodes=("r1", "a", "b", "r2"),
        roots=("r1", "r2"),
        cost=((0, 1, 3, 4), (1, 0, 2, 3), (3, 2, 0, 1), (4, 3, 1, 0)),
    )
    rng = random.Random(73)
    for i, (n, k, opts) in enumerate(RANDOM_SPECS):
        label = ",".join([f"n={n}", f"k={k}"] + sorted(opts))
        yield f"{i}:{label}", random_instance(rng, n, k, span=4, **opts)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _canonical_row(row):
    return (row.sense, str(Fraction(row.b, row.d)),
            [(j, str(Fraction(a, row.d))) for j, a in zip(row.cols, row.ints)])


def record():
    models = []
    real_solve = lp_toolkit.solve_lp

    def logged_solve(lp, *args, **kwargs):
        index = {name: j for j, name in enumerate(lp.names)}
        rows = [_canonical_row(row) for row in lp.rows]
        model = json.dumps([[str(c) for c in lp.objective], rows])
        sol = real_solve(lp, *args, **kwargs)
        values = sorted((index[name], str(v)) for name, v in sol.values.items())
        models.append({
            "cols": len(lp.names),
            "rows": len(rows),
            "model": _digest(model),
            "opt": str(sol.objective_value),
            "solution": _digest(json.dumps(values)),
        })
        return sol

    out = {}
    lp_toolkit.solve_lp = logged_solve
    try:
        for label, inst in instances():
            T = time_horizon(inst).T
            entry = {"T": T}
            for which, builder in BUILDERS:
                models.clear()
                try:
                    value = str(getattr(lp_toolkit, builder)(inst, T).objective_value)
                except lp_toolkit.LpError as exc:
                    value = f"{type(exc).__name__}: {exc}"
                entry[which] = {"value": value, "solves": list(models)}
            out[label] = entry
    finally:
        lp_toolkit.solve_lp = real_solve
    return out


def test_models_match_golden():
    assert record() == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_linprog_fallback_differs_only_after_a_cut_round(cold_highs):
    # Each solve on a new HiGHS model, in place of warm re-solves. A warm
    # re-solve may stop at another optimal vertex and so separate other
    # cuts, but nothing before the first cut round may move: LP1 and LP2
    # entirely, and LP3's optimum and first model.
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    fallback = record()
    assert fallback.keys() == golden.keys()
    for label, entry in golden.items():
        other = fallback[label]
        assert (other["T"], other["LP1"], other["LP2"]) == (
            entry["T"], entry["LP1"], entry["LP2"]
        ), label
        assert other["LP3"]["value"] == entry["LP3"]["value"], label
        first = [
            [{key: s[key] for key in ("cols", "rows", "model", "opt")} for s in e["solves"][:1]]
            for e in (other["LP3"], entry["LP3"])
        ]
        assert first[0] == first[1], label


def test_linprog_fallback_same_pclp_optima(monkeypatch):
    # warm re-solves and a new HiGHS model per solve give the same optima
    def optima():
        out = []
        for _, inst in instances():
            for root in dict.fromkeys(inst.roots):
                pen = {v: Fraction(inst.weight(v) * (i + 2), 2) for i, v in enumerate(inst.clients)}
                out.append(lp_toolkit.build_and_solve_pclp(
                    lp_toolkit.pclp_model(inst, root), pen
                ).objective_value)
        return out

    warm = optima()
    cold_highs_solves(monkeypatch)
    assert optima() == warm


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
