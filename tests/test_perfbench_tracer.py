"""The benchmark's tracer still binds to the program.

`perfbench/tracer.py` names the functions it times (`TARGETS`) and the
from-import copies it must rebind (`EXPECTED_COPIES`). Renaming or removing
one of them breaks every traced benchmark run with a `TracerError`; this
test shows it at once. The tracer is executed from its file, read-only, with
no bytecode written next to it.
"""

import importlib
import random
import types
from fractions import Fraction
from pathlib import Path

from conftest import random_instance
from reference import NamedLP
from mdkmlp import latency_solvers, lp_toolkit, pc_tree
from mdkmlp.instance import time_horizon

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    mod = types.ModuleType("perfbench_tracer")
    mod.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), mod.__dict__)
    return mod


def test_tracer_installs_and_uninstalls():
    tracer = _load_tracer()
    modules = [importlib.import_module(f"mdkmlp.{m}") for m in tracer.TARGETS]
    before = [dict(vars(mod)) for mod in modules]
    pc_tree = importlib.import_module("mdkmlp.pc_tree")
    original = pc_tree.coverage_tree
    t = tracer.Tracer("mdkmlp")
    t.install()  # raises TracerError for a missing target or copy
    try:
        assert pc_tree.coverage_tree is not original
    finally:
        t.uninstall()
    for mod, attrs in zip(modules, before):
        for attr, val in attrs.items():
            assert getattr(mod, attr) is val, f"{mod.__name__}.{attr} not restored"


def test_solve_lp_counters_match_the_input_rows():
    names = ("x", "y", "z")
    rows = [
        ({"x": 1, "y": 1}, ">=", 2),
        ({"y": 1, "z": 0}, "<=", 6),
        ({"x": 1, "y": -1, "z": 2}, ">=", 1),
    ]
    lp = NamedLP()
    for name in names:
        lp.add_var(name, obj=1)
    for coeffs, sense, rhs in rows:
        lp.add_constraint(coeffs, sense, rhs)
    tracer = _load_tracer()
    t = tracer.Tracer("mdkmlp")
    t.install()
    try:
        lp_toolkit.solve_lp(lp)
    finally:
        t.uninstall()
    per_name, counts = t.totals()
    assert per_name["lp_toolkit.solve_lp"][0] == 1
    assert counts["solve_lp.rows"] == len(rows)
    assert counts["solve_lp.cols"] == len(names)
    # a zero coefficient is no nonzero of the matrix
    assert counts["solve_lp.nnz"] == sum(
        1 for coeffs, _, _ in rows for c in coeffs.values() if c != 0
    )


def test_pclp_solves_fall_inside_their_probe_spans(monkeypatch):
    # The probes of a coverage walk share one PC-LP model, but each probe
    # is still one build_and_solve_pclp call, which holds all its solves.
    inst = random_instance(random.Random(3), 5, 2, single_depot=True)
    probes = []
    real_probe = pc_tree._pc_tree_probe

    def counted_probe(model, penalties, families):
        probes.append(penalties)
        return real_probe(model, penalties, families)

    kinds = []
    real_solve = lp_toolkit.solve_lp

    def solve(lp, which="LP", T=None):
        kinds.append(which)
        return real_solve(lp, which=which, T=T)

    monkeypatch.setattr(pc_tree, "_pc_tree_probe", counted_probe)
    monkeypatch.setattr(lp_toolkit, "solve_lp", solve)
    t = _load_tracer().Tracer("mdkmlp")
    t.install()
    try:
        latency_solvers.solve_kmlp_combinatorial(inst)
    finally:
        t.uninstall()
    spans = t.spans()
    by_id = {span["id"]: span for span in spans}

    def within(span, name):
        while span["parent"]:
            span = by_id[span["parent"]]
            if span["name"] == name:
                return True
        return False

    solves = [span for span in spans if span["name"] == "lp_toolkit.solve_lp"]
    assert set(kinds) == {"PC-LP"} and len(solves) == len(kinds)
    assert all(within(span, "lp_toolkit.build_and_solve_pclp") for span in solves)
    per_name, counts = t.totals()
    assert per_name["lp_toolkit.build_and_solve_pclp"][0] == len(probes) > 0
    assert counts["pclp.in_tree"] == len(probes)


def test_fallback_calls_counted_per_uncertified_round(monkeypatch):
    # certified_share counts the solves that entered the exact fallback
    inst = random_instance(random.Random(0), 5, 1)  # LP3 in 4 cut rounds
    rounded = lp_toolkit._round_support
    monkeypatch.setattr(
        lp_toolkit, "_round_support",
        lambda vals: {i: v + Fraction(1, 7) for i, v in rounded(vals).items()},
    )
    t = _load_tracer().Tracer("mdkmlp")
    t.install()
    try:
        lp_toolkit.build_and_solve_lp3(inst, time_horizon(inst).T)
    finally:
        t.uninstall()
    per_name, counts = t.totals()
    rounds = per_name["lp_toolkit.solve_lp"][0]
    assert rounds == counts["solve_lp.in_lp3"] > 1
    assert per_name["simplex.exact_simplex"][0] == rounds
