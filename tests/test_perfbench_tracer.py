"""The benchmark's tracer still binds to the program.

`perfbench/tracer.py` names the functions it times (`TARGETS`) and the
from-import copies it must rebind (`EXPECTED_COPIES`). Renaming or removing
one of them breaks every traced benchmark run with a `TracerError`; this
test shows it at once. The tracer is executed from its file, read-only, with
no bytecode written next to it.
"""

import importlib
import types
from pathlib import Path

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
