"""How `lp_toolkit` loads scipy's HiGHS binding.

Importing the package loads HiGHS's extension module by its file, under its
own name, and no other part of scipy. Each test runs in a fresh interpreter,
because the test process has imported scipy.optimize already. The tests check
which modules are loaded and what a solve returns, never how long it took.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CORE = "scipy.optimize._highspy._core"

# a two-variable LP: min x + y, x + 2y >= 2, 2x + y >= 2; optimum x = y = 2/3
SOLVE = """
from mdkmlp.lp_toolkit import LinearProgram, solve_lp
lp = LinearProgram()
lp.add_vars(["x", "y"], [1, 1])
lp.add_row([0, 1], [1, 2], 2)
lp.add_row([0, 1], [2, 1], 2)
sol = solve_lp(lp)
out["value"] = str(sol.objective_value)
out["x"] = [str(sol.value("x")), str(sol.value("y"))]
"""


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter with the package on its path; the
    dict ``out`` it fills, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    script = "import json, sys\nout = {}\n" + code + "\nprint(json.dumps(out))\n"
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_import_loads_only_the_highs_core():
    out = run_fresh(
        "import mdkmlp.cli\n"
        "from mdkmlp import lp_toolkit\n"
        "out['highs'] = lp_toolkit._Highs is not None\n"
        "out['on_import'] = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        + SOLVE
        + "out['after_solve'] = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
    )
    assert out["highs"]
    assert (out["value"], out["x"]) == ("4/3", ["2/3", "2/3"])
    for key in ("on_import", "after_solve"):
        mods = out[key]
        assert CORE in mods
        assert not [m for m in mods if m.startswith(("scipy.sparse", "scipy.linalg"))]
        optimize = [m for m in mods if m == "scipy.optimize" or m.startswith("scipy.optimize.")]
        assert [m for m in optimize if m != CORE and not m.startswith(CORE + ".")] == []
    assert out["after_solve"] == out["on_import"]


def test_scipy_optimize_imported_first_is_used():
    out = run_fresh(
        "import scipy.optimize\n"
        "from mdkmlp import lp_toolkit\n"
        "out['same'] = lp_toolkit._Highs is scipy.optimize._highspy._core._Highs\n"
    )
    assert out["same"]


def test_scipy_optimize_imported_later_reuses_the_core():
    out = run_fresh(
        "from mdkmlp import lp_toolkit\n"
        f"core = sys.modules[{CORE!r}]\n"
        "import scipy.optimize\n"
        "res = scipy.optimize.linprog([1, 1], A_ub=[[-1, -2], [-2, -1]], b_ub=[-2, -2])\n"
        "out['status'] = int(res.status)\n"
        "out['fun'] = float(res.fun)\n"
        f"out['same'] = sys.modules[{CORE!r}] is core is lp_toolkit._core\n"
    )
    assert out["status"] == 0
    assert abs(out["fun"] - 4 / 3) < 1e-9
    assert out["same"]


def test_no_extension_file_takes_the_regular_import():
    out = run_fresh(
        "import importlib.machinery\n"
        "importlib.machinery.EXTENSION_SUFFIXES = []\n"
        "from mdkmlp import lp_toolkit\n"
        "out['optimize'] = 'scipy.optimize' in sys.modules\n"
        "import scipy.optimize\n"
        "out['same'] = lp_toolkit._Highs is scipy.optimize._highspy._core._Highs\n"
        + SOLVE
    )
    assert out["optimize"]
    assert out["same"]
    assert (out["value"], out["x"]) == ("4/3", ["2/3", "2/3"])


def test_unimportable_core_names_the_scipy_floor():
    # a None entry in sys.modules makes the core's import raise ImportError,
    # as on a scipy older than 1.15
    out = run_fresh(
        f"sys.modules[{CORE!r}] = None\n"
        "try:\n"
        "    import mdkmlp.cli\n"
        "except ImportError as exc:\n"
        "    out['error'] = [type(exc).__name__, str(exc)]\n"
        "out['optimize'] = 'scipy.optimize' in sys.modules\n"
    )
    kind, message = out["error"]
    assert kind == "ImportError"
    assert message.startswith(f"mdkmlp needs scipy >= 1.15 for its HiGHS binding ({CORE}): ")
    assert not out["optimize"]
