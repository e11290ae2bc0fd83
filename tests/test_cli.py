import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import FIX_A_JSON, FIX_B_JSON, random_instance
from mdkmlp import cli, exact_oracles, lp_toolkit
from mdkmlp.cli import _VERIFY_TOL, _bench_row, main
from mdkmlp.instance import RoutePlan, parse_instance
from mdkmlp.latency_solvers import ALGORITHMS

F = Fraction
GOLDEN = Path(__file__).parent / "golden"
# one depot and no client: every algorithm applies, every bound is 0
CLIENT_FREE_JSON = '{"nodes":["r"],"roots":["r"],"costs":[[0]]}'
# FIX_A with exactly one feature that some algorithm refuses; "depots" is
# FIX_B, whose two vehicles start at two depots
FIX_A_WITH = {
    "vehicles": FIX_A_JSON.replace('"roots":["r"]', '"roots":["r","r"]'),
    "weights": FIX_A_JSON[:-1] + ',"weights":{"a":2,"b":1}}',
    "service": FIX_A_JSON[:-1] + ',"service_times":{"a":1}}',
}
REFUSAL_MESSAGES = {
    "vehicles": "{} requires exactly one vehicle",
    "depots": "single-depot algorithm on multi-depot instance: {}",
    "weights": "{} supports only the unweighted objective",
    "service": "{} supports only the service-free objective",
}
REFUSALS = [(alg, f) for alg, rec in ALGORITHMS.items() for f in rec.refuses]


@pytest.fixture
def fixa_path(tmp_path):
    p = tmp_path / "fixa.json"
    p.write_text(FIX_A_JSON)
    return str(p)


@pytest.fixture
def fixb_path(tmp_path):
    p = tmp_path / "fixb.json"
    p.write_text(FIX_B_JSON)
    return str(p)


@pytest.fixture
def empty_path(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text(CLIENT_FREE_JSON)
    return str(p)


@pytest.fixture
def big_path(tmp_path):
    # a 13-node line: 12 clients, past every exact-oracle guard
    n = 13
    nodes = [f"v{i}" for i in range(n)]
    cost = [[abs(i - j) for j in range(n)] for i in range(n)]
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"nodes": nodes, "roots": ["v0"], "costs": cost}))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_cli(*argv, **env):
    """Run the CLI in a new interpreter with extra environment variables."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "mdkmlp.cli", *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, **env},
    )


class TestSolve:
    def test_kmlp_comb_covers_clients(self, capsys, fixa_path):
        code, out, _ = run(capsys, "solve", "--alg", "kmlp-comb", "--input", fixa_path)
        assert code == 0
        sol = json.loads(out)
        visited = set().union(*(set(r) for r in sol["routes"]))
        assert {"a", "b"} <= visited
        assert sol["algorithm"] == "kmlp-comb"
        assert F(sol["total_latency_exact"]) >= 4  # OPT lower-bounds any plan

    def test_single_depot_alg_on_multi_depot_exits_3(self, capsys, fixb_path):
        code, out, err = run(capsys, "solve", "--alg", "kmlp-lp", "--input", fixb_path)
        assert code == 3
        assert "single-depot algorithm on multi-depot instance" in err

    @pytest.mark.parametrize(
        "alg, feature",
        REFUSALS,
        # a bare name is the refusal of several vehicles or depots
        ids=[a if f in ("vehicles", "depots") else f"{a}-{f}" for a, f in REFUSALS],
    )
    def test_lp3_rounding_on_multi_depot_fails_before_lp3(
        self, capsys, tmp_path, monkeypatch, alg, feature
    ):
        # every refused feature exits 3 with the record's message before any
        # LP, bottleneck-stroll table or exact optimum is computed
        def no_bound(*args):
            pytest.fail(f"a bound was solved for {alg} on a refused instance")

        for name in ("build_and_solve_lp1", "build_and_solve_lp2", "build_and_solve_lp3"):
            monkeypatch.setattr(lp_toolkit, name, no_bound)
        for name in ("bnslb", "exact_kmlp"):
            monkeypatch.setattr(exact_oracles, name, no_bound)
        path = tmp_path / "inst.json"
        path.write_text(FIX_A_WITH.get(feature, FIX_B_JSON))
        message = REFUSAL_MESSAGES[feature].format(alg)
        code, out, err = run(capsys, "solve", "--alg", alg, "--input", str(path))
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("alg", list(ALGORITHMS))
    def test_client_free_instance(self, capsys, empty_path, alg):
        code, out, _ = run(capsys, "solve", "--alg", alg, "--input", empty_path)
        assert code == 0
        sol = json.loads(out)
        assert sol["routes"] == [["r"]]
        assert sol["total_latency_exact"] == "0"
        expect = {
            "multidepot": {"lp1": 0.0},
            "kmlp-lp": {"lp3": 0.0},
            "kmlp-comb": {"bnslb": 0.0},
            "mlp-lp": {"lp3": 0.0},
            "lp2-round": {"lp2": 0.0},
            "bnslb-construct": {"bnslb": 0.0},
        }[alg]
        assert sol["bounds"] == expect

    def test_bound_is_of_this_instance(self, capsys, fixa_path, empty_path):
        # the second run reports its own LP, not the one solved before it
        code, out, _ = run(capsys, "solve", "--alg", "kmlp-lp", "--input", fixa_path)
        assert code == 0
        assert json.loads(out)["bounds"] == {"lp3": 4.0}
        code, out, _ = run(capsys, "solve", "--alg", "kmlp-lp", "--input", empty_path)
        assert code == 0
        assert json.loads(out)["bounds"] == {"lp3": 0.0}

    def test_seeded_output_is_byte_identical(self, capsys, fixb_path):
        argv = ("solve", "--alg", "multidepot", "--input", fixb_path, "--seed", "7")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    @pytest.mark.parametrize("alg", ["kmlp-comb", "kmlp-lp", "mlp-lp", "bnslb-construct"])
    def test_per_run_roundings_ignore_the_seed(self, capsys, fixa_path, alg):
        plans = []
        for seed in ("0", "7"):
            code, out, _ = run(
                capsys, "solve", "--alg", alg, "--input", fixa_path, "--seed", seed
            )
            assert code == 0
            plans.append(json.loads(out)["routes"])
        assert plans[0] == plans[1]

    def test_no_derandomize_flag_exits_2(self, capsys, fixa_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--alg", "kmlp-comb", "--input", fixa_path, "--no-derandomize"])
        assert exc.value.code == 2
        assert "--no-derandomize" in capsys.readouterr().err

    def test_infeasible_own_plan_exits_3(self, capsys, tmp_path, monkeypatch):
        # a plan that the algorithm itself returns and evaluate_plan rejects
        # is a solver error, not an invalid argument
        path = tmp_path / "inst.json"
        path.write_text(FIX_B_JSON[:-1] + ',"allowed_depots":{"a":["r2"]}}')
        bad = RoutePlan(routes=(("r1", "a", "b"), ("r2",)))
        rec = replace(ALGORITHMS["bnslb-construct"], rounding=lambda i, c, b: bad)
        monkeypatch.setitem(ALGORITHMS, "bnslb-construct", rec)
        code, out, err = run(capsys, "solve", "--alg", "bnslb-construct", "--input", str(path))
        assert (code, out, err) == (
            3, "", "error: node 'a' served from disallowed depot 'r1'\n"
        )

    def test_missing_input_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "solve", "--alg", "kmlp-comb", "--input",
            str(tmp_path / "nope.json"),
        )
        assert code == 2
        assert "error" in err

    def test_out_file(self, capsys, fixa_path, tmp_path):
        target = tmp_path / "sol.json"
        code, out, _ = run(
            capsys, "solve", "--alg", "bnslb-construct", "--input", fixa_path,
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        sol = json.loads(target.read_text())
        assert sol["bounds"]["bnslb"] == 4.0


class TestOracle:
    def test_opt(self, capsys, fixa_path):
        code, out, _ = run(capsys, "oracle", "--what", "opt", "--input", fixa_path)
        assert code == 0
        res = json.loads(out)
        assert res["value"] == "4"
        assert res["routes"] == [["r", "a", "b"]]

    def test_bnslb(self, capsys, fixa_path):
        code, out, _ = run(capsys, "oracle", "--what", "bnslb", "--input", fixa_path)
        assert code == 0
        res = json.loads(out)
        assert res["value"] == "4"
        assert res["table"] == ["0", "1", "3"]
        assert "offset" not in res

    def test_bnslb_service_offset_sums_to_value(self, capsys, tmp_path):
        # the table is the service-free reduction's, halved; the offset adds
        # sum w_v d_v / 2, so value = sum(table) + offset
        p = tmp_path / "service.json"
        p.write_text(FIX_A_WITH["service"])
        code, out, _ = run(capsys, "oracle", "--what", "bnslb", "--input", str(p))
        assert code == 0
        res = json.loads(out)
        assert res == {
            "what": "bnslb", "value": "6", "table": ["0", "3/2", "4"], "offset": "1/2",
        }
        assert sum(map(Fraction, res["table"]), Fraction(res["offset"])) == Fraction(res["value"])

    def test_uncertified_lp_exits_3(self, capsys, monkeypatch, fixa_path):
        # neither the rounded optimum nor the vertex of HiGHS's basis certifies
        monkeypatch.setattr(lp_toolkit, "_certify", lambda lp, x, duals: False)
        code, out, err = run(capsys, "oracle", "--what", "lp3", "--input", fixa_path)
        assert (code, out) == (3, "")
        assert err == (
            "error: LP3 not certified: neither its rounded optimum nor the "
            "exact vertex of HiGHS's final basis is optimal\n"
        )

    def test_lp3_certified_from_the_basis(self, capsys, tmp_path):
        # a cut round of this LP3 certifies only from HiGHS's basis
        inst = random_instance(random.Random(3), 12, 1, span=10)
        p = tmp_path / "frozen.json"
        p.write_text(json.dumps({"nodes": inst.nodes, "roots": inst.roots, "costs": inst.cost}))
        code, out, _ = run(capsys, "oracle", "--what", "lp3", "--input", str(p))
        assert code == 0
        assert '"T":31' in out and '"value":"4073/30"' in out

    def test_guard_exits_4(self, capsys, big_path):
        code, _, err = run(capsys, "oracle", "--what", "opt", "--input", big_path)
        assert code == 4
        assert "guard" in err

    def test_pc_paths_guard_exits_4(self, capsys, tmp_path):
        # a line of n nodes with the depot at its end: n = 8, the limit,
        # answers with one path of cost 7; n = 9 is past the guard
        def line(n):
            p = tmp_path / f"line{n}.json"
            cost = [[abs(i - j) for j in range(n)] for i in range(n)]
            p.write_text(json.dumps({"nodes": list(range(n)), "roots": [0], "costs": cost}))
            return run(capsys, "oracle", "--what", "pc-paths", "--input", str(p), "--penalty", "2")

        code, out, _ = line(8)
        assert code == 0
        assert json.loads(out) == {"what": "pc-paths", "value": "7", "paths": [list(range(8))]}
        assert line(9) == (4, "", "error: prize-collecting guard: n=9 > 8\n")

    def test_lp_values(self, capsys, fixb_path):
        for what, expect in (("lp1", "2"), ("lp2", "2"), ("lp3", "2")):
            code, out, _ = run(capsys, "oracle", "--what", what, "--input", fixb_path)
            assert code == 0
            assert json.loads(out)["value"] == expect

    def test_orienteering_requires_budget(self, capsys, fixa_path):
        code, _, err = run(
            capsys, "oracle", "--what", "orienteering", "--input", fixa_path
        )
        assert (code, err) == (2, "error: --budget is required for orienteering\n")

    @pytest.fixture
    def int_path(self, tmp_path):
        # integer node ids on a line at 0, 1, 3, 4; one depot at node 0
        p = tmp_path / "ints.json"
        cost = [[abs(a - b) for b in (0, 1, 3, 4)] for a in (0, 1, 3, 4)]
        p.write_text(json.dumps({"nodes": [0, 1, 2, 3], "roots": [0], "costs": cost}))
        return str(p)

    def test_root_names_an_integer_node(self, capsys, int_path):
        code, out, _ = run(
            capsys, "oracle", "--what", "pc-paths", "--input", int_path,
            "--root", "1", "--penalty", "5",
        )
        assert code == 0
        res = json.loads(out)
        assert res["value"] == "4"  # 1-0 and 1-2-3, nothing left uncovered
        assert sorted(res["paths"]) == [[1, 0], [1, 2, 3]]
        code, out, _ = run(
            capsys, "oracle", "--what", "orienteering", "--input", int_path,
            "--root", "1", "--budget", "3",
        )
        assert code == 0
        assert json.loads(out) == {"what": "orienteering", "value": "2", "path": [1, 2, 3]}

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("--what", "opt", "--root", "a"), "--root"),
            (("--what", "bnslb", "--root", "r"), "--root"),
            (("--what", "lp1", "--root", "b", "--penalty", "9", "--budget", "2"), "--root"),
            (("--what", "lp3", "--penalty", "9"), "--penalty"),
            (("--what", "orienteering", "--budget", "3", "--penalty", "0"), "--penalty"),
            (("--what", "pc-paths", "--budget", "1"), "--budget"),
            (("--what", "lp2", "--budget", "1"), "--budget"),
        ],
        ids=[
            "opt-root", "bnslb-root", "lp1-root", "lp3-penalty",
            "orienteering-penalty", "pc-paths-budget", "lp2-budget",
        ],
    )
    def test_option_the_query_does_not_read_exits_2(self, capsys, fixa_path, argv, flag):
        code, out, err = run(capsys, "oracle", *argv, "--input", fixa_path)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} does not apply to --what {argv[1]}\n"

    def test_pc_paths_reads_an_omitted_penalty_as_0(self, capsys, fixa_path):
        code, out, _ = run(capsys, "oracle", "--what", "pc-paths", "--input", fixa_path)
        assert code == 0
        assert json.loads(out)["value"] == "0"

    def test_unknown_root_exits_2(self, capsys, int_path):
        code, _, err = run(
            capsys, "oracle", "--what", "pc-paths", "--input", int_path, "--root", "9"
        )
        assert code == 2
        assert err == "error: --root '9' matches no node\n"


class TestMalformedInput:
    """Malformed JSON is an invalid argument (exit 2, one error line), not a
    traceback: exit 1 means a verification failure."""

    @pytest.mark.parametrize(
        "instance, message",
        [
            (
                '{"nodes":["a","b"],"roots":["a"],"costs":[5,6]}',
                "'costs' must be a list of lists",
            ),
            (
                '{"nodes":[["a"],"b"],"roots":["b"],"costs":[[0,1],[1,0]]}',
                "'nodes' must be a list of node ids",
            ),
            (
                '{"nodes":["r","a"],"roots":["r"],"costs":[[0,2],[2,0]],'
                '"allowed_depots":[["a","r"]]}',
                "'allowed_depots' must be an object",
            ),
        ],
        ids=["costs-not-rows", "unhashable-node-id", "allowed-depots-list"],
    )
    def test_bad_instance_exits_2(self, capsys, tmp_path, instance, message):
        path = tmp_path / "inst.json"
        path.write_text(instance)
        code, out, err = run(capsys, "oracle", "--what", "opt", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "argv, instance, message",
        [
            # node 1's latency 2 was once lost from per_node_latency, whose
            # keys are strings
            (
                ("solve", "--alg", "kmlp-comb"),
                '{"nodes":["r",1,"1"],"roots":["r"],"costs":[[0,2,3],[2,0,1],[3,1,0]]}',
                "duplicate node ids 1 and '1'",
            ),
            # the optimum was once the DP's INF sentinel, 10**18
            (
                ("oracle", "--what", "opt"),
                '{"nodes":["r","a","b"],"roots":["r","r"],"costs":[[0,1,1],[1,0,2],[1,2,0]],'
                '"weights":{"a":2000000000000000000,"b":1}}',
                "latency sums too large for exact oracles: "
                "48000000000000000024 >= 1000000000000000000",
            ),
            (
                ("oracle", "--what", "opt"),
                '{"nodes":["r","a"],"roots":["r"],"costs":[[0,2],[2,0]],'
                '"allowed_depots":{"a":["a"]}}',
                "allowed depot 'a' of 'a' is not a root",
            ),
            (("oracle", "--what", "opt"), '["r","a"]', "instance JSON must be an object"),
        ],
        ids=[
            "ids-read-the-same", "latency-sums-reach-inf", "depot-not-a-root",
            "json-not-an-object",
        ],
    )
    def test_instance_refused_before_solving_exits_2(
        self, capsys, tmp_path, argv, instance, message
    ):
        path = tmp_path / "inst.json"
        path.write_text(instance)
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_unknown_instance_key_exits_2(self, capsys, tmp_path):
        # the service-time key is "service_times"; "service" was once ignored
        # silently, giving the latency without service times
        path = tmp_path / "inst.json"
        path.write_text(
            '{"nodes":["r","a"],"roots":["r"],"costs":[[0,2],[2,0]],"service":{"a":5}}'
        )
        code, out, err = run(capsys, "oracle", "--what", "opt", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            "error: unknown instance field(s) 'service'; known fields are nodes, "
            "roots, costs, weights, service_times, allowed_depots\n"
        )
        path.write_text(
            '{"nodes":["r","a"],"roots":["r"],"costs":[[0,2],[2,0]],'
            '"service_times":{"a":5}}'
        )
        code, out, _ = run(capsys, "oracle", "--what", "opt", "--input", str(path))
        assert code == 0
        assert json.loads(out)["value"] == "7"

    @pytest.mark.parametrize(
        "solution, message",
        [
            ([1, 2], "solution must be an object with a list of 'routes'"),
            ({"routes": [["r", ["v"]]]}, "each route must be a list of node ids"),
        ],
        ids=["list", "nested-id"],
    )
    def test_bad_solution_exits_2(self, capsys, fixa_path, tmp_path, solution, message):
        path = tmp_path / "sol.json"
        path.write_text(json.dumps(solution))
        code, out, err = run(
            capsys, "verify", "--input", fixa_path, "--solution", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err


class TestVerify:
    def solve_to_file(self, capsys, tmp_path, inst_path, alg):
        target = tmp_path / f"{alg}.json"
        code, _, _ = run(
            capsys, "solve", "--alg", alg, "--input", inst_path,
            "--out", str(target),
        )
        assert code == 0
        return str(target)

    def test_kmlp_comb_against_bnslb_passes(self, capsys, fixa_path, tmp_path):
        sol = self.solve_to_file(capsys, tmp_path, fixa_path, "kmlp-comb")
        code, out, _ = run(
            capsys, "verify", "--input", fixa_path, "--solution", sol,
            "--against", "bnslb",
        )
        assert code == 0
        report = json.loads(out)
        assert report["feasible"]
        assert report["bound"] == pytest.approx(7.1824, abs=1e-3)
        assert report["ratio"] <= report["bound"]

    @pytest.mark.parametrize("alg", ["kmlp-comb", "bnslb-construct"])
    def test_service_instance_against_bnslb_passes(self, capsys, tmp_path, alg):
        # both roundings run on the service-free reduction; its bnslb
        # (0 + 3 + 8 + shift 1)/2 = 6 is FIX_A's optimum with service a = 1
        inst = tmp_path / "service.json"
        inst.write_text(FIX_A_WITH["service"])
        sol = self.solve_to_file(capsys, tmp_path, str(inst), alg)
        assert json.loads(Path(sol).read_text())["bounds"] == {"bnslb": 6.0}
        code, out, _ = run(
            capsys, "verify", "--input", str(inst), "--solution", sol,
            "--against", "bnslb",
        )
        assert code == 0
        report = json.loads(out)
        assert report["denominator"] == "6"
        assert F(report["cost"]) >= 6
        assert report["ratio"] <= report["bound"]

    def test_kmlp_lp_against_lp3_passes(self, capsys, fixa_path, tmp_path):
        sol = self.solve_to_file(capsys, tmp_path, fixa_path, "kmlp-lp")
        code, out, _ = run(
            capsys, "verify", "--input", fixa_path, "--solution", sol,
            "--against", "lp3",
        )
        assert code == 0
        report = json.loads(out)
        assert report["bound"] == pytest.approx(7.1824, abs=1e-3)

    @pytest.mark.parametrize(
        "alg", [alg for alg, rec in ALGORITHMS.items() if rec.factor is not None]
    )
    def test_against_the_records_bound_passes(self, capsys, fixa_path, tmp_path, alg):
        rec = ALGORITHMS[alg]
        sol = self.solve_to_file(capsys, tmp_path, fixa_path, alg)
        code, out, _ = run(
            capsys, "verify", "--input", fixa_path, "--solution", sol,
            "--against", rec.bound,
        )
        assert code == 0
        report = json.loads(out)
        assert (report["against"], report["bound"]) == (rec.bound, float(rec.factor))
        assert report["ratio"] <= report["bound"]

    def test_cost_above_factor_times_bound_fails(self, capsys, tmp_path):
        # clients at 1..5 and 50 on a line: the far client first costs
        # 535 > 2mu* * 65 >= 2mu* * bnslb
        pos = [0, 1, 2, 3, 4, 5, 50]
        inst = tmp_path / "line.json"
        inst.write_text(json.dumps({
            "nodes": [f"v{p}" for p in pos], "roots": ["v0"],
            "costs": [[abs(p - q) for q in pos] for p in pos],
        }))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "algorithm": "kmlp-comb",
            "routes": [["v0", "v50", "v5", "v4", "v3", "v2", "v1"]],
        }))
        code, out, err = run(
            capsys, "verify", "--input", str(inst), "--solution", str(bad),
            "--against", "bnslb",
        )
        assert code == 1
        report = json.loads(out)
        assert (report["cost"], report["denominator"]) == ("535", "65")
        assert err == f"FAIL ratio {535 / 65} exceeds bound {float(ALGORITHMS['kmlp-comb'].factor)}\n"

    def test_uncovered_client_fails(self, capsys, fixa_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"routes": [["r", "a"]]}))
        code, _, err = run(
            capsys, "verify", "--input", fixa_path, "--solution", str(bad)
        )
        assert code == 1
        assert "uncovered" in err

    @pytest.mark.parametrize(
        "recorded", [[1], {"n": 1}, 1.5, True, "one", "1/0"],
        ids=["list", "object", "float", "bool", "word", "zero-denominator"],
    )
    def test_recorded_cost_of_wrong_type_exits_2(self, capsys, fixa_path, tmp_path, recorded):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"routes": [["r", "a", "b"]], "total_latency_exact": recorded})
        )
        code, out, err = run(
            capsys, "verify", "--input", fixa_path, "--solution", str(bad)
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: 'total_latency_exact' must be a rational number as a string "
            f"or an int, not {json.dumps(recorded)}\n"
        )

    @pytest.mark.parametrize("alg", [["x"], {"a": 1}], ids=["list", "object"])
    def test_algorithm_not_a_string_exits_2(self, capsys, fixa_path, tmp_path, alg):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"algorithm": alg, "routes": [["r", "a", "b"]]}))
        code, out, err = run(
            capsys, "verify", "--input", fixa_path, "--solution", str(bad),
            "--against", "bnslb",
        )
        assert (code, out) == (2, "")
        assert err == f"error: 'algorithm' must be a string, not {json.dumps(alg)}\n"

    @pytest.mark.parametrize("recorded", ["4", 4, "8/2"])
    def test_recorded_cost_as_string_or_int_passes(self, capsys, fixa_path, tmp_path, recorded):
        sol = tmp_path / "sol.json"
        sol.write_text(
            json.dumps({"routes": [["r", "a", "b"]], "total_latency_exact": recorded})
        )
        code, out, _ = run(
            capsys, "verify", "--input", fixa_path, "--solution", str(sol)
        )
        assert code == 0
        assert json.loads(out) == {"feasible": True, "cost": "4"}

    def test_cost_mismatch_fails(self, capsys, fixa_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"routes": [["r", "a", "b"]], "total_latency_exact": "3"})
        )
        code, _, err = run(
            capsys, "verify", "--input", fixa_path, "--solution", str(bad)
        )
        assert code == 1
        assert "mismatch" in err


class TestVerifyObjective:
    # weighted clients: the plan's latencies 1 and 2 cost 5*1 + 5*2 = 15
    WEIGHTED_JSON = (
        '{"nodes":["r","a","b"],"roots":["r"],"costs":[[0,1,2],[1,0,1],[2,1,0]],'
        '"weights":{"a":5,"b":5}}'
    )

    def verify(self, capsys, tmp_path, solution):
        inst = tmp_path / "weighted.json"
        inst.write_text(self.WEIGHTED_JSON)
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps(solution))
        return run(
            capsys, "verify", "--input", str(inst), "--solution", str(sol),
            "--against", "opt",
        )

    def test_scored_by_the_instance_objective(self, capsys, tmp_path):
        code, out, _ = self.verify(capsys, tmp_path, {"routes": [["r", "a", "b"]]})
        assert code == 0
        report = json.loads(out)
        assert (report["cost"], report["denominator"], report["ratio"]) == ("15", "15", 1.0)

    def test_other_objective_exits_2(self, capsys, tmp_path):
        code, out, err = self.verify(
            capsys, tmp_path, {"routes": [["r", "a", "b"]], "objective_variant": "plain"}
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: solution's objective_variant 'plain' is not the instance's "
            "objective 'weighted'\n"
        )


class TestBench:
    def test_rows_and_bound(self, capsys):
        code, out, err = run(
            capsys, "bench", "--n", "6", "--k", "2", "--trials", "5",
            "--seed", "1",
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["rows"]) == 5
        mu2 = 7.1824
        for row in report["rows"]:
            entry = row["algs"]["kmlp-comb"]
            assert "error" not in entry
            assert entry["ratios"]["bnslb"] <= mu2 * (1 + 1e-9)
            # every ratio is recomputable from the row's raw fields
            cost = F(entry["cost"])
            assert entry["ratios"]["bnslb"] == pytest.approx(
                float(cost / F(row["bnslb"]))
            )
        assert "inst" in err  # text table goes to stderr

    def test_euclid_line(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--n", "5", "--k", "2", "--trials", "3",
            "--seed", "4", "--metric", "euclid-line",
        )
        assert code == 0
        report = json.loads(out)
        assert report["metric"] == "euclid-line" and len(report["rows"]) == 3
        for row in report["rows"]:
            assert all(row[name] is not None for name in cli.BOUNDS)
            for entry in row["algs"].values():
                assert F(entry["cost"]) >= F(row["opt"])

    def test_euclid_line_instances_are_line_metrics(self):
        # on a line, the farthest two of any three points are as far apart
        # as the other two distances together
        rng = random.Random(47)
        for _ in range(20):
            inst = cli._gen_instance(rng.randint(3, 8), rng.randint(1, 3), "euclid-line", rng)
            for u, v, w in itertools.combinations(inst.nodes, 3):
                a, b, c = sorted((inst.dist(u, v), inst.dist(v, w), inst.dist(u, w)))
                assert c == a + b, (u, v, w)

    def test_k1_chain_on_every_row(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--n", "5", "--k", "1", "--trials", "5",
            "--seed", "2",
        )
        assert code == 0
        report = json.loads(out)
        for row in report["rows"]:
            lp1, lp2, lp3 = F(row["lp1"]), F(row["lp2"]), F(row["lp3"])
            assert lp3 <= lp1 <= lp2
            assert lp1 == lp2  # k=1

    def test_bnslb_table_built_once_per_row(self, capsys, monkeypatch):
        # the row's bnslb column and bnslb-construct share one table
        calls = []
        real = exact_oracles.bnslb

        def counted(inst):
            calls.append(inst)
            return real(inst)

        monkeypatch.setattr(exact_oracles, "bnslb", counted)
        code, _, _ = run(capsys, "bench", "--n", "4", "--k", "2", "--trials", "2")
        assert code == 0
        assert len(calls) == 2

    def test_row_past_oracle_guard(self, monkeypatch):
        # FIX_A has 2 clients: past a limit of 1 both oracle columns are
        # null and bnslb-construct reports the guard, while the LPs still run
        monkeypatch.setattr(exact_oracles, "CLIENT_LIMIT", 1)
        algs = ["kmlp-lp", "bnslb-construct"]
        row = _bench_row(0, parse_instance(FIX_A_JSON), algs, 0)
        assert row["opt"] is None and row["bnslb"] is None
        assert row["lp3"] is not None
        assert row["algs"]["bnslb-construct"] == {
            "error": "exact oracle guard: 2 clients > limit 1"
        }
        assert row["algs"]["kmlp-lp"]["ratios"]["bnslb"] is None

    def test_kmlp_comb_past_oracle_guard(self, capsys, monkeypatch, fixa_path):
        # kmlp-comb's rounding reads no bound: past the guard it still runs,
        # with no bound reported
        monkeypatch.setattr(exact_oracles, "CLIENT_LIMIT", 1)
        code, out, _ = run(capsys, "solve", "--alg", "kmlp-comb", "--input", fixa_path)
        assert code == 0
        sol = json.loads(out)
        assert (sol["bounds"], sol["total_latency_exact"]) == ({}, "4")
        row = _bench_row(0, parse_instance(FIX_A_JSON), ["kmlp-comb"], 0)
        assert row["bnslb"] is None
        assert row["algs"]["kmlp-comb"]["cost"] == "4"

    def test_infeasible_own_plan_is_the_rows_error(self, capsys, monkeypatch):
        # a rejected plan is that algorithm's error entry; the table goes on
        rec = replace(
            ALGORITHMS["kmlp-comb"], rounding=lambda i, c, b: RoutePlan(routes=(("v0",),))
        )
        monkeypatch.setitem(ALGORITHMS, "kmlp-comb", rec)
        code, out, _ = run(
            capsys, "bench", "--n", "3", "--k", "1", "--trials", "2", "--seed", "5",
            "--algs", "kmlp-comb,kmlp-lp",
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["rows"]) == 2
        for row in report["rows"]:
            assert row["algs"]["kmlp-comb"] == {"error": "uncovered node(s): ['v1', 'v2']"}
            assert "cost" in row["algs"]["kmlp-lp"]
        assert list(report["aggregate"]) == ["kmlp-lp"]

    @pytest.mark.parametrize("argv, name", [
        pytest.param(
            ("--n", "4", "--k", "2", "--trials", "3", "--seed", "7"),
            "bench_n4_k2_trials3_seed7", id="2",
        ),
        pytest.param(
            ("--n", "4", "--k", "1", "--trials", "3", "--seed", "7"),
            "bench_n4_k1_trials3_seed7", id="1",
        ),
        # n = 6 random metrics stitch along non-trivial concatenation paths
        pytest.param(
            ("--n", "6", "--k", "1", "--trials", "3", "--seed", "4",
             "--metric", "random",
             "--algs", "kmlp-comb,kmlp-lp,bnslb-construct,mlp-lp"),
            "bench_n6_k1_trials3_seed4_random", id="n6-k1",
        ),
        pytest.param(
            ("--n", "6", "--k", "2", "--trials", "3", "--seed", "4",
             "--metric", "random", "--algs", "kmlp-comb,kmlp-lp,bnslb-construct"),
            "bench_n6_k2_trials3_seed4_random", id="n6-k2",
        ),
        # the three commands README and ROADMAP time by hand
        pytest.param(
            ("--n", "6", "--k", "2", "--trials", "5", "--seed", "1"),
            "bench_n6_k2_trials5_seed1", id="n6-k2-seed1",
        ),
        pytest.param(
            ("--n", "6", "--k", "1", "--trials", "4", "--seed", "3", "--metric", "random"),
            "bench_n6_k1_trials4_seed3_random", id="n6-k1-seed3",
        ),
        pytest.param(
            ("--n", "7", "--k", "3", "--trials", "3", "--seed", "5", "--metric", "random"),
            "bench_n7_k3_trials3_seed5_random", id="n7-k3-seed5",
        ),
    ])
    def test_golden_json(self, capsys, argv, name):
        # byte-for-byte reference output (k = 1 also runs mlp-lp); it holds
        # under any PYTHONHASHSEED, and changes only with the numbers
        code, out, _ = run(capsys, "bench", *argv)
        assert code == 0
        assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")

    def test_golden_linprog_fallback(self, capsys, cold_highs):
        # With a new HiGHS model for every solve, in place of warm re-solves,
        # the bound columns must not move; a rounding of LP3 may return
        # another plan, within its per-run guarantee.
        golden = json.loads(
            (GOLDEN / "bench_n4_k2_trials3_seed7.json").read_text(encoding="utf-8")
        )
        code, out, _ = run(
            capsys, "bench", "--n", "4", "--k", "2", "--trials", "3", "--seed", "7"
        )
        assert code == 0
        fallback = json.loads(out)
        bounds = ("opt", "bnslb", "lp1", "lp2", "lp3")
        assert len(fallback["rows"]) == len(golden["rows"]) == 3
        for row, other in zip(golden["rows"], fallback["rows"]):
            assert [row[b] for b in bounds] == [other[b] for b in bounds]
            for report in (row, other):
                for alg, entry in report["algs"].items():
                    rec = ALGORITHMS[alg]
                    if rec.factor is not None:
                        limit = rec.factor * F(report[rec.bound]) * (1 + _VERIFY_TOL)
                        assert F(entry["cost"]) <= limit, alg

    def test_no_exact_simplex_fallback(self, capsys, monkeypatch):
        # every warm re-solve certifies from its rounded optimum
        def refuse(*args, **kwargs):
            raise AssertionError("exact_simplex fallback taken")

        monkeypatch.setattr(lp_toolkit, "exact_simplex", refuse)
        code, out, _ = run(
            capsys, "bench", "--n", "4", "--k", "2", "--trials", "3", "--seed", "7"
        )
        assert code == 0
        assert out == (GOLDEN / "bench_n4_k2_trials3_seed7.json").read_text(encoding="utf-8")

    def test_one_node(self):
        # a fresh interpreter, so no state left by an earlier test can help
        proc = fresh_cli("bench", "--n", "1", "--k", "1", "--trials", "1")
        assert proc.returncode == 0, proc.stderr
        row = json.loads(proc.stdout)["rows"][0]
        assert row["lp1"] == row["lp2"] == row["lp3"] == row["opt"] == "0"
        assert all(entry["cost"] == "0" for entry in row["algs"].values())

    @pytest.mark.parametrize("level", ["BASIC_FORMAT", "verbose"])
    def test_log_level_not_naming_a_level_is_warning(self, level):
        # a fresh interpreter: logging is configured once per process, and
        # only while the root logger has no handler
        argv = ("bench", "--n", "3", "--k", "1", "--trials", "1")
        proc = fresh_cli(*argv, MLP_LOG=level)
        assert proc.returncode == 0, proc.stderr
        warning = fresh_cli(*argv, MLP_LOG="WARNING")
        assert (proc.stdout, proc.stderr) == (warning.stdout, warning.stderr)

    def test_trials_zero(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--n", "4", "--k", "1", "--trials", "0"
        )
        assert code == 0
        report = json.loads(out)
        assert report["rows"] == []

    def test_determinism(self, capsys):
        argv = ("bench", "--n", "5", "--k", "2", "--trials", "3", "--seed", "9")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_bad_parameters_exit_2(self, capsys):
        for argv in (
            ("--n", "0", "--k", "1", "--trials", "1"),
            ("--n", "4", "--k", "0", "--trials", "1"),
            ("--n", "4", "--k", "1", "--trials", "-1"),
        ):
            code, out, err = run(capsys, "bench", *argv)
            assert (code, out, err) == (2, "", "error: invalid generator parameters\n")

    def test_unknown_alg_exit_2(self, capsys):
        code, out, err = run(
            capsys, "bench", "--n", "4", "--k", "1", "--trials", "1",
            "--algs", "wat",
        )
        assert (code, out, err) == (2, "", "error: unknown algorithm 'wat'\n")

    def test_duplicate_alg_exit_2(self, capsys, monkeypatch):
        def no_instances(*args):
            pytest.fail("an instance was generated before the names were checked")

        monkeypatch.setattr(cli, "_gen_instance", no_instances)
        code, out, err = run(
            capsys, "bench", "--n", "4", "--k", "1", "--trials", "1",
            "--algs", "mlp-lp,kmlp-comb, mlp-lp",
        )
        assert (code, out, err) == (2, "", "error: duplicate algorithm 'mlp-lp'\n")


# stdout and exit code of `solve --seed 3` and `oracle` on the two fixtures,
# recorded before `solve` handed its roundings the LP it reports; the `solve`
# records were re-derived when the per-run roundings stopped printing the
# seed and kmlp-comb began to report its bnslb bound. FIX_A and FIX_B in an
# argv stand for the fixture files
GOLDEN_CLI = json.loads((GOLDEN / "cli_solve_oracle_seed3.json").read_text())


@pytest.mark.parametrize(
    "case", GOLDEN_CLI, ids=lambda c: "-".join(c["argv"][i] for i in (0, 2, 4))
)
def test_golden_solve_and_oracle(capsys, fixa_path, fixb_path, case):
    paths = {"FIX_A": fixa_path, "FIX_B": fixb_path}
    code, out, _ = run(capsys, *(paths.get(a, a) for a in case["argv"]))
    assert code == case["code"]
    assert out == case["stdout"]
