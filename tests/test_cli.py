import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import FIX_A_JSON, FIX_B_JSON
from mdkmlp.cli import main

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


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

    def test_seeded_output_is_byte_identical(self, capsys, fixb_path):
        argv = ("solve", "--alg", "multidepot", "--input", fixb_path, "--seed", "7")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

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

    def test_guard_exits_4(self, capsys, big_path):
        code, _, err = run(capsys, "oracle", "--what", "opt", "--input", big_path)
        assert code == 4
        assert "guard" in err

    def test_lp_values(self, capsys, fixb_path):
        for what, expect in (("lp1", "2"), ("lp2", "2"), ("lp3", "2")):
            code, out, _ = run(capsys, "oracle", "--what", what, "--input", fixb_path)
            assert code == 0
            assert json.loads(out)["value"] == expect

    def test_orienteering_requires_budget(self, capsys, fixa_path):
        code, _, err = run(
            capsys, "oracle", "--what", "orienteering", "--input", fixa_path
        )
        assert code == 3
        assert "budget" in err


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

    def test_kmlp_lp_against_lp3_passes(self, capsys, fixa_path, tmp_path):
        sol = self.solve_to_file(capsys, tmp_path, fixa_path, "kmlp-lp")
        code, out, _ = run(
            capsys, "verify", "--input", fixa_path, "--solution", sol,
            "--against", "lp3",
        )
        assert code == 0
        report = json.loads(out)
        assert report["bound"] == pytest.approx(7.1824, abs=1e-3)

    def test_uncovered_client_fails(self, capsys, fixa_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"routes": [["r", "a"]]}))
        code, _, err = run(
            capsys, "verify", "--input", fixa_path, "--solution", str(bad)
        )
        assert code == 1
        assert "uncovered" in err

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

    @pytest.mark.parametrize("k", [2, 1])
    def test_golden_json(self, capsys, k):
        # byte-for-byte reference output (k = 1 also runs mlp-lp); it holds
        # under any PYTHONHASHSEED, and changes only with the numbers
        code, out, _ = run(
            capsys, "bench", "--n", "4", "--k", str(k), "--trials", "3",
            "--seed", "7",
        )
        assert code == 0
        golden = GOLDEN / f"bench_n4_k{k}_trials3_seed7.json"
        assert out == golden.read_text(encoding="utf-8")

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

    def test_bad_parameters_exit_3(self, capsys):
        code, _, _ = run(capsys, "bench", "--n", "0", "--k", "1", "--trials", "1")
        assert code == 3

    def test_unknown_alg_exit_3(self, capsys):
        code, _, _ = run(
            capsys, "bench", "--n", "4", "--k", "1", "--trials", "1",
            "--algs", "wat",
        )
        assert code == 3
