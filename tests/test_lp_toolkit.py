import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import reference
from reference import NamedLP
from conftest import cold_highs_solves, random_instance
from test_lp_models_golden import instances as golden_instances
from mdkmlp import exact_oracles, lp_toolkit, pathdp
from mdkmlp.instance import MetricInstance, time_horizon, vehicle_groups, without_service
from mdkmlp.lp_toolkit import (
    ZERO,
    EnumerationCapError,
    LinearProgram,
    LpError,
    LpInfeasibleError,
    LpUnboundedError,
    build_and_solve_lp1,
    build_and_solve_lp2,
    build_and_solve_lp3,
    build_and_solve_pclp,
    pclp_model,
    _certify,
    solve_lp,
    solve_with_cuts,
)

F = Fraction
PC_TREE_GOLDEN = Path(__file__).parent / "golden" / "pc_tree_seed41.json"


class TestSolveLp:
    def test_single_bound(self):
        lp = NamedLP()
        lp.add_var("x", obj=1)
        lp.add_constraint({"x": 1}, ">=", 3)
        sol = solve_lp(lp)
        assert sol.objective_value == 3
        assert sol.value("x") == 3

    def test_two_vars(self):
        lp = NamedLP()
        lp.add_var("x", obj=1)
        lp.add_var("y", obj=1)
        lp.add_constraint({"x": 1, "y": 1}, ">=", 2)
        lp.add_constraint({"x": 2}, "<=", 1)
        sol = solve_lp(lp)
        assert sol.objective_value == 2

    def test_unbounded(self):
        lp = NamedLP()
        lp.add_var("x", obj=-1)
        with pytest.raises(LpUnboundedError):
            solve_lp(lp)

    def test_infeasible(self):
        lp = NamedLP()
        lp.add_var("x", obj=1)
        lp.add_constraint({"x": 1}, ">=", 2)
        lp.add_constraint({"x": 1}, "<=", 1)
        with pytest.raises(LpInfeasibleError):
            solve_lp(lp)

    def test_other_highs_status_raises(self):
        lp = NamedLP()
        lp.add_var("x", obj=1)
        lp.add_constraint({"x": 1}, ">=", 3)
        solve_lp(lp)

        class Stopped:
            """The LP's HiGHS model, stopping at its time limit."""

            def __init__(self, model):
                self.model = model

            def __getattr__(self, name):
                return getattr(self.model, name)

            def getModelStatus(self):
                return lp_toolkit.HighsModelStatus.kTimeLimit

        lp.model = Stopped(lp.model)
        with pytest.raises(LpError, match=r"^LP: HiGHS stopped with model status kTimeLimit$"):
            solve_lp(lp)


def reference_certify(objective, rows, x, duals):
    """The certificate test in Fraction arithmetic, row by row, on a case's
    own objective and rows, by variable name (a ``<=`` row is read as its
    negated ``>=`` row); the integer certifier must return the same verdict
    on every input."""
    value = dict(zip(objective, x))
    if any(v < 0 for v in x):
        return False
    canon = []
    for coeffs, sense, rhs in rows:
        sign = -1 if sense == "<=" else 1
        canon.append(({name: sign * F(c) for name, c in coeffs.items()}, sign * F(rhs)))
    for (coeffs, rhs), _ in zip(canon, duals):
        if sum(c * value[name] for name, c in coeffs.items()) < rhs:
            return False
    reduced = {name: F(c) for name, c in objective.items()}
    dual_obj = ZERO
    for (coeffs, rhs), y in zip(canon, duals):
        if y < 0:
            return False
        for name, c in coeffs.items():
            reduced[name] -= y * c
        dual_obj += y * rhs
    if any(rc < 0 for rc in reduced.values()):
        return False
    return sum(F(c) * value[name] for name, c in objective.items()) == dual_obj


def reference_row(lp, coeffs, rhs):
    """The stored form of the integer row ``coeffs >= rhs``: columns
    increasing, zero coefficients dropped."""
    index = {name: j for j, name in enumerate(lp.names)}
    terms = sorted((index[name], c) for name, c in coeffs.items() if c != 0)
    return lp_toolkit.Row(tuple(j for j, _ in terms), tuple(c for _, c in terms), rhs)


def small_lp(objective, rows):
    lp = NamedLP()
    for name, c in objective.items():
        lp.add_var(name, obj=c)
    for coeffs, sense, rhs in rows:
        lp.add_constraint(coeffs, sense, rhs)
    return lp


# (objective, rows, x, duals, accepted); a rejected pair named after a
# condition of the certificate breaks that condition and no other. The
# "non-integer" cases are LPs written with fractional coefficients, each row
# multiplied through to integers; their points and duals stay fractional.
CERTIFY_CASES = {
    "negative x": (
        {"x": 1, "y": 1}, [({"x": 1, "y": 1}, ">=", 1)],
        [-1, 2], [1], False,
    ),
    "violated >= row": (
        {"x": 1}, [({"x": 1}, ">=", 2)], [1], [F(1, 2)], False,
    ),
    "violated <= row": (
        {"x": -1}, [({"x": 1}, "<=", 2)], [3], [F(3, 2)], False,
    ),
    "negative dual on a >= row": (
        {"x": 1}, [({"x": 1}, ">=", 0)], [0], [-1], False,
    ),
    "negative reduced cost": (
        {"x": 1, "y": 1}, [({"x": 1}, ">=", 1), ({"y": 1}, ">=", 1)],
        [1, 1], [2, 0], False,
    ),
    "duality gap": (
        {"x": 1}, [({"x": 1}, ">=", 1)], [2], [1], False,
    ),
    "non-integer coefficients": (
        {"x": 1, "y": 1}, [({"x": 2, "y": 3}, ">=", 5)],
        [0, F(5, 3)], [F(1, 3)], True,
    ),
    "non-integer coefficients, x off by 1/10**6": (
        {"x": 1, "y": 1}, [({"x": 2, "y": 3}, ">=", 5)],
        [0, F(5, 3) - F(1, 10**6)], [F(1, 3)], False,
    ),
    "non-integer >=, <= rows and objective": (
        {"x": F(1, 7), "y": F(2, 5)},
        [({"x": 8, "y": 3}, ">=", 14), ({"x": 2}, "<=", 3)],
        [F(3, 2), F(2, 3)], [F(2, 15), F(97, 210)], True,
    ),
}


def on_support(vec):
    """A dense vector in the sparse form `_certify` takes: index -> value,
    zero entries left out."""
    return {i: v for i, v in enumerate(vec) if v != 0}


class TestCertify:
    @pytest.mark.parametrize("case", sorted(CERTIFY_CASES))
    def test_verdict(self, case):
        objective, rows, x, duals, accepted = CERTIFY_CASES[case]
        lp = small_lp(objective, rows)
        x, duals = [F(v) for v in x], [F(y) for y in duals]
        assert _certify(lp, on_support(x), on_support(duals)) is accepted
        assert reference_certify(objective, rows, x, duals) is accepted

    def test_agrees_with_fraction_reference_under_perturbation(self):
        rng = random.Random(17)
        checked = 0
        for objective, rows, x, duals, _ in CERTIFY_CASES.values():
            lp = small_lp(objective, rows)
            for _ in range(40):
                x2, y2 = [F(v) for v in x], [F(y) for y in duals]
                vec = x2 if rng.random() < 0.5 else y2
                i = rng.randrange(len(vec))
                vec[i] += F(rng.randint(-3, 3), rng.choice([1, 2, 3, 7, 10**6]))
                assert _certify(lp, on_support(x2), on_support(y2)) == reference_certify(
                    objective, rows, x2, y2
                )
                checked += 1
        assert checked == 40 * len(CERTIFY_CASES)

    # a cover LP of 12 columns whose optimum has one positive entry, x5 = 2,
    # with the dual 1 on its first row and 0 on its second
    SPARSE_OBJECTIVE = {f"x{j}": 3 if j == 5 else 2 + j % 3 for j in range(12)}
    SPARSE_ROWS = [
        ({f"x{j}": 3 if j == 5 else 2 for j in range(12)}, ">=", 6),
        ({"x5": 1, "x6": 1}, "<=", 2),
    ]

    def sparse_case(self, xs, ys):
        """The rounded floats and _certify's verdict on them, which must be
        the Fraction reference's verdict on the dense vectors."""
        objective, rows = self.SPARSE_OBJECTIVE, self.SPARSE_ROWS
        x, duals = lp_toolkit._round_support(xs), lp_toolkit._round_support(ys)
        verdict = _certify(small_lp(objective, rows), x, duals)
        dense_x = [x.get(j, ZERO) for j in range(12)]
        dense_y = [duals.get(i, ZERO) for i in range(2)]
        assert verdict == reference_certify(objective, rows, dense_x, dense_y)
        return x, verdict

    def test_mostly_zero_support(self):
        x, verdict = self.sparse_case([2.0 if j == 5 else 0.0 for j in range(12)], [1.0, 0.0])
        assert x == {5: 2} and verdict
        # a positive entry off the optimum's support breaks strong duality
        xs = [2.0 if j == 5 else 0.5 * (j == 3) for j in range(12)]
        _, verdict = self.sparse_case(xs, [1.0, 0.0])
        assert not verdict
        # every row is tested, also one with no column on the support: at
        # x = 0, y = 0 only the first row's feasibility fails
        x, verdict = self.sparse_case([0.0] * 12, [0.0, 0.0])
        assert x == {} and not verdict

    def test_tiny_negative_float_rounds_to_zero(self):
        xs = [2.0 if j == 5 else 0.0 for j in range(12)]
        xs[0], xs[7] = -1e-12, -3e-8  # below 1e-9: left out; above: rounds to 0
        x, verdict = self.sparse_case(xs, [1.0 + 1e-13, -1e-12])
        assert x == {5: 2, 7: 0} and verdict

    def test_negative_rounded_entry(self):
        xs = [2.0 if j == 5 else 0.0 for j in range(12)]
        xs[7] = -0.25
        x, verdict = self.sparse_case(xs, [1.0, 0.0])
        assert x[7] == F(-1, 4) and not verdict

    def test_config_lp_pairs_agree_with_the_fraction_reference(self, monkeypatch):
        """On LP1 and LP2 of the golden instances, the array certificate
        accepts each rounded optimum and rejects one perturbation per branch
        (negative x, a violated row, a negative dual, a negative reduced
        cost, a duality gap), always as the Fraction reference does on the
        same dense pair."""
        pairs, real = [], lp_toolkit._certify

        def spy(lp, x, duals):
            pairs.append((lp, dict(x), dict(duals)))
            return real(lp, x, duals)

        monkeypatch.setattr(lp_toolkit, "_certify", spy)
        for _, inst in list(golden_instances())[:8]:
            T = time_horizon(inst).T
            build_and_solve_lp1(inst, T)
            build_and_solve_lp2(inst, T)
        assert len(pairs) >= 12
        verdicts = set()
        for lp, x, y in pairs:
            objective = dict(zip(lp.names, lp.objective))
            rows = [
                ({lp.names[j]: a for j, a in zip(row.cols, row.ints)}, ">=", row.b)
                for row in lp.rows
            ]
            dense = lambda vec, n: [vec.get(i, ZERO) for i in range(n)]
            cases = {
                "optimum": (x, y),
                "negative x": ({**x, 0: F(-1, 3)}, y),
                "violated row": ({j: v / 2 for j, v in x.items()}, y),
                "negative dual": (x, {**y, 0: F(-1, 5)}),
                "negative reduced cost": (x, {i: 3 * v for i, v in y.items()}),
                "duality gap": ({**x, max(x): x[max(x)] + 1}, y),
            }
            for case, (x2, y2) in cases.items():
                verdict = real(lp, x2, y2)
                assert verdict == reference_certify(
                    objective, rows, dense(x2, len(lp.names)), dense(y2, len(lp.rows))
                ), case
                verdicts.add((case, verdict))
        assert ("optimum", True) in verdicts and ("optimum", False) not in verdicts
        assert {case for case, v in verdicts if not v} >= set(cases) - {"optimum"}

    def test_values_past_int64_use_exact_ints(self):
        """min x + y with p x >= 1 and q y >= 1, p and q coprime near 2**32:
        L = M = p q passes 2**63, so every scaled test runs on exact ints."""
        p, q = 2**32 + 15, 2**32 + 17
        objective = {"x": 1, "y": 1}
        rows = [({"x": p}, ">=", 1), ({"y": q}, ">=", 1)]
        lp = small_lp(objective, rows)
        x, y = [F(1, p), F(1, q)], [F(1, p), F(1, q)]
        assert _certify(lp, on_support(x), on_support(y))
        for x2, y2 in (
            ([F(1, p), F(1, q) - F(1, p * q)], y),  # row 2 violated
            (x, [F(1, p), F(1, q) + F(1, p * q)]),  # y's reduced cost < 0
            ([F(1, p), F(1, q) + F(1, p * q)], y),  # duality gap
        ):
            assert not _certify(lp, on_support(x2), on_support(y2))
            assert not reference_certify(objective, rows, x2, y2)
        assert solve_lp(lp).objective_value == F(1, p) + F(1, q)

    def test_solve_lp_returns_certified_fractional_optimum(self):
        objective, rows, x, _, _ = CERTIFY_CASES["non-integer coefficients"]
        sol = solve_lp(small_lp(objective, rows))
        assert sol.objective_value == F(5, 3)
        assert [sol.value(name) for name in objective] == x


class TestExactFallback:
    @staticmethod
    def count_fallbacks(monkeypatch):
        calls = []
        exact = lp_toolkit.exact_simplex

        def counted(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(lp_toolkit, "exact_simplex", counted)
        return calls

    def test_failed_certification_falls_back_to_exact_simplex(self, monkeypatch, fix_a):
        T = time_horizon(fix_a).T
        lp3 = build_and_solve_lp3(fix_a, T).objective_value
        lp1 = build_and_solve_lp1(fix_a, T).objective_value
        objective, rows, _, _, _ = CERTIFY_CASES["non-integer >=, <= rows and objective"]
        small = solve_lp(small_lp(objective, rows)).objective_value
        rounded = lp_toolkit._round_support
        # every rounded guess is off by 1/7 on its support
        monkeypatch.setattr(
            lp_toolkit, "_round_support",
            lambda vals: {i: v + F(1, 7) for i, v in rounded(vals).items()},
        )
        calls = self.count_fallbacks(monkeypatch)
        assert solve_lp(small_lp(objective, rows)).objective_value == small
        assert build_and_solve_lp1(fix_a, T).objective_value == lp1
        assert build_and_solve_lp3(fix_a, T).objective_value == lp3
        assert len(calls) >= 3

    def test_frozen_lp3_certifies_from_its_basis_within_budget(self, monkeypatch):
        # LP3's 5th cut round here (1304 rows x 4024 columns) has a rounded
        # optimum that does not certify. Its basis solve takes 0.2 s, and
        # LP3 0.6 s in all, on a 2-vCPU machine: a budget of 20 s
        calls = self.count_fallbacks(monkeypatch)
        inst = random_instance(random.Random(3), 12, 1, span=10)
        T = time_horizon(inst).T
        start = time.perf_counter()
        sol = build_and_solve_lp3(inst, T)
        assert time.perf_counter() - start < 20
        assert (T, sol.objective_value) == (31, F(4073, 30))
        assert len(calls) >= 1

    def test_basis_solve_refuses_a_singular_or_nonsquare_basis(self):
        # x + y >= 2 and 2x + 2y >= 4 tight, x and y basic
        lp = LinearProgram()
        lp.add_vars(["x", "y"], [1, 1])
        lp.add_row([0, 1], [1, 1], 2)
        lp.add_row([0, 1], [2, 2], 4)
        assert lp_toolkit.exact_simplex(lp, [0, 1], [0, 1]) is None
        assert lp_toolkit.exact_simplex(lp, [0], [0, 1]) is None
        x, y = lp_toolkit.exact_simplex(lp, [0], [1])
        assert (x, y) == ({0: 2}, {1: F(1, 2)}) and _certify(lp, x, y)


def assert_model_mirrors(lp):
    """The LP's HiGHS model holds exactly its columns and rows: x >= 0 with
    the float objective, the matrix of `lp.rows`, and b <= row < inf."""
    h = lp.model
    assert (h.getNumRow(), h.getNumCol()) == (len(lp.rows), len(lp.names))
    model = h.getLp()
    A = model.a_matrix_
    colwise = A.format_.name == "kColwise"
    start, index, value = A.start_, A.index_, A.value_
    got = np.zeros((len(lp.rows), len(lp.names)))
    for outer in range(len(start) - 1):
        for k in range(start[outer], start[outer + 1]):
            if colwise:
                got[index[k], outer] = value[k]
            else:
                got[outer, index[k]] = value[k]
    want = np.zeros_like(got)
    for i, row in enumerate(lp.rows):
        for j, a in zip(row.cols, row.ints):
            want[i, j] = float(a)
    assert np.array_equal(got, want)
    assert list(model.row_lower_) == [float(row.b) for row in lp.rows]
    assert list(model.row_upper_) == [math.inf] * len(lp.rows)
    assert list(model.col_cost_) == [float(c) for c in lp.objective]
    assert list(model.col_lower_) == [0.0] * len(lp.names)
    assert list(model.col_upper_) == [math.inf] * len(lp.names)


class TestWarmModel:
    """Each LP keeps one HiGHS model; a re-solve adds only what is new."""

    def mirrored_rounds(self, monkeypatch, build) -> int:
        """Run ``build``, checking the model after every solve; the number
        of solves."""
        rounds = 0
        real = lp_toolkit.solve_lp

        def checked(lp, *args, **kwargs):
            nonlocal rounds
            model = lp.model
            sol = real(lp, *args, **kwargs)
            assert model is None or lp.model is model  # one model per LP
            assert_model_mirrors(lp)
            rounds += 1
            return sol

        monkeypatch.setattr(lp_toolkit, "solve_lp", checked)
        build()
        return rounds

    def test_lp3_model_after_each_cut_round(self, monkeypatch, fix_a):
        build = lambda: build_and_solve_lp3(fix_a, time_horizon(fix_a).T)
        assert self.mirrored_rounds(monkeypatch, build) == 1
        inst = random_instance(random.Random(0), 5, 1)
        build = lambda: build_and_solve_lp3(inst, time_horizon(inst).T)
        assert self.mirrored_rounds(monkeypatch, build) >= 3

    def test_pclp_model_after_each_cut_round(self, monkeypatch):
        inst = random_instance(random.Random(0), 5, 1)
        pen = {v: F(10) for v in inst.clients}
        build = lambda: build_and_solve_pclp(pclp_model(inst, inst.roots[0]), pen)
        assert self.mirrored_rounds(monkeypatch, build) >= 3

    def test_columns_and_rows_added_after_a_solve(self):
        # no builder adds a column after solving, but the model follows one
        lp = NamedLP()
        for name, cost in (("x", 1), ("y", 2)):
            lp.add_var(name, obj=cost)
        lp.add_constraint({"x": 2, "y": 2}, ">=", 3)
        assert solve_lp(lp).objective_value == F(3, 2)
        lp.add_var("w", obj=F(1, 3))
        lp.add_constraint({"w": 1, "x": -1}, ">=", 0)
        lp.add_constraint({"x": 4}, "<=", 5)
        sol = solve_lp(lp)
        assert_model_mirrors(lp)
        # x = w costs 4/3 a unit and takes 5/4 of the 3/2; y the rest at 2
        assert sol.objective_value == F(5, 4) * F(4, 3) + F(1, 4) * 2
        assert sol.values == {"x": F(5, 4), "w": F(5, 4), "y": F(1, 4)}


class TestRowRecord:
    """A row is kept in integers, as given: without its zero coefficients,
    and never divided through. The by-name adapter hands a ``<=`` row over
    negated."""

    def lp(self):
        lp = NamedLP()
        lp.add_var("x", obj=1)
        lp.add_var("y", obj=1)
        return lp

    def test_le_row_is_its_negated_ge_row(self):
        lp = self.lp()
        lp.add_constraint({"x": 2, "y": 1}, "<=", 6)
        assert lp.rows == [reference_row(lp, {"x": -2, "y": -1}, -6)]
        negated = self.lp()
        negated.add_constraint({"x": -2, "y": -1}, ">=", -6)
        assert negated.rows == lp.rows

    def test_scaled_multiples_are_different_rows(self):
        lp = self.lp()
        lp.add_constraint({"x": 2}, ">=", 2)
        assert reference_row(lp, {"x": 1}, 1) not in lp.rows
        assert reference_row(lp, {"x": 2}, 2) in lp.rows

    def test_zero_coefficient_is_dropped(self):
        lp = self.lp()
        lp.add_constraint({"x": 1, "y": 0}, ">=", 1)
        assert reference_row(lp, {"x": 1}, 1) in lp.rows
        assert len(lp.rows[0][0]) == 1

    def test_unknown_variable_fails_even_with_coefficient_zero(self):
        with pytest.raises(ValueError, match="unknown variable 'q'"):
            self.lp().add_constraint({"x": 1, "q": 0}, ">=", 1)

    def test_fraction_coefficient_or_rhs_is_refused(self):
        # every row is integer; a Fraction, even a whole one, or a float is
        # refused by each way in, before anything is stored
        lp = self.lp()
        for ints, b in (((1, F(1, 2)), 1), ((1, F(2)), 1), ((1, 1), F(1, 2)),
                        ((1, 1), F(3)), ((1, 1), 1.0)):
            coeffs = dict(zip(("x", "y"), ints))
            for add in (
                lambda: lp.add_row((0, 1), ints, b),
                lambda: lp.add_constraint(coeffs, "<=", b),
            ):
                with pytest.raises(ValueError, match="coefficients and right-hand side must be ints"):
                    add()
        assert lp.rows == []

    def test_add_row_gives_the_add_constraint_row(self):
        # the same random integer rows by column index through add_row and
        # by name through add_constraint, a "<=" row negated for add_row
        rng = random.Random(12)
        by_name, by_index = NamedLP(), LinearProgram()
        names = [f"v{i}" for i in range(8)]
        for lp in (by_name, by_index):
            lp.add_vars(names, [1] * len(names))
        dropped = 0
        for _ in range(400):
            sign = rng.choice((1, -1))
            cols = sorted(rng.sample(range(8), rng.randint(0, 8)))
            coefs = [rng.randint(-3, 3) for _ in cols]
            rhs = rng.randint(-5, 5)
            dropped += coefs.count(0)
            coeffs = dict(zip((names[j] for j in cols), coefs))
            by_name.add_constraint(coeffs, ">=" if sign > 0 else "<=", rhs)
            by_index.add_row(cols, [sign * a for a in coefs], sign * rhs)
            want = {name: sign * c for name, c in coeffs.items()}
            assert repr(by_index.rows[-1]) == repr(by_name.rows[-1])
            assert repr(by_index.rows[-1]) == repr(reference_row(by_name, want, sign * rhs))
            assert 0 not in by_index.rows[-1].ints
        assert by_index.rows == by_name.rows and dropped > 50

    def test_add_rows_appends_a_block_or_nothing(self):
        # a CSR block gives the rows that add_row gives one at a time, after
        # the rows already stored; a block with an array that is not int64,
        # or with a zero coefficient, is refused before anything is stored
        lp, by_row = LinearProgram(), LinearProgram()
        for each in (lp, by_row):
            each.add_vars(["x", "y"], [1, 1])
            each.add_row([0], [2], 1)
        block = [
            np.array(a, dtype=np.int64) for a in ([0, 2, 2, 3], [0, 1, 1], [1, -3, 4], [5, -1, 0])
        ]
        lp.add_rows(*block)
        for cols, ints, b in (([0, 1], [1, -3], 5), ([], [], -1), ([1], [4], 0)):
            by_row.add_row(cols, ints, b)
        assert all(np.array_equal(a, b) for a, b in zip(lp.csr(), by_row.csr()))
        assert len(lp.csr()) == 4 and lp.rows == by_row.rows
        before = [a.copy() for a in lp.csr()]
        for i in range(4):
            for dtype in (np.int32, float):
                bad = block[:i] + [block[i].astype(dtype)] + block[i + 1:]
                with pytest.raises(ValueError, match="^a row block is int64 arrays$"):
                    lp.add_rows(*bad)
        with pytest.raises(ValueError, match="^a row block has a zero coefficient$"):
            lp.add_rows(block[0], block[1], np.array([1, 0, 4]), block[3])
        assert all(np.array_equal(a, b) for a, b in zip(lp.csr(), before))

    def test_equality_row_is_refused_by_name(self):
        lp = self.lp()
        with pytest.raises(ValueError, match="unknown sense '=='"):
            lp.add_constraint({"x": 1}, "==", 1)
        assert lp.rows == []


def separation_instances():
    """The `lp_models` golden instances, then 30 seeded random ones."""
    yield from (inst for _, inst in golden_instances())
    rng = random.Random(2028)
    for _ in range(30):
        opts = {key: rng.random() < 0.3 for key in ("weights", "service", "allowed")}
        k = rng.randint(1, 3)
        yield random_instance(rng, rng.randint(k + 2, 6), k, span=4,
                              single_depot=rng.random() < 0.3, **opts)


class TestSeparation:
    """The cut oracles separate on the certified integer point (L, X):
    capacities X[z], demands prefix sums of X[x], all at the common scale L.
    The Fraction references of tests/reference.py separate on the values by
    name, each min-cut network scaled by the lcm of its own denominators.
    Edmonds-Karp augments the same paths under any positive scale, so every
    round of every instance must give the same cut rows."""

    def checked_rounds(self, monkeypatch, reference_cuts):
        rounds = []  # cuts per round
        real = lp_toolkit.solve_with_cuts

        def spy(lp, oracle, which="LP", T=None):
            def both(sol):
                cuts = oracle(sol)
                want = [reference_row(lp, *cut) for cut in reference_cuts(sol)]
                got = [lp_toolkit.Row(tuple(cols), tuple(ints), b) for cols, ints, b in cuts]
                assert got == want
                rounds.append(len(cuts))
                return cuts

            return real(lp, both, which, T)

        monkeypatch.setattr(lp_toolkit, "solve_with_cuts", spy)
        return rounds

    def test_lp3_cuts_match_the_fraction_reference(self, monkeypatch):
        at = {}
        rounds = self.checked_rounds(
            monkeypatch, lambda sol: reference.lp3_cuts(at["inst"], at["T"], sol)
        )
        for inst in separation_instances():
            at.update(inst=inst, T=time_horizon(inst).T)
            build_and_solve_lp3(inst, at["T"])
        assert len(rounds) >= 100 and sum(rounds) >= 400

    def test_pclp_cuts_match_the_fraction_reference(self, monkeypatch):
        at = {}
        rounds = self.checked_rounds(
            monkeypatch, lambda sol: reference.pclp_cuts(at["inst"], at["root"], sol)
        )
        for i, inst in enumerate(separation_instances()):
            for root in dict.fromkeys(inst.roots):
                at.update(inst=inst, root=root)
                model = pclp_model(inst, root)
                for scale in (1, 3):
                    pen = {
                        v: F(inst.weight(v) * (j + i % 3 + 1) * scale, 2)
                        for j, v in enumerate(inst.clients)
                    }
                    build_and_solve_pclp(model, pen)
        assert len(rounds) >= 200 and sum(rounds) >= 150


class TestSolveWithCuts:
    def test_satisfied_oracle_is_identity(self):
        lp = NamedLP()
        lp.add_var("x", obj=1)
        lp.add_constraint({"x": 1}, ">=", 3)
        sol = solve_with_cuts(lp, lambda s: [])
        assert sol.objective_value == 3

    def test_repeated_cut_faults(self):
        lp = NamedLP()
        lp.add_var("x", obj=1)
        lp.add_constraint({"x": 1}, ">=", 3)
        with pytest.raises(LpError, match="no progress"):
            solve_with_cuts(lp, lambda s: [((0,), (1,), 3)])

    def test_a_cut_that_holds_at_the_optimum_faults(self, monkeypatch):
        # a new row each round, x >= 3 - round, but each holds at x = 3: the
        # loop stops after its first solve, with nothing stored, well
        # before the cut limit
        monkeypatch.setattr(lp_toolkit, "MAX_CUTS", 5)
        lp = NamedLP()
        lp.add_var("x", obj=1)
        lp.add_constraint({"x": 1}, ">=", 3)
        before = [a.copy() for a in lp.csr()]
        solves = []

        def oracle(sol):
            solves.append(sol.objective_value)
            return [((0,), (1,), 3 - len(solves))]

        with pytest.raises(LpError, match="no progress"):
            solve_with_cuts(lp, oracle)
        assert solves == [3]
        assert all(np.array_equal(a, b) for a, b in zip(lp.csr(), before))

    def test_cuts_converge(self, fix_a):
        # the prize-collecting model converges through the min-cut oracle
        sol = build_and_solve_pclp(
            pclp_model(fix_a, "r"), {"a": F(10), "b": F(10)}
        )
        assert sol.objective_value == exact_oracles.exact_pc_paths(
            fix_a, "r", {"a": F(10), "b": F(10)}
        ).value


    def test_debug_log_has_one_record_per_cut_round(self, caplog, monkeypatch, fix_a):
        solves = []
        real = lp_toolkit.solve_lp

        def counted(lp, *args, **kwargs):
            sol = real(lp, *args, **kwargs)
            solves.append((len(lp.rows), sol.meta["simplex_iterations"]))
            return sol

        monkeypatch.setattr(lp_toolkit, "solve_lp", counted)
        inst = random_instance(random.Random(0), 5, 1)
        for case in (fix_a, inst):
            solves.clear()
            caplog.clear()
            with caplog.at_level("DEBUG", logger="mdkmlp.lp"):
                build_and_solve_lp3(case, time_horizon(case).T)
            rounds = [r for r in caplog.records if r.funcName == "solve_with_cuts"]
            assert len(rounds) == len(solves) >= 1
            cuts = [b[0] - a[0] for a, b in zip(solves, solves[1:])] + [0]
            for i, (rec, (rows, iters), n) in enumerate(zip(rounds, solves, cuts), start=1):
                assert rec.name == "mdkmlp.lp" and rec.levelname == "DEBUG"
                assert rec.getMessage() == (
                    f"LP3 cut round {i}: {rows} rows, {iters} simplex iterations, {n} cuts"
                )
        assert len(solves) >= 3


class TestSizeGuards:
    """Each guard fails loudly with its exact message; the limits are
    lowered so that the tiny fixtures reach them."""

    def test_lp1_caps(self, monkeypatch, fix_a):
        # T = 3: {a} from t = 1, {a, b} and {b} from t = 3
        T = time_horizon(fix_a).T
        monkeypatch.setattr(lp_toolkit, "COLUMN_CAP", 4)
        with pytest.raises(
            EnumerationCapError,
            match=r"^instance too large for enumeration: 5 z columns > 4$",
        ):
            build_and_solve_lp1(fix_a, T)
        monkeypatch.setattr(lp_toolkit, "CLIENT_CAP", 1)
        with pytest.raises(
            EnumerationCapError,
            match=r"^instance too large for enumeration: 2 clients > 1$",
        ):
            build_and_solve_lp1(fix_a, T)

    def test_lp2_caps(self, monkeypatch, fix_b):
        # T = 1: the fleet covers {a}, {b} and {a, b} by t = 1
        T = time_horizon(fix_b).T
        monkeypatch.setattr(lp_toolkit, "COLUMN_CAP", 2)
        with pytest.raises(
            EnumerationCapError,
            match=r"^instance too large for enumeration: 3 z columns > 2$",
        ):
            build_and_solve_lp2(fix_b, T)
        monkeypatch.setattr(lp_toolkit, "CLIENT_CAP", 1)
        with pytest.raises(
            EnumerationCapError,
            match=r"^instance too large for enumeration: 2 clients > 1$",
        ):
            build_and_solve_lp2(fix_b, T)

    def test_client_cap_trips_before_any_subset_dp(self, monkeypatch):
        # Seven depots 10 apart on a line, each with clients 1 and 3 beyond
        # it: 14 clients and T = 3, so only three short paths per depot fit
        # the horizon, but every subset DP runs over all 14 clients.
        nodes, pos, roots = [], {}, []
        for i in range(7):
            r, a, b = f"r{i}", f"a{i}", f"b{i}"
            nodes += [r, a, b]
            pos.update({r: 10 * i, a: 10 * i + 1, b: 10 * i + 3})
            roots.append(r)
        inst = MetricInstance(
            nodes=tuple(nodes),
            roots=tuple(roots),
            cost=tuple(tuple(abs(pos[u] - pos[v]) for v in nodes) for u in nodes),
        )
        T = time_horizon(inst).T
        assert (len(inst.clients), T) == (14, 3)

        def no_dp(*args):
            raise AssertionError("a subset DP ran before the size guard")

        for name in ("min_paths", "min_latency_orders", "split"):
            monkeypatch.setattr(pathdp, name, no_dp)
        for build in (build_and_solve_lp1, build_and_solve_lp2):
            with pytest.raises(
                EnumerationCapError,
                match=r"^instance too large for enumeration: 14 clients > 12$",
            ):
                build(inst, T)

    def test_lp2_builds_past_the_old_path_count(self):
        # 10 clients with 7 817 rooted paths of length <= T from one depot:
        # a guard on ordered paths refused this LP, whose 15 571 client-set
        # columns solve in well under a second.
        inst = random_instance(random.Random(3), 12, 2, span=10)
        T = time_horizon(inst).T
        assert (len(inst.clients), T) == (10, 23)
        sol = build_and_solve_lp2(inst, T)
        assert sol.which == "LP2" and sol.objective_value > 0

    def test_cut_limit(self, monkeypatch):
        # an oracle that always finds a new cut: x >= (current optimum) + 1
        monkeypatch.setattr(lp_toolkit, "MAX_CUTS", 2)
        lp = NamedLP()
        lp.add_var("x", obj=1)
        lp.add_constraint({"x": 1}, ">=", 0)
        with pytest.raises(LpError, match=r"^cut limit 2 exceeded for LP$"):
            solve_with_cuts(
                lp, lambda s: [((0,), (1,), int(s.objective_value) + 1)]
            )
        assert len(lp.rows) == 4  # the third cut went in, then the guard tripped


class TestPcLp:
    def test_high_penalties_cover_everything(self, fix_a):
        # cheapest full cover is the path r -> a -> b of cost 1 + 2 = 3
        sol = build_and_solve_pclp(pclp_model(fix_a, "r"), {"a": F(10), "b": F(10)})
        assert sol.objective_value == 3

    def test_zero_penalties(self, fix_a):
        sol = build_and_solve_pclp(pclp_model(fix_a, "r"), {"a": F(0), "b": F(0)})
        assert sol.objective_value == 0
        assert all(name[0] != "x" or val == 0 for name, val in sol.values.items())

    def test_low_penalties_cover_nothing(self, fix_a):
        sol = build_and_solve_pclp(
            pclp_model(fix_a, "r"), {"a": F(2, 5), "b": F(2, 5)}
        )
        assert sol.objective_value == F(4, 5)

    def test_never_exceeds_exact_path_collections(self):
        rng = random.Random(21)
        for _ in range(10):
            inst = random_instance(rng, rng.randint(2, 5), 1)
            root = inst.roots[0]
            pen = {v: F(rng.randint(0, 10)) for v in inst.clients}
            sol = build_and_solve_pclp(pclp_model(inst, root), pen)
            exact = exact_oracles.exact_pc_paths(inst, root, pen)
            assert sol.objective_value <= exact.value


def test_pclp_model_equals_the_by_name_model():
    """The PC-LP built by column index is the model the by-name builder
    gives: the same CSR arrays, objective, names, arcs and z columns, for
    every node as the root of instances with 2 to 8 nodes."""
    rng = random.Random(43)
    checked = 0
    for n in range(2, 9):
        for opts in ({}, {"weights": True}, {"service": True}):
            inst = random_instance(rng, n, rng.randint(1, 2), **opts)
            for root in inst.nodes:
                got, want = pclp_model(inst, root), reference.pclp_model(inst, root)
                for a, b in zip(got.lp.csr(), want.lp.csr()):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                assert got.lp.objective == want.lp.objective
                assert list(got.lp.names) == list(want.lp.names)
                assert (got.arcs, got.z) == (want.arcs, want.z)
                checked += 1
    assert checked == 3 * sum(range(2, 9))
    with pytest.raises(ValueError, match="unknown root 'q'"):
        pclp_model(inst, "q")


def test_simplex_iterations_are_highs_info_count(monkeypatch):
    # meta["simplex_iterations"] is read by name; it must be the count in
    # HiGHS's info record after the solve, for every LP and every cut round
    seen = {}
    real = lp_toolkit.solve_lp

    def checked(lp, which="LP", T=None):
        sol = real(lp, which, T)
        assert sol.meta["simplex_iterations"] == lp.model.getInfo().simplex_iteration_count
        seen[which] = seen.get(which, 0) + 1
        return sol

    monkeypatch.setattr(lp_toolkit, "solve_lp", checked)
    for inst in (random_instance(random.Random(0), 5, 1), random_instance(random.Random(5), 5, 2)):
        T = time_horizon(inst).T
        build_and_solve_lp1(inst, T)
        build_and_solve_lp2(inst, T)
        build_and_solve_lp3(inst, T)
        model = pclp_model(inst, inst.roots[0])
        for lam in (1, 4, 10):
            build_and_solve_pclp(model, {v: F(lam) for v in inst.clients})
    assert seen["LP1"] == seen["LP2"] == 2 and seen["LP3"] >= 4 and seen["PC-LP"] >= 6


def golden_probe_sequences():
    """(instance, root, penalty maps) for each instance of the pc_tree
    golden: the probes of its coverage walk in the order they ran, then
    those of its pc_tree calls, all of which one shared PC-LP model
    solves."""
    seqs = []
    for rec in json.loads(PC_TREE_GOLDEN.read_text(encoding="utf-8")):
        if "instance" in rec:
            seqs.append((rec["instance"], []))
        else:
            seqs[-1][1].extend({v: F(p) for v, p in probe} for probe in rec["probes"])
    for (nodes, cost), pens in seqs:
        (root,) = set(nodes) - set(pens[0])  # the root has no penalty
        inst = MetricInstance(
            nodes=tuple(nodes), roots=(root,), cost=tuple(map(tuple, cost))
        )
        yield inst, root, pens


class TestSharedPcLp:
    """One PC-LP model solved under a sequence of penalties keeps its cuts;
    each optimum is still that of a fresh model."""

    def test_probe_sequences_in_order_and_shuffled(self, monkeypatch):
        cases = list(golden_probe_sequences())
        assert sum(len(pens) for _, _, pens in cases) >= 70
        fresh = [
            [build_and_solve_pclp(pclp_model(inst, root), pen).objective_value for pen in pens]
            for inst, root, pens in cases
        ]
        rng = random.Random(7)
        for cold in (False, True):
            if cold:  # a new HiGHS model per solve
                cold_highs_solves(monkeypatch)
            for (inst, root, pens), want in zip(cases, fresh):
                order = list(range(len(pens)))
                for shuffled in (False, True):
                    if shuffled:
                        rng.shuffle(order)
                    model = pclp_model(inst, root)
                    for n, i in enumerate(order):
                        before = model.lp.model
                        sol = build_and_solve_pclp(model, pens[i])
                        assert sol.objective_value == want[i]
                        if n:  # one model per LP, unless solves are cold
                            assert (model.lp.model is before) != cold
                        assert_model_mirrors(model.lp)

    def test_penalties_change_only_the_z_costs(self, fix_a):
        model = pclp_model(fix_a, "r")
        arcs = model.lp.objective[: len(model.arcs)]
        assert build_and_solve_pclp(model, {"a": F(10), "b": F(10)}).objective_value == 3
        # b is free to leave out; a is worth its arc r -> a of cost 1
        assert build_and_solve_pclp(model, {"a": F(2)}).objective_value == 1
        assert model.lp.objective == arcs + [F(2), ZERO]
        with pytest.raises(ValueError, match="negative penalty for 'b'"):
            build_and_solve_pclp(model, {"a": F(1), "b": F(-1)})
        assert model.lp.objective == arcs + [F(2), ZERO]


class TestLp3:
    def test_fix_a(self, fix_a):
        T = time_horizon(fix_a).T
        sol = build_and_solve_lp3(fix_a, T)
        assert sol.objective_value <= 4
        assert sol.which == "LP3"

    def test_fix_b(self, fix_b):
        sol = build_and_solve_lp3(fix_b, time_horizon(fix_b).T)
        assert sol.objective_value == 2

    def test_single_client_forced(self):
        inst = MetricInstance(
            nodes=("r", "v"), roots=("r",), cost=((0, 1), (1, 0))
        )
        sol = build_and_solve_lp3(inst, 1)
        assert sol.objective_value == 1
        assert sol.value(("x", 0, "v", 1)) == 1

    def test_too_small_horizon_infeasible(self, fix_a):
        with pytest.raises(LpInfeasibleError):
            build_and_solve_lp3(fix_a, 1)


class TestLp1:
    def test_fix_a_sandwiched(self, fix_a):
        T = time_horizon(fix_a).T
        lp3 = build_and_solve_lp3(fix_a, T).objective_value
        lp1 = build_and_solve_lp1(fix_a, T).objective_value
        assert lp3 <= lp1 <= 4
        assert lp1 == 4  # frozen oracle value

    def test_single_client_forced(self):
        inst = MetricInstance(
            nodes=("r", "v"), roots=("r",), cost=((0, 1), (1, 0))
        )
        sol = build_and_solve_lp1(inst, 1)
        assert sol.objective_value == 1
        assert sol.value(("z", 0, frozenset({"v"}), 1)) == 1

    def test_fix_b(self, fix_b):
        sol = build_and_solve_lp1(fix_b, time_horizon(fix_b).T)
        assert sol.objective_value == 2


class TestLp2:
    def test_k1_matches_lp1(self, fix_a):
        T = time_horizon(fix_a).T
        lp1 = build_and_solve_lp1(fix_a, T).objective_value
        lp2 = build_and_solve_lp2(fix_a, T).objective_value
        assert lp1 == lp2

    def test_fix_b_at_least_bnslb(self, fix_b):
        lp2 = build_and_solve_lp2(fix_b, time_horizon(fix_b).T)
        table = exact_oracles.bnslb(fix_b)
        assert lp2.objective_value >= table.bnslb

    def test_single_client(self):
        inst = MetricInstance(
            nodes=("r", "v"), roots=("r",), cost=((0, 1), (1, 0))
        )
        sol = build_and_solve_lp2(inst, 1)
        assert sol.objective_value == 1


class TestChainProperties:
    def test_lp_chain_and_bnslb(self):
        rng = random.Random(31)
        mixed = [
            random_instance(rng, rng.randint(2, 5), rng.randint(1, 2), span=4)
            for _ in range(8)
        ]
        # random_instance draws distinct depots unless told otherwise, so
        # shared-depot k >= 2 instances must be asked for explicitly
        shared = [
            random_instance(rng, rng.randint(3, 5), 2, span=4, single_depot=True)
            for _ in range(4)
        ]
        shared_checked = 0
        for inst in mixed + shared:
            T = time_horizon(inst).T
            lp1 = build_and_solve_lp1(inst, T).objective_value
            lp2 = build_and_solve_lp2(inst, T).objective_value
            lp3 = build_and_solve_lp3(inst, T).objective_value
            assert lp3 <= lp1
            assert lp2 >= exact_oracles.bnslb(inst).bnslb
            if inst.k == 1:
                assert lp1 == lp2
            if len(set(inst.roots)) == 1:
                # identical depots: vehicles aggregate into one symmetric
                # group, so snapshot columns map into per-vehicle columns
                assert lp1 <= lp2
                if inst.k >= 2:
                    shared_checked += 1
        assert shared_checked == len(shared)

    def test_snapshot_bound_can_undercut_per_vehicle_bound(self):
        # Per-vehicle columns force whichever vehicle covers a node to keep
        # covering it at every later time.  Snapshot columns may hand a node
        # over to a different vehicle as routes lengthen.  With distinct
        # depots that handover can be forced, so the per-vehicle optimum can
        # strictly exceed the snapshot optimum.  Frozen example: depots v2,
        # v3; v4 is first reached via v3 but later only via v2's route once
        # v1 must also be served.
        inst = MetricInstance(
            nodes=("v0", "v1", "v2", "v3", "v4"),
            roots=("v2", "v3"),
            cost=(
                (0, 5, 2, 4, 2),
                (5, 0, 3, 3, 3),
                (2, 3, 0, 4, 2),
                (4, 3, 4, 0, 2),
                (2, 3, 2, 2, 0),
            ),
        )
        T = time_horizon(inst).T
        lp1 = build_and_solve_lp1(inst, T).objective_value
        lp2 = build_and_solve_lp2(inst, T).objective_value
        lp3 = build_and_solve_lp3(inst, T).objective_value
        assert lp1 == F(17, 2)
        assert lp2 == 8
        assert lp3 <= lp2 < lp1


def _fraction_lp_metric(inst):
    """The LP metric in Fractions: c, or c(u,v) + (d_u + d_v)/2 with service."""
    def metric(u, v):
        if u == v:
            return F(0)
        return inst.dist(u, v) + F(inst.service_time(u) + inst.service_time(v), 2)
    return metric


def _fraction_bottleneck(inst, metric):
    """Per client set in mask order, the least over assignments of its
    clients to the vehicles of the max path length, from the Fraction path
    tables of tests/reference.py."""
    clients, roots = inst.clients, inst.roots
    paths = [reference.min_paths(r, clients, metric) for r in roots]
    table = {}
    for mask in range(1 << len(clients)):
        U = [v for i, v in enumerate(clients) if mask >> i & 1]
        table[frozenset(U)] = min(
            max(paths[s][frozenset(v for v, a in zip(U, assign) if a == s)][0]
                for s in range(len(roots)))
            for assign in itertools.product(range(len(roots)), repeat=len(U))
        )
    return table


def test_integer_lp_metric_gives_the_fraction_columns(monkeypatch):
    # LP1 and LP2 test paths in the service-free reduction's metric, the
    # doubled service metric, against 2t; the first times and column sets
    # equal those of the Fraction metric tested against t.
    captured = []
    real = lp_toolkit._solve_config_lp

    def spy(inst, T, which, groups):
        captured.append([
            (
                dict(zip(g.clients, g.first.tolist())),
                [
                    (frozenset(v for b, v in enumerate(g.clients) if mask >> b & 1), t)
                    for mask, t in zip(g.masks.tolist(), g.times.tolist())
                ],
            )
            for g in groups
        ])
        return real(inst, T, which, groups)

    monkeypatch.setattr(lp_toolkit, "_solve_config_lp", spy)
    rng = random.Random(8)
    for i in range(12):
        inst = random_instance(
            rng, rng.randint(3, 6), rng.randint(1, 2), span=5,
            service=i % 4 != 0, allowed=i % 2 == 0,
        )
        T = time_horizon(inst).T
        metric = _fraction_lp_metric(inst)
        assert without_service(inst)[2] == (2 if inst.has_service else 1)
        groups = vehicle_groups(inst)
        captured.clear()
        build_and_solve_lp1(inst, T)
        build_and_solve_lp2(inst, T)
        lp1_groups, [(first2, columns2)] = captured
        for (r, _), (first, columns) in zip(groups, lp1_groups):
            serveable = [v for v in inst.clients if r in inst.depots_for(v)]
            paths = reference.min_paths(r, serveable, metric)
            assert first == {
                v: max(1, math.ceil(paths[frozenset({v})][0])) for v in serveable
            }
            assert columns == [
                (C, t)
                for t in range(1, T + 1)
                for C, (plen, _) in paths.items()
                if C and plen <= t
            ]
        table = _fraction_bottleneck(inst, metric)
        assert first2 == {
            v: max(1, math.ceil(min(metric(r, v) for r, _ in groups)))
            for v in inst.clients
        }
        assert columns2 == [
            (U, t) for U, btl in table.items() if U for t in range(1, T + 1) if btl <= t
        ]


def test_one_path_table_per_instance_root_clients_and_metric(monkeypatch):
    """LP1, LP2's bottleneck cover table and the bottleneck-stroll table all
    ask for path tables of the instance's service-free reduction (the
    instance itself where it has no service), in its metric, so LP2 and
    bnslb share theirs; each distinct (root, clients) is built once per
    instance, and is min_paths' table: its items, its values and the order
    of every mask."""
    real, calls = pathdp.min_paths, []
    monkeypatch.setattr(pathdp, "min_paths", lambda *a: calls.append(a) or real(*a))
    rng = random.Random(3)
    for kind in ("plain", "service", "allowed", "shared"):
        inst = random_instance(
            rng, 6, 2, single_depot=kind == "shared",
            service=kind == "service", allowed=kind == "allowed",
        )
        T = time_horizon(inst).T
        calls.clear()
        build_and_solve_lp1(inst, T)
        build_and_solve_lp2(inst, T)
        exact_oracles.bnslb(inst)
        plain = without_service(inst)[0]
        wanted = {
            (r, tuple(v for v in inst.clients if r in inst.depots_for(v))) for r in inst.depots
        } | {(r, inst.clients) for r in inst.depots}
        assert sorted((r, tuple(items)) for r, items, _ in calls) == sorted(wanted)
        for r, items in wanted:
            table = plain.path_table(r, list(items))
            fresh = real(r, items, plain.dist)
            assert table.items == fresh.items == items
            assert table.values.tolist() == fresh.values.tolist()
            assert [table.order(m) for m in range(1 << len(items))] == [
                fresh.order(m) for m in range(1 << len(items))
            ]
            assert plain.path_table(r, items) is table
        assert len(calls) == len(wanted)


def test_one_bottleneck_split_per_instance(monkeypatch):
    """LP2 and bnslb read one bottleneck cover table of the service-free
    reduction: one pathdp.fleet split per instance, whose value array is
    read-only and equal to a fresh split's."""
    real, calls = pathdp.fleet, []
    monkeypatch.setattr(pathdp, "fleet", lambda *a: calls.append(a) or real(*a))
    rng = random.Random(4)
    for kind in ("plain", "service", "allowed", "shared"):
        inst = random_instance(
            rng, 6, 2, single_depot=kind == "shared",
            service=kind == "service", allowed=kind == "allowed",
        )
        calls.clear()
        build_and_solve_lp2(inst, time_horizon(inst).T)
        exact_oracles.bnslb(inst)
        assert len(calls) == 1, kind
        plain = without_service(inst)[0]
        values, witness = lp_toolkit.bottleneck_cover_table(plain)
        assert len(calls) == 1
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 1
        fresh, fresh_witness = real(*calls[0])
        full = (1 << len(plain.clients)) - 1
        assert values.tolist() == fresh
        assert [witness(m) for m in range(full + 1)] == [fresh_witness(m) for m in range(full + 1)]
