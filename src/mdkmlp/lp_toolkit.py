"""LP core with a cutting-plane loop, plus the four model builders.

Solving strategy: HiGHS (dual simplex) finds the optimum in floats, the
result is rounded to small rationals, and a primal/dual pair is verified
exactly (feasibility, reduced costs, strong duality). The check runs on
plain Python integers: each row, the primal point and the duals are
scaled by the lcm of their denominators, so every test is the Fraction
one multiplied through by a positive integer (after Applegate, Cook, Dash
& Espinoza, "Exact solutions to linear programming problems", ORL 2007).
If certification fails the LP is re-solved by the exact two-phase simplex
in :mod:`mdkmlp.simplex`. Either way callers receive an exactly-optimal
rational vertex solution, which is what the arborescence packing (integer
scaling by the denominator LCM) depends on.

Each :class:`LinearProgram` keeps one HiGHS model, built on its first
solve. A later solve, after a cut round, hands HiGHS only the rows added
since, and dual simplex restarts from the previous optimal basis (Huangfu
& Hall, Math. Prog. Comp. 2018). With a scipy that lacks this binding,
every solve is one ``linprog`` call on the whole LP instead. The two
paths can stop at different optimal vertices after a cut round, so a
rounding may return another plan, with the same guarantee; every exact
optimum is the same.

Importing this module loads scipy's HiGHS extension module by its file
(:func:`_load_highs_core`), not through ``scipy.optimize``, so no other
part of scipy is imported. ``linprog`` and
``scipy.sparse`` are imported only on the fallback path, on its first solve.

Every row the builders make has integer coefficients and right-hand side;
such a row is its own integer form (scale 1) and is stored without
building a Fraction. The prize-collecting LP is a model
(:func:`pclp_model`) solved under any penalties
(:func:`build_and_solve_pclp`): only the z costs change between solves,
and the cuts of earlier solves stay valid and stay in the model, so a
later solve starts warm with them.

LP1 and LP2 measure paths in an integer metric (:func:`_lp_metric`): c,
or on service instances twice the symmetric service metric,
2c(u,v) + d_u + d_v, tested against 2t. Their solutions carry
``meta["draws"]``, the column distributions the roundings sample from,
built once per solution: per (group, t) for LP1 and per t for LP2, a
:class:`DrawTable` of the positive z columns (visiting orders for LP1,
witness tuples of k paths for LP2) in a fixed node order.
"""

import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, count
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import flows, pathdp
from .instance import MetricInstance, group_slots, vehicle_groups
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, exact_simplex

_HIGHS_CORE = "scipy.optimize._highspy._core"


def _load_highs_core():
    """scipy's HiGHS extension module, without importing scipy.optimize.

    The module is loaded from its file under its own name and registered in
    ``sys.modules``, so a later ``import scipy.optimize`` reuses it. Where it
    is imported already (``import scipy.optimize`` imports it), or no such
    file exists, this is the regular import, which raises ImportError on a
    scipy older than 1.15.
    """
    if _HIGHS_CORE not in sys.modules:
        spec = importlib.util.find_spec("scipy")
        for folder in (spec and spec.submodule_search_locations) or ():
            for suffix in importlib.machinery.EXTENSION_SUFFIXES:
                path = os.path.join(folder, "optimize", "_highspy", "_core" + suffix)
                if os.path.isfile(path):
                    loader = importlib.machinery.ExtensionFileLoader(_HIGHS_CORE, path)
                    core_spec = importlib.util.spec_from_file_location(
                        _HIGHS_CORE, path, loader=loader
                    )
                    core = importlib.util.module_from_spec(core_spec)
                    sys.modules[_HIGHS_CORE] = core
                    loader.exec_module(core)
                    return core
    return importlib.import_module(_HIGHS_CORE)


try:  # scipy's binding of HiGHS itself (scipy >= 1.15)
    _core = _load_highs_core()
    HighsModelStatus, _Highs, kHighsInf = _core.HighsModelStatus, _core._Highs, _core.kHighsInf

    _HIGHS_STATUS = {
        HighsModelStatus.kOptimal: OPTIMAL,
        HighsModelStatus.kInfeasible: INFEASIBLE,
        HighsModelStatus.kUnbounded: UNBOUNDED,
    }
except (ImportError, AttributeError):  # older scipy: every solve is one linprog call
    _Highs = None

log = logging.getLogger("mdkmlp.lp")

ZERO = Fraction(0)
ONE = Fraction(1)

_ROUND_DENOM = 10**6
_FLOAT_EPS = 1e-7

# linprog's method="highs-ds", quiet; presolve goes off after the first solve
_HIGHS_OPTIONS = (
    ("output_flag", False),
    ("solver", "simplex"),
    ("simplex_strategy", 1),  # dual
    ("presolve", "on"),
)

# Size guards: past these the LP code raises instead of enumerating on.
CLIENT_CAP = 12  # LP1, LP2: clients in the subset DPs (2^m sets, 3^m splits)
COLUMN_CAP = 100_000  # LP1, LP2: z columns of the configuration LP
MAX_CUTS = 10_000  # cuts one solve_with_cuts call may add


class LpError(Exception):
    pass


class LpInfeasibleError(LpError):
    pass


class LpUnboundedError(LpError):
    pass


class EnumerationCapError(LpError):
    """Raised when a column-enumeration guard trips."""


class Row(NamedTuple):
    """A constraint times its scale ``d`` (the lcm of its denominators):
    ``sum(ints[i] * x[cols[i]]) >= b`` (or ``== b``), ``cols`` sorted, zero
    coefficients dropped, a ``<=`` row negated. ``vals`` and ``rhs`` are
    ``ints[i] / d`` and ``b / d`` for HiGHS: int true division is correctly
    rounded, so they equal ``float(Fraction(a, d))``."""

    cols: Tuple[int, ...]
    ints: Tuple[int, ...]
    b: int
    d: int
    sense: str
    vals: Tuple[float, ...]
    rhs: float


class LinearProgram:
    """Named nonnegative variables, rational objective, growable constraints."""

    def __init__(self):
        self._index: Dict[object, int] = {}
        self.names: List[object] = []
        self.objective: List[Fraction] = []
        self.rows: List[Row] = []
        self._row_set: set = set()
        self.model = None  # the HiGHS model solve_lp keeps, once it has run

    def add_var(self, name, obj=0) -> int:
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        idx = len(self.names)
        self._index[name] = idx
        self.names.append(name)
        self.objective.append(Fraction(obj))
        return idx

    def has_var(self, name) -> bool:
        return name in self._index

    def set_costs(self, costs: Dict[int, Fraction]) -> None:
        """Set the objective coefficient of each column in ``costs``, in the
        HiGHS model too once it exists."""
        for j, c in costs.items():
            self.objective[j] = Fraction(c)
        if self.model is not None:
            self.model.changeColsCost(
                len(costs), np.fromiter(costs, dtype=np.int64, count=len(costs)),
                np.array([float(self.objective[j]) for j in costs]),
            )

    def _row(self, coeffs: Dict[object, Fraction], sense: str, rhs) -> Row:
        if sense not in (">=", "<=", "=="):
            raise ValueError(f"unknown sense {sense!r}")
        index = self._index
        try:
            pairs = sorted((index[name], c) for name, c in coeffs.items())
        except KeyError as exc:
            raise ValueError(
                f"constraint references unknown variable {exc.args[0]!r}"
            ) from None
        if type(rhs) is int and all(type(c) is int for _, c in pairs):
            # an integer row is its own integer form, with d = 1
            d = 1
            s = -1 if sense == "<=" else 1
            cols = tuple(j for j, c in pairs if c)
            ints = tuple(s * c for _, c in pairs if c)
            b = s * rhs
        else:
            fracs = [(j, Fraction(c)) for j, c in pairs]
            fracs = [(j, c) for j, c in fracs if c]
            rhs = Fraction(rhs)
            d = math.lcm(rhs.denominator, *(c.denominator for _, c in fracs))
            s = -d if sense == "<=" else d
            cols = tuple(j for j, _ in fracs)
            ints = tuple(c.numerator * (s // c.denominator) for _, c in fracs)
            b = rhs.numerator * (s // rhs.denominator)
        sense = ">=" if sense == "<=" else sense
        return Row(cols, ints, b, d, sense, tuple(a / d for a in ints), b / d)

    def add_constraint(self, coeffs: Dict[object, Fraction], sense: str, rhs) -> None:
        row = self._row(coeffs, sense, rhs)
        self.rows.append(row)
        self._row_set.add(row)

    def has_constraint(self, coeffs: Dict[object, Fraction], sense: str, rhs) -> bool:
        return self._row(coeffs, sense, rhs) in self._row_set


@dataclass
class LpSolution:
    """Exact rational optimum of one of the package's LPs."""

    values: Dict[object, Fraction]
    objective_value: Fraction
    which: str = "LP"
    T: Optional[int] = None
    meta: dict = field(default_factory=dict)

    def value(self, name) -> Fraction:
        return self.values.get(name, ZERO)


def _round_fraction(val: float) -> Fraction:
    if abs(val) < 1e-9:
        return ZERO
    return Fraction(val).limit_denominator(_ROUND_DENOM)


def _certify(
    lp: LinearProgram,
    x: List[Fraction],
    duals: List[Fraction],
) -> bool:
    """Exact optimality test of a primal/dual pair, on scaled integers.

    With L the lcm of the denominators of x, X = L*x; with w_i = y_i/d_i
    (d_i the scale of row i's integer form) and M the lcm of the
    denominators of w, W = M*w; D is the lcm of the objective's
    denominators. Every test below is the Fraction test (primal
    feasibility, y >= 0 on '>=' rows, reduced costs >= 0, strong duality)
    multiplied through by a positive integer, so the two accept the same
    pairs.
    """
    if any(v < 0 for v in x):
        return False
    L = math.lcm(*(v.denominator for v in x))
    X = [v.numerator * (L // v.denominator) for v in x]
    ws = []
    for (cols, ints, b, d, sense, _, _), y in zip(lp.rows, duals):
        lhs = sum(a * X[j] for j, a in zip(cols, ints))
        bL = b * L
        if lhs < bL or (sense == "==" and lhs != bL):
            return False
        if y != 0:
            if sense == ">=" and y < 0:
                return False
            ws.append((cols, ints, b, Fraction(y, d)))
    M = math.lcm(*(w.denominator for _, _, _, w in ws))
    D = math.lcm(*(c.denominator for c in lp.objective))
    S = [0] * len(lp.objective)
    dual_obj = 0  # M * (dual objective)
    for cols, ints, b, w in ws:
        W = w.numerator * (M // w.denominator)
        for j, a in zip(cols, ints):
            S[j] += W * a
        dual_obj += W * b
    primal_obj = 0  # D * L * (primal objective)
    for c, s_j, x_j in zip(lp.objective, S, X):
        C = c.numerator * (D // c.denominator)
        if C * M < D * s_j:  # D * M * (reduced cost) < 0
            return False
        primal_obj += C * x_j
    return primal_obj * M == dual_obj * D * L


def _csr_parts(rows: Sequence[Row]):
    """``rows`` in CSR form: (indptr, indices, data, rhs)."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row.cols) for row in rows], out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.fromiter(
        chain.from_iterable(row.cols for row in rows), dtype=np.int64, count=nnz
    )
    data = np.fromiter(
        chain.from_iterable(row.vals for row in rows), dtype=float, count=nnz
    )
    rhs = np.array([row.rhs for row in rows], dtype=float)
    return indptr, indices, data, rhs


def _csr(lp: LinearProgram, idx: List[int], sign: float):
    """The rows ``idx`` times ``sign`` as a CSR matrix and a rhs vector;
    ``(None, None)`` when there are none."""
    if not idx:
        return None, None
    from scipy.sparse import csr_array

    indptr, indices, data, b = _csr_parts([lp.rows[i] for i in idx])
    A = csr_array((sign * data, indices, indptr), shape=(len(idx), len(lp.names)))
    return A, sign * b


def linprog(*args, **kwargs):
    """scipy's ``linprog``, imported on its first call: only the fallback
    path solves through it."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _linprog_solve(lp: LinearProgram):
    """One ``linprog`` call on the whole LP, for a scipy without ``_Highs``:
    (status, x, y, simplex iterations), with y in ``lp.rows`` order."""
    c = np.array([float(v) for v in lp.objective])
    ge_rows = [i for i, row in enumerate(lp.rows) if row.sense == ">="]
    eq_rows = [i for i, row in enumerate(lp.rows) if row.sense == "=="]
    A_ub, b_ub = _csr(lp, ge_rows, -1.0)
    A_eq, b_eq = _csr(lp, eq_rows, 1.0)
    res = linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=(0, None), method="highs-ds",
    )
    status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(res.status)
    if status != OPTIMAL:
        return status, None, None, res.nit
    y = [0.0] * len(lp.rows)
    # the >=-form multiplier of a row is minus its A_ub marginal
    for i, m in zip(ge_rows, res.ineqlin.marginals):
        y[i] = -m
    for i, m in zip(eq_rows, res.eqlin.marginals):
        y[i] = m
    return OPTIMAL, res.x, y, res.nit


def _highs_solve(lp: LinearProgram):
    """Solve the LP's own HiGHS model: (status, x, y, simplex iterations),
    with y in ``lp.rows`` order.

    The first call creates the model from every column and row and solves
    it with presolve. Each later call adds only the columns and rows
    appended since, so dual simplex restarts from the last optimal basis.
    """
    h = lp.model
    first = h is None
    if first:
        h = lp.model = _Highs()
        for key, val in _HIGHS_OPTIONS:
            h.setOptionValue(key, val)
    ncols, nrows = h.getNumCol(), h.getNumRow()
    new = len(lp.names) - ncols
    if new:  # x >= 0, with no entries in the rows already there
        h.addVars(new, np.zeros(new), np.full(new, kHighsInf))
        h.changeColsCost(
            new, np.arange(ncols, len(lp.names)),
            np.array([float(v) for v in lp.objective[ncols:]]),
        )
    rows = lp.rows[nrows:]
    if rows:  # b <= row <= b for '==', b <= row < inf for '>='
        indptr, indices, data, rhs = _csr_parts(rows)
        upper = np.array([b if row.sense == "==" else kHighsInf for row, b in zip(rows, rhs)])
        h.addRows(len(rows), rhs, upper, len(data), indptr[:-1], indices, data)
    h.run()
    if first:
        h.setOptionValue("presolve", "off")
    status = _HIGHS_STATUS.get(h.getModelStatus())
    iterations = h.getInfo().simplex_iteration_count
    if status != OPTIMAL:
        return status, None, None, iterations
    sol = h.getSolution()
    return OPTIMAL, sol.col_value, sol.row_dual, iterations


def solve_lp(lp: LinearProgram, which: str = "LP", T: Optional[int] = None) -> LpSolution:
    """Exact rational optimum of the LP (see module docstring for how).

    ``meta["simplex_iterations"]`` is the float solve's iteration count."""
    nvars = len(lp.names)
    if nvars == 0:
        raise LpError("LP has no variables")
    status, xs, ys, iterations = (_linprog_solve if _Highs is None else _highs_solve)(lp)
    if status == INFEASIBLE:
        raise LpInfeasibleError(f"{which} infeasible")
    if status == UNBOUNDED:
        raise LpUnboundedError(f"{which} unbounded")
    x = None
    if status == OPTIMAL:
        x0 = [_round_fraction(v) for v in xs]
        # a >= row's multiplier is nonnegative up to float noise, which is
        # rounded away
        duals = [
            _round_fraction(max(y, 0.0) if row.sense == ">=" else y)
            for row, y in zip(lp.rows, ys)
        ]
        signs_ok = all(y > -_FLOAT_EPS for row, y in zip(lp.rows, ys) if row.sense == ">=")
        if signs_ok and _certify(lp, x0, duals):
            x = x0
        else:
            log.debug("float certification failed for %s; exact fallback", which)
    if x is None:
        rows = []
        for cols, ints, b, d, sense, _, _ in lp.rows:
            dense = [ZERO] * nvars
            for j, a in zip(cols, ints):
                dense[j] = Fraction(a, d)
            rows.append((dense, sense, Fraction(b, d)))
        status, x, _ = exact_simplex(lp.objective, rows)
        if status == INFEASIBLE:
            raise LpInfeasibleError(f"{which} infeasible")
        if status == UNBOUNDED:
            raise LpUnboundedError(f"{which} unbounded")
        assert status == OPTIMAL
    values = {lp.names[j]: x[j] for j in range(nvars) if x[j] != 0}
    obj = sum(lp.objective[j] * v for j, v in enumerate(x) if v != 0)
    return LpSolution(
        values=values, objective_value=Fraction(obj), which=which, T=T,
        meta={"simplex_iterations": iterations},
    )


Cut = Tuple[Dict[object, Fraction], str, Fraction]


def solve_with_cuts(
    lp: LinearProgram,
    oracle: Callable[[LpSolution], List[Cut]],
    which: str = "LP",
    T: Optional[int] = None,
) -> LpSolution:
    """Solve, separate, add cuts, repeat until the oracle is satisfied."""
    added = 0
    for rnd in count(1):
        sol = solve_lp(lp, which=which, T=T)
        cuts = oracle(sol)
        log.debug(
            "%s cut round %d: %d rows, %d simplex iterations, %d cuts",
            which, rnd, len(lp.rows), sol.meta["simplex_iterations"], len(cuts),
        )
        if not cuts:
            return sol
        for coeffs, sense, rhs in cuts:
            known = len(lp._row_set)
            lp.add_constraint(coeffs, sense, rhs)  # the cut's row, built once
            if len(lp._row_set) == known:  # the LP had this row already
                lp.rows.pop()
                raise LpError(
                    f"no progress: separation oracle repeated a {which} constraint"
                )
            added += 1
            if added > MAX_CUTS:
                raise LpError(f"cut limit {MAX_CUTS} exceeded for {which}")


def scaled_int_caps(values: Dict[Tuple, Fraction]) -> Tuple[int, Dict[Tuple, int]]:
    """(scale, caps): the lcm of the denominators of `values`, and each
    positive value times it, an integer."""
    scale = 1
    for v in values.values():
        scale = math.lcm(scale, v.denominator)
    return scale, {
        a: v.numerator * (scale // v.denominator)
        for a, v in values.items()
        if v.numerator > 0
    }


def _arcs_avoiding(inst: MetricInstance, root) -> List[Tuple]:
    """The arcs of the complete digraph on the nodes, except those into root."""
    return [(u, v) for u in inst.nodes for v in inst.nodes if u != v and v != root]


def _arcs_entering(arcs: Sequence[Tuple], S: FrozenSet) -> List[Tuple]:
    return [(u, v) for u, v in arcs if u not in S and v in S]


def _violated_cuts(
    inst: MetricInstance,
    root,
    arc_values: Dict[Tuple, Fraction],
    demands: Sequence[Tuple[object, Fraction]],
) -> List[Tuple[FrozenSet, object]]:
    """Min-cut separation under arc capacities ``arc_values``.

    For each ``(v, need)`` in order with ``need > 0`` (each v at most once),
    a minimum root-v cut of capacity below ``need`` is violated; returns
    ``(S, v)`` for each, with S the side of the cut holding v (the nodes
    outside the min cut's source side), so the cut is the arcs entering S.
    Capacities are scaled to integers once, so the comparison with ``need``
    is exact.
    """
    scale, caps = scaled_int_caps(arc_values)
    node_idx = {v: i for i, v in enumerate(inst.nodes)}
    icaps = {(node_idx[u], node_idx[v]): w for (u, v), w in caps.items()}
    found: List[Tuple[FrozenSet, object]] = []
    for v, need in demands:
        if need <= 0:
            continue
        val, side = flows.min_cut(inst.n, icaps, node_idx[root], node_idx[v])
        if Fraction(val, scale) >= need:
            continue
        S = frozenset(w for w in inst.nodes if node_idx[w] not in side)
        found.append((S, v))
    return found


# ---------------------------------------------------------------------------
# PC-LP


class PcLpModel(NamedTuple):
    """The bidirected prize-collecting LP of one instance and root, without
    its penalties: x[a] for every arc a not into the root, z[v] (v left
    uncovered, z <= 1) for every other node, and per node a degree row and
    a cover row. ``z`` maps each node to its z column."""

    inst: MetricInstance
    root: object
    arcs: List[Tuple]
    z: Dict[object, int]
    lp: LinearProgram


def pclp_model(inst: MetricInstance, root) -> PcLpModel:
    """The PC-LP of ``inst`` and ``root``, for :func:`build_and_solve_pclp`.

    Arcs into the root are omitted: no cut or degree constraint ever needs
    them and dropping them only removes weight an optimum would not use.
    """
    if root not in inst.nodes:
        raise ValueError(f"unknown root {root!r}")
    others = [v for v in inst.nodes if v != root]
    lp = LinearProgram()
    arcs = _arcs_avoiding(inst, root)
    for a in arcs:
        lp.add_var(("x", a), obj=inst.dist(*a))
    z = {}
    for v in others:
        z[v] = lp.add_var(("z", v))
        lp.add_constraint({("z", v): 1}, "<=", 1)
    for v in others:
        inflow = {("x", (u, v)): 1 for u in inst.nodes if u != v}
        outflow = {("x", (v, w)): -1 for w in inst.nodes if w != v and w != root}
        lp.add_constraint({**inflow, **outflow}, ">=", 0)
        lp.add_constraint({**inflow, ("z", v): 1}, ">=", 1)
    return PcLpModel(inst, root, arcs, z, lp)


def build_and_solve_pclp(model: PcLpModel, penalties: Dict[object, Fraction]) -> LpSolution:
    """The PC-LP of ``model`` under ``penalties`` (0 for a node not named),
    with min-cut separation.

    Only the z costs depend on the penalties, and every cut holds whatever
    they are, so the model keeps the cuts of earlier solves and its HiGHS
    model restarts from the last optimal basis.
    """
    inst, root, arcs, z, lp = model
    costs = {}
    for v, j in z.items():
        costs[j] = Fraction(penalties.get(v, 0))
        if costs[j] < 0:
            raise ValueError(f"negative penalty for {v!r}")
    lp.set_costs(costs)

    def oracle(sol: LpSolution) -> List[Cut]:
        xvals = {a: sol.value(("x", a)) for a in arcs}
        demands = [(v, ONE - sol.value(("z", v))) for v in z]
        cuts: List[Cut] = []
        for S, v in _violated_cuts(inst, root, xvals, demands):
            coeffs = {("x", a): 1 for a in _arcs_entering(arcs, S)}
            coeffs[("z", v)] = 1
            cuts.append((coeffs, ">=", 1))
        return cuts

    return solve_with_cuts(lp, oracle, which="PC-LP")


# ---------------------------------------------------------------------------
# column enumeration helpers


def _lp_metric(inst: MetricInstance) -> Tuple[Callable[[object, object], int], int]:
    """The integer metric LP1 and LP2 measure paths in, and its scale: a
    path fits time t when its length is at most scale * t. Plain instances
    use c (scale 1); service instances use twice the symmetric service
    metric, 2c(u,v) + d_u + d_v (scale 2)."""
    if inst.has_service:
        return inst.service_doubled, 2
    return inst.dist, 1


class DrawTable(NamedTuple):
    """A sub-distribution over ``items`` for one uniform draw u in [0, 1):
    ``items[i]`` is drawn when ``cum[i - 1] <= u * denom < cum[i]``, nothing
    when ``u * denom >= cum[-1]`` (the residual mass)."""

    items: Tuple
    cum: Tuple[int, ...]
    denom: int


EMPTY_DRAW = DrawTable((), (), 1)


def draw_table(weighted: Sequence[Tuple[object, Fraction]]) -> DrawTable:
    """The draw table of ``(item, probability)`` pairs, in their order, over
    the lcm of the probabilities' denominators."""
    denom = math.lcm(*(p.denominator for _, p in weighted))
    return DrawTable(
        tuple(item for item, _ in weighted),
        tuple(accumulate(p.numerator * (denom // p.denominator) for _, p in weighted)),
        denom,
    )


# ---------------------------------------------------------------------------
# time-indexed rows shared by LP1, LP2 and LP3
#
# x[gi, v, t] says that a vehicle of group gi serves client v at time t; it
# exists from the first time ``first[v]`` the group can reach v up to T.


def _guard_size(count: int, cap: int, what: str) -> None:
    """LP1's and LP2's size guard: raise when they would build more than cap."""
    if count > cap:
        raise EnumerationCapError(
            f"instance too large for enumeration: {count} {what} > {cap}"
        )


def _has_clients(inst: MetricInstance, T: int, which: str) -> bool:
    """False for a client-free instance, whose LP is empty with optimum 0;
    raises when there are clients but T < 1 leaves no time to serve them."""
    if not inst.clients:
        return False
    if T < 1:
        raise LpInfeasibleError(f"{which} infeasible: T < 1 with clients present")
    return True


def _add_assignment_vars(
    lp: LinearProgram, inst: MetricInstance, gi: int, mult: int, first: Dict, T: int
) -> None:
    """x[gi, v, t] for every v in ``first`` and first[v] <= t <= T, at cost
    mult * w_v * t."""
    for v, t0 in first.items():
        for t in range(t0, T + 1):
            lp.add_var(("x", gi, v, t), obj=mult * inst.weight(v) * t)


def _add_cover_rows(
    lp: LinearProgram, inst: MetricInstance, mults: Sequence[int], T: int, which: str
) -> None:
    """Every client is served at some time by some group's vehicles."""
    for v in inst.clients:
        coeffs = {
            ("x", gi, v, t): mult
            for gi, mult in enumerate(mults)
            for t in range(1, T + 1)
            if lp.has_var(("x", gi, v, t))
        }
        if not coeffs:
            raise LpInfeasibleError(f"{which} infeasible: {v!r} unreachable within T={T}")
        lp.add_constraint(coeffs, ">=", 1)


def _minus_served(lp: LinearProgram, gi: int, v, t: int) -> Dict[object, int]:
    """The term -x[gi, v, tp] for every tp <= t: minus "group gi has served
    v by time t", which a covering row at time t must pay for."""
    return {
        ("x", gi, v, tp): -1 for tp in range(1, t + 1) if lp.has_var(("x", gi, v, tp))
    }


def _solve_config_lp(
    inst: MetricInstance, T: int, which: str, groups: Sequence[Tuple[int, Dict, List]]
) -> LpSolution:
    """Build and solve a configuration LP over vehicle groups.

    Each group is ``(mult, first, columns)``: its number of vehicles,
    ``first`` as for its x columns, and its z columns ``(C, t)``: client
    sets C a vehicle (for LP2, the fleet) can cover by time t, in variable
    order. Rows: cover, then per group one configuration per time and every
    client served by time t in the configuration at t.
    """
    _guard_size(sum(len(columns) for _, _, columns in groups), COLUMN_CAP, "z columns")
    lp = LinearProgram()
    for gi, (mult, first, columns) in enumerate(groups):
        _add_assignment_vars(lp, inst, gi, mult, first, T)
        for C, t in columns:
            lp.add_var(("z", gi, C, t))
    _add_cover_rows(lp, inst, [mult for mult, _, _ in groups], T, which)
    for gi, (_, first, columns) in enumerate(groups):
        at: Dict[int, List[FrozenSet]] = {}  # t -> the client sets usable at t
        for C, t in columns:
            at.setdefault(t, []).append(C)
        for t in range(1, T + 1):
            if t in at:
                lp.add_constraint({("z", gi, C, t): 1 for C in at[t]}, "<=", 1)
        for v in first:
            for t in range(1, T + 1):
                coeffs = {("z", gi, C, t): 1 for C in at.get(t, ()) if v in C}
                coeffs.update(_minus_served(lp, gi, v, t))
                lp.add_constraint(coeffs, ">=", 0)
    return solve_lp(lp, which=which, T=T)


def _draw_tables(sol: LpSolution, column: Callable) -> Dict[object, DrawTable]:
    """Per key, the draw table of the positive z columns in rank order;
    ``column(gi, C, t)`` gives a z column's (key, rank, item to draw)."""
    drawn: Dict[object, List] = {}
    for name, val in sol.values.items():
        if name[0] == "z" and val > 0:
            key, rank, item = column(*name[1:])
            drawn.setdefault(key, []).append((rank, item, val))
    return {
        key: draw_table([(item, val) for _, item, val in sorted(cols, key=lambda c: c[0])])
        for key, cols in drawn.items()
    }


# ---------------------------------------------------------------------------
# LP1: per-vehicle configuration LP


def build_and_solve_lp1(inst: MetricInstance, T: int) -> LpSolution:
    """Configuration LP with per-vehicle path columns, solved exactly.

    Columns are collapsed from ordered paths to covered client sets with a
    cheapest-order witness: two orders of the same set within the length
    budget are identical LP columns, so the collapse is lossless.

    Coverage is linked per depot group (``x[gi, v, t]``): a client covered
    by one group's vehicle stays that group's from then on. When all depots
    coincide LP1 <= LP2 (averaging a snapshot tuple over the group's
    interchangeable vehicles gives a feasible LP1 point); with distinct
    depots it can fail, since LP2 may hand a client over between groups.
    """
    if not _has_clients(inst, T, "LP1"):
        return LpSolution({}, ZERO, which="LP1", T=T)
    _guard_size(len(inst.clients), CLIENT_CAP, "clients")
    clients = inst.clients
    groups = vehicle_groups(inst)
    metric, scale = _lp_metric(inst)
    config_groups = []
    orders = []  # per group: the cheapest visiting order of each client set
    for r, mult in groups:
        serveable = [v for v in clients if r in inst.depots_for(v)]
        paths = pathdp.min_paths(r, serveable, metric)
        first = {v: max(1, -(-paths[frozenset({v})][0] // scale)) for v in serveable}
        columns = [
            (C, t)
            for t in range(1, T + 1)
            for C, (plen, _) in paths.items()
            if C and plen <= scale * t
        ]
        config_groups.append((mult, first, columns))
        orders.append({C: order for C, (_, order) in paths.items()})

    sol = _solve_config_lp(inst, T, "LP1", config_groups)
    node_pos = inst.node_pos

    def column(gi, C, t):
        order = orders[gi][C]
        return (gi, t), [node_pos[v] for v in order], order

    sol.meta["draws"] = _draw_tables(sol, column)
    return sol


# ---------------------------------------------------------------------------
# LP2: global-snapshot configuration LP


def bottleneck_cover_table(
    inst: MetricInstance,
    metric: Callable,
) -> Dict[FrozenSet, Tuple[int, Tuple[Tuple, ...]]]:
    """For each client set U: (min over k-vehicle covers of the max path
    length, witness tuple of k rooted paths covering U exactly, path i
    from ``inst.roots[i]``).

    One :func:`pathdp.fleet` bottleneck split: over each depot group's
    vehicles, then across groups. The witness paths are laid into root slots
    as the split makes them; of the vehicles at one depot, the one added
    last takes the depot's first slot. Allowed depots are not applied:
    every depot's paths may take any client.
    """
    clients = inst.clients
    groups = [
        (r, slots, pathdp.min_paths(r, clients, metric)) for r, slots in group_slots(inst)
    ]
    best, witness = pathdp.fleet(clients, groups, max)
    return {
        frozenset(v for i, v in enumerate(clients) if msk >> i & 1): (val, witness(msk))
        for msk, val in enumerate(best)
        if val < pathdp.INF
    }


def build_and_solve_lp2(inst: MetricInstance, T: int) -> LpSolution:
    """Global-snapshot configuration LP over k-tuple columns, solved exactly.

    Columns are collapsed to the covered client union with a witness tuple:
    the LP constraints only see the union, and a union is usable at time t
    exactly when some k-way split has every path within the budget, which
    the bottleneck cover table answers. The whole fleet is one group of the
    configuration LP, so variables are ``x[0, v, t]`` and ``z[0, U, t]``.

    Because a snapshot need not extend the previous one vehicle by vehicle,
    a client may pass from one depot's vehicle to another's as t grows.
    LP2 >= LP1 when all depots coincide; with distinct depots LP2 can be
    below LP1, whose per-group linking forbids that handover.
    """
    if not _has_clients(inst, T, "LP2"):
        return LpSolution({}, ZERO, which="LP2", T=T)
    _guard_size(len(inst.clients), CLIENT_CAP, "clients")
    clients = inst.clients
    groups = vehicle_groups(inst)
    metric, scale = _lp_metric(inst)
    table = bottleneck_cover_table(inst, metric)
    first = {
        v: max(1, -(-min(metric(r, v) for r, _ in groups) // scale)) for v in clients
    }
    columns = [
        (U, t) for U, (btl, _) in table.items() if U for t in range(1, T + 1)
        if btl <= scale * t
    ]
    sol = _solve_config_lp(inst, T, "LP2", [(1, first, columns)])
    node_pos = inst.node_pos
    sol.meta["draws"] = _draw_tables(
        sol, lambda _, U, t: (t, sorted(node_pos[v] for v in U), table[U][1])
    )
    return sol


# ---------------------------------------------------------------------------
# LP3: bidirected time-indexed LP


def build_and_solve_lp3(inst: MetricInstance, T: int) -> LpSolution:
    """Bidirected LP with per-(vehicle, node, time) cut separation.

    A node cannot be assigned before its direct distance (x fixed to 0 for
    t below it); supports the weighted objective, allowed-depot restriction,
    and the directed service-time metric c'(u,v) = c(u,v) + d(v).
    """
    if not _has_clients(inst, T, "LP3"):
        return LpSolution({}, ZERO, which="LP3", T=T)
    clients = inst.clients
    groups = vehicle_groups(inst)
    ca = inst.service_directed if inst.has_service else inst.dist

    lp = LinearProgram()
    parts = []  # per group: root, arcs, first time of each client it may serve
    for gi, (r, mult) in enumerate(groups):
        arcs = _arcs_avoiding(inst, r)
        first = {v: max(1, ca(r, v)) for v in clients if r in inst.depots_for(v)}
        parts.append((r, arcs, first))
        _add_assignment_vars(lp, inst, gi, mult, first, T)
        for a in arcs:
            for t in range(1, T + 1):
                lp.add_var(("z", gi, a, t))
    _add_cover_rows(lp, inst, [mult for _, mult in groups], T, "LP3")
    for gi, (r, arcs, first) in enumerate(parts):
        for t in range(1, T + 1):
            # length budget
            lp.add_constraint(
                {("z", gi, a, t): ca(*a) for a in arcs}, "<=", t
            )
            # degree: into each client at least as much as out of it
            for v in clients:
                coeffs = {
                    ("z", gi, a, t): 1 if a[1] == v else -1 for a in arcs if v in a
                }
                lp.add_constraint(coeffs, ">=", 0)
            # singleton cuts up front to cut down separation rounds
            for v in first:
                coeffs = {("z", gi, (u, v), t): 1 for u in inst.nodes if u != v}
                coeffs.update(_minus_served(lp, gi, v, t))
                lp.add_constraint(coeffs, ">=", 0)

    def oracle(sol: LpSolution) -> List[Cut]:
        cuts: List[Cut] = []
        for gi, (r, arcs, first) in enumerate(parts):
            # covered[v][t]: x[gi, v, tp] summed over tp <= t
            covered = {
                v: list(accumulate(
                    (sol.value(("x", gi, v, tp)) for tp in range(1, T + 1)), initial=ZERO
                ))
                for v in first
            }
            for t in range(1, T + 1):
                zvals = {a: sol.value(("z", gi, a, t)) for a in arcs}
                demands = [(v, covered[v][t]) for v in first]
                for S, v in _violated_cuts(inst, r, zvals, demands):
                    coeffs = {("z", gi, a, t): 1 for a in _arcs_entering(arcs, S)}
                    coeffs.update(_minus_served(lp, gi, v, t))
                    cuts.append((coeffs, ">=", 0))
        return cuts

    return solve_with_cuts(lp, oracle, which="LP3", T=T)
