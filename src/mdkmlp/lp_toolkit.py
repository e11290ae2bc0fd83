"""LP core with a cutting-plane loop, plus the four model builders.

Solving strategy: HiGHS (dual simplex) finds the optimum in floats, the
result is rounded to small rationals, and a primal/dual pair is verified
exactly (feasibility, reduced costs, strong duality). Only the entries of
magnitude at least 1e-9 are rounded; every other one is exactly 0, so the
rounding, the duals' part of the check, the values and the objective run
on the support, while every row and every column's reduced cost is still
tested. The check runs on plain Python integers: every row is integer,
and the primal point and the duals are scaled by the lcm of their
denominators, so every test is the Fraction one multiplied through by a
positive integer (after Applegate, Cook, Dash & Espinoza, "Exact solutions
to linear programming problems", ORL 2007).
If certification fails, :func:`mdkmlp.simplex.exact_simplex` solves the
basis HiGHS ended on exactly, and that pair is certified the same way; if
it does not certify either, or the basis is invalid or singular, the solve
raises :class:`LpError`. No result comes from floats alone: callers receive
an exactly-optimal rational vertex solution, which is what the arborescence
packing (integer scaling by the denominator LCM) depends on.

Each :class:`LinearProgram` keeps one HiGHS model, built on its first
solve. A later solve, after a cut round, hands HiGHS only the rows added
since, and dual simplex restarts from the previous optimal basis (Huangfu
& Hall, Math. Prog. Comp. 2018).

Importing this module loads scipy's HiGHS extension module by its file
(:func:`_load_highs_core`), not through ``scipy.optimize``, so no other
part of scipy is imported. The binding needs scipy >= 1.15; without it the
import raises ImportError.

Rows enter an LP by column index through :meth:`LinearProgram.add_row`;
:meth:`~LinearProgram.add_constraint` is its adapter by variable name. The
builders lay their columns out in blocks (per depot group an x block, each
client's columns in t order, so "served by t" is a slice, and LP3's z block
arc-major) and emit every row as integer coefficients over increasing
column indices; a row must be integer, and is stored as given. Only the
objective may be rational (the PC-LP's penalties). The cut oracles
separate on the certified integer point of the solution
(:attr:`LpSolution.point`): the
min-cut capacities and demands are its entries, all at one common scale,
and each cut goes in as an index row. The prize-collecting LP is a model
(:func:`pclp_model`) solved under any penalties
(:func:`build_and_solve_pclp`): only the z costs change between solves,
and the cuts of earlier solves stay valid and stay in the model, so a
later solve starts warm with them.

LP1 and LP2 measure paths in an integer metric (:func:`_lp_metric`): c,
or on service instances twice the symmetric service metric,
2c(u,v) + d_u + d_v, tested against 2t. Their solutions carry what the
configuration-LP roundings draw from, compiled once, when the LP is solved.
``meta["draws"]`` maps each t in 1..T to a tuple of :class:`DrawTable` s
of the positive z columns at t, in a fixed node order, which a rounding
draws from in turn. Every item of a table is a tuple of (slot,
:class:`Tour`) pairs, each tour measured in the LP metric from its slot's
root. LP1 has one table per vehicle slot, over its depot group's columns,
and each item is the one pair of the column's cheapest visiting order; the
slots of one group share the group's cuts, and each column's item is built
once per slot. LP2 has one table, and each item holds the pairs of the
nonempty paths of the column's witness tuple. ``meta["leftovers"]`` is the
:func:`leftover_order` of the clients.
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
from operator import mul
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import flows, pathdp
from .instance import MetricInstance, group_slots, vehicle_groups
from .simplex import exact_simplex

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


try:  # scipy's binding of HiGHS itself
    _core = _load_highs_core()
    HighsModelStatus, _Highs, kHighsInf = _core.HighsModelStatus, _core._Highs, _core.kHighsInf
    _BASIC = _core.HighsBasisStatus.kBasic
except (ImportError, AttributeError) as exc:
    raise ImportError(
        f"mdkmlp needs scipy >= 1.15 for its HiGHS binding ({_HIGHS_CORE}): {exc}"
    ) from exc

log = logging.getLogger("mdkmlp.lp")

ZERO = Fraction(0)

_ROUND_DENOM = 10**6
_INT = {int}
_FLOAT_EPS = 1e-7

# quiet dual simplex; presolve goes off after the first solve
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
    """A constraint in integers: ``sum(ints[i] * x[cols[i]]) >= b`` (or
    ``== b``), ``cols`` sorted, zero coefficients dropped, a ``<=`` row
    negated."""

    cols: Tuple[int, ...]
    ints: Tuple[int, ...]
    b: int
    sense: str


class LinearProgram:
    """Named nonnegative variables, rational objective, growable constraints."""

    def __init__(self):
        self._index: Dict[object, int] = {}
        self.names: List[object] = []
        self.objective: List = []  # ints and Fractions
        self.rows: List[Row] = []
        self._row_set: set = set()  # rows[:_hashed], for spotting a repeated cut
        self._hashed = 0
        self.model = None  # the HiGHS model solve_lp keeps, once it has run

    def add_var(self, name, obj=0) -> int:
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        idx = len(self.names)
        self._index[name] = idx
        self.names.append(name)
        self.objective.append(Fraction(obj))
        return idx

    def add_vars(self, names: Sequence, costs: Sequence) -> int:
        """A column per name, at the int or Fraction cost beside it; returns
        the first one's index, the others following it."""
        first = len(self.names)
        self._index.update(zip(names, count(first)))
        self.names.extend(names)
        if len(self._index) != len(self.names):
            raise ValueError("duplicate variable among the names added")
        self.objective.extend(costs)
        return first

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

    def add_row(self, cols: Sequence[int], ints: Sequence[int], b: int, sense: str) -> None:
        """Append the row ``sum(ints[i] * x[cols[i]]) sense b``, ``cols``
        increasing; the coefficients and ``b`` must be ints."""
        if sense not in (">=", "<=", "=="):
            raise ValueError(f"unknown sense {sense!r}")
        if type(b) is not int or not set(map(type, ints)) <= _INT:
            raise ValueError("a row's coefficients and right-hand side must be ints")
        if 0 in ints:
            kept = [(j, a) for j, a in zip(cols, ints) if a]
            cols, ints = [j for j, _ in kept], [a for _, a in kept]
        if sense == "<=":
            ints, b, sense = [-a for a in ints], -b, ">="
        self.rows.append(Row(tuple(cols), tuple(ints), b, sense))

    def add_constraint(self, coeffs: Dict[object, int], sense: str, rhs: int) -> None:
        """:meth:`add_row` by variable name."""
        index = self._index
        try:
            pairs = sorted((index[name], c) for name, c in coeffs.items())
        except KeyError as exc:
            raise ValueError(
                f"constraint references unknown variable {exc.args[0]!r}"
            ) from None
        self.add_row([j for j, _ in pairs], [c for _, c in pairs], rhs, sense)

    def add_cut(self, cols: Sequence[int], ints: Sequence[int], b: int, sense: str) -> bool:
        """:meth:`add_row`, unless the LP has that row already: False then."""
        self._row_set.update(self.rows[self._hashed:])
        self.add_row(cols, ints, b, sense)
        if self.rows[-1] in self._row_set:
            self.rows.pop()
            return False
        self._row_set.add(self.rows[-1])
        self._hashed = len(self.rows)
        return True


@dataclass
class LpSolution:
    """Exact rational optimum of one of the package's LPs. ``point`` is
    (L, X): L the lcm of the denominators of the positive values, and X the
    map from each such value's column index to L times the value."""

    values: Dict[object, Fraction]
    objective_value: Fraction
    which: str = "LP"
    T: Optional[int] = None
    meta: dict = field(default_factory=dict)
    point: Optional[Tuple[int, Dict[int, int]]] = field(default=None, repr=False, compare=False)

    def value(self, name) -> Fraction:
        return self.values.get(name, ZERO)


def _round_support(vals: Sequence[float]) -> Dict[int, Fraction]:
    """The small rationals near ``vals``, by index, where |v| >= 1e-9; the
    other entries round to ZERO."""
    arr = np.asarray(vals)
    support = np.flatnonzero(np.abs(arr) >= 1e-9).tolist()
    near = arr[support].tolist()
    rounded = {v: Fraction(v).limit_denominator(_ROUND_DENOM) for v in set(near)}
    return {i: rounded[v] for i, v in zip(support, near)}


def _certify(
    lp: LinearProgram,
    x: Dict[int, Fraction],
    duals: Dict[int, Fraction],
) -> bool:
    """Exact optimality test of a primal/dual pair, each given on its
    support (column or row index -> value; every other entry is 0), on
    scaled integers.

    The rows are integer. With L the lcm of the denominators of x, X = L*x;
    with M the lcm of the denominators of y, W = M*y; D is the lcm of the
    objective's denominators. Every test below is the Fraction test (primal
    feasibility of every row, y >= 0 on '>=' rows, reduced cost >= 0 of
    every column, strong duality) multiplied through by a positive integer,
    so the two accept the same pairs.
    """
    if any(v < 0 for v in x.values()):
        return False
    L = math.lcm(*(v.denominator for v in x.values()))
    X = [0] * len(lp.names)
    for j, v in x.items():
        X[j] = v.numerator * (L // v.denominator)
    get = X.__getitem__
    for cols, ints, b, sense in lp.rows:
        lhs = sum(map(mul, ints, map(get, cols)))
        bL = b * L
        if lhs < bL or (sense == "==" and lhs != bL):
            return False
    ws = []
    for i, y in duals.items():
        if y != 0:
            cols, ints, b, sense = lp.rows[i]
            if sense == ">=" and y < 0:
                return False
            ws.append((cols, ints, b, y))
    M = math.lcm(*(w.denominator for _, _, _, w in ws))
    D = math.lcm(*(c.denominator for c in lp.objective))
    S = [0] * len(lp.objective)
    dual_obj = 0  # M * (dual objective)
    for cols, ints, b, w in ws:
        W = w.numerator * (M // w.denominator)
        for j, a in zip(cols, ints):
            S[j] += W * a
        dual_obj += W * b
    for c, s_j in zip(lp.objective, S):
        if c.numerator * (D // c.denominator) * M < D * s_j:  # D*M*(reduced cost) < 0
            return False
    objective = lp.objective
    primal_obj = sum(  # D * L * (primal objective)
        objective[j].numerator * (D // objective[j].denominator) * X[j] for j in x
    )
    return primal_obj * M == dual_obj * D * L


def _csr_parts(rows: Sequence[Row]):
    """``rows`` in CSR form, in floats for HiGHS: (indptr, indices, data, rhs)."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row.cols) for row in rows], out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.fromiter(
        chain.from_iterable(row.cols for row in rows), dtype=np.int64, count=nnz
    )
    data = np.fromiter(
        chain.from_iterable(row.ints for row in rows), dtype=float, count=nnz
    )
    rhs = np.array([row.b for row in rows], dtype=float)
    return indptr, indices, data, rhs


def linprog(*args, **kwargs):
    """scipy's ``linprog``, imported on its first call. No solve calls it:
    ``perfbench/tracer.py`` binds this name as its ``lp_toolkit.highs`` span
    and lists it in ``EXPECTED_COPIES``, so the tracer (which
    ``tests/test_perfbench_tracer.py`` installs) fails without it."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _highs_solve(lp: LinearProgram):
    """Solve the LP's own HiGHS model: (model status, x, y, simplex
    iterations), with y in ``lp.rows`` order; x and y are None unless the
    status is optimal.

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
            np.array(lp.objective[ncols:], dtype=float),
        )
    rows = lp.rows[nrows:]
    if rows:  # b <= row <= b for '==', b <= row < inf for '>='
        indptr, indices, data, rhs = _csr_parts(rows)
        upper = np.array([b if row.sense == "==" else kHighsInf for row, b in zip(rows, rhs)])
        h.addRows(len(rows), rhs, upper, len(data), indptr[:-1], indices, data)
    h.run()
    if first:
        h.setOptionValue("presolve", "off")
    status = h.getModelStatus()
    iterations = h.getInfo().simplex_iteration_count
    if status != HighsModelStatus.kOptimal:
        return status, None, None, iterations
    sol = h.getSolution()
    return status, sol.col_value, sol.row_dual, iterations


def solve_lp(lp: LinearProgram, which: str = "LP", T: Optional[int] = None) -> LpSolution:
    """Exact rational optimum of the LP (see module docstring for how).

    ``meta["simplex_iterations"]`` is the float solve's iteration count."""
    if not lp.names:
        raise LpError("LP has no variables")
    status, xs, ys, iterations = _highs_solve(lp)
    if status == HighsModelStatus.kInfeasible:
        raise LpInfeasibleError(f"{which} infeasible")
    if status == HighsModelStatus.kUnbounded:
        raise LpUnboundedError(f"{which} unbounded")
    if status != HighsModelStatus.kOptimal:
        raise LpError(f"{which}: HiGHS stopped with model status {status.name}")
    x = _round_support(xs)
    # A '>=' row's multiplier is nonnegative up to float noise: above
    # -1e-7 it rounds to 0 (no nonzero rational of denominator <= 10**6
    # lies that close to 0), below it the pair is not certified.
    signs_ok = all(
        lp.rows[i].sense != ">=" for i in np.flatnonzero(np.asarray(ys) <= -_FLOAT_EPS)
    )
    if not (signs_ok and _certify(lp, x, _round_support(ys))):
        log.debug("rounded optimum of %s not certified; exact basis solve", which)
        basis = lp.model.getBasis()
        pair = basis.valid and exact_simplex(
            lp,
            [j for j, s in enumerate(basis.col_status) if s == _BASIC],
            [i for i, s in enumerate(basis.row_status) if s != _BASIC],  # the tight rows
        )
        if not pair or not _certify(lp, *pair):
            raise LpError(
                f"{which} not certified: neither its rounded optimum nor "
                "the exact vertex of HiGHS's final basis is optimal"
            )
        x = pair[0]
    x = {j: v for j, v in x.items() if v != 0}
    L = math.lcm(*(v.denominator for v in x.values()))
    X = {j: v.numerator * (L // v.denominator) for j, v in x.items()}
    return LpSolution(
        values={lp.names[j]: v for j, v in x.items()},
        objective_value=Fraction(sum(lp.objective[j] * Xj for j, Xj in X.items()), L),
        which=which, T=T, meta={"simplex_iterations": iterations}, point=(L, X),
    )


# A cut is a row for :meth:`LinearProgram.add_row`: (cols, ints, b, sense).
Cut = Tuple[Sequence[int], Sequence[int], int, str]


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
        for cut in cuts:
            if not lp.add_cut(*cut):
                raise LpError(
                    f"no progress: separation oracle repeated a {which} constraint"
                )
            added += 1
            if added > MAX_CUTS:
                raise LpError(f"cut limit {MAX_CUTS} exceeded for {which}")


def _arcs_avoiding(inst: MetricInstance, root) -> List[Tuple]:
    """The arcs of the complete digraph on the nodes, except those into root."""
    return [(u, v) for u in inst.nodes for v in inst.nodes if u != v and v != root]


def _cut_side(n: int, caps: Dict[Tuple[int, int], int], root: int, v: int, need: int):
    """The nodes, by index, on root's side of a minimum root-v cut under
    ``caps``, if its capacity is below ``need``; else None. No cut is
    sought when ``need`` is not positive."""
    if need <= 0:
        return None
    val, side = flows.min_cut(n, caps, root, v)
    return side if val < need else None


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
    pos = inst.node_pos
    pairs = [(pos[u], pos[v]) for u, v in arcs]  # x[a] is column a's index

    def oracle(sol: LpSolution) -> List[Cut]:
        # v needs L * (1 - z[v]) units of x into every set holding it
        L, X = sol.point
        caps = {pairs[j]: val for j, val in X.items() if j < len(pairs)}
        cuts: List[Cut] = []
        for v, zv in z.items():
            side = _cut_side(inst.n, caps, pos[root], pos[v], L - X.get(zv, 0))
            if side is not None:
                cols = [j for j, (a, b) in enumerate(pairs) if a in side and b not in side]
                cuts.append((cols + [zv], [1] * (len(cols) + 1), 1, ">="))
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
    ``items[i]`` is drawn when ``cuts[i - 1] <= u < cuts[i]``, nothing when
    ``u >= cuts[-1]`` (the residual mass). ``cuts[i]`` is the least float at
    or above the exact cumulative probability P_i of items 0..i, so for every
    float u, u < cuts[i] exactly when u < P_i."""

    items: Tuple
    cuts: Tuple[float, ...]


EMPTY_DRAW = DrawTable((), ())


class Tour(NamedTuple):
    """A cycle root -> ``fwd`` -> root of a rounding, compiled once.

    ``rev`` is ``fwd`` reversed and ``mask`` holds the bits
    (:attr:`MetricInstance.client_bit`) of the clients on it. ``gains`` holds,
    per client position with a nonzero gain, the client's bit and
    w_v * (v's elapsed time forward - v's elapsed time in reverse), both
    measured from the root in the metric the tour was compiled in."""

    fwd: Tuple
    rev: Tuple
    mask: int
    gains: Tuple[Tuple[int, int], ...]

    def oriented(self, covered: int) -> Tuple:
        """The direction whose weighted elapsed-time sum over the clients
        not in `covered` is smaller (at most the 50/50 average the analyses
        use), forward on a tie: the gains of those clients sum to <= 0."""
        gain = 0
        for bit, g in self.gains:
            if not covered & bit:
                gain += g
        return self.fwd if gain <= 0 else self.rev


def _elapsed(root, seq: Tuple, metric: Callable) -> List[int]:
    """The elapsed time at each node of root -> seq in `metric`."""
    return list(accumulate(metric(u, v) for u, v in zip((root,) + seq, seq)))


def compile_tour(inst: MetricInstance, root, order: Sequence, metric: Callable) -> Tour:
    """The :class:`Tour` of the cycle root -> order -> root in `metric`.
    Nodes of `order` that are not clients (roots) carry no bit and no gain,
    so they count as covered."""
    fwd = tuple(order)
    rev = fwd[::-1]
    bit = inst.client_bit
    mask = 0
    gains = []
    for v, f, r in zip(fwd, _elapsed(root, fwd, metric), _elapsed(root, rev, metric)[::-1]):
        if v in bit:
            mask |= bit[v]
            g = inst.weight(v) * (f - r)
            if g:
                gains.append((bit[v], g))
    return Tour(fwd, rev, mask, tuple(gains))


def leftover_order(inst: MetricInstance) -> Tuple[Tuple[int, int, object], ...]:
    """(bit, home slot, client) for every client, nearest to the root of its
    :meth:`~MetricInstance.home_slot` first (ties in client order): the order
    in which a rounding visits the clients its draws left uncovered."""
    slot = {v: inst.home_slot(v) for v in inst.clients}
    order = sorted(inst.clients, key=lambda v: inst.dist(inst.roots[slot[v]], v))
    return tuple((inst.client_bit[v], slot[v], v) for v in order)


def draw_table(weighted: Sequence[Tuple[object, Fraction]]) -> DrawTable:
    """The draw table of ``(item, probability)`` pairs, in their order: each
    cumulative probability, an integer over the lcm of the denominators,
    rounded up to a float."""
    denom = math.lcm(*(p.denominator for _, p in weighted))
    cuts = []
    for cum in accumulate(p.numerator * (denom // p.denominator) for _, p in weighted):
        f = cum / denom  # int division rounds correctly
        a, b = f.as_integer_ratio()
        cuts.append(f if a * denom >= cum * b else math.nextafter(f, math.inf))
    return DrawTable(tuple(item for item, _ in weighted), tuple(cuts))


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
) -> Dict[object, Tuple[int, int]]:
    """x[gi, v, t] for every v in ``first`` and first[v] <= t <= T, at cost
    mult * w_v * t. Returns v -> (j, first[v]), x[gi, v, t] being column
    j + t - first[v]."""
    block = {}
    for v, t0 in first.items():
        ts = range(t0, T + 1)
        w = mult * inst.weight(v)
        block[v] = (lp.add_vars([("x", gi, v, t) for t in ts], [w * t for t in ts]), t0)
    return block


def _served(block: Dict[object, Tuple[int, int]], v, t: int) -> range:
    """The columns x[gi, v, tp] for tp <= t of v's x block: "group gi has
    served v by time t"."""
    j, t0 = block[v]
    return range(j, j + max(0, t - t0 + 1))


def _link(served: range, zcols: Sequence[int]) -> Cut:
    """The row sum(z over zcols) - sum(x over served) >= 0: a covering row
    pays for what its group has served. The x block precedes the z block."""
    return (*served, *zcols), (-1,) * len(served) + (1,) * len(zcols), 0, ">="


def _add_cover_rows(
    lp: LinearProgram, inst: MetricInstance, blocks: Sequence[Tuple[int, Dict]], T: int,
    which: str,
) -> None:
    """Every client is served at some time by some group's vehicles; blocks
    holds each group's (mult, x block)."""
    for v in inst.clients:
        cols, ints = [], []
        for mult, block in blocks:
            if v in block:
                served = _served(block, v, T)
                cols.extend(served)
                ints.extend([mult] * len(served))
        if not cols:
            raise LpInfeasibleError(f"{which} infeasible: {v!r} unreachable within T={T}")
        lp.add_row(cols, ints, 1, ">=")


def _solve_config_lp(
    inst: MetricInstance, T: int, which: str, groups: Sequence[Tuple[int, Dict, List]]
) -> LpSolution:
    """Build and solve a configuration LP over vehicle groups.

    Each group is ``(mult, first, columns)``: its number of vehicles,
    ``first`` as for its x columns, and its z columns ``(C, t)``: sets C
    of ``first``'s clients that a vehicle (for LP2, the fleet) can cover by
    time t, in variable order. Rows: cover, then per group one
    configuration per time and every client served by time t in the
    configuration at t.
    """
    _guard_size(sum(len(columns) for _, _, columns in groups), COLUMN_CAP, "z columns")
    lp = LinearProgram()
    blocks = []
    for gi, (mult, first, columns) in enumerate(groups):
        block = _add_assignment_vars(lp, inst, gi, mult, first, T)
        z0 = lp.add_vars([("z", gi, C, t) for C, t in columns], [0] * len(columns))
        at: List[List[int]] = [[] for _ in range(T + 1)]  # [t]: the z columns at t
        holding = {v: [[] for _ in range(T + 1)] for v in block}  # [v][t]: those holding v
        for j, (C, t) in enumerate(columns, z0):
            at[t].append(j)
            for v in C:
                holding[v][t].append(j)
        blocks.append((mult, block, at, holding))
    _add_cover_rows(lp, inst, [(mult, block) for mult, block, _, _ in blocks], T, which)
    for _, block, at, holding in blocks:
        for zs in at[1:]:
            if zs:
                lp.add_row(zs, [1] * len(zs), 1, "<=")
        for v, zs in holding.items():
            for t in range(1, T + 1):
                lp.add_row(*_link(_served(block, v, t), zs[t]))
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
        paths = inst.path_table(r, serveable, metric)
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
    slots_of = [slots for _, slots in group_slots(inst)]
    group_of = {s: gi for gi, slots in enumerate(slots_of) for s in slots}
    items: Dict[Tuple[int, FrozenSet], Tuple[Tuple[int, Tour]]] = {}  # (slot, C) -> item

    def column(gi, C, t):
        order = orders[gi][C]
        if (slots_of[gi][0], C) not in items:  # one tour per column, one item per slot
            tour = compile_tour(inst, groups[gi][0], order, metric)
            items.update({(s, C): ((s, tour),) for s in slots_of[gi]})
        return (gi, t), [node_pos[v] for v in order], C

    by_group = _draw_tables(sol, column)

    def slot_table(s, t):
        table = by_group.get((group_of[s], t), EMPTY_DRAW)
        return DrawTable(tuple(items[s, C] for C in table.items), table.cuts)

    sol.meta["draws"] = {
        t: tuple(slot_table(s, t) for s in range(inst.k)) for t in range(1, T + 1)
    }
    sol.meta["leftovers"] = leftover_order(inst)
    return sol


# ---------------------------------------------------------------------------
# LP2: global-snapshot configuration LP


def bottleneck_cover_table(
    inst: MetricInstance,
    metric: Callable,
) -> Tuple[Dict[FrozenSet, int], Callable[[FrozenSet], Tuple[Tuple, ...]]]:
    """The least, over k-vehicle covers of each client set U, of the max
    path length, for every U that k vehicles can cover; and ``witness(U)``,
    a tuple of k rooted paths covering U exactly, path i from
    ``inst.roots[i]``, built only when asked for.

    One :func:`pathdp.fleet` bottleneck split: over each depot group's
    vehicles, then across groups. The witness paths are laid into root slots
    as the split makes them; of the vehicles at one depot, the one added
    last takes the depot's first slot. Allowed depots are not applied:
    every depot's paths may take any client.
    """
    clients = inst.clients
    groups = [
        (r, slots, inst.path_table(r, clients, metric)) for r, slots in group_slots(inst)
    ]
    best, witness = pathdp.fleet(clients, groups, max)
    bit = inst.client_bit
    values = {
        frozenset(v for i, v in enumerate(clients) if msk >> i & 1): val
        for msk, val in enumerate(best)
        if val < pathdp.INF
    }
    return values, lambda U: witness(sum(map(bit.__getitem__, U)))


def build_and_solve_lp2(inst: MetricInstance, T: int) -> LpSolution:
    """Global-snapshot configuration LP over k-tuple columns, solved exactly.

    Columns are collapsed to the covered client union with a witness tuple,
    built for the positive columns only:
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
    table, witness = bottleneck_cover_table(inst, metric)
    first = {
        v: max(1, -(-min(metric(r, v) for r, _ in groups) // scale)) for v in clients
    }
    columns = [
        (U, t) for U, btl in table.items() if U for t in range(1, T + 1)
        if btl <= scale * t
    ]
    sol = _solve_config_lp(inst, T, "LP2", [(1, first, columns)])
    node_pos = inst.node_pos
    tours: Dict[FrozenSet, Tuple[Tuple[int, Tour], ...]] = {}

    def column(_, U, t):
        if U not in tours:
            tours[U] = tuple(
                (slot, compile_tour(inst, inst.roots[slot], path[1:], metric))
                for slot, path in enumerate(witness(U))
                if len(path) > 1
            )
        return t, sorted(node_pos[v] for v in U), tours[U]

    by_time = _draw_tables(sol, column)
    sol.meta["draws"] = {t: (by_time.get(t, EMPTY_DRAW),) for t in range(1, T + 1)}
    sol.meta["leftovers"] = leftover_order(inst)
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
    pos = inst.node_pos

    lp = LinearProgram()
    parts = []  # per group: root, vehicles, x block, arcs, z block
    for gi, (r, mult) in enumerate(groups):
        arcs = _arcs_avoiding(inst, r)
        first = {v: max(1, ca(r, v)) for v in clients if r in inst.depots_for(v)}
        block = _add_assignment_vars(lp, inst, gi, mult, first, T)
        z0 = lp.add_vars(
            [("z", gi, a, t) for a in arcs for t in range(1, T + 1)], [0] * (len(arcs) * T)
        )
        # arc-major: z[gi, arcs[i], t] is column zt[i] + t
        parts.append((r, mult, block, arcs, range(z0 - 1, z0 - 1 + len(arcs) * T, T)))
    _add_cover_rows(lp, inst, [(mult, block) for _, mult, block, _, _ in parts], T, "LP3")
    for _, _, block, arcs, zt in parts:
        budget = [ca(*a) for a in arcs]
        degree = [
            [(j, 1 if a[1] == v else -1) for j, a in zip(zt, arcs) if v in a] for v in clients
        ]
        into = {v: [j for j, a in zip(zt, arcs) if a[1] == v] for v in block}
        for t in range(1, T + 1):
            # length budget
            lp.add_row([j + t for j in zt], budget, t, "<=")
            # degree: into each client at least as much as out of it
            for terms in degree:
                lp.add_row([j + t for j, _ in terms], [a for _, a in terms], 0, ">=")
            # singleton cuts up front to cut down separation rounds
            for v in block:
                lp.add_row(*_link(_served(block, v, t), [j + t for j in into[v]]))

    def oracle(sol: LpSolution) -> List[Cut]:
        # on the integer point: arc capacities X[z[gi, a, t]], and as v's
        # demand at t X[x[gi, v, tp]] summed over tp <= t
        _, X = sol.point
        cuts: List[Cut] = []
        for r, _, block, arcs, zt in parts:
            pairs = [(pos[u], pos[v]) for u, v in arcs]
            caps: List[Dict] = [{} for _ in range(T + 1)]  # caps[t]: arc -> X[z[gi, a, t]]
            for j, val in X.items():
                if zt.start < j <= zt.stop:  # the z block
                    i, s = divmod(j - zt.start - 1, T)
                    caps[s + 1][pairs[i]] = val
            covered = {
                v: [0] * t0 + list(accumulate(X.get(j, 0) for j in _served(block, v, T)))
                for v, (_, t0) in block.items()
            }
            for t in range(1, T + 1):
                for v in block:
                    side = _cut_side(inst.n, caps[t], pos[r], pos[v], covered[v][t])
                    if side is not None:
                        cuts.append(_link(_served(block, v, t), [
                            j + t for j, (a, b) in zip(zt, pairs) if a in side and b not in side
                        ]))
        return cuts

    return solve_with_cuts(lp, oracle, which="LP3", T=T)
