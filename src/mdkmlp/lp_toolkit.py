"""LP core with a cutting-plane loop, plus the four model builders.

Every LP here is a covering LP, min c.x subject to Ax >= b and x >= 0,
with A and b integer: a row has one form, ``sum(a * x[j]) >= b``, and a
builder writes an upper bound, such as the PC-LP's z <= 1, as its negation.
So every dual of an optimal pair is nonnegative.

Solving strategy: HiGHS (dual simplex) finds the optimum in floats, the
result is rounded to small rationals, and a primal/dual pair is verified
exactly (feasibility, reduced costs, strong duality). Only the entries of
magnitude at least 1e-9 are rounded; every other one is exactly 0, so the
rounding, the duals' part of the check, the values and the objective run
on the support, while every row and every column's reduced cost is still
tested. The check runs on integer arrays (:func:`_certify`): every row is
integer, and the primal point and the duals are scaled by the lcm of their
denominators, so every test is the Fraction one multiplied through by a
positive integer (after Applegate, Cook, Dash & Espinoza, "Exact solutions
to linear programming problems", ORL 2007). Row sums and column sums run
in int64 only where a bound proves that no partial sum reaches 2**62 (max
|X| times max |a| times the longest row; max |W| times max |a| times the
rows with a dual); past it the same expressions run on object arrays of
exact Python ints. No float is ever compared.
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

An LP is built by column index only. Columns enter in blocks through
:meth:`LinearProgram.add_vars`, each block with its names (kept for the
solution's values) and its costs. Rows are one store of growable int64
arrays in CSR form (indptr, indices, coefficients and rhs), filled by
:meth:`~LinearProgram.add_row` one row at a time, or as a whole CSR block
by :meth:`~LinearProgram.add_rows`; a solve hands HiGHS the slice of rows
added since its last solve, each as b <= row < inf, and
:attr:`LinearProgram.rows` reads them back as :class:`Row` tuples. The
builders lay their columns out in blocks (per depot group an x block, each
client's columns in t order, so "served by t" is a slice; LP3's z block
arc-major; the PC-LP's x block in arc order, then its z block) and emit
every row as a ``>=`` row of integer coefficients over increasing column
indices; a row must be integer, and is stored as given. Only the
objective may be rational (the PC-LP's penalties). The cut oracles
separate on the certified integer point of the solution
(:attr:`LpSolution.point`): the
min-cut capacities and demands are its entries, all at one common scale,
and each cut goes in as an index row. That point is also the loop's one
progress test (:func:`solve_with_cuts`): every stored row holds there, so
a cut must fail there, checked in ints, or the loop raises "no progress";
no store of earlier rows is kept. The prize-collecting LP is a model
(:func:`pclp_model`) solved under any penalties
(:func:`build_and_solve_pclp`): only the z costs change between solves,
and the cuts of earlier solves stay valid and stay in the model, so a
later solve starts warm with them.

LP1 and LP2 measure paths in the path tables of the service-free
reduction (:func:`instance.without_service`): c, or on service instances
twice the symmetric service metric, 2c(u,v) + d_u + d_v, tested against 2t,
so LP2 and ``bnslb`` share one table. They enumerate their (C, t) columns
from those tables by client mask and emit the configuration and link rows
as CSR blocks; a column's frozenset and visiting order are made only for
the positive columns (their names, and their draw items). Their solutions
carry what the
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
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, count
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import flows, pathdp
from .instance import MetricInstance, without_service
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
_EXACT = 2**62  # int64 arithmetic only below this bound on every partial sum

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
    """A constraint in integers: ``sum(ints[i] * x[cols[i]]) >= b``, ``cols``
    sorted, zero coefficients dropped."""

    cols: Tuple[int, ...]
    ints: Tuple[int, ...]
    b: int


class Rows(Sequence):
    """An LP's rows as :class:`Row` tuples, read from its arrays on each
    access: a view, not a copy."""

    def __init__(self, lp: "LinearProgram"):
        self._lp = lp

    def __len__(self) -> int:
        return len(self._lp._rhs)

    def __getitem__(self, i: int) -> Row:
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("row index out of range")
        return next(self._lp._row_tuples(i, i + 1))

    def __iter__(self):
        return self._lp._row_tuples(0, len(self))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None


class _Names(Sequence):
    """Column names by index, in blocks: a list, or a sequence that makes
    each name only when it is read."""

    def __init__(self):
        self._ends: List[int] = []  # the index after each block
        self._blocks: List[Sequence] = []

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, j):
        n = len(self)
        if j < 0:
            j += n
        if not 0 <= j < n:
            raise IndexError("column index out of range")
        b = bisect_right(self._ends, j)
        return self._blocks[b][j - (self._ends[b - 1] if b else 0)]

    def __iter__(self):
        return chain.from_iterable(self._blocks)

    def extend(self, names: Sequence) -> None:
        self._ends.append(len(self) + len(names))
        self._blocks.append(names)


class LinearProgram:
    """Nonnegative columns by index, each with a name, a rational
    objective, growable integer ``>=`` rows.

    The rows are one store of growable int64 arrays in CSR form: row i is
    ``sum(coefs[k] * x[indices[k]]) >= rhs[i]`` over k in ``indptr[i]`` ..
    ``indptr[i + 1]``; no row has another form. :meth:`csr` gives them as
    numpy arrays (views: a caller must not keep them past a row append),
    :attr:`rows` as :class:`Row` tuples."""

    def __init__(self):
        self.names = _Names()
        self.objective: List = []  # ints and Fractions
        self._indptr = array("q", [0])
        self._indices = array("q")
        self._coefs = array("q")
        self._rhs = array("q")
        self._scaled = None  # scaled_objective(), until the objective changes
        self.model = None  # the HiGHS model solve_lp keeps, once it has run

    @property
    def rows(self) -> Rows:
        return Rows(self)

    def csr(self) -> Tuple[np.ndarray, ...]:
        """(indptr, indices, coefs, rhs): the rows as int64 numpy views of
        the store."""
        return tuple(
            np.frombuffer(a, dtype=np.int64)
            for a in (self._indptr, self._indices, self._coefs, self._rhs)
        )

    def _row_tuples(self, start: int, stop: int):
        """Rows start..stop-1 as :class:`Row` tuples."""
        ptr = self._indptr[start:stop + 1].tolist()
        if not ptr:
            return
        cols = self._indices[ptr[0]:ptr[-1]].tolist()
        ints = self._coefs[ptr[0]:ptr[-1]].tolist()
        base = ptr[0]
        for k, b in enumerate(self._rhs[start:stop]):
            s, e = ptr[k] - base, ptr[k + 1] - base
            yield Row(tuple(cols[s:e]), tuple(ints[s:e]), b)

    def scaled_objective(self) -> Tuple[int, np.ndarray, int]:
        """(D, C, max |C|): D the lcm of the objective's denominators, and C
        = D times the objective, int64 below 2**62, else exact ints."""
        if self._scaled is None:
            D = math.lcm(*set(map(attrgetter("denominator"), self.objective)))
            Cs = [c.numerator * (D // c.denominator) for c in self.objective] if D > 1 else [
                *map(attrgetter("numerator"), self.objective)
            ]
            try:
                C = np.array(Cs, dtype=np.int64)
            except OverflowError:
                C = np.array(Cs, dtype=object)
            self._scaled = D, C, max(int(C.max(initial=0)), -int(C.min(initial=0)))
        return self._scaled

    def add_vars(self, names: Sequence, costs: Sequence) -> int:
        """A column per name, at the int or Fraction cost beside it; returns
        the first one's index, the others following it. ``names`` is kept as
        given, and may be a sequence that makes each name only when it is
        read; no name may repeat one already added."""
        first = len(self.names)
        self.names.extend(names)
        self.objective.extend(costs)
        self._scaled = None
        return first

    def set_costs(self, costs: Dict[int, Fraction]) -> None:
        """Set the objective coefficient of each column in ``costs``, in the
        HiGHS model too once it exists."""
        for j, c in costs.items():
            self.objective[j] = Fraction(c)
        self._scaled = None
        if self.model is not None:
            self.model.changeColsCost(
                len(costs), np.fromiter(costs, dtype=np.int64, count=len(costs)),
                np.array([float(self.objective[j]) for j in costs]),
            )

    def add_row(self, cols: Sequence[int], ints: Sequence[int], b: int) -> None:
        """Append the row ``sum(ints[i] * x[cols[i]]) >= b``, ``cols``
        increasing; the coefficients and ``b`` must be ints of 64 bits. Zero
        coefficients are dropped; an upper bound goes in negated."""
        if type(b) is not int or not set(map(type, ints)) <= _INT:
            raise ValueError("a row's coefficients and right-hand side must be ints")
        if 0 in ints:
            kept = [(j, a) for j, a in zip(cols, ints) if a]
            cols, ints = [j for j, _ in kept], [a for _, a in kept]
        # converted before anything is stored: a value past 64 bits raises
        cols, ints, b = array("q", cols), array("q", ints), array("q", (b,))
        self._indices += cols
        self._coefs += ints
        self._indptr.append(len(self._indices))
        self._rhs += b

    def add_rows(self, indptr: np.ndarray, indices: np.ndarray, coefs: np.ndarray,
                 rhs: np.ndarray) -> None:
        """Append a block of ``>=`` rows in CSR form: int64 arrays,
        ``indptr`` from 0; row i is ``sum(coefs[k] * x[indices[k]]) >=
        rhs[i]`` over its k, its columns increasing, with no zero
        coefficient. A refused block stores nothing."""
        if {a.dtype for a in (indptr, indices, coefs, rhs)} != {np.dtype(np.int64)}:
            raise ValueError("a row block is int64 arrays")
        if not coefs.all():
            raise ValueError("a row block has a zero coefficient")
        self._indptr.frombytes((indptr[1:] + len(self._indices)).tobytes())
        self._indices.frombytes(indices.tobytes())
        self._coefs.frombytes(coefs.tobytes())
        self._rhs.frombytes(rhs.tobytes())


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


def _dtype(bound: int):
    """int64 where ``bound``, a bound on every partial sum to be formed, is
    below 2**62; else object, for arrays of exact Python ints."""
    return np.int64 if bound < _EXACT else object


def _certify(
    lp: LinearProgram,
    x: Dict[int, Fraction],
    duals: Dict[int, Fraction],
) -> bool:
    """Exact optimality test of a primal/dual pair, each given on its
    support (column or row index -> value; every other entry is 0), on
    scaled integer arrays.

    The rows are integer, and every row is a ``>=`` row, so the dual test
    is y >= 0 on every row: any negative dual fails. With L the lcm of the
    denominators of x, X = L*x; with M the lcm of the denominators of y, W
    = M*y; D is the lcm of the objective's denominators, C = D*c. Every test
    below is the Fraction test (primal feasibility of every row, y >= 0,
    reduced cost >= 0 of every column, strong duality) multiplied through
    by a positive integer, so the two accept the same pairs. Row sums A X and column sums
    A^T W run in int64 only where a bound proves that no partial sum
    reaches 2**62: max X times the largest row 1-norm (bounded by max |a|
    times the longest row), max W times max |a| times the rows with a dual.
    Otherwise the same expressions run on exact Python ints.
    """
    xs = [(v.numerator, v.denominator) for v in x.values()]
    if any(p < 0 for p, _ in xs):
        return False
    indptr, indices, coefs, rhs = lp.csr()
    amax = max(int(coefs.max()), -int(coefs.min())) if len(coefs) else 0
    bmax = max(int(rhs.max()), -int(rhs.min())) if len(rhs) else 0
    L = math.lcm(*(q for _, q in xs))
    Xs = [p * (L // q) for p, q in xs]
    longest = int(np.diff(indptr).max()) if len(rhs) else 0
    xmax = max(Xs, default=0)
    dt = _dtype(max(xmax * amax * longest, xmax, bmax * L, L))
    X = np.zeros(len(lp.names), dtype=dt)
    X[list(x)] = Xs
    filled = indptr[:-1] < indptr[1:]  # the rows with an entry
    lhs = np.zeros(len(rhs), dtype=dt)
    if len(indices):
        lhs[filled] = np.add.reduceat(coefs.astype(dt) * X[indices], indptr[:-1][filled])
    bL = rhs.astype(dt) * L
    if (lhs < bL).any():
        return False
    ys = {i: (y.numerator, y.denominator) for i, y in duals.items()}
    ys = {i: pq for i, pq in ys.items() if pq[0]}
    if any(p < 0 for p, _ in ys.values()):
        return False
    tight = np.fromiter(ys, dtype=np.int64, count=len(ys))
    M = math.lcm(*(q for _, q in ys.values()))
    Ws = [p * (M // q) for p, q in ys.values()]
    D, C, cmax = lp.scaled_objective()
    wmax = max(Ws, default=0)
    dt = _dtype(max(wmax * amax * len(Ws) * D, wmax, cmax * M, M, D))
    S = np.zeros(len(C), dtype=dt)
    lens = indptr[tight + 1] - indptr[tight]
    at = np.arange(lens.sum()) + np.repeat(indptr[tight] - (np.cumsum(lens) - lens), lens)
    np.add.at(S, indices[at], coefs[at].astype(dt) * np.repeat(np.array(Ws, dtype=dt), lens))
    if (C.astype(dt) * M < D * S).any():  # D*M*(reduced cost) < 0
        return False
    objective = lp.objective
    primal_obj = sum(  # D * L * (primal objective)
        objective[j].numerator * (D // objective[j].denominator) * Xj for j, Xj in zip(x, Xs)
    )
    dual_obj = sum(W * int(rhs[i]) for i, W in zip(ys, Ws))  # M * (dual objective)
    return primal_obj * M == dual_obj * D * L


def linprog(*args, **kwargs):
    """scipy's ``linprog``, imported on its first call. No solve calls it:
    ``perfbench/tracer.py`` binds this name as its ``lp_toolkit.highs`` span
    and lists it in ``EXPECTED_COPIES``, so the tracer (which
    ``tests/test_perfbench_tracer.py`` installs) fails without it."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _highs_solve(lp: LinearProgram):
    """Solve the LP's own HiGHS model: (model status, x, y, simplex
    iterations), with y in row order; x and y are None unless the status is
    optimal.

    The first call creates the model from every column and row and solves
    it with presolve. Each later call adds only the columns and rows
    appended since, handing HiGHS that slice of the CSR store, so dual
    simplex restarts from the last optimal basis.
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
    indptr, indices, coefs, rhs = lp.csr()
    if len(rhs) > nrows:  # b <= row < inf
        start = int(indptr[nrows])
        lower = rhs[nrows:].astype(float)
        h.addRows(
            len(lower), lower, np.full(len(lower), kHighsInf), len(indices) - start,
            indptr[nrows:-1] - start, indices[start:], coefs[start:].astype(float),
        )
    h.run()
    if first:
        h.setOptionValue("presolve", "off")
    status = h.getModelStatus()
    iterations = h.getInfoValue("simplex_iteration_count")[1]
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
    # A row's multiplier is nonnegative up to float noise: above -1e-7 it
    # rounds to 0 (no nonzero rational of denominator <= 10**6 lies that
    # close to 0), below it the pair is not certified.
    signs_ok = not (np.asarray(ys) <= -_FLOAT_EPS).any()
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
    x = {j: v for j, v in x.items() if v.numerator}
    L = math.lcm(*(v.denominator for v in x.values()))
    X = {j: v.numerator * (L // v.denominator) for j, v in x.items()}
    return LpSolution(
        values={lp.names[j]: v for j, v in x.items()},
        objective_value=Fraction(sum(lp.objective[j] * Xj for j, Xj in X.items()), L),
        which=which, T=T, meta={"simplex_iterations": iterations}, point=(L, X),
    )


# A cut is a row for :meth:`LinearProgram.add_row`: (cols, ints, b).
Cut = Tuple[Sequence[int], Sequence[int], int]


def solve_with_cuts(
    lp: LinearProgram,
    oracle: Callable[[LpSolution], List[Cut]],
    which: str = "LP",
    T: Optional[int] = None,
) -> LpSolution:
    """Solve, separate, add cuts, repeat until the oracle is satisfied.

    A cut is a ``>=`` row like every other, and must fail at the certified
    optimum (L, X) it was separated on: sum(a * X[j]) < b * L, in ints. A
    cut that holds there cannot move the optimum, so it raises
    :class:`LpError` ("no progress") before it is stored. Every stored row
    holds at that point, so a repeated row can never go in."""
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
        L, X = sol.point
        for cols, ints, b in cuts:
            if sum(a * X.get(j, 0) for j, a in zip(cols, ints)) >= b * L:
                raise LpError(f"no progress: a {which} cut holds at the certified optimum")
            lp.add_row(cols, ints, b)
            added += 1
            if added > MAX_CUTS:
                raise LpError(f"cut limit {MAX_CUTS} exceeded for {which}")


def _arcs_avoiding(inst: MetricInstance, root) -> List[Tuple]:
    """The arcs of the complete digraph on the nodes, except those into root."""
    return [(u, v) for u in inst.nodes for v in inst.nodes if u != v and v != root]


def _cut_arcs(
    n: int, pairs: Sequence[Tuple[int, int]], caps: Dict[Tuple[int, int], int], root: int,
    v: int, need: int,
) -> Optional[List[int]]:
    """The positions in ``pairs`` (arcs by node index) of the arcs leaving
    root's side of a minimum root-v cut under ``caps``, if its capacity is
    below ``need``; else None. No cut is sought when ``need`` is not
    positive."""
    if need <= 0:
        return None
    val, side = flows.min_cut(n, caps, root, v)
    if val >= need:
        return None
    return [i for i, (a, b) in enumerate(pairs) if a in side and b not in side]


# ---------------------------------------------------------------------------
# PC-LP


class PcLpModel(NamedTuple):
    """The bidirected prize-collecting LP of one instance and root, without
    its penalties: x[a] for every arc a not into the root, z[v] (v left
    uncovered, z <= 1, stored as -z >= -1) for every other node, and per
    node a degree row and a cover row. ``z`` maps each node to its z
    column."""

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
    arcs = _arcs_avoiding(inst, root)
    col = {a: j for j, a in enumerate(arcs)}  # x[a] is column col[a]
    lp = LinearProgram()
    lp.add_vars([("x", a) for a in arcs], [inst.dist(*a) for a in arcs])
    z0 = lp.add_vars([("z", v) for v in others], [0] * len(others))
    z = {v: z0 + i for i, v in enumerate(others)}
    for j in z.values():
        lp.add_row([j], [-1], -1)
    for v in others:
        into = [col[u, v] for u in inst.nodes if u != v]
        degree = sorted([(j, 1) for j in into] + [
            (col[v, w], -1) for w in inst.nodes if w != v and w != root
        ])
        lp.add_row([j for j, _ in degree], [a for _, a in degree], 0)
        lp.add_row(into + [z[v]], [1] * (len(into) + 1), 1)
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
            cols = _cut_arcs(inst.n, pairs, caps, pos[root], pos[v], L - X.get(zv, 0))
            if cols is not None:
                cuts.append((cols + [zv], [1] * (len(cols) + 1), 1))
        return cuts

    return solve_with_cuts(lp, oracle, which="PC-LP")


# ---------------------------------------------------------------------------
# column enumeration helpers


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
        use), forward on a tie: the gains of those clients sum to <= 0.
        ``latency_solvers._geometric_rounding`` runs this rule inline."""
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
# time-indexed columns and rows
#
# x[gi, v, t] says that a vehicle of group gi serves client v at time t; it
# exists from the first time ``first[v]`` the group can reach v up to T.
# LP1, LP2 and LP3 share the per-group column builder (_add_group), the
# cover rows (_add_cover_rows) and the served-by-t ranges (_served); only
# the link rows (_link) are LP3's.


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


def _served(block: Dict[object, Tuple[int, int]], v, t: int) -> range:
    """The columns x[gi, v, tp] for tp <= t of v's x block: "group gi has
    served v by time t"."""
    j, t0 = block[v]
    return range(j, j + max(0, t - t0 + 1))


def _link(served: range, zcols: Sequence[int]) -> Cut:
    """The row sum(z over zcols) - sum(x over served) >= 0: a covering row
    pays for what its group has served. The x block precedes the z block."""
    return (*served, *zcols), (-1,) * len(served) + (1,) * len(zcols), 0


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
        lp.add_row(cols, ints, 1)


class ConfigGroup(NamedTuple):
    """One vehicle group of a time-indexed LP: ``mult`` vehicles serving
    ``clients`` (bit i of a mask is ``clients[i]``), ``first[i]`` the first
    time they can serve ``clients[i]``, and the configuration LP's z columns
    in variable order: column c is the client set ``masks[c]`` that a
    vehicle (for LP2, the fleet) can cover by time ``times[c]``. The arrays
    are int64; LP3's masks and times are empty."""

    mult: int
    clients: Tuple
    first: np.ndarray
    masks: np.ndarray
    times: np.ndarray


class _ConfigNames(Sequence):
    """The names of group gi's columns, each made when it is read: x[gi, v,
    t] for each client v and t from its first time to T, then z[gi, C, t]
    for each z column. ``xstart[i]`` is where client i's x columns begin,
    and ``xstart[-1]`` is where the z columns do."""

    def __init__(self, gi: int, group: ConfigGroup, xstart: List[int]):
        self.gi, self.group, self.xstart = gi, group, xstart

    def __len__(self) -> int:
        return self.xstart[-1] + len(self.group.masks)

    def __getitem__(self, k: int):
        g, nx = self.group, self.xstart[-1]
        if k < nx:
            i = bisect_right(self.xstart, k) - 1
            return ("x", self.gi, g.clients[i], int(g.first[i]) + k - self.xstart[i])
        mask = int(g.masks[k - nx])
        C = frozenset(v for b, v in enumerate(g.clients) if mask >> b & 1)
        return ("z", self.gi, C, int(g.times[k - nx]))


def _link_rows(
    group: ConfigGroup, xstart: np.ndarray, z0: int, T: int, width: int
) -> Tuple[np.ndarray, ...]:
    """The CSR block (indptr, indices, coefs) of one group's link rows, for
    each client in order and t = 1..T: the z columns at t that hold the
    client, less its x columns up to t, at least 0 (one row, possibly empty,
    per pair). ``width`` exceeds every column index."""
    m, ts = len(group.clients), np.arange(1, T + 1)
    held, zc = np.nonzero((group.masks >> np.arange(m)[:, None]) & 1)  # client, column
    zrow = held * T + group.times[zc] - 1
    xlen = np.clip(ts - group.first[:, None] + 1, 0, None).ravel()  # row (i, t): i-major
    at = np.cumsum(xlen) - xlen
    xcol = np.arange(xlen.sum()) + np.repeat(np.repeat(xstart, T) - at, xlen)
    row = np.concatenate((np.repeat(np.arange(m * T), xlen), zrow))
    col = np.concatenate((xcol, z0 + zc))
    order = np.argsort(row * width + col)  # by row, then column: x before z
    coefs = np.concatenate((np.full(len(xcol), -1), np.ones(len(zc), dtype=np.int64)))
    indptr = np.zeros(m * T + 1, dtype=np.int64)
    np.cumsum(xlen + np.bincount(zrow, minlength=m * T), out=indptr[1:])
    return indptr, col[order], coefs[order]


def _add_group(
    lp: LinearProgram, inst: MetricInstance, gi: int, g: ConfigGroup, T: int
) -> Tuple[Dict[object, Tuple[int, int]], np.ndarray, int]:
    """Group gi's columns: its x block, client-major with t increasing, at
    cost mult * w_v * t, then its z columns at cost 0. Returns the block as
    v -> (j, first[v]), x[gi, v, t] being column j + t - first[v]; each
    client's first x column; and the first z column."""
    lens = np.maximum(T + 1 - g.first, 0)
    at = np.cumsum(lens) - lens
    t = np.arange(lens.sum()) + np.repeat(g.first - at, lens)
    w = np.array([g.mult * inst.weight(v) for v in g.clients], dtype=np.int64)
    x0 = lp.add_vars(
        _ConfigNames(gi, g, [*at.tolist(), int(lens.sum())]),
        (np.repeat(w, lens) * t).tolist() + [0] * len(g.masks),
    )
    block = {v: (x0 + j, t0) for v, j, t0 in zip(g.clients, at.tolist(), g.first.tolist())}
    return block, x0 + at, x0 + int(lens.sum())


def _solve_config_lp(
    inst: MetricInstance, T: int, which: str, groups: Sequence[ConfigGroup]
) -> Tuple[LpSolution, List[Tuple[int, int, int, Fraction]]]:
    """Build and solve a configuration LP over vehicle groups; returns the
    solution and its positive z columns as (group, mask, t, value).

    Per group the columns are the x block (client-major, t increasing) and
    then the z columns, at cost 0. Rows: cover, then per group one
    configuration per time (at most one column; times with none are left
    out) and every client served by time t in the configuration at t. The
    configuration and link rows go in as one CSR block per group, built
    from the column masks, in the order, and with the entries, that one row
    at a time would give.
    """
    _guard_size(sum(len(g.masks) for g in groups), COLUMN_CAP, "z columns")
    lp = LinearProgram()
    # per group: x block, first x column per client, first z column
    parts = [_add_group(lp, inst, gi, g, T) for gi, g in enumerate(groups)]
    _add_cover_rows(lp, inst, [(g.mult, block) for g, (block, _, _) in zip(groups, parts)], T, which)
    width = len(lp.names)
    for g, (_, xstart, z0) in zip(groups, parts):
        order = np.argsort(g.times, kind="stable")  # the columns at each t, increasing
        per_t = np.bincount(g.times, minlength=T + 1)[1:]
        per_t = per_t[per_t > 0]
        indptr = np.zeros(len(per_t) + 1, dtype=np.int64)
        np.cumsum(per_t, out=indptr[1:])
        lp.add_rows(  # sum of the z columns at t <= 1, as its negation >= -1
            indptr, z0 + order, np.full(len(order), -1), np.full(len(per_t), -1)
        )
        indptr, cols, coefs = _link_rows(g, xstart, z0, T, width)
        lp.add_rows(indptr, cols, coefs, np.zeros(len(indptr) - 1, dtype=np.int64))
    sol = solve_lp(lp, which=which, T=T)
    L, X = sol.point
    drawn = []
    for gi, (g, (_, _, z0)) in enumerate(zip(groups, parts)):
        for j, Xj in X.items():
            if z0 <= j < z0 + len(g.masks):
                drawn.append((gi, int(g.masks[j - z0]), int(g.times[j - z0]), Fraction(Xj, L)))
    return sol, drawn


def _draw_tables(drawn: Sequence[Tuple], column: Callable) -> Dict[object, DrawTable]:
    """Per key, the draw table of the positive z columns (group, mask, t,
    value) in rank order; ``column(gi, mask, t)`` gives a z column's (key,
    rank, item to draw)."""
    by_key: Dict[object, List] = {}
    for gi, mask, t, val in drawn:
        key, rank, item = column(gi, mask, t)
        by_key.setdefault(key, []).append((rank, item, val))
    return {
        key: draw_table([(item, val) for _, item, val in sorted(cols, key=lambda c: c[0])])
        for key, cols in by_key.items()
    }


def _first_times(values: np.ndarray, scale: int) -> np.ndarray:
    """max(1, ceil(value / scale)) of each value: the first time t whose
    budget scale * t reaches it."""
    return np.maximum(1, -(-values // scale))


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
    groups = inst.groups
    plain, _, scale = without_service(inst)
    config_groups = []
    tables = []  # per group: its path table, by mask over its clients
    for g in groups:
        paths = plain.path_table(g.root, g.clients)
        fits = paths.values[1:] <= scale * np.arange(1, T + 1)[:, None]
        times, masks = np.nonzero(fits)  # t-major, masks increasing
        first = _first_times(paths.values[1 << np.arange(len(g.clients))], scale)
        config_groups.append(ConfigGroup(len(g.slots), g.clients, first, masks + 1, times + 1))
        tables.append(paths)

    sol, drawn = _solve_config_lp(inst, T, "LP1", config_groups)
    node_pos = inst.node_pos
    group_of = {s: gi for gi, g in enumerate(groups) for s in g.slots}
    items: Dict[Tuple[int, int], Tuple[Tuple[int, Tour]]] = {}  # (slot, mask) -> item

    def column(gi, mask, t):
        g, order = groups[gi], tables[gi].order(mask)
        if (g.slots[0], mask) not in items:  # one tour per column, one item per slot
            tour = compile_tour(inst, g.root, order, plain.dist)
            items.update({(s, mask): ((s, tour),) for s in g.slots})
        return (gi, t), [node_pos[v] for v in order], mask

    by_group = _draw_tables(drawn, column)

    def slot_table(s, t):
        table = by_group.get((group_of[s], t), EMPTY_DRAW)
        return DrawTable(tuple(items[s, mask] for mask in table.items), table.cuts)

    sol.meta["draws"] = {
        t: tuple(slot_table(s, t) for s in range(inst.k)) for t in range(1, T + 1)
    }
    sol.meta["leftovers"] = leftover_order(inst)
    return sol


# ---------------------------------------------------------------------------
# LP2: global-snapshot configuration LP


def bottleneck_cover_table(
    inst: MetricInstance,
) -> Tuple[np.ndarray, Callable[[int], Tuple[Tuple, ...]]]:
    """The least, over k-vehicle covers of each client set, of the max
    path length in ``inst.dist``, as a read-only int64 array by mask over
    ``inst.clients``; and ``witness(mask)``, a tuple of k rooted paths
    covering the mask's clients exactly, path i from ``inst.roots[i]``,
    built only when asked for.

    One :func:`pathdp.fleet` bottleneck split per instance, shared
    (:meth:`MetricInstance.shared`), since LP2 and ``bnslb`` both read it:
    over each depot group's vehicles, then across groups. The witness paths
    are laid into root slots as the split makes them; of the vehicles at one
    depot, the one added last takes the depot's first slot. Allowed depots
    are not applied: every group's paths may take any client of
    ``inst.clients``. This is ROADMAP item 2's defect; its fix is to hand
    each group ``g.clients`` here.
    """

    def split():
        clients = inst.clients
        groups = [(g.root, g.slots, inst.path_table(g.root, clients)) for g in inst.groups]
        best, witness = pathdp.fleet(clients, groups, max)
        values = np.array(best, dtype=np.int64)
        values.flags.writeable = False
        return values, witness

    return inst.shared("bottleneck_cover_table", split)


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
    plain, _, scale = without_service(inst)
    bottleneck, witness = bottleneck_cover_table(plain)
    direct = [min(plain.dist(r, v) for r in inst.depots) for v in clients]
    fits = bottleneck[1:, None] <= scale * np.arange(1, T + 1)
    masks, times = np.nonzero(fits)  # mask-major, t increasing
    group = ConfigGroup(
        1, clients, _first_times(np.array(direct, dtype=np.int64), scale), masks + 1, times + 1
    )
    sol, drawn = _solve_config_lp(inst, T, "LP2", [group])
    node_pos = inst.node_pos
    tours: Dict[int, Tuple[Tuple[int, Tour], ...]] = {}  # by mask

    def column(_, mask, t):
        if mask not in tours:
            tours[mask] = tuple(
                (slot, compile_tour(inst, inst.roots[slot], path[1:], plain.dist))
                for slot, path in enumerate(witness(mask))
                if len(path) > 1
            )
        # clients are in node order, so the rank is sorted
        return t, [node_pos[v] for i, v in enumerate(clients) if mask >> i & 1], tours[mask]

    by_time = _draw_tables(drawn, column)
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
    ca = inst.service_directed if inst.has_service else inst.dist
    pos = inst.node_pos
    no_z = np.zeros(0, dtype=np.int64)

    lp = LinearProgram()
    parts = []  # per group: root, vehicles, x block, arcs, arcs by node index, z block
    for gi, (r, slots, serveable) in enumerate(inst.groups):
        first = np.array([max(1, ca(r, v)) for v in serveable], dtype=np.int64)
        g = ConfigGroup(len(slots), serveable, first, no_z, no_z)
        block, _, z0 = _add_group(lp, inst, gi, g, T)
        arcs = _arcs_avoiding(inst, r)
        lp.add_vars(
            [("z", gi, a, t) for a in arcs for t in range(1, T + 1)], [0] * (len(arcs) * T)
        )
        # arc-major: z[gi, arcs[i], t] is column zt[i] + t
        pairs = [(pos[u], pos[v]) for u, v in arcs]
        parts.append((r, g.mult, block, arcs, pairs, range(z0 - 1, z0 - 1 + len(arcs) * T, T)))
    _add_cover_rows(lp, inst, [(mult, block) for _, mult, block, *_ in parts], T, "LP3")
    for _, _, block, arcs, _, zt in parts:
        budget = [-ca(*a) for a in arcs]
        degree = [
            [(j, 1 if a[1] == v else -1) for j, a in zip(zt, arcs) if v in a] for v in clients
        ]
        into = {v: [j for j, a in zip(zt, arcs) if a[1] == v] for v in block}
        for t in range(1, T + 1):
            # length budget: sum of c_a z[a, t] <= t, as its negation
            lp.add_row([j + t for j in zt], budget, -t)
            # degree: into each client at least as much as out of it
            for terms in degree:
                lp.add_row([j + t for j, _ in terms], [a for _, a in terms], 0)
            # singleton cuts up front to cut down separation rounds
            for v in block:
                lp.add_row(*_link(_served(block, v, t), [j + t for j in into[v]]))

    def oracle(sol: LpSolution) -> List[Cut]:
        # on the integer point: arc capacities X[z[gi, a, t]], and as v's
        # demand at t X[x[gi, v, tp]] summed over tp <= t
        _, X = sol.point
        cuts: List[Cut] = []
        for r, _, block, _, pairs, zt in parts:
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
                    crossing = _cut_arcs(inst.n, pairs, caps[t], pos[r], pos[v], covered[v][t])
                    if crossing is not None:
                        cuts.append(_link(_served(block, v, t), [zt[i] + t for i in crossing]))
        return cuts

    return solve_with_cuts(lp, oracle, which="LP3", T=T)
