"""LP core with a cutting-plane loop, plus the four model builders.

Solving strategy: HiGHS (dual simplex) finds the optimum in floats from a
sparse (CSR) constraint matrix, the result is rounded to small rationals,
and a primal/dual pair is verified exactly (feasibility, reduced costs,
strong duality). The check runs on plain Python integers: each row, the
primal point and the duals are scaled by the lcm of their denominators,
so every test is the Fraction one multiplied through by a positive
integer (after Applegate, Cook, Dash & Espinoza, "Exact solutions to
linear programming problems", ORL 2007). If certification fails the LP
is re-solved by the exact two-phase simplex in :mod:`mdkmlp.simplex`.
Either way callers receive an exactly-optimal rational vertex solution,
which is what the arborescence packing (integer scaling by the
denominator LCM) depends on.
"""

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array

from . import flows, pathdp
from .instance import MetricInstance, vehicle_groups
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, exact_simplex

log = logging.getLogger("mdkmlp.lp")

ZERO = Fraction(0)
ONE = Fraction(1)

_ROUND_DENOM = 10**6
_FLOAT_EPS = 1e-7

# Size guards: past these the LP code raises instead of enumerating on.
PATH_CAP = 200_000  # LP1: rooted path columns per depot group
TUPLE_CAP = 500_000  # LP2: k-tuples of rooted paths
MAX_CUTS = 10_000  # cuts one solve_with_cuts call may add


class LpError(Exception):
    pass


class LpInfeasibleError(LpError):
    pass


class LpUnboundedError(LpError):
    pass


class EnumerationCapError(LpError):
    """Raised when a column-enumeration guard trips."""


class LinearProgram:
    """Named nonnegative variables, rational objective, growable constraints.

    Each row is kept in three index-aligned forms, computed once when it is
    added: ``rows[i]`` is the canonical ``(coeffs, sense, rhs)`` in
    Fractions; ``int_rows[i]`` is ``(cols, ints, rhs, d)``, the row times
    its scale ``d`` (the lcm of its denominators) with ``cols`` sorted; and
    ``float_rows[i]`` is ``(vals, rhs)`` in floats, ``vals`` in ``cols``
    order, for the HiGHS matrix.
    """

    def __init__(self):
        self._index: Dict[object, int] = {}
        self.names: List[object] = []
        self.objective: List[Fraction] = []
        # rows kept canonical with sense '>=' or '=='
        self.rows: List[Tuple[Dict[int, Fraction], str, Fraction]] = []
        self.int_rows: List[Tuple[List[int], List[int], int, int]] = []
        self.float_rows: List[Tuple[List[float], float]] = []
        self._row_keys: set = set()

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

    @staticmethod
    def _canonical(coeffs: Dict[int, Fraction], sense: str, rhs: Fraction):
        fracs = ((j, Fraction(c)) for j, c in coeffs.items())
        coeffs = {j: c for j, c in fracs if c != 0}
        rhs = Fraction(rhs)
        if sense == "<=":
            coeffs = {j: -c for j, c in coeffs.items()}
            rhs = -rhs
            sense = ">="
        elif sense not in (">=", "=="):
            raise ValueError(f"unknown sense {sense!r}")
        return coeffs, sense, rhs

    def add_constraint(self, coeffs: Dict[object, Fraction], sense: str, rhs) -> None:
        idx_coeffs = {}
        for name, c in coeffs.items():
            if name not in self._index:
                raise ValueError(f"constraint references unknown variable {name!r}")
            idx_coeffs[self._index[name]] = idx_coeffs.get(self._index[name], ZERO) + Fraction(c)
        canon = self._canonical(idx_coeffs, sense, rhs)
        self.rows.append(canon)
        self._row_keys.add((frozenset(canon[0].items()), canon[1], canon[2]))
        coeffs, _, rhs = canon
        cols = sorted(coeffs)
        d = math.lcm(rhs.denominator, *(coeffs[j].denominator for j in cols))
        ints = [coeffs[j].numerator * (d // coeffs[j].denominator) for j in cols]
        self.int_rows.append((cols, ints, rhs.numerator * (d // rhs.denominator), d))
        self.float_rows.append(([float(coeffs[j]) for j in cols], float(rhs)))

    def has_constraint(self, coeffs: Dict[object, Fraction], sense: str, rhs) -> bool:
        idx_coeffs = {self._index[name]: Fraction(c) for name, c in coeffs.items()}
        canon = self._canonical(idx_coeffs, sense, rhs)
        return (frozenset(canon[0].items()), canon[1], canon[2]) in self._row_keys


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
    for i, ((_, sense, _), (cols, ints, b, d), y) in enumerate(
        zip(lp.rows, lp.int_rows, duals)
    ):
        lhs = sum(a * X[j] for j, a in zip(cols, ints))
        bL = b * L
        if lhs < bL or (sense == "==" and lhs != bL):
            return False
        if y != 0:
            if sense == ">=" and y < 0:
                return False
            ws.append((i, Fraction(y, d)))
    M = math.lcm(*(w.denominator for _, w in ws))
    D = math.lcm(*(c.denominator for c in lp.objective))
    S = [0] * len(lp.objective)
    dual_obj = 0  # M * (dual objective)
    for i, w in ws:
        W = w.numerator * (M // w.denominator)
        cols, ints, b, _ = lp.int_rows[i]
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


def _csr(lp: LinearProgram, idx: List[int], negate: bool):
    """The rows ``idx`` as a CSR matrix and a rhs vector, both negated for
    ``A_ub``; ``(None, None)`` when there are none."""
    if not idx:
        return None, None
    lengths = [len(lp.int_rows[i][0]) for i in idx]
    indptr = np.zeros(len(idx) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.fromiter(
        chain.from_iterable(lp.int_rows[i][0] for i in idx), dtype=np.int64, count=nnz
    )
    data = np.fromiter(
        chain.from_iterable(lp.float_rows[i][0] for i in idx), dtype=float, count=nnz
    )
    b = np.array([lp.float_rows[i][1] for i in idx], dtype=float)
    if negate:
        data, b = -data, -b
    return csr_array((data, indices, indptr), shape=(len(idx), len(lp.names))), b


def solve_lp(lp: LinearProgram, which: str = "LP", T: Optional[int] = None) -> LpSolution:
    """Exact rational optimum of the LP (see module docstring for how)."""
    nvars = len(lp.names)
    if nvars == 0:
        raise LpError("LP has no variables")
    c = np.array([float(v) for v in lp.objective])
    ge_rows = [i for i, row in enumerate(lp.rows) if row[1] == ">="]
    eq_rows = [i for i, row in enumerate(lp.rows) if row[1] == "=="]
    A_ub, b_ub = _csr(lp, ge_rows, negate=True)
    A_eq, b_eq = _csr(lp, eq_rows, negate=False)

    res = linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=(0, None), method="highs-ds",
    )
    if res.status == 2:
        raise LpInfeasibleError(f"{which} infeasible")
    if res.status == 3:
        raise LpUnboundedError(f"{which} unbounded")
    if res.status == 0:
        x = [_round_fraction(v) for v in res.x]
        duals: List[Fraction] = [ZERO] * len(lp.rows)
        ok = True
        for out_i, i in enumerate(ge_rows):
            m = res.ineqlin.marginals[out_i]
            y = -m  # >=-form multiplier, should be nonnegative
            if y < 0:
                if y > -_FLOAT_EPS:
                    y = 0.0
                else:
                    ok = False
                    break
            duals[i] = _round_fraction(y)
        if ok:
            for out_i, i in enumerate(eq_rows):
                duals[i] = _round_fraction(res.eqlin.marginals[out_i])
        if ok and _certify(lp, x, duals):
            values = {lp.names[j]: x[j] for j in range(nvars) if x[j] != 0}
            obj = sum(lp.objective[j] * x[j] for j in range(nvars) if x[j] != 0)
            return LpSolution(values=values, objective_value=Fraction(obj), which=which, T=T)
        log.debug("float certification failed for %s; exact fallback", which)

    rows = [
        ([coeffs.get(j, ZERO) for j in range(nvars)], sense, rhs)
        for coeffs, sense, rhs in lp.rows
    ]
    status, x, obj = exact_simplex(lp.objective, rows)
    if status == INFEASIBLE:
        raise LpInfeasibleError(f"{which} infeasible")
    if status == UNBOUNDED:
        raise LpUnboundedError(f"{which} unbounded")
    assert status == OPTIMAL
    values = {lp.names[j]: x[j] for j in range(nvars) if x[j] != 0}
    return LpSolution(values=values, objective_value=obj, which=which, T=T)


Cut = Tuple[Dict[object, Fraction], str, Fraction]


def solve_with_cuts(
    lp: LinearProgram,
    oracle: Callable[[LpSolution], List[Cut]],
    which: str = "LP",
    T: Optional[int] = None,
) -> LpSolution:
    """Solve, separate, add cuts, repeat until the oracle is satisfied."""
    added = 0
    while True:
        sol = solve_lp(lp, which=which, T=T)
        cuts = oracle(sol)
        if not cuts:
            return sol
        for coeffs, sense, rhs in cuts:
            if lp.has_constraint(coeffs, sense, rhs):
                raise LpError(
                    f"no progress: separation oracle repeated a {which} constraint"
                )
            lp.add_constraint(coeffs, sense, rhs)
            added += 1
            if added > MAX_CUTS:
                raise LpError(f"cut limit {MAX_CUTS} exceeded for {which}")


def scaled_int_caps(values: Dict[Tuple, Fraction]) -> Tuple[int, Dict[Tuple, int]]:
    """(scale, caps): the lcm of the denominators of `values`, and each
    positive value times it, an integer."""
    scale = 1
    for v in values.values():
        scale = math.lcm(scale, v.denominator)
    return scale, {a: int(v * scale) for a, v in values.items() if v > 0}


def _violated_cuts(
    inst: MetricInstance,
    node_idx: Dict[object, int],
    root,
    arc_values: Dict[Tuple, Fraction],
    demands: Sequence[Tuple[object, Fraction]],
) -> List[Tuple[FrozenSet, object]]:
    """Min-cut separation under arc capacities ``arc_values``.

    For each ``(v, need)`` in order with ``need > 0``, a minimum root-v cut
    of capacity below ``need`` is violated; returns ``(S, v)`` for each,
    with S the side of the cut holding v (the nodes outside the min cut's
    source side), so the cut is the arcs entering S. Each ``(S, v)`` is
    reported once, in the order found. Capacities are scaled to integers
    once, so the comparison with ``need`` is exact.
    """
    scale, caps = scaled_int_caps(arc_values)
    icaps = {(node_idx[u], node_idx[v]): w for (u, v), w in caps.items()}
    found: List[Tuple[FrozenSet, object]] = []
    seen = set()
    for v, need in demands:
        if need <= 0:
            continue
        val, side = flows.min_cut(inst.n, icaps, node_idx[root], node_idx[v])
        if Fraction(val, scale) >= need:
            continue
        S = frozenset(w for w in inst.nodes if node_idx[w] not in side)
        if (S, v) in seen:
            continue
        seen.add((S, v))
        found.append((S, v))
    return found


# ---------------------------------------------------------------------------
# PC-LP


def build_and_solve_pclp(
    inst: MetricInstance,
    root,
    penalties: Dict[object, Fraction],
) -> LpSolution:
    """Bidirected prize-collecting LP with min-cut separation.

    Arcs into the root are omitted: no cut or degree constraint ever needs
    them and dropping them only removes weight an optimum would not use.
    """
    if root not in inst.nodes:
        raise ValueError(f"unknown root {root!r}")
    others = [v for v in inst.nodes if v != root]
    pen = {}
    for v in others:
        p = Fraction(penalties.get(v, 0))
        if p < 0:
            raise ValueError(f"negative penalty for {v!r}")
        pen[v] = p

    lp = LinearProgram()
    arcs = [
        (u, v)
        for u in inst.nodes
        for v in inst.nodes
        if u != v and v != root
    ]
    for a in arcs:
        lp.add_var(("x", a), obj=Fraction(inst.dist(*a)))
    for v in others:
        lp.add_var(("z", v), obj=pen[v])
        lp.add_constraint({("z", v): ONE}, "<=", ONE)
    for v in others:
        inflow = {("x", (u, v)): ONE for u in inst.nodes if u != v}
        outflow = {("x", (v, w)): -ONE for w in inst.nodes if w != v and w != root}
        deg = dict(inflow)
        for key, val in outflow.items():
            deg[key] = deg.get(key, ZERO) + val
        lp.add_constraint(deg, ">=", ZERO)
        cut = dict(inflow)
        cut[("z", v)] = ONE
        lp.add_constraint(cut, ">=", ONE)

    node_idx = {v: i for i, v in enumerate(inst.nodes)}

    def oracle(sol: LpSolution) -> List[Cut]:
        xvals = {a: sol.value(("x", a)) for a in arcs}
        demands = [(v, ONE - sol.value(("z", v))) for v in others]
        cuts: List[Cut] = []
        for S, v in _violated_cuts(inst, node_idx, root, xvals, demands):
            coeffs: Dict[object, Fraction] = {("z", v): ONE}
            for (a, b) in arcs:
                if a not in S and b in S:
                    coeffs[("x", (a, b))] = ONE
            cuts.append((coeffs, ">=", ONE))
        return cuts

    sol = solve_with_cuts(lp, oracle, which="PC-LP")
    sol.meta.update({"root": root, "arcs": arcs})
    return sol


# ---------------------------------------------------------------------------
# column enumeration helpers


def _count_rooted_paths(
    root, items: Sequence, length: Callable, budget: Fraction, cap: int
) -> int:
    """Number of nonempty rooted simple paths of length <= budget; aborts at cap."""
    count = 0
    stack = [(root, frozenset(), ZERO)]
    while stack:
        pos, used, ln = stack.pop()
        for v in items:
            if v in used:
                continue
            nl = ln + Fraction(length(pos, v))
            if nl > budget:
                continue
            count += 1
            if count > cap:
                return count
            stack.append((v, used | {v}, nl))
    return count


def _lp_metric(inst: MetricInstance) -> Callable[[object, object], Fraction]:
    if inst.has_service:
        return inst.service_symmetric
    return lambda u, v: Fraction(inst.dist(u, v))


# ---------------------------------------------------------------------------
# LP1: per-vehicle configuration LP


def build_and_solve_lp1(inst: MetricInstance, T: int) -> LpSolution:
    """Configuration LP with per-vehicle path columns, solved exactly.

    Columns are collapsed from ordered paths to covered client sets with a
    cheapest-order witness: two orders of the same set within the length
    budget are identical LP columns, so the collapse is lossless. Because
    the columns are exact paths, the solution is also a kappa=1 solution of
    the tree-relaxed LP.

    Coverage is linked per depot group (``x[gi, v, t]``): a client covered
    by one group's vehicle stays that group's from then on. When all depots
    coincide LP1 <= LP2 (averaging a snapshot tuple over the group's
    interchangeable vehicles gives a feasible LP1 point); with distinct
    depots it can fail, since LP2 may hand a client over between groups.
    """
    clients = inst.clients
    groups = vehicle_groups(inst)
    metric = _lp_metric(inst)
    if not clients:
        return LpSolution({}, ZERO, which="LP1", T=T, meta={"groups": groups})
    if T < 1:
        raise LpInfeasibleError("LP1 infeasible: T < 1 with clients present")
    for r, _ in groups:
        total = _count_rooted_paths(r, clients, metric, Fraction(T), PATH_CAP)
        if total > PATH_CAP:
            raise EnumerationCapError(
                f"instance too large for enumeration: > {PATH_CAP} rooted paths"
            )

    lp = LinearProgram()
    columns: Dict[Tuple[int, FrozenSet, int], Tuple] = {}
    group_sets = []
    for gi, (r, mult) in enumerate(groups):
        serveable = [v for v in clients if r in inst.depots_for(v)]
        paths = pathdp.min_paths(r, serveable, metric)
        group_sets.append(paths)
        for v in serveable:
            reach = paths[frozenset({v})][0]
            tmin = math.ceil(reach)
            for t in range(max(1, tmin), T + 1):
                lp.add_var(("x", gi, v, t), obj=Fraction(mult) * inst.weight(v) * t)
        for t in range(1, T + 1):
            for C, (plen, order) in paths.items():
                if C and plen <= t:
                    lp.add_var(("z", gi, C, t))
                    columns[(gi, C, t)] = order
    for v in clients:
        coeffs = {}
        for gi, (r, mult) in enumerate(groups):
            for t in range(1, T + 1):
                if lp.has_var(("x", gi, v, t)):
                    coeffs[("x", gi, v, t)] = Fraction(mult)
        if not coeffs:
            raise LpInfeasibleError(f"LP1 infeasible: {v!r} unreachable within T={T}")
        lp.add_constraint(coeffs, ">=", ONE)
    for gi, (r, mult) in enumerate(groups):
        for t in range(1, T + 1):
            budget = {
                ("z", gi, C, tt): ONE
                for (g2, C, tt) in columns
                if g2 == gi and tt == t
            }
            if budget:
                lp.add_constraint(budget, "<=", ONE)
        for v in clients:
            if r not in inst.depots_for(v):
                continue
            for t in range(1, T + 1):
                coeffs = {
                    ("z", gi, C, t): ONE
                    for (g2, C, tt) in columns
                    if g2 == gi and tt == t and v in C
                }
                for tp in range(1, t + 1):
                    if lp.has_var(("x", gi, v, tp)):
                        coeffs[("x", gi, v, tp)] = coeffs.get(("x", gi, v, tp), ZERO) - ONE
                lp.add_constraint(coeffs, ">=", ZERO)

    sol = solve_lp(lp, which="LP1", T=T)
    sol.meta.update({"groups": groups, "columns": columns})
    return sol


# ---------------------------------------------------------------------------
# LP2: global-snapshot configuration LP


def _min_max_split(
    first: List[Fraction], rest: List[Fraction]
) -> Tuple[List[Fraction], List[int]]:
    """Bottleneck subset DP step: for every mask, the minimum over its
    submasks ``sub`` of ``max(first[sub], rest[mask ^ sub])``, and the first
    minimizing ``sub`` in descending submask order."""
    full = len(first)
    cur = [pathdp.INF] * full
    pick = [0] * full
    for msk in range(full):
        sub = msk
        best, bestsub = pathdp.INF, 0
        while True:
            val = max(first[sub], rest[msk ^ sub])
            if val < best:
                best, bestsub = val, sub
            if sub == 0:
                break
            sub = (sub - 1) & msk
        cur[msk] = best
        pick[msk] = bestsub
    return cur, pick


def bottleneck_cover_table(
    inst: MetricInstance,
    metric: Callable,
) -> Dict[FrozenSet, Tuple[Fraction, Tuple[Tuple, ...]]]:
    """For each client set U: (min over k-vehicle covers of the max path
    length, witness tuple of k rooted paths covering U exactly).

    Within a depot group the partition into that group's vehicles is a
    bottleneck subset DP; across groups another subset DP combines them.
    """
    clients = inst.clients
    groups = vehicle_groups(inst)
    m = len(clients)
    bit_of = {v: 1 << i for i, v in enumerate(clients)}

    def mask_of(C: FrozenSet) -> int:
        msk = 0
        for v in C:
            msk |= bit_of[v]
        return msk

    def set_of(mask: int) -> FrozenSet:
        return frozenset(clients[i] for i in range(m) if mask & (1 << i))

    full = 1 << m
    INF = pathdp.INF
    per_group = []
    for gi, (r, mult) in enumerate(groups):
        paths = pathdp.min_paths(r, clients, metric)
        single = [INF] * full
        for C, (plen, order) in paths.items():
            single[mask_of(C)] = plen
        # h[j][mask]: best bottleneck splitting mask into <= j+1 paths
        h = [single]
        choice = [[msk for msk in range(full)]]
        for j in range(1, mult):
            cur, pick = _min_max_split(single, h[-1])
            h.append(cur)
            choice.append(pick)
        per_group.append((paths, h[-1], (h, choice)))

    # combine groups
    F = [[INF] * full]
    F[0][0] = ZERO
    gpick = []
    for gi in range(len(groups)):
        cur, pick = _min_max_split(per_group[gi][1], F[-1])
        F.append(cur)
        gpick.append(pick)

    def group_witness(gi: int, msk: int) -> List[Tuple]:
        paths, _, (h, choice) = per_group[gi]
        mult = groups[gi][1]
        parts = []
        cur = msk
        for j in range(mult - 1, 0, -1):
            sub = choice[j][cur]
            parts.append(sub)
            cur ^= sub
        parts.append(cur)
        out = []
        for pm in parts:
            order = paths[set_of(pm)][1]
            out.append((groups[gi][0],) + order)
        return out

    table: Dict[FrozenSet, Tuple[Fraction, Tuple[Tuple, ...]]] = {}
    for msk in range(full):
        val = F[-1][msk]
        if val >= INF:
            continue
        routes: List[Tuple] = []
        cur = msk
        for gi in range(len(groups) - 1, -1, -1):
            sub = gpick[gi][cur]
            routes = group_witness(gi, sub) + routes
            cur ^= sub
        table[set_of(msk)] = (val, tuple(routes))
    return table


def build_and_solve_lp2(inst: MetricInstance, T: int) -> LpSolution:
    """Global-snapshot configuration LP over k-tuple columns, solved exactly.

    Columns are collapsed to the covered client union with a witness tuple:
    the LP constraints only see the union, and a union is usable at time t
    exactly when some k-way split has every path within the budget, which
    the bottleneck cover table answers.

    Because a snapshot need not extend the previous one vehicle by vehicle,
    a client may pass from one depot's vehicle to another's as t grows.
    LP2 >= LP1 when all depots coincide; with distinct depots LP2 can be
    below LP1, whose per-group linking forbids that handover.
    """
    clients = inst.clients
    groups = vehicle_groups(inst)
    metric = _lp_metric(inst)
    if not clients:
        return LpSolution({}, ZERO, which="LP2", T=T, meta={"groups": groups})
    if T < 1:
        raise LpInfeasibleError("LP2 infeasible: T < 1 with clients present")
    per_root = 1
    for r, mult in groups:
        cnt = 1 + _count_rooted_paths(r, clients, metric, Fraction(T), TUPLE_CAP)
        for _ in range(mult):
            if per_root > TUPLE_CAP // max(cnt, 1) + 1:
                raise EnumerationCapError(
                    f"instance too large for enumeration: > {TUPLE_CAP} k-tuples"
                )
            per_root *= cnt
    if per_root > TUPLE_CAP:
        raise EnumerationCapError(
            f"instance too large for enumeration: > {TUPLE_CAP} k-tuples"
        )

    table = bottleneck_cover_table(inst, metric)
    lp = LinearProgram()
    reach = {
        v: min(Fraction(metric(r, v)) for r, _ in groups) for v in clients
    }
    for v in clients:
        tmin = max(1, math.ceil(reach[v]))
        for t in range(tmin, T + 1):
            lp.add_var(("x", v, t), obj=Fraction(inst.weight(v)) * t)
    configs: Dict[FrozenSet, Tuple[Tuple, ...]] = {}
    for U, (btl, routes) in table.items():
        if not U:
            continue
        configs[U] = routes
        for t in range(1, T + 1):
            if btl <= t:
                lp.add_var(("z", U, t))
    for v in clients:
        coeffs = {}
        for t in range(1, T + 1):
            if lp.has_var(("x", v, t)):
                coeffs[("x", v, t)] = ONE
        if not coeffs:
            raise LpInfeasibleError(f"LP2 infeasible: {v!r} unreachable within T={T}")
        lp.add_constraint(coeffs, ">=", ONE)
    for t in range(1, T + 1):
        budget = {
            ("z", U, t): ONE for U in configs if lp.has_var(("z", U, t))
        }
        if budget:
            lp.add_constraint(budget, "<=", ONE)
    for v in clients:
        for t in range(1, T + 1):
            coeffs = {
                ("z", U, t): ONE
                for U in configs
                if v in U and lp.has_var(("z", U, t))
            }
            for tp in range(1, t + 1):
                if lp.has_var(("x", v, tp)):
                    coeffs[("x", v, tp)] = coeffs.get(("x", v, tp), ZERO) - ONE
            lp.add_constraint(coeffs, ">=", ZERO)

    sol = solve_lp(lp, which="LP2", T=T)
    sol.meta.update({"groups": groups, "configs": configs})
    return sol


# ---------------------------------------------------------------------------
# LP3: bidirected time-indexed LP


def build_and_solve_lp3(inst: MetricInstance, T: int) -> LpSolution:
    """Bidirected LP with per-(vehicle, node, time) cut separation.

    A node cannot be assigned before its direct distance (x fixed to 0 for
    t below it); supports the weighted objective, allowed-depot restriction,
    and the directed service-time metric c'(u,v) = c(u,v) + d(v).
    """
    clients = inst.clients
    groups = vehicle_groups(inst)
    use_service = inst.has_service
    if not clients:
        return LpSolution({}, ZERO, which="LP3", T=T, meta={"groups": groups})
    if T < 1:
        raise LpInfeasibleError("LP3 infeasible: T < 1 with clients present")

    def ca(u, v) -> int:
        return inst.service_directed(u, v) if use_service else inst.dist(u, v)

    lp = LinearProgram()
    group_arcs: List[List[Tuple]] = []
    for gi, (r, mult) in enumerate(groups):
        arcs = [
            (u, v)
            for u in inst.nodes
            for v in inst.nodes
            if u != v and v != r
        ]
        group_arcs.append(arcs)
        for v in clients:
            if r not in inst.depots_for(v):
                continue
            tmin = ca(r, v)
            for t in range(max(1, tmin), T + 1):
                lp.add_var(("x", gi, v, t), obj=Fraction(mult) * inst.weight(v) * t)
        for a in arcs:
            for t in range(1, T + 1):
                lp.add_var(("z", gi, a, t))
    # assignment
    for v in clients:
        coeffs = {}
        for gi, (r, mult) in enumerate(groups):
            for t in range(1, T + 1):
                if lp.has_var(("x", gi, v, t)):
                    coeffs[("x", gi, v, t)] = Fraction(mult)
        if not coeffs:
            raise LpInfeasibleError(f"LP3 infeasible: {v!r} unreachable within T={T}")
        lp.add_constraint(coeffs, ">=", ONE)
    root_set = inst.root_set
    for gi, (r, mult) in enumerate(groups):
        arcs = group_arcs[gi]
        for t in range(1, T + 1):
            # length budget
            lp.add_constraint(
                {("z", gi, a, t): Fraction(ca(*a)) for a in arcs}, "<=", Fraction(t)
            )
            # degree: into each non-depot node at least as much as out of it
            for v in inst.nodes:
                if v in root_set:
                    continue
                coeffs = {}
                for a in arcs:
                    if a[1] == v:
                        coeffs[("z", gi, a, t)] = coeffs.get(("z", gi, a, t), ZERO) + ONE
                    if a[0] == v:
                        coeffs[("z", gi, a, t)] = coeffs.get(("z", gi, a, t), ZERO) - ONE
                lp.add_constraint(coeffs, ">=", ZERO)
            # singleton cuts up front to cut down separation rounds
            for v in clients:
                if r not in inst.depots_for(v):
                    continue
                coeffs = {
                    ("z", gi, (u, v), t): ONE for u in inst.nodes if u != v
                }
                for tp in range(1, t + 1):
                    if lp.has_var(("x", gi, v, tp)):
                        coeffs[("x", gi, v, tp)] = -ONE
                lp.add_constraint(coeffs, ">=", ZERO)

    node_idx = {v: i for i, v in enumerate(inst.nodes)}

    def oracle(sol: LpSolution) -> List[Cut]:
        cuts: List[Cut] = []
        for gi, (r, mult) in enumerate(groups):
            arcs = group_arcs[gi]
            served = [v for v in clients if r in inst.depots_for(v)]
            # covered[v][t]: x[gi, v, tp] summed over tp <= t
            covered = {}
            for v in served:
                acc = ZERO
                prefix = [acc]
                for tp in range(1, T + 1):
                    acc += sol.value(("x", gi, v, tp))
                    prefix.append(acc)
                covered[v] = prefix
            for t in range(1, T + 1):
                zvals = {a: sol.value(("z", gi, a, t)) for a in arcs}
                demands = [(v, covered[v][t]) for v in served]
                for S, v in _violated_cuts(inst, node_idx, r, zvals, demands):
                    coeffs: Dict[object, Fraction] = {}
                    for a in arcs:
                        if a[0] not in S and a[1] in S:
                            coeffs[("z", gi, a, t)] = ONE
                    for tp in range(1, t + 1):
                        if lp.has_var(("x", gi, v, tp)):
                            coeffs[("x", gi, v, tp)] = -ONE
                    cuts.append((coeffs, ">=", ZERO))
        return cuts

    sol = solve_with_cuts(lp, oracle, which="LP3", T=T)
    sol.meta.update({"groups": groups, "group_arcs": group_arcs, "service": use_service})
    return sol
