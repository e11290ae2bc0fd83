"""Brute-force ground truth: exact k-vehicle latency optima, bottleneck
strolls and their additive lower bound, orienteering, and prize-collecting
path collections.

Everything here is exhaustive subset dynamic programming over rational
arithmetic, guarded by hard size limits. Guards fail loudly rather than
degrade to heuristics: an oracle must never silently stop being ground
truth.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import pathdp
from .instance import MetricInstance, RoutePlan, group_slots, vehicle_groups
from .lp_toolkit import bottleneck_cover_table

INF = pathdp.INF
# Size guard of every exhaustive oracle: the subset DPs grow as 3^clients.
CLIENT_LIMIT = 9


class OracleGuardError(Exception):
    """An exact oracle was asked for more than its size guard allows."""


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum plus the witnessing structure.

    `explored` counts DP states / candidates examined (diagnostics only).
    """

    value: Fraction
    witness: object
    explored: int = 0


@dataclass(frozen=True)
class BnsTable:
    """Bottleneck-stroll values b*_l for l = 1..n with witnesses.

    values[l-1] is the minimum, over k-tuples of rooted paths jointly
    covering at least l nodes (roots count), of the maximum path cost.
    """

    values: Tuple[Fraction, ...]
    witnesses: Tuple[Tuple[Tuple, ...], ...]
    bnslb: Fraction = field(default=None)

    def __post_init__(self):
        if self.bnslb is None:
            object.__setattr__(self, "bnslb", sum(self.values, Fraction(0)))


def _guard_clients(inst: MetricInstance) -> None:
    if len(inst.clients) > CLIENT_LIMIT:
        raise OracleGuardError(
            f"exact oracle guard: {len(inst.clients)} clients > limit {CLIENT_LIMIT}"
        )


def _kmlp_step(inst: MetricInstance) -> Callable:
    if inst.has_service:
        return inst.service_directed
    return inst.dist


def exact_kmlp(inst: MetricInstance) -> OracleResult:
    """Minimum total (weighted, service-inclusive) latency over all plans.

    Exhaustive: clients are assigned to depot groups (respecting allowed
    depots), each group's set is split optimally over its vehicles, and
    each vehicle's set is ordered optimally by the subset DP.
    """
    _guard_clients(inst)
    clients = inst.clients
    groups = vehicle_groups(inst)
    step = _kmlp_step(inst)
    wfun = inst.weight
    m = len(clients)
    bit_of = {v: 1 << i for i, v in enumerate(clients)}
    full = 1 << m
    explored = 0

    if m == 0:
        plan = RoutePlan(
            routes=tuple((r,) for r in inst.roots),
            objective_variant=inst.default_variant,
        )
        return OracleResult(Fraction(0), plan, 0)

    # per group: global client mask -> (best split value, orders per vehicle)
    group_tbl: List[Dict[int, Tuple[Fraction, List[Tuple]]]] = []
    for r, mult in groups:
        mine = [v for v in clients if r in inst.depots_for(v)]
        single = pathdp.min_latency_orders(r, mine, step, wfun)
        by_mask = {}
        for C, (val, order) in single.items():
            msk = 0
            for v in C:
                msk |= bit_of[v]
            by_mask[msk] = (val, order)
        cur: Dict[int, Tuple[Fraction, List[Tuple]]] = {
            msk: (val, [order]) for msk, (val, order) in by_mask.items()
        }
        for _ in range(1, mult):
            merged: Dict[int, Tuple[Fraction, List[Tuple]]] = {}
            for m1, (v1, o1) in by_mask.items():
                for m2, (v2, o2) in cur.items():
                    if m1 & m2:
                        continue
                    cand = v1 + v2
                    key = m1 | m2
                    explored += 1
                    if key not in merged or cand < merged[key][0]:
                        merged[key] = (cand, [o1] + o2)
            cur = merged
        group_tbl.append(cur)

    # across groups: F[mask] = best cost covering exactly mask so far
    F: Dict[int, Tuple[Fraction, List[List[Tuple]]]] = {0: (Fraction(0), [])}
    for gi in range(len(groups)):
        nxt: Dict[int, Tuple[Fraction, List[List[Tuple]]]] = {}
        for msk, (val, picks) in F.items():
            for gmsk, (gval, orders) in group_tbl[gi].items():
                if gmsk & msk:
                    continue
                cand = val + gval
                key = msk | gmsk
                explored += 1
                if key not in nxt or cand < nxt[key][0]:
                    nxt[key] = (cand, picks + [orders])
        F = nxt
    if (full - 1) not in F:
        raise ValueError("no feasible assignment covers all clients")
    best_val, picks = F[full - 1]

    # lay the per-group vehicle orders into the instance's root slots
    routes: List[Optional[Tuple]] = [None] * inst.k
    for (r, mult), slots, orders in zip(groups, group_slots(inst), picks):
        # splits with fewer nonempty parts than vehicles: pad with empties
        orders = orders + [()] * (mult - len(orders))
        for slot, order in zip(slots, orders):
            routes[slot] = (r,) + tuple(order)
    plan = RoutePlan(
        routes=tuple(routes), objective_variant=inst.default_variant
    )
    return OracleResult(Fraction(best_val), plan, explored)


def _plain_metric(inst: MetricInstance):
    return lambda u, v: Fraction(inst.dist(u, v))


def _bottleneck_by_size(inst: MetricInstance):
    """min bottleneck btl over client sets of each size, with witnesses."""
    table = bottleneck_cover_table(inst, _plain_metric(inst))
    best: Dict[int, Tuple[Fraction, Tuple]] = {}
    for U, (val, routes) in table.items():
        sz = len(U)
        if sz not in best or val < best[sz][0]:
            best[sz] = (val, routes)
    return best, len(table)


def _witness_routes(inst: MetricInstance, routes: Tuple[Tuple, ...]) -> Tuple[Tuple, ...]:
    """Align witness paths (one per depot-group vehicle) to root slots."""
    out: List[Tuple] = [None] * inst.k
    slots = (slot for group in group_slots(inst) for slot in group)
    for slot, route in zip(slots, routes):
        out[slot] = route
    return tuple(out)


def exact_bottleneck_stroll(inst: MetricInstance, ell: int) -> OracleResult:
    """b*_ell: min over k path tuples covering >= ell nodes of the max cost.

    Roots are covered for free by trivial paths, and under the triangle
    inequality an optimal path never detours through a foreign root, so
    only the number of distinct clients covered matters beyond the roots.
    """
    if not 1 <= ell <= inst.n:
        raise ValueError(f"ell={ell} out of range 1..{inst.n}")
    _guard_clients(inst)
    free = len(inst.root_set)
    if ell <= free:
        return OracleResult(Fraction(0), tuple((r,) for r in inst.roots), 0)
    best, explored = _bottleneck_by_size(inst)
    need = ell - free
    val, routes = None, None
    for sz, (v, rt) in best.items():
        if sz >= need and (val is None or v < val):
            val, routes = v, rt
    if val is None:
        raise ValueError(f"cannot cover {ell} nodes")
    return OracleResult(Fraction(val), _witness_routes(inst, routes), explored)


def bnslb(inst: MetricInstance) -> BnsTable:
    """The full bottleneck-stroll table and its additive lower bound."""
    _guard_clients(inst)
    best, _ = _bottleneck_by_size(inst)
    free = len(inst.root_set)
    trivial = tuple((r,) for r in inst.roots)
    values: List[Fraction] = []
    witnesses: List[Tuple[Tuple, ...]] = []
    # suffix-min so b*_l is the cheapest way to reach coverage >= l
    by_need: Dict[int, Tuple[Fraction, Tuple]] = {}
    run: Optional[Tuple[Fraction, Tuple]] = None
    for sz in sorted(best, reverse=True):
        if run is None or best[sz][0] < run[0]:
            run = best[sz]
        by_need[sz] = run
    for ell in range(1, inst.n + 1):
        if ell <= free:
            values.append(Fraction(0))
            witnesses.append(trivial)
            continue
        need = ell - free
        cands = [by_need[s] for s in by_need if s >= need]
        val, routes = min(cands, key=lambda t: t[0])
        values.append(Fraction(val))
        witnesses.append(_witness_routes(inst, routes))
    return BnsTable(values=tuple(values), witnesses=tuple(witnesses))


def exact_orienteering(
    inst: MetricInstance, root, budget, rewards: Dict
) -> OracleResult:
    """Max reward of a rooted path of length <= budget (subset DP)."""
    if inst.n > 12:
        raise OracleGuardError(f"orienteering guard: n={inst.n} > 12")
    if root not in inst.nodes:
        raise ValueError(f"unknown root {root!r}")
    if Fraction(rewards.get(root, 0)) != 0:
        raise ValueError("root reward must be 0")
    budget = Fraction(budget)
    if budget < 0:
        raise ValueError("negative budget")
    items = [v for v in inst.nodes if v != root]
    theta = {v: Fraction(rewards.get(v, 0)) for v in items}
    paths = pathdp.min_paths(root, items, lambda u, v: Fraction(inst.dist(u, v)))
    best_val, best_path = Fraction(0), (root,)
    explored = 0
    for C, (plen, order) in paths.items():
        explored += 1
        if plen > budget:
            continue
        reward = sum((theta[v] for v in C), Fraction(0))
        if reward > best_val:
            best_val, best_path = reward, (root,) + order
    return OracleResult(best_val, best_path, explored)


def _path_cover_costs(
    inst: MetricInstance, root
) -> Tuple[Dict[int, Tuple[Fraction, List[Tuple]]], List]:
    """mc: exact-cover mask -> (min cost of a rooted path collection
    covering it, witness paths), over nodes other than the root."""
    items = [v for v in inst.nodes if v != root]
    m = len(items)
    paths = pathdp.min_paths(root, items, lambda u, v: Fraction(inst.dist(u, v)))
    bit_of = {v: 1 << i for i, v in enumerate(items)}
    single: Dict[int, Tuple[Fraction, Tuple]] = {}
    for C, (plen, order) in paths.items():
        if not C:
            continue
        msk = 0
        for v in C:
            msk |= bit_of[v]
        single[msk] = (plen, (root,) + order)
    full = 1 << m
    mc: Dict[int, Tuple[Fraction, List[Tuple]]] = {0: (Fraction(0), [])}
    for msk in range(1, full):
        low = msk & -msk  # pin the lowest set bit to one part: no double count
        best = None
        sub = msk
        while sub:
            if sub & low:
                rest = msk ^ sub
                cand = single[sub][0] + mc[rest][0]
                if best is None or cand < best[0]:
                    best = (cand, mc[rest][1] + [single[sub][1]])
            sub = (sub - 1) & msk
        mc[msk] = best
    return mc, items


def exact_pc_paths(inst: MetricInstance, root, penalties: Dict) -> OracleResult:
    """Min over rooted path collections of cost plus uncovered penalties."""
    if inst.n > 8:
        raise OracleGuardError(f"prize-collecting guard: n={inst.n} > 8")
    if root not in inst.nodes:
        raise ValueError(f"unknown root {root!r}")
    mc, items = _path_cover_costs(inst, root)
    pen = {v: Fraction(penalties.get(v, 0)) for v in items}
    if any(p < 0 for p in pen.values()):
        raise ValueError("negative penalty")
    total_pen = sum(pen.values(), Fraction(0))
    best = None
    explored = 0
    for msk, (cost, witness) in mc.items():
        explored += 1
        uncovered = total_pen - sum(
            (pen[v] for i, v in enumerate(items) if msk & (1 << i)), Fraction(0)
        )
        cand = cost + uncovered
        if best is None or cand < best[0]:
            best = (cand, witness)
    return OracleResult(best[0], tuple(best[1]), explored)


def exact_cover_cost(inst: MetricInstance, root, B: int) -> OracleResult:
    """O*: min cost of a rooted path collection spanning >= B nodes
    (the root counts as spanned)."""
    if inst.n > 8:
        raise OracleGuardError(f"prize-collecting guard: n={inst.n} > 8")
    mc, items = _path_cover_costs(inst, root)
    best = None
    explored = 0
    for msk, (cost, witness) in mc.items():
        explored += 1
        covered = 1 + bin(msk).count("1")
        if covered < B:
            continue
        if best is None or cost < best[0]:
            best = (cost, witness)
    if best is None:
        raise ValueError(f"cannot span {B} nodes")
    return OracleResult(best[0], tuple(best[1]), explored)


def exact_budget_cover(inst: MetricInstance, root, C, weights: Dict) -> OracleResult:
    """n*: max node weight of a rooted path collection of cost <= C."""
    if inst.n > 8:
        raise OracleGuardError(f"prize-collecting guard: n={inst.n} > 8")
    C = Fraction(C)
    mc, items = _path_cover_costs(inst, root)
    best = None
    explored = 0
    for msk, (cost, witness) in mc.items():
        explored += 1
        if cost > C:
            continue
        covered = sum(
            (Fraction(weights.get(v, 1)) for i, v in enumerate(items) if msk & (1 << i)),
            Fraction(0),
        )
        if best is None or covered > best[0]:
            best = (covered, witness)
    return OracleResult(best[0], tuple(best[1]), explored)
