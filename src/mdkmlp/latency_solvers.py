"""The latency solvers: geometric-sampling rounding for the multi-depot
configuration LP, envelope/concatenation rounding of the bidirected LP
(with and without k-way tree splitting), the combinatorial single-depot
algorithm driven by partial-cover trees, configuration-LP rounding over
joint columns, and the bottleneck-stroll-table construction.

Shared machinery: tours are node cycles through a depot; per-vehicle tours
are concatenated into routes; the clockwise/counterclockwise choice per
cycle contributes additively and independently to the latency accounting,
so every solver takes the cheaper direction per cycle, which is at most
the average of the two that the analyses bound. Tour-splitting keeps each
segment's internal length within 2c(tree)/k by a greedy cut, and the
service-time variant uses the two-case snipping loop that controls mixed
length instead.

The four single-depot roundings (``solve_kmlp_combinatorial``,
``solve_kmlp_lp``, ``solve_mlp_lp``, ``bnslb_construction``) are
deterministic functions of the instance and their bound: each stitches
witnesses along the shortest concatenation path over the lower envelope's
corners, and meets its guarantee on every run. Only the configuration-LP
roundings (``solve_multidepot``, ``round_lp2``) draw at random, and only
they read a :class:`SolverConfig`.

Metric sums are ints: the orientation of a configuration-LP tour sums the
LP metric, which is doubled on service instances (doubling both
directions' sums keeps their comparison). The configuration-LP roundings
draw from the tables their LP solution carries (``meta["draws"]``),
comparing each uniform draw exactly with integer cumulative numerators.
"""

import logging
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import concat_graph, lp_toolkit
from .arb_packing import WeightedDigraph, pack_arborescences, tree_nodes
from .exact_oracles import BnsTable
from .instance import MetricInstance, RoutePlan, group_slots, time_horizon, vehicle_groups
from .pc_tree import ProbeCache, RootedTree, coverage_tree

log = logging.getLogger("mdkmlp.solvers")

ZERO = Fraction(0)
ONE = Fraction(1)


class SolverError(Exception):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the two randomized configuration-LP roundings,
    ``solve_multidepot`` and ``round_lp2``: the seed of their draws, the
    geometric growth rate and the truncation slack epsilon.

    growth=None means "algorithm default": 1.616 for the multi-depot
    rounding, and the mu* constant for the joint-configuration rounding
    (whose guarantee needs the growth rate minimizing (c+1)/ln c).
    """

    seed: int = 0
    growth: Optional[Fraction] = None
    epsilon: Fraction = Fraction(1, 100)

    def __post_init__(self):
        if self.growth is not None:
            g = Fraction(self.growth)
            if not 1 < g < Fraction(math.e):
                raise ValueError("growth must lie strictly between 1 and e")
            object.__setattr__(self, "growth", g)
        if Fraction(self.epsilon) <= 0:
            raise ValueError("epsilon must be positive")


DEFAULT_GROWTH = Fraction(1616, 1000)


# ---------------------------------------------------------------------------
# tour plumbing


def _preorder(tree: RootedTree, node_pos: Dict) -> List:
    children: Dict[object, List] = {}
    for (u, v) in tree.arcs:
        children.setdefault(u, []).append(v)
    for u in children:
        children[u].sort(key=lambda v: node_pos[v])
    out: List = []
    stack = [tree.root]
    while stack:
        u = stack.pop()
        out.append(u)
        for v in reversed(children.get(u, [])):
            stack.append(v)
    return out


def _orient_tour(
    interior: Sequence, root, new_nodes: Set, metric: Callable, weight: Callable
) -> Tuple:
    """Pick a traversal direction for the cycle root -> interior -> root:
    the one whose weighted distance-along-cycle sum over the newly covered
    nodes is smaller (at most the 50/50 average the analyses use); a tie
    keeps the given direction.
    """
    fwd = tuple(interior)
    rev = tuple(reversed(interior))
    if len(fwd) <= 1:
        return fwd

    def acct(seq) -> int:
        total = 0
        pos = root
        elapsed = 0
        for v in seq:
            elapsed += metric(pos, v)
            if v in new_nodes:
                total += weight(v) * elapsed
            pos = v
        return total

    return fwd if acct(fwd) <= acct(rev) else rev


def _finalize_plan(inst: MetricInstance, tours: List[List[Tuple]]) -> RoutePlan:
    routes = []
    for i, r in enumerate(inst.roots):
        route: List = [r]
        for tour in tours[i]:
            route.extend(tour)
        routes.append(tuple(route))
    return RoutePlan(routes=tuple(routes), objective_variant=inst.default_variant)


def _orient_into(
    inst: MetricInstance,
    draws: Iterable[Tuple[int, Sequence]],
    metric: Callable,
    covered: Set,
) -> List[List[Tuple]]:
    """Per-vehicle tour lists from (slot, order) draws taken in turn: each
    nonempty order becomes a cycle through the slot's root, oriented against
    the nodes not yet in `covered`. `covered` grows as draws are taken, so a
    generator of draws can stop as soon as it holds every client."""
    tours: List[List[Tuple]] = [[] for _ in range(inst.k)]
    for slot, order in draws:
        if not order:
            continue
        new = set(order) - covered
        tours[slot].append(_orient_tour(order, inst.roots[slot], new, metric, inst.weight))
        covered.update(order)
    return tours


def _require_single_depot(inst: MetricInstance, what: str) -> None:
    if len(inst.root_set) != 1:
        raise SolverError(f"single-depot algorithm on multi-depot instance: {what}")


def _require_plain(inst: MetricInstance, what: str) -> None:
    if inst.has_weights or inst.has_service:
        raise SolverError(
            f"{what} supports only the unweighted, service-free objective"
        )


# ---------------------------------------------------------------------------
# tree -> k tours


def split_tree_into_k_tours(
    inst: MetricInstance, tree: RootedTree, k: int, keep: Optional[Set] = None
) -> List[Tuple]:
    """Double/shortcut the tree into a cycle over `keep`, greedily cut it
    into at most k segments of internal length <= 2c(tree)/k, and close
    each through the root.

    Returns exactly k cycles as node tuples starting at the root (trivial
    cycles pad the list). The greedy cut count is at most k because each
    completed segment plus its following bridge edge exceeds the limit,
    and those pieces are disjoint parts of a walk of length <= 2c(tree).
    """
    if k < 1:
        raise ValueError("k must be positive")
    keep_set = set(keep) if keep is not None else set(tree.nodes)
    if tree.root not in keep_set:
        raise ValueError("root must be kept")
    seq = [
        v for v in _preorder(tree, inst.node_pos) if v in keep_set and v != tree.root
    ]
    if not seq:
        return [(tree.root,)] * k
    limit = 2 * Fraction(tree.cost) / k
    segments: List[List] = [[seq[0]]]
    internal = ZERO
    for prev, v in zip(seq, seq[1:]):
        step = Fraction(inst.dist(prev, v))
        if internal + step > limit:
            segments.append([v])
            internal = ZERO
        else:
            segments[-1].append(v)
            internal += step
    if len(segments) > k:
        raise SolverError("tour splitting produced more than k segments")
    cycles = [(tree.root,) + tuple(seg) for seg in segments]
    cycles.extend([(tree.root,)] * (k - len(cycles)))
    return cycles


def break_cycle_with_service(
    inst: MetricInstance,
    tree: RootedTree,
    S: Set,
    k: int,
    d: Optional[Dict] = None,
) -> List[Tuple]:
    """Split a tree into <= k root cycles covering S, controlling mixed
    length: each cycle Z satisfies c(Z) + 2d(V(Z)) <= 2(c(Q)+d(V(Q)))/k + 2L
    with L = max over S of (root distance + service time).

    The doubled-and-shortcut root-to-w path is snipped by a two-case scan:
    a prefix is closed just before its interior charge exceeds 2M (type i),
    or exactly at a node whose own service time straddles the threshold
    (type ii). Returns exactly k cycles (padded with trivial ones).
    """
    if k < 1:
        raise ValueError("k must be positive")
    S = set(S)
    if not S <= tree.nodes:
        raise ValueError("S must be a subset of the tree's nodes")
    dfun = (lambda v: Fraction(d.get(v, 0))) if d is not None else (
        lambda v: Fraction(inst.service_time(v))
    )
    root = tree.root
    # c-cost of the tree (tree.cost may be a c'-cost if built that way)
    c_tree = sum((Fraction(inst.dist(u, v)) for (u, v) in tree.arcs), ZERO)
    d_tree = sum((dfun(v) for v in tree.nodes), ZERO)
    M = (c_tree + d_tree) / k
    P = [root] + [
        v for v in _preorder(tree, inst.node_pos) if v in S and v != root
    ]
    if len(P) == 1:
        return [(root,)] * k
    m = len(P) - 1  # P[m] is w, the final node of the shortcut path
    cycles: List[Tuple] = []
    start = 0
    while True:
        u = P[start]
        cum_c = ZERO
        cum_d = dfun(u)
        cut = None  # (kind, position)
        for pos in range(start + 1, m + 1):
            v = P[pos]
            cum_c += Fraction(inst.dist(P[pos - 1], v))
            cum_d += dfun(v)
            A = cum_c + 2 * cum_d - dfun(u) - dfun(v)
            if A > 2 * M:
                cut = ("i", pos)
                break
            if A <= 2 * M < A + dfun(v):
                cut = ("ii", pos)
                break
        if cut is None:
            seg = P[start : m + 1]
            cycles.append(_as_cycle(root, seg))
            break
        kind, pos = cut
        if kind == "i":
            seg = P[start:pos]  # up to the node before v
            cycles.append(_as_cycle(root, seg))
            start = pos
        else:
            seg = P[start : pos + 1]
            cycles.append(_as_cycle(root, seg))
            if pos == m:
                break
            start = pos + 1
    if len(cycles) > k:
        raise SolverError("service-aware splitting produced more than k cycles")
    cycles.extend([(root,)] * (k - len(cycles)))
    return cycles


def _as_cycle(root, seg: Sequence) -> Tuple:
    interior = tuple(v for v in seg if v != root)
    return (root,) + interior


# ---------------------------------------------------------------------------
# envelope / concatenation-graph core shared by the stitching algorithms


def _stitch_by_concat_graph(
    inst: MetricInstance,
    points: List[Tuple[int, Fraction, object]],
    cycles_for: Callable[[object, int], List[Tuple]],
) -> List[List[Tuple]]:
    """Envelope -> concatenation-graph shortest path -> stitched tours.

    `points` holds (coverage, cost-bound, witness); `cycles_for(witness,
    coverage)` turns a witness into k cycles each of length at most the
    point's cost bound. The path runs over the corners of the points' lower
    envelope, and each corner's witness is the first point at that corner's
    coverage and cost bound. Returns the per-vehicle tour lists.
    """
    env = concat_graph.lower_envelope((cov, y) for cov, y, _ in points)
    if env.domain[1] < inst.n:
        raise SolverError(
            f"no stitching point covers all {inst.n} nodes (at most {env.domain[1]})"
        )
    corner_cost = dict(env.corners)
    witness: Dict[int, object] = {}
    for cov, y, wit in points:
        if cov not in witness and corner_cost.get(cov) == y:
            witness[cov] = wit
    path = concat_graph.shortest_concat_path(env)

    def draws():
        for ell in path.node_indices[1:]:
            for slot, cyc in enumerate(cycles_for(witness[ell], ell)):
                yield slot, cyc[1:]

    covered: Set = set(inst.root_set)
    tours = _orient_into(inst, draws(), inst.dist, covered)
    missing = [v for v in inst.clients if v not in covered]
    if missing:
        raise SolverError(f"stitched solution left nodes uncovered: {missing!r}")
    return tours


# ---------------------------------------------------------------------------
# bidirected-LP rounding (single depot)


def _aggregate_lp3(inst: MetricInstance, sol) -> Tuple[Dict, Dict]:
    """x'_{v,t} and z'_{a,t} summed over vehicles."""
    groups = vehicle_groups(inst)
    xprime: Dict[Tuple[object, int], Fraction] = {}
    zprime: Dict[Tuple[Tuple, int], Fraction] = {}
    for name, val in sol.values.items():
        if name[0] == "x":
            _, gi, v, t = name
            mult = groups[gi][1]
            key = (v, t)
            xprime[key] = xprime.get(key, ZERO) + mult * val
        elif name[0] == "z":
            _, gi, a, t = name
            mult = groups[gi][1]
            key = (a, t)
            zprime[key] = zprime.get(key, ZERO) + mult * val
    return xprime, zprime


def _family_for_time(
    inst: MetricInstance, zprime: Dict, t: int, root, cache: Dict
):
    weights_t = {
        a: val for (a, tt), val in zprime.items() if tt == t and val > 0
    }
    cache_key = frozenset(weights_t.items())
    if cache_key in cache:
        return cache[cache_key]
    K, caps = lp_toolkit.scaled_int_caps(weights_t)
    if not caps:
        fam_members = ((1, frozenset()),)
    else:
        D = WeightedDigraph(nodes=inst.nodes, arcs=caps)
        fam_members = pack_arborescences(D, root, K).members
    cache[cache_key] = (fam_members, K)
    return fam_members, K


def check_lp3_rounding(inst: MetricInstance, what: str) -> None:
    """Raise SolverError where the bidirected-LP rounding `what` ("kmlp-lp",
    k-way split, or "mlp-lp", one vehicle) does not apply. A caller that
    solves LP3 itself runs this first, so a misuse fails before the LP is
    built."""
    if what == "mlp-lp" and inst.k != 1:
        raise SolverError("mlp-lp requires exactly one vehicle")
    _require_single_depot(inst, what)
    _require_plain(inst, what)


def _solve_lp3_rounding(
    inst: MetricInstance, split: bool, lp3sol: Optional[lp_toolkit.LpSolution]
) -> RoutePlan:
    what = "kmlp-lp" if split else "mlp-lp"
    check_lp3_rounding(inst, what)
    root = inst.roots[0]
    k = inst.k
    if not inst.clients:
        return _finalize_plan(inst, [[] for _ in range(k)])
    if lp3sol is not None:
        if lp3sol.which != "LP3":
            raise SolverError(f"{what} needs a bidirected LP solution")
        T = lp3sol.T
        sol3 = lp3sol
    else:
        T = time_horizon(inst).T
        sol3 = lp_toolkit.build_and_solve_lp3(inst, T)
    xprime, zprime = _aggregate_lp3(inst, sol3)
    # S_t holds the root and every node with x'_{v,t'} > 0 for some t' <= t
    first_served = {root: 0}
    for (v, t), val in xprime.items():
        if val > 0 and t < first_served.get(v, T + 1):
            first_served[v] = t

    points: List[Tuple[int, Fraction, object]] = [(1, ZERO, None)]
    fam_cache: Dict = {}
    for t in range(1, T + 1):
        members, K = _family_for_time(inst, zprime, t, root, fam_cache)
        S_t = {v for v in inst.nodes if first_served.get(v, T + 1) <= t}
        for gamma, member in members:
            cov = len(tree_nodes(member, root) & S_t)
            cost = sum((Fraction(inst.dist(u, v)) for (u, v) in member), ZERO)
            if split:
                y = 2 * cost / k + 2 * t
            else:
                y = 2 * cost
            points.append((cov, y, (member, cost, frozenset(S_t))))

    def cycles_for(wit, ell) -> List[Tuple]:
        # mlp-lp has k = 1, where the greedy split never cuts
        member, cost, S_t = wit
        tree = RootedTree(root=root, arcs=frozenset(member), cost=cost)
        return split_tree_into_k_tours(inst, tree, k, tree.nodes & S_t)

    return _finalize_plan(inst, _stitch_by_concat_graph(inst, points, cycles_for))


def solve_kmlp_lp(
    inst: MetricInstance, lp3sol: Optional[lp_toolkit.LpSolution] = None
) -> RoutePlan:
    """Single-depot rounding of the bidirected LP with k-way tree splits;
    total latency at most 2*mu* times the LP optimum on every run.
    `lp3sol` lets callers that already solved the LP reuse it."""
    return _solve_lp3_rounding(inst, True, lp3sol)


def solve_mlp_lp(
    inst: MetricInstance, lp3sol: Optional[lp_toolkit.LpSolution] = None
) -> RoutePlan:
    """Single-vehicle specialization: no splitting, factor mu*."""
    return _solve_lp3_rounding(inst, False, lp3sol)


# ---------------------------------------------------------------------------
# combinatorial single-depot algorithm


def _combinatorial_points(inst: MetricInstance) -> List[Tuple[int, Fraction, object]]:
    """(coverage, cost bound, tree) for the partial-cover trees on every
    distance prefix V_j of a single-depot instance: the k-way split of a
    tree costs 2c(tree)/k plus the round trip to V_j's farthest node."""
    root = inst.roots[0]
    k = inst.k
    node_pos = inst.node_pos
    order = sorted(
        inst.nodes, key=lambda v: (inst.dist(root, v), node_pos[v])
    )
    points: List[Tuple[int, Fraction, object]] = [(1, ZERO, None)]
    for j in range(2, inst.n + 1):
        Vj = order[:j]
        keep_idx = [node_pos[v] for v in Vj]
        sub = MetricInstance(
            nodes=tuple(Vj),
            roots=(root,),
            cost=tuple(
                tuple(inst.cost[a][b] for b in keep_idx) for a in keep_idx
            ),
        )
        reach = 2 * Fraction(inst.dist(root, order[j - 1]))
        probe_cache = ProbeCache()  # one PC-LP model for every ell on V_j
        for ell in range(1, j + 1):
            Q = coverage_tree(sub, root, ell, cache=probe_cache)
            parts = [Q] if isinstance(Q, RootedTree) else [Q.T1, Q.T2]
            for tree in parts:
                y = 2 * Fraction(tree.cost) / k + reach
                points.append((len(tree.nodes), y, tree))
    return points


def solve_kmlp_combinatorial(inst: MetricInstance) -> RoutePlan:
    """Single-depot algorithm driven by partial-cover trees on distance
    prefixes; total latency at most 2*mu* times the bottleneck-stroll
    lower bound on every run."""
    _require_single_depot(inst, "kmlp-comb")
    _require_plain(inst, "kmlp-comb")
    k = inst.k
    if not inst.clients:
        return _finalize_plan(inst, [[] for _ in range(k)])

    def cycles_for(tree: RootedTree, ell) -> List[Tuple]:
        return split_tree_into_k_tours(inst, tree, k)

    return _finalize_plan(
        inst, _stitch_by_concat_graph(inst, _combinatorial_points(inst), cycles_for)
    )


# ---------------------------------------------------------------------------
# geometric-sampling rounding of the configuration LPs


def _geometric_schedule(
    cfg: SolverConfig, growth: Fraction, n: int, T: int, rng: random.Random
) -> List[float]:
    c = float(growth)
    h = c ** rng.random()
    D = 0
    while h * c**D < T:
        D += 1
    extra = math.ceil(math.log(max(n * T / float(cfg.epsilon), math.e)))
    N = D + extra
    return [h * c**j for j in range(N + 1)]


def _sample_from(table: lp_toolkit.DrawTable, rng: random.Random) -> Optional[object]:
    """One draw from a sub-distribution (residual mass -> None): the first
    item whose cumulative probability exceeds u = rng.random(). With u = p/q
    exactly, u < cum/denom is cum > floor(p * denom / q) in integers."""
    p, q = rng.random().as_integer_ratio()
    bar = p * table.denom // q
    for item, cum in zip(table.items, table.cum):
        if cum > bar:
            return item
    return None


def _append_leftovers(
    inst: MetricInstance, tours: List[List[Tuple]], covered: Set
) -> None:
    """Direct visits from each uncovered client's home slot, nearest first."""
    leftovers = [(inst.home_slot(v), v) for v in inst.clients if v not in covered]
    leftovers.sort(key=lambda sv: inst.dist(inst.roots[sv[0]], sv[1]))
    for slot, v in leftovers:
        tours[slot].append((v,))
        covered.add(v)


def _geometric_rounding(
    inst: MetricInstance,
    cfg: SolverConfig,
    growth: Fraction,
    T: int,
    draws_at: Callable[[int], Iterable[Tuple[int, Sequence]]],
    rng: random.Random,
) -> RoutePlan:
    """The loop both configuration-LP roundings share: at each geometric
    time point t_j, the (slot, order) draws `draws_at(min(T, floor t_j))`,
    until every client is covered; leftovers get direct visits."""
    schedule = _geometric_schedule(cfg, growth, inst.n, T, rng)
    covered: Set = set()
    clients = set(inst.clients)

    def draws():
        for tj in schedule:
            yield from draws_at(min(T, int(tj)))
            if clients <= covered:
                return

    metric, _ = lp_toolkit._lp_metric(inst)
    tours = _orient_into(inst, draws(), metric, covered)
    _append_leftovers(inst, tours, covered)
    return _finalize_plan(inst, tours)


def solve_multidepot(
    inst: MetricInstance,
    cfg: Optional[SolverConfig] = None,
    lp1sol: Optional[lp_toolkit.LpSolution] = None,
) -> RoutePlan:
    """Randomized rounding of the per-vehicle configuration LP: geometric
    time points, one independent column draw per vehicle per time point,
    doubled columns as tours, truncation plus direct-visit cleanup.

    Expected cost at most ~8.4965 times the LP optimum (plus the
    truncation slack); supports weights, allowed depots, and service times
    (via the symmetrized service metric). `lp1sol` lets many seeds reuse
    one solved LP."""
    cfg = cfg or SolverConfig()
    rng = random.Random(cfg.seed)
    if not inst.clients:
        return _finalize_plan(inst, [[] for _ in range(inst.k)])
    if lp1sol is not None:
        if lp1sol.which != "LP1":
            raise SolverError("solve_multidepot needs a per-vehicle LP solution")
        T = lp1sol.T
        sol1 = lp1sol
    else:
        T = time_horizon(inst).T
        sol1 = lp_toolkit.build_and_solve_lp1(inst, T)
    tables = sol1.meta["draws"]  # per (group, time): the visiting orders
    slot_gi = {s: gi for gi, (_, slots) in enumerate(group_slots(inst)) for s in slots}
    empty = lp_toolkit.EMPTY_DRAW

    def draws_at(t):
        for slot in range(inst.k):
            yield slot, _sample_from(tables.get((slot_gi[slot], t), empty), rng)

    growth = cfg.growth or DEFAULT_GROWTH
    return _geometric_rounding(inst, cfg, growth, T, draws_at, rng)


def round_lp2(
    inst: MetricInstance,
    lp2sol: lp_toolkit.LpSolution,
    cfg: Optional[SolverConfig] = None,
) -> RoutePlan:
    """Rounding of the joint-configuration LP: geometric time points with a
    single configuration draw per point covering all k vehicles at once.

    The single joint draw avoids the independent-sampling loss, giving an
    expected factor of about mu* < 3.5912 (plus truncation slack); the
    default growth rate is therefore mu* itself, the minimizer of
    (c+1)/ln c."""
    cfg = cfg or SolverConfig()
    if lp2sol.which != "LP2":
        raise SolverError("round_lp2 needs a joint-configuration LP solution")
    _require_plain(inst, "lp2-round")
    rng = random.Random(cfg.seed)
    if not inst.clients:
        return _finalize_plan(inst, [[] for _ in range(inst.k)])
    T = lp2sol.T
    tables = lp2sol.meta["draws"]  # per time: the witness tuples, path i at slot i

    def draws_at(t):
        routes = _sample_from(tables.get(t, lp_toolkit.EMPTY_DRAW), rng)
        if routes is not None:
            for slot, route in enumerate(routes):
                yield slot, route[1:]

    growth = cfg.growth or concat_graph.MU
    return _geometric_rounding(inst, cfg, growth, T, draws_at, rng)


# ---------------------------------------------------------------------------
# construction from the bottleneck-stroll table


def bnslb_construction(inst: MetricInstance, table: BnsTable) -> RoutePlan:
    """Stitch doubled bottleneck-stroll witness paths along the shortest
    concatenation path over twice the table values; total latency at most
    mu* times the table sum on every run."""
    _require_plain(inst, "bnslb-construct")
    if len(table.values) != inst.n:
        raise SolverError("table size does not match the instance")
    if not table.witnesses:
        raise SolverError("table has no witnesses")
    if not inst.clients:
        return _finalize_plan(inst, [[] for _ in range(inst.k)])
    points = [
        (ell, 2 * Fraction(b), routes)
        for ell, (b, routes) in enumerate(zip(table.values, table.witnesses), 1)
    ]
    return _finalize_plan(inst, _stitch_by_concat_graph(inst, points, lambda wit, ell: wit))
