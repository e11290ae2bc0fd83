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
segment's internal length within 2c(tree)/k by a greedy cut.
The roundings of the bottleneck-stroll bound (``kmlp-comb``,
``bnslb-construct``) run on :func:`instance.without_service`'s
reduction, whose d'-orientation is the service orientation.

The four single-depot roundings (``solve_kmlp_combinatorial``,
``solve_kmlp_lp``, ``solve_mlp_lp``, ``bnslb_construction``) are
deterministic functions of the instance and their bound: each stitches
witnesses along the shortest concatenation path over the lower envelope's
corners, and meets its guarantee on every run. Only the configuration-LP
roundings (``solve_multidepot``, ``round_lp2``) draw at random, and only
they read a :class:`SolverConfig`.

Orientation is decided once per tour, by :meth:`lp_toolkit.Tour.oriented`,
whose rule the configuration-LP roundings run inline: a compiled tour holds,
per client, w_v times its forward minus its reverse elapsed time, and is
taken forward iff those gains over the clients not yet covered sum to at
most 0, the cheaper direction with ties kept forward.
Coverage is an int mask over ``inst.clients``. The stitching roundings
compile each tour in c as they take it. The configuration-LP roundings share
one loop, :func:`_geometric_rounding`, over draw tables that were compiled
when their LP was solved (``meta["draws"]``), with tours in the LP metric,
which is doubled on service instances (doubling both directions' sums keeps
their comparison). Each item of a table is a tuple of (slot, tour) pairs,
one per vehicle for LP1 and the witness paths for LP2. A draw is one pass
over those tables: one uniform per table, bisected among the table's float
cuts, which is exact for every float; each drawn tour is oriented inline
and appended to its slot's route. So no draw reads the metric or builds a
table, a tour or the leftover order: all of that happens when the LP is
solved.
"""

import logging
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Callable, Dict, List, Optional, Set, Tuple

from . import concat_graph, exact_oracles, lp_toolkit
from .arb_packing import pack_scaled, tree_nodes
# no call here: perfbench/tracer.py checks that it rebinds this copy
from .arb_packing import pack_arborescences  # noqa: F401
from .exact_oracles import BnsTable
from .instance import MetricInstance, RoutePlan, time_horizon, without_service
from .pc_tree import RootedTree, coverage_tree

log = logging.getLogger("mdkmlp.solvers")

ZERO = Fraction(0)


class SolverError(Exception):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """The seed of the draws of the two randomized configuration-LP
    roundings, ``solve_multidepot`` and ``round_lp2``. Their geometric
    growth rates are fixed: ``DEFAULT_GROWTH`` for the multi-depot rounding
    and mu* for the joint-configuration rounding, whose guarantee needs the
    rate minimizing (c+1)/ln c. Both truncate with slack ``EPSILON``."""

    seed: int = 0


DEFAULT_GROWTH = Fraction(1616, 1000)
EPSILON = Fraction(1, 100)


@dataclass(frozen=True)
class Algorithm:
    """One algorithm: the bound its guarantee is stated against ("lp1",
    "lp2", "lp3" or "bnslb"), its per-run factor against that bound (None
    for a randomized rounding), the ``FEATURES`` it refuses, and its
    rounding, called as (instance, config, solved bound or None)."""

    bound: str
    factor: Optional[Fraction]
    refuses: Tuple[str, ...]
    rounding: Callable[..., RoutePlan]


# feature -> (test, refusal message), in the order ``require`` checks them
FEATURES = {
    "vehicles": (lambda inst: inst.k != 1, "{} requires exactly one vehicle"),
    "depots": (
        lambda inst: len(inst.root_set) != 1,
        "single-depot algorithm on multi-depot instance: {}",
    ),
    "weights": (lambda inst: inst.has_weights, "{} supports only the unweighted objective"),
    "service": (lambda inst: inst.has_service, "{} supports only the service-free objective"),
}
_PLAIN = ("weights", "service")
MU = concat_graph.MU
# the floats of the rounding loop, converted once
_GROWTH, _MU, _EPSILON = float(DEFAULT_GROWTH), float(MU), float(EPSILON)

# The roundings look their solver up when called, so a rebinding of the
# module attribute (a test's monkeypatch, a profiler's wrapper) is seen.
ALGORITHMS = {
    "multidepot": Algorithm(
        "lp1", None, (), lambda i, c, b: solve_multidepot(i, c, lp1sol=b)
    ),
    "kmlp-lp": Algorithm(
        "lp3", 2 * MU, ("depots",) + _PLAIN, lambda i, c, b: solve_kmlp_lp(i, lp3sol=b)
    ),
    "kmlp-comb": Algorithm(
        "bnslb", 2 * MU, ("depots", "weights"), lambda i, c, b: solve_kmlp_combinatorial(i)
    ),
    # one vehicle has one depot
    "mlp-lp": Algorithm(
        "lp3", MU, ("vehicles",) + _PLAIN, lambda i, c, b: solve_mlp_lp(i, lp3sol=b)
    ),
    "lp2-round": Algorithm("lp2", None, _PLAIN, lambda i, c, b: round_lp2(i, b, c)),
    "bnslb-construct": Algorithm(
        "bnslb", MU, ("weights",), lambda i, c, b: bnslb_construction(i, b)
    ),
}


def require(inst: MetricInstance, alg: str) -> None:
    """Raise SolverError if `inst` has a feature that algorithm `alg`
    refuses. Callers run it before solving the algorithm's bound."""
    refuses = ALGORITHMS[alg].refuses
    for feature, (has, message) in FEATURES.items():
        if feature in refuses and has(inst):
            raise SolverError(message.format(alg))


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


def _finalize_plan(inst: MetricInstance, tours: List[List[Tuple]]) -> RoutePlan:
    routes = []
    for r, slot_tours in zip(inst.roots, tours):
        route: List = [r]
        for tour in slot_tours:
            route.extend(tour)
        routes.append(tuple(route))
    return RoutePlan(routes=tuple(routes), objective_variant=inst.default_variant)


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

    tours: List[List[Tuple]] = [[] for _ in range(inst.k)]
    covered = 0
    for ell in path.node_indices[1:]:
        for slot, cyc in enumerate(cycles_for(witness[ell], ell)):
            if len(cyc) > 1:
                tour = lp_toolkit.compile_tour(inst, inst.roots[slot], cyc[1:], inst.dist)
                tours[slot].append(tour.oriented(covered))
                covered |= tour.mask
    missing = [v for v in inst.clients if not covered & inst.client_bit[v]]
    if missing:
        raise SolverError(f"stitched solution left nodes uncovered: {missing!r}")
    return tours


# ---------------------------------------------------------------------------
# bidirected-LP rounding (single depot)


def _solve_lp3_rounding(
    inst: MetricInstance, split: bool, lp3sol: Optional[lp_toolkit.LpSolution]
) -> RoutePlan:
    what = "kmlp-lp" if split else "mlp-lp"
    require(inst, what)
    if lp3sol is not None and lp3sol.which != "LP3":
        raise SolverError(f"{what} needs a bidirected LP solution")
    root = inst.roots[0]
    k = inst.k
    if not inst.clients:
        return _finalize_plan(inst, [[] for _ in range(k)])
    if lp3sol is not None:
        T = lp3sol.T
        sol3 = lp3sol
    else:
        T = time_horizon(inst).T
        sol3 = lp_toolkit.build_and_solve_lp3(inst, T)
    # both roundings refuse distinct depots, so LP3 has one group, of k
    # vehicles: z'_{a,t} = k z[0, a, t], grouped by t as zprime[t][a], and
    # S_t holds the root and every node with x[0, v, t'] > 0 for some t' <= t
    zprime: Dict[int, Dict[Tuple, Fraction]] = {}
    first_served = {root: 0}
    for (kind, _, key, t), val in sol3.values.items():
        if kind == "z":
            zprime.setdefault(t, {})[key] = k * val
        elif val > 0 and t < first_served.get(key, T + 1):
            first_served[key] = t

    points: List[Tuple[int, Fraction, object]] = [(1, ZERO, None)]
    fam_cache: Dict = {}
    for t in range(1, T + 1):
        family = pack_scaled(inst.nodes, root, zprime.get(t, {}), fam_cache)
        members = family.members if family else ((1, frozenset()),)
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
    tree costs 2c(tree)/k plus the round trip to V_j's farthest node. One
    :func:`coverage_tree` walk per prefix gives its trees; their lower
    hull costs at most the cheapest path collection spanning each B, and
    the stitching envelope reads that hull."""
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
        for tree in coverage_tree(sub, root):
            points.append((tree.coverage, 2 * tree.cost / k + reach, tree))
    return points


def solve_kmlp_combinatorial(inst: MetricInstance) -> RoutePlan:
    """Single-depot algorithm driven by partial-cover trees on distance
    prefixes, run on the service-free reduction; total latency at most
    2*mu* times the bottleneck-stroll lower bound on every run."""
    require(inst, "kmlp-comb")
    plain, _, _ = without_service(inst)
    k = inst.k
    if not inst.clients:
        return _finalize_plan(inst, [[] for _ in range(k)])

    def cycles_for(tree: RootedTree, ell) -> List[Tuple]:
        return split_tree_into_k_tours(plain, tree, k)

    return _finalize_plan(
        inst, _stitch_by_concat_graph(plain, _combinatorial_points(plain), cycles_for)
    )


# ---------------------------------------------------------------------------
# geometric-sampling rounding of the configuration LPs


def _geometric_rounding(
    inst: MetricInstance, c: float, sol: lp_toolkit.LpSolution, rng: random.Random
) -> RoutePlan:
    """The loop both configuration-LP roundings share. Time point t_j is
    h * c**j, j = 0, 1, ..., from the offset h = c**u of one uniform u, and
    is computed when the loop reaches it. At each point it draws once from
    every table of ``sol.meta["draws"][min(T, floor t_j)]``, in order: one
    uniform u, and the first item whose float cut exceeds u, or nothing past
    the last cut (:class:`lp_toolkit.DrawTable`). It takes each drawn (slot,
    tour) pair, oriented against the clients covered before it, until every
    client is covered. The points stop at j = N, D + ceil(ln max(nT/
    ``EPSILON``, e)) with t_D the first point at or above T; the clients
    still uncovered then get direct visits from their home slots."""
    T, draws, leftovers = sol.T, sol.meta["draws"], sol.meta["leftovers"]
    left = math.ceil(math.log(max(inst.n * T / _EPSILON, math.e)))  # points past T
    full = (1 << len(inst.clients)) - 1
    uniform = rng.random
    h = c ** uniform()
    routes = [[r] for r in inst.roots]
    covered = 0
    for j in count():
        tj = h * c**j
        past = tj >= T
        for items, cuts in draws[T if past else int(tj)]:
            i = bisect_right(cuts, uniform())
            if i < len(items):
                for slot, (fwd, rev, mask, gains) in items[i]:
                    gain = 0
                    for bit, g in gains:
                        if not covered & bit:
                            gain += g
                    routes[slot] += fwd if gain <= 0 else rev
                    covered |= mask
        if covered == full:
            break
        if past:
            if not left:
                for bit, slot, v in leftovers:
                    if not covered & bit:
                        routes[slot].append(v)
                break
            left -= 1
    return RoutePlan(routes=tuple(map(tuple, routes)), objective_variant=inst.default_variant)


def solve_multidepot(
    inst: MetricInstance,
    cfg: Optional[SolverConfig] = None,
    lp1sol: Optional[lp_toolkit.LpSolution] = None,
) -> RoutePlan:
    """Randomized rounding of the per-vehicle configuration LP: geometric
    time points, one independent column draw per vehicle per time point,
    doubled columns as tours, truncation plus direct-visit cleanup.

    The time points grow by ``DEFAULT_GROWTH`` from a random offset, and
    truncate with slack ``EPSILON``; `cfg` gives only the seed of the draws.
    Expected cost at most ~8.4965 times the LP optimum (plus the
    truncation slack); supports weights, allowed depots, and service times
    (via the symmetrized service metric). `lp1sol` lets many seeds reuse
    one solved LP."""
    if lp1sol is not None and lp1sol.which != "LP1":
        raise SolverError("solve_multidepot needs a per-vehicle LP solution")
    cfg = cfg or SolverConfig()
    rng = random.Random(cfg.seed)
    if not inst.clients:
        return _finalize_plan(inst, [[] for _ in range(inst.k)])
    if lp1sol is not None:
        sol1 = lp1sol
    else:
        sol1 = lp_toolkit.build_and_solve_lp1(inst, time_horizon(inst).T)
    return _geometric_rounding(inst, _GROWTH, sol1, rng)


def round_lp2(
    inst: MetricInstance,
    lp2sol: lp_toolkit.LpSolution,
    cfg: Optional[SolverConfig] = None,
) -> RoutePlan:
    """Rounding of the joint-configuration LP: geometric time points with a
    single configuration draw per point covering all k vehicles at once.

    The single joint draw avoids the independent-sampling loss, giving an
    expected factor of about mu* < 3.5912 (plus the slack of truncating with
    ``EPSILON``); the growth rate is therefore mu* itself, the minimizer of
    (c+1)/ln c. `cfg` gives only the seed of the draws. Weights and service
    times are refused; allowed-depot instances are accepted, although LP2's
    witnesses do not yet respect the allowed depots."""
    cfg = cfg or SolverConfig()
    if lp2sol.which != "LP2":
        raise SolverError("round_lp2 needs a joint-configuration LP solution")
    require(inst, "lp2-round")
    rng = random.Random(cfg.seed)
    if not inst.clients:
        return _finalize_plan(inst, [[] for _ in range(inst.k)])
    return _geometric_rounding(inst, _MU, lp2sol, rng)


# ---------------------------------------------------------------------------
# construction from the bottleneck-stroll table


def bnslb_construction(
    inst: MetricInstance, table: Optional[BnsTable] = None
) -> RoutePlan:
    """Stitch doubled bottleneck-stroll witness paths along the shortest
    concatenation path over twice the table values, on the service-free
    reduction that the table was built on; total latency at most mu* times
    the table's bound on every run. Without `table`, it is solved here,
    after the instance is checked."""
    require(inst, "bnslb-construct")
    table = table or exact_oracles.bnslb(inst)
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
    plain, _, _ = without_service(inst)
    return _finalize_plan(inst, _stitch_by_concat_graph(plain, points, lambda wit, ell: wit))
