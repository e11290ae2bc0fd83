"""Independent reference checkers that the tests compare the package against.

Each checker recomputes its quantity from the definition, by enumeration in
exact arithmetic, and imports nothing from the code it checks: the packing
verifier reads only a digraph's nodes and arc weights, the envelope checks
only a curve's corners, and the cover oracle, the serializer and the plan
evaluator (:func:`plan_value`) only an instance's fields. The enumerations
are exponential in the number of nodes and meant for the desk-scale inputs
of the tests (n <= 8).

The two separation references (:func:`lp3_cuts`, :func:`pclp_cuts`) read an
LP solution by variable name, in Fractions, and scale each min-cut network
by the lcm of its own values' denominators; they share only the max-flow
(:func:`mdkmlp.flows.min_cut`) with the separation they check.

The subset DPs (:func:`held_karp`, :func:`min_paths`,
:func:`min_latency_orders`, :func:`split`) are the pure-Python loops the
package's numpy kernels replaced, kept as the reference for their values,
orders, tie rule and key order; they take any exactly comparable lengths
(ints or Fractions).

The pick references (:func:`bottleneck_picks`, :func:`orienteering_pick`)
enumerate client sets with ``itertools.combinations`` and cheapest paths
with ``itertools.permutations``, and state the oracles' tie rules on masks
directly: bit i of a mask is the i-th item.
"""

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from mdkmlp import concat_graph, flows
from mdkmlp.instance import vehicle_groups


def connectivity(D, x, y) -> int:
    """lambda_D(x,y) by Menger's theorem: the least in-weight of a node set S
    with y in S and x not in S, over every such S."""
    if x not in D.nodes or y not in D.nodes:
        raise ValueError(f"unknown node in pair ({x!r},{y!r})")
    others = [v for v in D.nodes if v not in (x, y)]
    return min(
        sum(w for (a, b), w in D.arcs.items() if b in S and a not in S)
        for m in range(len(others) + 1)
        for S in ({y, *extra} for extra in itertools.combinations(others, m))
    )


def covered(family, r, u) -> int:
    """The total weight of the members whose tree, rooted at r, holds u."""
    return sum(g for g, F in family.members if u == r or any(u in a for a in F))


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failures: Tuple[str, ...]


def verify_packing(D, r, K: int, family) -> VerificationReport:
    """Every guarantee of a weighted arborescence packing of D at root r:
    positive integer member weights summing to K, each member an
    out-arborescence of r, arc usage within the arc weights, and every node
    u covered at least min(K, lambda(r,u)) times."""
    failures = []
    total = 0
    usage = {}
    for gamma, F in family.members:
        if not isinstance(gamma, int) or gamma <= 0:
            failures.append(f"nonpositive member weight {gamma!r}")
            continue
        total += gamma
        for a in F:
            usage[a] = usage.get(a, 0) + gamma
        heads = [b for _, b in F]
        if len(heads) != len(set(heads)):
            failures.append(f"member {sorted(map(repr, F))} has a doubled parent")
            continue
        if r in heads:
            failures.append("member has an arc into the root")
            continue
        reach, left = {r}, set(F)
        while True:
            step = {a for a in left if a[0] in reach}
            if not step:
                break
            reach.update(b for _, b in step)
            left -= step
        if left:
            failures.append(f"member not reachable from root: {sorted(map(repr, left))}")
    if total != K:
        failures.append(f"weight total {total} != K={K}")
    for a, used in sorted(usage.items(), key=repr):
        if used > D.arcs.get(a, 0):
            failures.append(f"arc {a!r} used {used} > capacity {D.arcs.get(a, 0)}")
    for u in D.nodes:
        if u == r:
            continue
        need = min(K, connectivity(D, r, u))
        got = covered(family, r, u)
        if got < need:
            failures.append(f"node {u!r} covered {got} < min(K, lambda)={need}")
    return VerificationReport(ok=not failures, failures=tuple(failures))


def envelope_value(curve, x) -> Fraction:
    """The piecewise-linear envelope through `curve`'s corners at x."""
    x = Fraction(x)
    corners = curve.corners
    lo, hi = corners[0][0], corners[-1][0]
    if x < lo or x > hi:
        raise ValueError(f"x={x} outside envelope domain [{lo},{hi}]")
    for (x1, y1), (x2, y2) in zip(corners, corners[1:]):
        if x1 <= x <= x2:
            return y1 + (y2 - y1) * (x - x1) / (x2 - x1)
    return corners[-1][1]


def envelope_integral(curve, lo, hi) -> Fraction:
    """Exact integral of the piecewise-linear envelope over [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    corners = curve.corners
    dlo, dhi = corners[0][0], corners[-1][0]
    if lo > hi:
        raise ValueError("empty or reversed range")
    if lo < dlo or hi > dhi:
        raise ValueError(f"[{lo},{hi}] outside envelope domain [{dlo},{dhi}]")
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(corners, corners[1:]):
        a, b = max(x1, lo), min(x2, hi)
        if a < b:
            ya = y1 + (y2 - y1) * (a - x1) / (x2 - x1)
            yb = y1 + (y2 - y1) * (b - x1) / (x2 - x1)
            total += (ya + yb) * (b - a) / 2
    return total


def exact_cover_cost(inst, root, B: int) -> Fraction:
    """O*: the least total cost of a collection of paths from `root` that
    together span at least B nodes (the root counts), from every simple path
    and every partition of the covered clients among paths."""
    items = [v for v in inst.nodes if v != root]
    single = {}  # client mask -> cheapest path from root visiting exactly it
    for m in range(1, len(items) + 1):
        for tail in itertools.permutations(range(len(items)), m):
            path = (root, *(items[i] for i in tail))
            cost = sum(inst.dist(a, b) for a, b in zip(path, path[1:]))
            mask = sum(1 << i for i in tail)
            single[mask] = min(cost, single.get(mask, cost))
    cover = [0]
    for mask in range(1, 1 << len(items)):
        low = mask & -mask  # the part holding the lowest client comes first
        cover.append(min(
            single[sub] + cover[mask ^ sub]
            for sub in range(1, mask + 1)
            if sub & mask == sub and sub & low
        ))
    spans = [c for mask, c in enumerate(cover) if 1 + bin(mask).count("1") >= B]
    if not spans:
        raise ValueError(f"cannot span {B} nodes")
    return Fraction(min(spans))


def hull_split(trees, B: int):
    """The trees of the lower convex hull of the (node count, cost) points
    of `trees` at B: (T,) where B is a corner, whose tree T spans exactly B
    nodes, else (a, T1, T2) from the hull edge over B, with
    a*|T1| + (1 - a)*|T2| = B. None where the hull does not reach B."""
    corners = concat_graph.lower_envelope(
        (t.coverage, t.cost) for t in trees
    ).corners
    at = {}
    for t in trees:
        at.setdefault((t.coverage, t.cost), t)
    for (x1, y1), (x2, y2) in zip(corners, corners[1:] + corners[-1:]):
        if x1 == B:
            return (at[x1, y1],)
        if x1 < B < x2:
            return Fraction(x2 - B, x2 - x1), at[x1, y1], at[x2, y2]
    return None


def instance_to_json(inst) -> str:
    """The instance file that `parse_instance` reads back as `inst`."""
    data = {
        "nodes": list(inst.nodes),
        "roots": list(inst.roots),
        "costs": [list(row) for row in inst.cost],
    }
    # JSON keys are strings; parse_instance maps each back to its node
    if inst.weights:
        data["weights"] = {str(v): w for v, w in inst.weights.items()}
    if inst.service:
        data["service_times"] = {str(v): d for v, d in inst.service.items()}
    if inst.allowed_depots:
        data["allowed_depots"] = {str(v): list(rs) for v, rs in inst.allowed_depots.items()}
    return json.dumps(data, sort_keys=True)


def plan_value(inst, routes, variant) -> Tuple[Fraction, dict]:
    """A plan's objective and per-client latencies by the definition, from
    the instance's fields alone. Route i starts at root i and is walked in
    order: a root, or a client served before (on this route or an earlier
    one), is passed over; each other node is served on arrival, after its
    service time where the variant counts service. The objective sums the
    latencies, weighted where the variant counts weights. Raises ValueError,
    the first failing check first: the number of routes, each route's start,
    then per node an unknown node and a disallowed depot, and at the end
    the clients left unserved."""
    roots = inst.roots
    if len(routes) != len(roots):
        raise ValueError(f"plan has {len(routes)} routes for a {len(roots)}-vehicle instance")
    where = {v: i for i, v in enumerate(inst.nodes)}
    served = {}
    for i, route in enumerate(routes):
        if len(route) == 0 or route[0] != roots[i]:
            raise ValueError(f"route {i} must start at its root {roots[i]!r}")
        at, clock = roots[i], 0
        for v in route[1:]:
            if v in roots or v in served:
                continue
            if v not in where:
                raise ValueError(f"unknown node {v!r} in route {i}")
            if v in inst.allowed_depots and roots[i] not in inst.allowed_depots[v]:
                raise ValueError(f"node {v!r} served from disallowed depot {roots[i]!r}")
            clock += inst.cost[where[at]][where[v]]
            if "service" in variant:
                clock += inst.service.get(v, 0)
            served[v] = clock
            at = v
    missing = [v for v in inst.nodes if v not in roots and v not in served]
    if missing:
        raise ValueError(f"uncovered node(s): {missing!r}")
    weight = (lambda v: inst.weights.get(v, 1)) if "weighted" in variant else (lambda v: 1)
    return sum((weight(v) * t for v, t in served.items()), Fraction(0)), served


def _violated(inst, root, arc_values, demands):
    """(S, v) for each (v, need) in order with need > 0 whose minimum root-v
    cut under ``arc_values`` is below need; S is the side of v. The
    capacities are the values times the lcm of their denominators."""
    scale = math.lcm(*(w.denominator for w in arc_values.values()))
    idx = {v: i for i, v in enumerate(inst.nodes)}
    caps = {
        (idx[u], idx[v]): w.numerator * (scale // w.denominator)
        for (u, v), w in arc_values.items()
        if w > 0
    }
    found = []
    for v, need in demands:
        if need <= 0:
            continue
        val, side = flows.min_cut(inst.n, caps, idx[root], idx[v])
        if Fraction(val, scale) < need:
            found.append((frozenset(w for w in inst.nodes if idx[w] not in side), v))
    return found


def lp3_cuts(inst, T, sol):
    """The cuts LP3's separation adds at ``sol``, as (coeffs by name, sense,
    rhs): per depot group and t = 1..T, for each client v the group may
    serve, a set S holding v whose entering z[gi, a, t] sum to less than
    the group's x[gi, v, tp] over tp <= t."""
    ca = inst.service_directed if inst.has_service else inst.dist
    cuts = []
    for gi, (r, _) in enumerate(vehicle_groups(inst)):
        arcs = [(u, v) for u in inst.nodes for v in inst.nodes if u != v and v != r]
        first = {v: max(1, ca(r, v)) for v in inst.clients if r in inst.depots_for(v)}
        for t in range(1, T + 1):
            zvals = {a: sol.value(("z", gi, a, t)) for a in arcs}
            demands = [
                (v, sum((sol.value(("x", gi, v, tp)) for tp in range(1, t + 1)), Fraction(0)))
                for v in first
            ]
            for S, v in _violated(inst, r, zvals, demands):
                coeffs = {("z", gi, (a, b), t): 1 for a, b in arcs if a not in S and b in S}
                coeffs.update({("x", gi, v, tp): -1 for tp in range(first[v], t + 1)})
                cuts.append((coeffs, ">=", 0))
    return cuts


def pclp_cuts(inst, root, sol):
    """The cuts the prize-collecting LP's separation adds at ``sol``: for
    each node v but the root, a set S holding v whose entering x[a] sum to
    less than 1 - z[v]."""
    arcs = [(u, v) for u in inst.nodes for v in inst.nodes if u != v and v != root]
    xvals = {a: sol.value(("x", a)) for a in arcs}
    demands = [(v, 1 - sol.value(("z", v))) for v in inst.nodes if v != root]
    cuts = []
    for S, v in _violated(inst, root, xvals, demands):
        coeffs = {("x", (a, b)): 1 for a, b in arcs if a not in S and b in S}
        coeffs[("z", v)] = 1
        cuts.append((coeffs, ">=", 1))
    return cuts


# ---------------------------------------------------------------------------
# the oracles' picks among tied client sets


def _cheapest_path(inst, root, part) -> int:
    """The least length of a simple path from root through exactly ``part``."""
    return min(
        sum(inst.dist(u, v) for u, v in zip((root,) + order, order))
        for order in itertools.permutations(part)
    )


def _sets(items):
    """(mask, members) of every subset of items, smaller sets first."""
    for size in range(len(items) + 1):
        for idx in itertools.combinations(range(len(items)), size):
            yield sum(1 << i for i in idx), tuple(items[i] for i in idx)


def bottleneck_picks(inst):
    """The client set behind each entry of the bottleneck-stroll table of a
    service-free instance: for need l = 1..len(clients), (value, set).

    A set's value is the least, over assignments of its clients to the
    vehicles, of the longest vehicle path, each the cheapest path from its
    root through its part. Per size the set of least value wins, a tie to
    the lowest mask; need l takes the least over sizes >= l, a tie to the
    larger size."""
    clients, roots = inst.clients, inst.roots
    path = {}

    def cost(slot, part):
        key = (roots[slot], frozenset(part))
        if key not in path:
            path[key] = _cheapest_path(inst, roots[slot], part)
        return path[key]

    per_size = {}
    for mask, U in _sets(clients):
        val = min(
            max(
                cost(slot, [v for v, a in zip(U, assign) if a == slot])
                for slot in range(len(roots))
            )
            for assign in itertools.product(range(len(roots)), repeat=len(U))
        )
        if len(U) not in per_size or (val, mask) < per_size[len(U)][:2]:
            per_size[len(U)] = (val, mask, frozenset(U))
    picks = []
    for need in range(1, len(clients) + 1):
        size = min(range(need, len(clients) + 1), key=lambda s: (per_size[s][0], -s))
        picks.append((per_size[size][0], per_size[size][2]))
    return picks


def orienteering_pick(inst, root, budget, rewards):
    """(value, node set) of the rooted path of length <= budget that
    collects the most reward: among the sets of largest reward, the lowest
    mask over the nodes other than the root; the empty set when no set
    collects a positive reward."""
    items = [v for v in inst.nodes if v != root]
    best = (Fraction(0), 0, frozenset())
    for mask, C in _sets(items):
        if C and _cheapest_path(inst, root, C) <= budget:
            reward = sum((Fraction(rewards.get(v, 0)) for v in C), Fraction(0))
            if reward > 0 and (-reward, mask) < (-best[0], best[1]):
                best = (reward, mask, frozenset(C))
    return best[0], best[2]


# ---------------------------------------------------------------------------
# subset DPs, one state at a time

INF = 10**18


def split(first, rest, combine):
    """Per mask, the least ``combine(first[sub], rest[mask ^ sub])`` over
    its submasks, and the first minimizing ``sub`` in descending submask
    order (INF and 0 where no combination is below INF)."""
    full = len(first)
    cur = [INF] * full
    pick = [0] * full
    for msk in range(full):
        sub = msk
        best, bestsub = INF, 0
        while True:
            val = combine(first[sub], rest[msk ^ sub])
            if val < best:
                best, bestsub = val, sub
            if sub == 0:
                break
            sub = (sub - 1) & msk
        cur[msk] = best
        pick[msk] = bestsub
    return cur, pick


def held_karp(items, start, arc, close, mult):
    """Each subset of items -> (least chain value, that chain from its end
    item back to its lone first item), in mask order; a lone item i costs
    start[i], adding j after i to a chain over mask costs arc[i][j] *
    mult[mask], and a chain over mask ending at i is worth its cost plus
    close[i] * mult[mask]. Ties go to the lowest index (strict < in index
    order)."""
    m = len(items)
    full = 1 << m
    cost = [[None] * m for _ in range(full)]
    prev = [[None] * m for _ in range(full)]
    for i in range(m):
        cost[1 << i][i] = start[i]
    out = {frozenset(): (0, ())}
    for mask in range(1, full):
        row, w = cost[mask], mult[mask]
        best, end = None, None
        for i, cur in enumerate(row):
            if cur is None:
                continue
            val = cur + close[i] * w
            if best is None or val < best:
                best, end = val, i
            for j in range(m):
                nmask = mask | 1 << j
                if nmask != mask:
                    cand = cur + arc[i][j] * w
                    if cost[nmask][j] is None or cand < cost[nmask][j]:
                        cost[nmask][j], prev[nmask][j] = cand, i
        chain, i, cmask = [], end, mask
        while i is not None:
            chain.append(items[i])
            i, cmask = prev[cmask][i], cmask ^ (1 << i)
        key = frozenset(items[i] for i in range(m) if mask >> i & 1)
        out[key] = (best, tuple(chain))
    return out


def min_paths(root, items, length):
    """Each subset -> (least rooted path length, its order root -> ...)."""
    arc = [[length(u, v) if u != v else None for v in items] for u in items]
    start = [length(root, v) for v in items]
    table = held_karp(items, start, arc, [0] * len(items), [1] * (1 << len(items)))
    return {C: (val, chain[::-1]) for C, (val, chain) in table.items()}


def min_latency_orders(root, items, step, weight):
    """Each subset -> (least weighted latency, its serving order)."""
    m = len(items)
    wts = [weight(v) for v in items]
    suffix_weight = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        suffix_weight[mask] = suffix_weight[mask ^ low] + wts[low.bit_length() - 1]
    arc = [[step(v, u) if u != v else None for v in items] for u in items]
    from_root = [step(root, v) for v in items]
    return held_karp(items, [0] * m, arc, from_root, suffix_weight)
