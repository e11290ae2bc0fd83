"""Weighted arborescence packing via Eulerian splitting-off.

Given an integer-weighted digraph in which every non-root node has in-weight
at least out-weight, and a target K, this module produces a weighted family
of out-arborescences (gamma_i, F_i) with total weight K that respects arc
capacities and covers every node u at least min(K, lambda(r,u)) times.

The construction eulerianizes the graph, repeatedly splits off arc pairs
centered at the node of minimum protected connectivity until that node is
isolated, recurses, and then undoes the splits one by one, repairing both
the shortcut arc's capacity and the center node's coverage on the way back.

:func:`pack_arborescences` numbers the nodes once, on entry, by sorting
them on their reprs. From there to the returned family every state is on
those numbers: arc weights keyed by pairs of ints, members as sets of such
pairs. The numbering is also the tie order. Split pairs, shortcut users and
trees lacking the center are taken in sorted arc order, and members are
listed by size, then by sorted arcs; on these numbers that is the order of
the arcs' node reprs, which the packing goldens pin. A tie between centers
goes to the node listed first in ``D.nodes``.

Every graph state of the construction is balanced: eulerianizing makes in =
out at every node, and splitting (t,u),(u,v) into (t,v) keeps it so. In a
balanced digraph d+(S) = d-(S) for every node set S, so the cut function is
symmetric and lambda(a,b) = lambda(b,a). Gusfield's flow-equivalent tree
("Very simple methods for all pairs network flow analysis", SIAM J. Comput.
1990) then gives lambda for every ordered pair from at most n - 1 minimum
cuts (:func:`all_pairs_connectivity`, which fills the matrix as the tree
grows and refuses an unbalanced digraph). One packing keeps these tables
by graph state, and four steps read them: the center choice, the protected
pairs, the feasibility probes of a split, and the coverage target of an
undone split. By symmetry each unordered pair is protected, and probed,
once, as (a, b) with a < b. Undoing only revisits states of the splitting
phase, whose tables the probes have already computed unless no pair was
protected.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import flows

Arc = Tuple[object, object]
Pair = Tuple[int, int]  # an arc on the nodes' numbers
State = Dict[Pair, int]  # arc weights on the nodes' numbers
Members = Dict[FrozenSet[Pair], int]  # member arc sets -> member weights


class PackingError(Exception):
    """Raised when packing preconditions or internal invariants fail."""


@dataclass
class WeightedDigraph:
    """Digraph with nonnegative integer arc weights; zero weights dropped."""

    nodes: Tuple[object, ...]
    arcs: Dict[Arc, int] = field(default_factory=dict)

    def __post_init__(self):
        known = set(self.nodes)
        if len(known) != len(self.nodes):
            raise ValueError("duplicate nodes")
        for (u, v), w in self.arcs.items():
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            if u not in known or v not in known:
                raise ValueError(f"arc ({u!r},{v!r}) uses unknown node")
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                raise ValueError(f"invalid weight on ({u!r},{v!r})")
        self.arcs = {a: w for a, w in self.arcs.items() if w > 0}


def all_pairs_connectivity(n: int, capacities: Dict[Pair, int]) -> List[List[int]]:
    """lam[a][b] = lambda(a,b) for every pair of nodes 0..n-1 of a balanced
    digraph, from a flow-equivalent tree built with one minimum cut per node
    with arcs, less one.

    Balance makes lambda symmetric, so Gusfield's tree for undirected graphs
    applies: node s hangs below t = p[s] by f = lambda(s, t), and
    lambda(a,b) is the smallest arc on the tree path from a to b. The matrix
    fills as the tree grows: when s gets its cut it is a leaf below t among
    the nodes taken so far (re-parenting moves only later ones), so
    lambda(s,i) is f for i = t, else min(f, lambda(t,i)). A node without
    arcs has lambda 0 to every other and stays out of the tree.
    """
    excess = [0] * n
    for (u, v), w in capacities.items():
        excess[u] += w
        excess[v] -= w
    if any(excess):
        bad = next(i for i in range(n) if excess[i])
        raise PackingError(f"digraph is not balanced at node {bad}")
    live = sorted({u for u, _ in capacities})
    parent = {s: live[0] for s in live}
    lam = [[0] * n for _ in range(n)]
    for j, s in enumerate(live[1:], 2):
        t = parent[s]
        f, side = flows.min_cut(n, capacities, s, t)
        for i in live[j:]:
            if i in side and parent[i] == t:
                parent[i] = s
        row, trow = lam[s], lam[t]
        for i in live[:j - 1]:
            row[i] = lam[i][s] = f if i == t else min(f, trow[i])
    return lam


class _StateConnectivity:
    """All-pairs lambda per graph state on nodes 0..n-1, each state's table
    computed once."""

    def __init__(self, n: int):
        self.n = n
        self.tables: Dict[FrozenSet[Tuple[Pair, int]], List[List[int]]] = {}

    def table(self, arcs: State) -> List[List[int]]:
        key = frozenset(arcs.items())
        lam = self.tables.get(key)
        if lam is None:
            lam = self.tables[key] = all_pairs_connectivity(self.n, arcs)
        return lam


def _split(arcs: State, e: Pair, f: Pair, x: int) -> None:
    """Move x, in place, from e=(t,u), f=(u,v) onto (t,v); the pair only
    loses x when t = v. A negative x undoes the split."""
    _add_weight(arcs, e, -x)
    _add_weight(arcs, f, -x)
    if e[0] != f[1]:
        _add_weight(arcs, (e[0], f[1]), x)


def _add_weight(arcs: State, a: Pair, delta: int) -> None:
    w = arcs.get(a, 0) + delta
    if w < 0:
        raise PackingError(f"negative weight on {a!r}")
    if w == 0:
        arcs.pop(a, None)
    else:
        arcs[a] = w


@dataclass(frozen=True)
class ArbFamily:
    """Weighted family of out-arborescences rooted at a common root."""

    members: Tuple[Tuple[int, FrozenSet[Arc]], ...]


def eulerianize(nodes: Sequence[object], arcs: State, r: int) -> State:
    """The arc weights on ``nodes``, numbered by position, with every node
    balanced by added (u, r) arcs of weight in(u) - out(u); a non-root node
    with in-weight below its out-weight is refused, by name."""
    inw, outw = [0] * len(nodes), [0] * len(nodes)
    for (a, b), w in arcs.items():
        outw[a] += w
        inw[b] += w
    out = dict(arcs)
    for u, name in enumerate(nodes):
        if u == r:
            continue
        if inw[u] < outw[u]:
            raise PackingError(f"in-weight {inw[u]} < out-weight {outw[u]} at {name!r}")
        if inw[u] > outw[u]:
            _add_weight(out, (u, r), inw[u] - outw[u])
    return out


def max_splittable(
    n: int, arcs: State, e: Pair, f: Pair, protect: Dict[Pair, int],
    lam: Optional[_StateConnectivity] = None,
) -> int:
    """Largest x such that moving x from arcs e=(t,u), f=(u,v) onto (t,v)
    keeps lambda(a,b) >= protect[(a,b)] for every protected pair of nodes
    0..n-1.

    Cut capacities are non-increasing in x, so feasibility is monotone and a
    binary search over [0, min(w_e, w_f)] is exact. The arcs must be
    balanced when a pair is protected; `lam` keeps the all-pairs tables of
    the probed states, for a caller that probes many splits of one graph.
    """
    if e[1] != f[0]:
        raise ValueError("arcs do not share a middle node")
    hi = min(arcs.get(e, 0), arcs.get(f, 0))
    if hi <= 0:
        raise ValueError("both arcs must have positive weight")
    if not protect:
        return hi
    lam = _StateConnectivity(n) if lam is None else lam

    def feasible(x: int) -> bool:
        state = dict(arcs)
        _split(state, e, f, x)
        table = lam.table(state)
        return all(table[a][b] >= need for (a, b), need in protect.items())

    lo = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def tree_nodes(F: Iterable[Arc], r) -> FrozenSet[object]:
    """The nodes of arc set F plus its root r."""
    return frozenset((r,)).union(*F)


def pack_arborescences(D: WeightedDigraph, r, K: int) -> ArbFamily:
    """Weighted packing: family (gamma_i, F_i), sum gamma = K, arc usage
    within capacity, coverage of u at least min(K, lambda_D(r,u)).
    """
    if not isinstance(K, int) or isinstance(K, bool) or K < 0:
        raise PackingError("K must be a nonnegative integer")
    if r not in D.nodes:
        raise ValueError(f"unknown root {r!r}")
    place = {v: p for p, v in enumerate(D.nodes)}
    names = sorted(D.nodes, key=repr)
    index = {v: i for i, v in enumerate(names)}
    pos = [place[v] for v in names]
    n, root = len(names), index[r]
    arcs = eulerianize(names, {(index[u], index[v]): w for (u, v), w in D.arcs.items()}, root)
    if K == 0:
        return ArbFamily(members=())

    lam = _StateConnectivity(n)
    splits: List[Tuple[Pair, Pair, int]] = []
    deg = [0] * n  # in-weight = out-weight, as every state is balanced
    for (a, _), w in arcs.items():
        deg[a] += w

    while True:
        active = [u for u in range(n) if u != root and deg[u] > 0]
        if not active:
            break
        table = lam.table(arcs)
        u = min(active, key=lambda v: (min(K, table[root][v]), pos[v]))
        protect = {
            (a, b): min(K, table[a][b])
            for a in range(n)
            for b in range(a + 1, n)
            if u not in (a, b) and table[a][b] > 0
        }
        while deg[u] > 0:
            outs = sorted(a for a in arcs if a[0] == u)
            ins = sorted(a for a in arcs if a[1] == u)
            x, e, f = max(
                ((max_splittable(n, arcs, e, f, protect, lam), e, f) for f in outs for e in ins),
                key=lambda best: best[0],
            )
            if x == 0:
                raise PackingError(f"no splittable pair at center {names[u]!r}")
            _split(arcs, e, f, x)
            splits.append((e, f, x))
            deg[u] -= x
            if e[0] == f[1]:
                deg[e[0]] -= x
        if any(u in a for a in arcs):
            raise PackingError(f"imbalance after exhausting {names[u]!r}")

    members: Members = {frozenset(): K}
    for e, f, x in reversed(splits):
        _split(arcs, e, f, -x)
        _undo_split(arcs, root, K, members, e, f, lam)

    return ArbFamily(
        members=tuple(
            (g, frozenset((names[a], names[b]) for a, b in F))
            for F, g in sorted(members.items(), key=lambda item: (len(item[0]), sorted(item[0])))
        )
    )


def pack_scaled(
    nodes: Tuple[object, ...], r, values: Dict[Arc, Fraction], cache: Dict
) -> Optional[ArbFamily]:
    """The packing, on ``nodes`` from ``r``, of the arc values scaled to
    integers: K is the lcm of their denominators, and each positive value
    times K is its arc's capacity. None if no value is positive. ``cache``
    keeps each packing by (K, caps): a packing depends only on its graph,
    root and K, so a caller whose nodes and root are fixed per cache gets
    the family a fresh packing would give."""
    K = math.lcm(*(v.denominator for v in values.values()))
    caps = {a: v.numerator * (K // v.denominator) for a, v in values.items() if v > 0}
    if not caps:
        return None
    key = (K, frozenset(caps.items()))
    family = cache.get(key)
    if family is None:
        D = WeightedDigraph(nodes=nodes, arcs=caps)
        family = cache[key] = pack_arborescences(D, r, K)
    return family


def _move(members: Members, F: FrozenSet[Pair], G: FrozenSet[Pair], g: int) -> None:
    """Move weight g of member F onto member G."""
    left = members[F] - g
    if left < 0:
        raise PackingError("member weight underflow")
    if left == 0:
        del members[F]
    else:
        members[F] = left
    members[G] = members.get(G, 0) + g


def _undo_split(
    arcs: State, r: int, K: int, members: Members, e: Pair, f: Pair, lam: _StateConnectivity
) -> None:
    """Adjust the family, in place, after restoring one split in the working
    arcs."""
    t, u = e
    v = f[1]
    if t != v:
        g_arc = (t, v)
        excess = sum(g for F, g in members.items() if g_arc in F) - arcs.get(g_arc, 0)
        if excess > 0:
            for F in sorted((F for F in members if g_arc in F), key=sorted):
                if excess <= 0:
                    break
                take = min(members[F], excess)
                _move(members, F, _replace_shortcut(F, g_arc, e, f, u, r), take)
                excess -= take
            if excess > 0:
                raise PackingError("could not repair shortcut capacity")

    target = min(K, lam.table(arcs)[r][u])
    coverage = sum(g for F, g in members.items() if u in tree_nodes(F, r))
    deficit = target - coverage
    if deficit > 0:
        _augment_coverage(arcs, r, u, deficit, members)


def _replace_shortcut(
    F: FrozenSet[Pair], g_arc: Pair, e: Pair, f: Pair, u: int, r: int
) -> FrozenSet[Pair]:
    """Swap the shortcut arc g=(t,v) in a tree for the split pair e,f."""
    nodes = tree_nodes(F, r)
    if u not in nodes:
        return F - {g_arc} | {e, f}
    parent = {b: a for a, b in F}
    on_path = set()
    cur = u
    while cur != r:
        arc = (parent[cur], cur)
        on_path.add(arc)
        cur = parent[cur]
    if g_arc not in on_path:
        # u is not below v, so re-parenting v under u keeps the tree acyclic
        return F - {g_arc} | {f}
    h = (parent[u], u)
    return F - {g_arc, h} | {e, f}


def _augment_coverage(arcs: State, r: int, u: int, deficit: int, members: Members) -> None:
    """Add in-arcs of u to trees lacking u, in place, until the coverage
    target is met.

    Which arc goes to which tree is a small transportation problem (greedy
    can strand capacity), solved by max flow on arc-spare vs tree-weight.
    The source reaches the arcs through one hub arc of capacity `deficit`,
    so a maximum flow moves exactly the deficit when the repair exists.
    """
    usage: Dict[Pair, int] = {}
    for F, g in members.items():
        for a in F:
            usage[a] = usage.get(a, 0) + g
    in_arcs = sorted(a for a, w in arcs.items() if a[1] == u and w > usage.get(a, 0))
    trees = sorted((F for F in members if u not in tree_nodes(F, r)), key=sorted)
    # layered network: source -> hub -> arcs -> trees -> sink
    n_nodes = 3 + len(in_arcs) + len(trees)
    SRC, HUB, SINK = 0, 1, n_nodes - 1
    caps: Dict[Tuple[int, int], int] = {(SRC, HUB): deficit}
    for i, a in enumerate(in_arcs):
        caps[(HUB, 2 + i)] = arcs[a] - usage.get(a, 0)
    for j, F in enumerate(trees):
        caps[(2 + len(in_arcs) + j, SINK)] = members[F]
        nodesF = tree_nodes(F, r)
        for i, a in enumerate(in_arcs):
            if a[0] in nodesF:
                caps[(2 + i, 2 + len(in_arcs) + j)] = deficit
    value, flow = flows.max_flow_assignment(n_nodes, caps, SRC, SINK)
    if value < deficit:
        raise PackingError(
            f"coverage repair for node {u} short by {deficit - value}"
        )
    for j, F in enumerate(trees):
        for i, a in enumerate(in_arcs):
            amt = flow.get((2 + i, 2 + len(in_arcs) + j), 0)
            if amt > 0:
                _move(members, F, F | {a}, amt)
