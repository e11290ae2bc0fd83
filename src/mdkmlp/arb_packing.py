"""Weighted arborescence packing via Eulerian splitting-off.

Given an integer-weighted digraph in which every non-root node has in-weight
at least out-weight, and a target K, this module produces a weighted family
of out-arborescences (gamma_i, F_i) with total weight K that respects arc
capacities and covers every node u at least min(K, lambda(r,u)) times.

The construction eulerianizes the graph, repeatedly splits off arc pairs
centered at the node of minimum protected connectivity until that node is
isolated, recurses, and then undoes the splits one by one, repairing both
the shortcut arc's capacity and the center node's coverage on the way back.

Every graph state of the construction is balanced: eulerianizing makes in =
out at every node, and splitting (t,u),(u,v) into (t,v) keeps it so. In a
balanced digraph d+(S) = d-(S) for every node set S, so the cut function is
symmetric and lambda(a,b) = lambda(b,a). Gusfield's flow-equivalent tree
("Very simple methods for all pairs network flow analysis", SIAM J. Comput.
1990) then gives lambda for every ordered pair from at most n - 1 minimum
cuts (:func:`all_pairs_connectivity`, which refuses an unbalanced digraph).
One packing keeps these tables by graph state, and four steps read them:
the center choice, the protected pairs, the feasibility probes of a split,
and the coverage target of an undone split. Undoing only revisits states
of the splitting phase, whose tables the probes have already computed
unless no pair was protected.
"""

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from . import flows

Arc = Tuple[object, object]


class PackingError(Exception):
    """Raised when packing preconditions or internal invariants fail."""


@dataclass
class WeightedDigraph:
    """Digraph with nonnegative integer arc weights; parallel arcs merged."""

    nodes: Tuple[object, ...]
    arcs: Dict[Arc, int] = field(default_factory=dict)
    index: Dict[object, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.index = {v: i for i, v in enumerate(self.nodes)}
        if len(self.index) != len(self.nodes):
            raise ValueError("duplicate nodes")
        cleaned = {}
        for (u, v), w in self.arcs.items():
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            if u not in self.index or v not in self.index:
                raise ValueError(f"arc ({u!r},{v!r}) uses unknown node")
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                raise ValueError(f"invalid weight on ({u!r},{v!r})")
            if w > 0:
                cleaned[(u, v)] = cleaned.get((u, v), 0) + w
        self.arcs = cleaned

    def copy(self) -> "WeightedDigraph":
        return WeightedDigraph(nodes=self.nodes, arcs=dict(self.arcs))

    def weight(self, a: Arc) -> int:
        return self.arcs.get(a, 0)

    def add_weight(self, a: Arc, delta: int) -> None:
        _add_weight(self.arcs, a, delta)

    def in_weight(self, u) -> int:
        return sum(w for (a, b), w in self.arcs.items() if b == u)

    def out_weight(self, u) -> int:
        return sum(w for (a, b), w in self.arcs.items() if a == u)

    def _indexed(self) -> Dict[Tuple[int, int], int]:
        return _indexed(self.index, self.arcs)

    def connectivity_value(self, x, y) -> int:
        idx = self.index
        if x not in idx or y not in idx:
            raise ValueError(f"unknown node in pair ({x!r},{y!r})")
        return flows.max_flow_value(len(self.nodes), self._indexed(), idx[x], idx[y])


def _indexed(index: Dict[object, int], arcs: Dict[Arc, int]) -> Dict[Tuple[int, int], int]:
    return {(index[u], index[v]): w for (u, v), w in arcs.items()}


def all_pairs_connectivity(n: int, capacities: Dict[Tuple[int, int], int]) -> List[List[int]]:
    """lam[a][b] = lambda(a,b) for every pair of nodes 0..n-1 of a balanced
    digraph, from a flow-equivalent tree built with one minimum cut per node
    with arcs, less one.

    Balance makes lambda symmetric, so Gusfield's tree for undirected graphs
    applies: node s hangs below p[s], the tree arc carries lambda(s, p[s]),
    and lambda(a,b) is the smallest arc on the tree path from a to b. A node
    without arcs has lambda 0 to every other and stays out of the tree.
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
    value = {}
    for j, s in enumerate(live[1:], 2):
        t = parent[s]
        value[s], side = flows.min_cut(n, capacities, s, t)
        for i in live[j:]:
            if i in side and parent[i] == t:
                parent[i] = s
    adj: Dict[int, List[Tuple[int, int]]] = {s: [] for s in live}
    for s in live[1:]:
        adj[s].append((parent[s], value[s]))
        adj[parent[s]].append((s, value[s]))
    lam = [[0] * n for _ in range(n)]
    for a in live:
        row = lam[a]
        stack = [(a, -1, None)]
        while stack:
            b, prev, low = stack.pop()
            for c, w in adj[b]:
                if c != prev:
                    cw = w if low is None else min(low, w)
                    row[c] = cw
                    stack.append((c, b, cw))
    return lam


class _StateConnectivity:
    """All-pairs lambda per graph state (arc weights) on fixed nodes, each
    state's table computed once."""

    def __init__(self, index: Dict[object, int]):
        self.index = index
        self.tables: Dict[FrozenSet[Tuple[Arc, int]], List[List[int]]] = {}

    def table(self, arcs: Dict[Arc, int]) -> List[List[int]]:
        key = frozenset(arcs.items())
        lam = self.tables.get(key)
        if lam is None:
            lam = all_pairs_connectivity(len(self.index), _indexed(self.index, arcs))
            self.tables[key] = lam
        return lam


def _split_arcs(arcs: Dict[Arc, int], e: Arc, f: Arc, x: int) -> Dict[Arc, int]:
    """The arc weights after moving x from e=(t,u), f=(u,v) onto (t,v); the
    pair only loses x when t = v."""
    out = dict(arcs)
    changes = [(e, -x), (f, -x)]
    if e[0] != f[1]:
        changes.append(((e[0], f[1]), x))
    for a, delta in changes:
        _add_weight(out, a, delta)
    return out


def _add_weight(arcs: Dict[Arc, int], a: Arc, delta: int) -> None:
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
    K: int
    root: object = None

    def coverage(self, u) -> int:
        return sum(gamma for gamma, F in self.members if u in tree_nodes(F, self.root))


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failures: Tuple[str, ...]


def connectivity(D: WeightedDigraph, x, y) -> int:
    """lambda_D(x,y): max x->y flow under the arc weights as capacities."""
    return D.connectivity_value(x, y)


def _check_hypothesis(D: WeightedDigraph, r) -> None:
    for u in D.nodes:
        if u == r:
            continue
        if D.in_weight(u) < D.out_weight(u):
            raise PackingError(
                f"in-weight {D.in_weight(u)} < out-weight {D.out_weight(u)} at {u!r}"
            )


def eulerianize(D: WeightedDigraph, r) -> WeightedDigraph:
    """Balance every node by adding (u, r) arcs of weight in(u) - out(u)."""
    if r not in D.nodes:
        raise ValueError(f"unknown root {r!r}")
    _check_hypothesis(D, r)
    out = D.copy()
    for u in D.nodes:
        if u == r:
            continue
        deficit = D.in_weight(u) - D.out_weight(u)
        if deficit > 0:
            out.add_weight((u, r), deficit)
    return out


def max_splittable(
    D: WeightedDigraph,
    e: Arc,
    f: Arc,
    protect: Dict[Tuple[object, object], int],
    lam: Optional[_StateConnectivity] = None,
) -> int:
    """Largest x such that moving x from arcs e=(t,u), f=(u,v) onto (t,v)
    keeps lambda(a,b) >= protect[(a,b)] for every protected pair.

    Cut capacities are non-increasing in x, so feasibility is monotone and a
    binary search over [0, min(w_e, w_f)] is exact. D must be balanced when
    a pair is protected; `lam` keeps the all-pairs tables of the probed
    states, for a caller that probes many splits of one graph.
    """
    if e[1] != f[0]:
        raise ValueError("arcs do not share a middle node")
    we, wf = D.weight(e), D.weight(f)
    if we <= 0 or wf <= 0:
        raise ValueError("both arcs must have positive weight")
    hi = min(we, wf)
    lam = _StateConnectivity(D.index) if lam is None else lam
    needs = [
        (D.index[a], D.index[b], need) for (a, b), need in protect.items() if need > 0
    ]

    def feasible(x: int) -> bool:
        if x == 0 or not needs:
            return True
        table = lam.table(_split_arcs(D.arcs, e, f, x))
        return all(table[a][b] >= need for a, b, need in needs)

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


def _arc_key(a: Arc) -> Tuple[str, str]:
    return (repr(a[0]), repr(a[1]))


def _sorted_arcs(F: FrozenSet[Arc]) -> Tuple[Arc, ...]:
    return tuple(sorted(F, key=_arc_key))


def pack_arborescences(D: WeightedDigraph, r, K: int) -> ArbFamily:
    """Weighted packing: family (gamma_i, F_i), sum gamma = K, arc usage
    within capacity, coverage of u at least min(K, lambda_D(r,u)).
    """
    if not isinstance(K, int) or isinstance(K, bool) or K < 0:
        raise PackingError("K must be a nonnegative integer")
    if r not in D.nodes:
        raise ValueError(f"unknown root {r!r}")
    _check_hypothesis(D, r)
    if K == 0:
        return ArbFamily(members=(), K=0, root=r)

    work = eulerianize(D, r)
    order = work.index
    lam = _StateConnectivity(order)
    splits: List[Tuple[Arc, Arc, int, bool]] = []
    remaining = [u for u in work.nodes if u != r]

    while True:
        active = [u for u in remaining if work.out_weight(u) > 0]
        if not active:
            break
        table = lam.table(work.arcs)
        from_r = table[order[r]]
        u = min(active, key=lambda nd: (min(K, from_r[order[nd]]), order[nd]))
        protect = {}
        for a in work.nodes:
            for b in work.nodes:
                if a == b or a == u or b == u:
                    continue
                need = min(K, table[order[a]][order[b]])
                if need > 0:
                    protect[(a, b)] = need
        while work.out_weight(u) > 0:
            out_arcs = sorted(
                (a for a in work.arcs if a[0] == u), key=_arc_key
            )
            in_arcs = sorted((a for a in work.arcs if a[1] == u), key=_arc_key)
            best: Optional[Tuple[int, Arc, Arc]] = None
            for f in out_arcs:
                for e in in_arcs:
                    x = max_splittable(work, e, f, protect, lam)
                    if best is None or x > best[0]:
                        best = (x, e, f)
            if best is None or best[0] == 0:
                raise PackingError(f"no splittable pair at center {u!r}")
            x, e, f = best
            work.arcs = _split_arcs(work.arcs, e, f, x)
            splits.append((e, f, x, e[0] == f[1]))
        if work.in_weight(u) != 0:
            raise PackingError(f"imbalance after exhausting {u!r}")
        remaining.remove(u)

    members: Dict[FrozenSet[Arc], int] = {frozenset(): K}
    for e, f, x, is_loop in reversed(splits):
        t, u = e
        v = f[1]
        work.add_weight(e, x)
        work.add_weight(f, x)
        if not is_loop:
            work.add_weight((t, v), -x)
        members = _undo_split(work, r, K, members, e, f, x, is_loop, lam)

    return ArbFamily(
        members=tuple(
            sorted(
                ((g, F) for F, g in members.items()),
                key=lambda item: (len(item[1]), tuple(map(_arc_key, _sorted_arcs(item[1])))),
            )
        ),
        K=K,
        root=r,
    )


def _undo_split(
    work: WeightedDigraph,
    r,
    K: int,
    members: Dict[FrozenSet[Arc], int],
    e: Arc,
    f: Arc,
    x: int,
    is_loop: bool,
    lam: _StateConnectivity,
) -> Dict[FrozenSet[Arc], int]:
    """Adjust the family after restoring one split in the working graph."""
    t, u = e
    v = f[1]
    members = dict(members)

    def usage(arc: Arc) -> int:
        return sum(g for F, g in members.items() if arc in F)

    def add_member(F: FrozenSet[Arc], g: int) -> None:
        if g <= 0:
            return
        members[F] = members.get(F, 0) + g

    def sub_member(F: FrozenSet[Arc], g: int) -> None:
        left = members[F] - g
        if left < 0:
            raise PackingError("member weight underflow")
        if left == 0:
            del members[F]
        else:
            members[F] = left

    if not is_loop:
        g_arc = (t, v)
        excess = usage(g_arc) - work.weight(g_arc)
        if excess > 0:
            users = sorted(
                (F for F in members if g_arc in F),
                key=lambda F: tuple(map(_arc_key, _sorted_arcs(F))),
            )
            for F in users:
                if excess <= 0:
                    break
                take = min(members[F], excess)
                newF = _replace_shortcut(F, g_arc, e, f, u, r)
                sub_member(F, take)
                add_member(newF, take)
                excess -= take
            if excess > 0:
                raise PackingError("could not repair shortcut capacity")

    target = min(K, lam.table(work.arcs)[work.index[r]][work.index[u]])
    coverage = sum(g for F, g in members.items() if u in tree_nodes(F, r))
    deficit = target - coverage
    if deficit > 0:
        members = _augment_coverage(work, r, u, deficit, members)
    return members


def _replace_shortcut(
    F: FrozenSet[Arc], g_arc: Arc, e: Arc, f: Arc, u, r
) -> FrozenSet[Arc]:
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


def _augment_coverage(
    work: WeightedDigraph,
    r,
    u,
    deficit: int,
    members: Dict[FrozenSet[Arc], int],
) -> Dict[FrozenSet[Arc], int]:
    """Add in-arcs of u to trees lacking u until the coverage target is met.

    Which arc goes to which tree is a small transportation problem (greedy
    can strand capacity), solved by max flow on arc-spare vs tree-weight.
    """
    members = dict(members)
    usage: Dict[Arc, int] = {}
    for F, g in members.items():
        for a in F:
            usage[a] = usage.get(a, 0) + g
    in_arcs = sorted(
        (a for a in work.arcs if a[1] == u and work.weight(a) > usage.get(a, 0)),
        key=_arc_key,
    )
    trees = sorted(
        (F for F in members if u not in tree_nodes(F, r)),
        key=lambda F: tuple(map(_arc_key, _sorted_arcs(F))),
    )
    # layered network: source -> arcs -> trees -> sink
    n_nodes = 2 + len(in_arcs) + len(trees)
    SRC, SINK = 0, n_nodes - 1
    caps: Dict[Tuple[int, int], int] = {}
    for i, a in enumerate(in_arcs):
        spare = work.weight(a) - usage.get(a, 0)
        caps[(SRC, 1 + i)] = min(spare, deficit)
    for j, F in enumerate(trees):
        caps[(1 + len(in_arcs) + j, SINK)] = members[F]
        nodesF = tree_nodes(F, r)
        for i, a in enumerate(in_arcs):
            if a[0] in nodesF:
                caps[(1 + i, 1 + len(in_arcs) + j)] = deficit
    value, flow = flows.max_flow_assignment(n_nodes, caps, SRC, SINK)
    if value < deficit:
        raise PackingError(
            f"coverage repair for {u!r} short by {deficit - value}"
        )
    # trim an arbitrary maximum flow down to exactly `deficit` units,
    # deterministically by arc order
    overshoot = value - deficit
    if overshoot > 0:
        for i in range(len(in_arcs) - 1, -1, -1):
            if overshoot == 0:
                break
            for j in range(len(trees) - 1, -1, -1):
                key = (1 + i, 1 + len(in_arcs) + j)
                amt = flow.get(key, 0)
                if amt > 0:
                    cut = min(amt, overshoot)
                    flow[key] = amt - cut
                    overshoot -= cut
                    if overshoot == 0:
                        break
    for j, F in enumerate(trees):
        for i, a in enumerate(in_arcs):
            amt = flow.get((1 + i, 1 + len(in_arcs) + j), 0)
            if amt <= 0:
                continue
            left = members[F] - amt
            if left < 0:
                raise PackingError("transportation exceeded tree weight")
            if left == 0:
                del members[F]
            else:
                members[F] = left
            newF = F | {a}
            members[newF] = members.get(newF, 0) + amt
    return members


def verify_packing(D: WeightedDigraph, r, K: int, family: ArbFamily) -> VerificationReport:
    """Independent check of all packing guarantees, exact integer arithmetic."""
    failures: List[str] = []
    total = 0
    usage: Dict[Arc, int] = {}
    for gamma, F in family.members:
        if not isinstance(gamma, int) or gamma <= 0:
            failures.append(f"nonpositive member weight {gamma!r}")
            continue
        total += gamma
        for a in F:
            usage[a] = usage.get(a, 0) + gamma
        # rootedness: unique parents, nothing into the root, all reachable
        heads = [b for _, b in F]
        if len(heads) != len(set(heads)):
            failures.append(f"member {sorted(map(_arc_key, F))} has a doubled parent")
            continue
        if any(b == r for _, b in F):
            failures.append("member has an arc into the root")
            continue
        reach = {r}
        frontier = [r]
        arcs_left = set(F)
        while frontier:
            nxt = []
            for a in list(arcs_left):
                if a[0] in reach:
                    reach.add(a[1])
                    nxt.append(a[1])
                    arcs_left.remove(a)
            frontier = nxt
        if arcs_left:
            failures.append(f"member not reachable from root: {sorted(map(_arc_key, arcs_left))}")
    if total != K:
        failures.append(f"weight total {total} != K={K}")
    for a, used in sorted(usage.items(), key=lambda kv: _arc_key(kv[0])):
        if used > D.weight(a):
            failures.append(f"arc {a!r} used {used} > capacity {D.weight(a)}")
    for u in D.nodes:
        if u == r:
            continue
        need = min(K, D.connectivity_value(r, u))
        got = sum(g for g, F in family.members if u in tree_nodes(F, r))
        if got < need:
            failures.append(f"node {u!r} covered {got} < min(K, lambda)={need}")
    return VerificationReport(ok=not failures, failures=tuple(failures))
