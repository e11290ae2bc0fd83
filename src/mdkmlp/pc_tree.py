"""Prize-collecting trees via LP scaling + arborescence packing, and
coverage-targeted (bipoint) trees via parametric binary search.

The construction: solve the bidirected prize-collecting LP exactly, scale
the arc values to integers, pack weighted arborescences with the required
coverage guarantee, and keep the family member with the cheapest
prize-collecting objective. A convexity argument then turns a binary
search over uniform penalties into a tree (or a convex combination of two
trees) spanning exactly B nodes, at a cost no more than the cheapest
collection of rooted paths that spans B nodes.

The probes of a search differ only in their penalties, so they all solve
one prize-collecting LP model, which keeps the cuts that earlier probes
found (a :class:`ProbeCache` holds it, and shares it between the coverage
targets of one instance and root). A probe's LP optimum is that of a fresh
model; its vertex, and so its tree, may be another of the same guarantee.
Many probes land on the same vertex, so the cache also keeps the packing of
each distinct vertex.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Optional, Tuple

from . import arb_packing, lp_toolkit
from .instance import MetricInstance

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class RootedTree:
    """An out-tree of directed arcs rooted at `root`; `cost` is the sum of
    its arc costs."""

    root: object
    arcs: FrozenSet[Tuple[object, object]]
    cost: Fraction

    def __post_init__(self):
        parents: Dict[object, object] = {}
        for (u, v) in self.arcs:
            if v == self.root or v in parents:
                raise ValueError("arcs do not form a rooted out-tree")
            parents[v] = u
        for v in parents:
            seen = set()
            cur = v
            while cur != self.root:
                if cur in seen or cur not in parents:
                    raise ValueError("arcs do not form a rooted out-tree")
                seen.add(cur)
                cur = parents[cur]

    @property
    def nodes(self) -> FrozenSet[object]:
        return arb_packing.tree_nodes(self.arcs, self.root)

    @property
    def coverage(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class BipointTree:
    """Convex combination a*T1 + b*T2 of two trees with a shared root."""

    a: Fraction
    b: Fraction
    T1: RootedTree
    T2: RootedTree

    def __post_init__(self):
        if self.a < 0 or self.b < 0 or self.a + self.b != 1:
            raise ValueError("coefficients must be nonnegative and sum to 1")
        if self.T1.root != self.T2.root:
            raise ValueError("constituent trees must share the root")


class ProbeCache:
    """The probes of the coverage searches on one instance and root, by
    uniform penalty, the one PC-LP model that all of them solve, and the
    arborescence packing of each LP vertex they met, as
    :func:`arb_packing.pack_scaled` keeps them."""

    def __init__(self):
        self.model: Optional[lp_toolkit.PcLpModel] = None
        self.probes: Dict[Fraction, Tuple[RootedTree, Fraction, int]] = {}
        self.families: Dict[
            Tuple[int, FrozenSet[Tuple[Tuple[object, object], int]]],
            arb_packing.ArbFamily,
        ] = {}

    def model_for(self, inst: MetricInstance, root) -> lp_toolkit.PcLpModel:
        if self.model is None:
            self.model = lp_toolkit.pclp_model(inst, root)
        elif self.model.inst is not inst or self.model.root != root:
            raise ValueError("probe cache holds another instance or root")
        return self.model


def pc_tree(
    inst: MetricInstance,
    root,
    penalties: Dict[object, Fraction],
) -> Tuple[RootedTree, Fraction]:
    """A rooted tree whose cost plus uncovered penalties is at most the
    prize-collecting LP optimum.

    Returns (tree, objective).
    """
    cache = ProbeCache()
    cache.model_for(inst, root)
    tree, obj, _ = _pc_tree_probe(cache, penalties)
    return tree, obj


def _pc_tree_probe(
    cache: ProbeCache,
    penalties: Dict[object, Fraction],
) -> Tuple[RootedTree, Fraction, int]:
    """pc_tree on the PC-LP model of ``cache``, plus the max denominator of
    the LP vertex encountered. The packing of the vertex comes from the
    cache where an earlier probe packed it."""
    model = cache.model
    inst, root = model.inst, model.root
    pen = {
        v: Fraction(penalties.get(v, 0)) for v in inst.nodes if v != root
    }
    sol = lp_toolkit.build_and_solve_pclp(model, pen)
    max_denom = 1
    for val in sol.values.values():
        max_denom = max(max_denom, val.denominator)
    family = arb_packing.pack_scaled(
        inst.nodes, root,
        {name[1]: val for name, val in sol.values.items() if name[0] == "x"},
        cache.families,
    )
    if family is None:
        # LP pays every penalty: the trivial tree achieves the optimum
        obj = sum(pen.values(), ZERO)
        return RootedTree(root=root, arcs=frozenset(), cost=ZERO), obj, max_denom
    node_pos = inst.node_pos

    def member_key(item):
        gamma, F = item
        nodes = arb_packing.tree_nodes(F, root)
        cost = sum((Fraction(inst.dist(u, v)) for (u, v) in F), ZERO)
        obj = cost + sum(p for v, p in pen.items() if v not in nodes)
        arcs_key = tuple(
            sorted((node_pos[u], node_pos[v]) for (u, v) in F)
        )
        return (obj, len(nodes), arcs_key, cost)  # arcs_key settles every tie

    best = min(family.members, key=member_key)
    obj, _, _, cost = member_key(best)
    if obj > sol.objective_value:
        raise arb_packing.PackingError(
            "prize-collecting guarantee violated: best member exceeds LP optimum"
        )
    return RootedTree(root=root, arcs=frozenset(best[1]), cost=cost), obj, max_denom


def _max_arc_cost(inst: MetricInstance) -> int:
    return max(map(max, inst.cost))  # costs are >= 0 with a zero diagonal


def coverage_tree(
    inst: MetricInstance,
    root,
    B: int,
    cache: Optional[ProbeCache] = None,
):
    """A tree (or bipoint tree) of cost at most the cheapest rooted-path
    collection spanning >= B nodes, with (expected) node count exactly B.

    Coverage is nondecreasing in the uniform penalty lam, so a bisection
    over lam finds it. The probe at lam = 0 is returned if it already
    spans B nodes, and the probe at lam = hi if it spans no more. Otherwise
    the search keeps a bracket [lo, hi] with coverage below and above B and
    stops either at an exact hit or once the interval is narrower than
    1/(2 n^2 * max LP denominator), too narrow to contain two parametric
    breakpoints; the convex combination of the bracket trees then spans B
    nodes exactly in expectation. `cache` keeps the probes by penalty,
    their PC-LP model and their packings, for callers that ask for several
    B on one instance and root.
    """
    if not 1 <= B <= inst.n:
        raise ValueError(f"coverage target {B} out of range 1..{inst.n}")
    cache = ProbeCache() if cache is None else cache
    cache.model_for(inst, root)

    def probe(lam: Fraction) -> Tuple[RootedTree, int]:
        if lam not in cache.probes:
            pen = {v: lam for v in inst.nodes if v != root}
            cache.probes[lam] = _pc_tree_probe(cache, pen)
        tree, _, denom = cache.probes[lam]
        return tree, denom

    lo, hi = ZERO, inst.n * _max_arc_cost(inst) + 1
    tree_lo, max_denom = probe(lo)
    m1 = tree_lo.coverage
    if m1 >= B:
        return tree_lo
    tree_hi, denom = probe(hi)
    max_denom = max(max_denom, denom)
    m2 = tree_hi.coverage
    if m2 < B:
        raise ValueError(f"instance cannot span {B} nodes from {root!r}")
    if m2 == B:
        return tree_hi
    scale = inst.n * inst.n
    while hi - lo >= ONE / (2 * scale * max_denom):
        mid = (lo + hi) / 2
        tree_mid, denom = probe(mid)
        max_denom = max(max_denom, denom)
        got = tree_mid.coverage
        if got == B:
            return tree_mid
        if got < B:
            lo, tree_lo, m1 = mid, tree_mid, got
        else:
            hi, tree_hi, m2 = mid, tree_mid, got
    a = Fraction(m2 - B, m2 - m1)
    return BipointTree(a=a, b=1 - a, T1=tree_lo, T2=tree_hi)
