"""Prize-collecting trees via LP scaling + arborescence packing, and
partial-cover (bipoint) trees via parametric binary search.

The construction: solve the bidirected prize-collecting LP exactly, scale
the arc values to integers, pack weighted arborescences with the required
coverage guarantee, and keep the family member with the cheapest
prize-collecting objective. A convexity argument then turns a binary
search over uniform penalties into trees (or convex combinations of two
trees) hitting an exact coverage or budget target.

The probes of a search differ only in their penalties, so they all solve
one prize-collecting LP model, which keeps the cuts that earlier probes
found (a :class:`ProbeCache` holds it, and shares it between the coverage
targets of one instance and root). A probe's LP optimum is that of a fresh
model; its vertex, and so its tree, may be another of the same guarantee.
"""

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from . import arb_packing, lp_toolkit
from .instance import MetricInstance

log = logging.getLogger("mdkmlp.pc_tree")

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

    @property
    def root(self):
        return self.T1.root

    @property
    def cost(self) -> Fraction:
        return self.a * self.T1.cost + self.b * self.T2.cost

    @property
    def expected_coverage(self) -> Fraction:
        return self.a * len(self.T1.nodes) + self.b * len(self.T2.nodes)

    def expected_weight(self, w: Callable[[object], Fraction]) -> Fraction:
        w1 = sum((Fraction(w(v)) for v in self.T1.nodes), ZERO)
        w2 = sum((Fraction(w(v)) for v in self.T2.nodes), ZERO)
        return self.a * w1 + self.b * w2


def pc_tree(
    inst: MetricInstance,
    root,
    penalties: Dict[object, Fraction],
) -> Tuple[RootedTree, Fraction]:
    """A rooted tree whose cost plus uncovered penalties is at most the
    prize-collecting LP optimum.

    Returns (tree, objective).
    """
    tree, obj, _ = _pc_tree_probe(lp_toolkit.pclp_model(inst, root), penalties)
    return tree, obj


def _pc_tree_probe(
    model: lp_toolkit.PcLpModel,
    penalties: Dict[object, Fraction],
) -> Tuple[RootedTree, Fraction, int]:
    """pc_tree on the PC-LP ``model``, plus the max denominator of the LP
    vertex encountered."""
    inst, root = model.inst, model.root
    pen = {
        v: Fraction(penalties.get(v, 0)) for v in inst.nodes if v != root
    }
    sol = lp_toolkit.build_and_solve_pclp(model, pen)
    max_denom = 1
    for val in sol.values.values():
        max_denom = max(max_denom, val.denominator)
    K, caps = lp_toolkit.scaled_int_caps(
        {name[1]: val for name, val in sol.values.items() if name[0] == "x"}
    )
    if not caps:
        # LP pays every penalty: the trivial tree achieves the optimum
        obj = sum(pen.values(), ZERO)
        return RootedTree(root=root, arcs=frozenset(), cost=ZERO), obj, max_denom
    D = arb_packing.WeightedDigraph(nodes=inst.nodes, arcs=caps)
    family = arb_packing.pack_arborescences(D, root, K)
    node_pos = {v: i for i, v in enumerate(inst.nodes)}

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


def uniform_pc_tree(
    inst: MetricInstance,
    root,
    lam: Fraction,
) -> Tuple[RootedTree, Fraction]:
    """pc_tree with every penalty equal to lam."""
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    pen = {v: lam for v in inst.nodes if v != root}
    return pc_tree(inst, root, pen)


class ProbeCache:
    """The probes of the coverage searches on one instance and root, by
    uniform penalty, and the one PC-LP model that all of them solve."""

    def __init__(self):
        self.model: Optional[lp_toolkit.PcLpModel] = None
        self.probes: Dict[Fraction, Tuple[RootedTree, Fraction, int]] = {}

    def model_for(self, inst: MetricInstance, root) -> lp_toolkit.PcLpModel:
        if self.model is None:
            self.model = lp_toolkit.pclp_model(inst, root)
        elif self.model.inst is not inst or self.model.root != root:
            raise ValueError("probe cache holds another instance or root")
        return self.model


def _max_arc_cost(inst: MetricInstance) -> int:
    return max(map(max, inst.cost))  # costs are >= 0 with a zero diagonal


def _lagrangian_search(
    inst: MetricInstance,
    root,
    weights: Dict[object, Fraction],
    measure: Callable[[RootedTree], Fraction],
    target: Fraction,
    hi: Fraction,
    scale: Fraction,
    cache: ProbeCache,
):
    """Bisect the uniform penalty lam (node v pays lam * weights[v]) for a
    tree whose `measure` equals `target`.

    `measure` (coverage, cost) is nondecreasing in lam. The probe at lam = 0
    is returned if it already reaches the target, and the probe at lam = hi
    if it does not exceed it; the caller reads which from the measure.
    Otherwise the search keeps a bracket [lo, hi] with measure below and
    above the target and stops either at an exact hit or once the interval
    is narrower than 1/(2 * scale * max LP denominator), too narrow to
    contain two parametric breakpoints, at which point the convex
    combination of the bracket trees hits the target exactly in expectation.
    """

    model = cache.model_for(inst, root)

    def probe(lam: Fraction) -> Tuple[RootedTree, int]:
        if lam not in cache.probes:
            pen = {v: lam * w for v, w in weights.items()}
            cache.probes[lam] = _pc_tree_probe(model, pen)
        tree, _, denom = cache.probes[lam]
        return tree, denom

    lo = ZERO
    tree_lo, max_denom = probe(lo)
    if measure(tree_lo) >= target:
        return tree_lo
    tree_hi, denom = probe(hi)
    max_denom = max(max_denom, denom)
    if measure(tree_hi) <= target:
        return tree_hi
    while hi - lo >= ONE / (2 * scale * max_denom):
        mid = (lo + hi) / 2
        tree_mid, denom = probe(mid)
        max_denom = max(max_denom, denom)
        got = measure(tree_mid)
        if got == target:
            return tree_mid
        if got < target:
            lo, tree_lo = mid, tree_mid
        else:
            hi, tree_hi = mid, tree_mid
    m1, m2 = measure(tree_lo), measure(tree_hi)
    a = Fraction(m2 - target, m2 - m1)
    return BipointTree(a=a, b=1 - a, T1=tree_lo, T2=tree_hi)


def coverage_tree(
    inst: MetricInstance,
    root,
    B: int,
    cache: Optional[ProbeCache] = None,
):
    """A tree (or bipoint tree) of cost at most the cheapest rooted-path
    collection spanning >= B nodes, with (expected) node count exactly B.

    Coverage is nondecreasing in the uniform penalty, so the Lagrangian
    search finds it. `cache` keeps the probes by penalty and their PC-LP
    model, for callers that ask for several B on one instance and root.
    """
    if not 1 <= B <= inst.n:
        raise ValueError(f"coverage target {B} out of range 1..{inst.n}")
    weights = {v: ONE for v in inst.nodes if v != root}
    out = _lagrangian_search(
        inst, root, weights, lambda tree: tree.coverage, B,
        hi=inst.n * _max_arc_cost(inst) + 1, scale=inst.n * inst.n,
        cache=ProbeCache() if cache is None else cache,
    )
    if isinstance(out, RootedTree) and out.coverage < B:
        raise ValueError(f"instance cannot span {B} nodes from {root!r}")
    return out


def budget_tree(
    inst: MetricInstance,
    root,
    weights: Dict[object, Fraction],
    C: Fraction,
):
    """A tree (or bipoint tree) of cost exactly C whose (expected) covered
    node weight is at least that of any rooted-path collection of cost <= C.

    Degenerate case: if C is at least the cost of the everything-covering
    tree, that tree is returned as-is (cost below C), with a warning.
    """
    C = Fraction(C)
    if C < 0:
        raise ValueError("budget must be nonnegative")
    wmap = {v: Fraction(weights.get(v, 1)) for v in inst.nodes if v != root}
    if any(w < 0 for w in wmap.values()):
        raise ValueError("negative weight")
    W = sum(wmap.values(), ZERO)
    Wd = math.lcm(*(w.denominator for w in wmap.values()))
    out = _lagrangian_search(
        inst, root, wmap, lambda tree: tree.cost, C,
        hi=inst.n * _max_arc_cost(inst) * max(W, 1) + 1, scale=max(W * W * Wd, 1),
        cache=ProbeCache(),
    )
    if isinstance(out, RootedTree) and out.cost > C:
        raise ValueError("zero-penalty tree already exceeds the budget")
    if isinstance(out, RootedTree) and out.cost < C:
        log.warning(
            "budget %s exceeds the full-coverage tree cost %s; returning it",
            C, out.cost,
        )
    return out
