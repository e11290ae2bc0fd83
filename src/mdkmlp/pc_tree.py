"""Prize-collecting trees via LP scaling + arborescence packing, and the
partial-cover trees of one exact breakpoint walk over uniform penalties.

The construction: solve the bidirected prize-collecting LP exactly, scale
the arc values to integers, pack weighted arborescences with the required
coverage guarantee, and keep the family member with the cheapest
prize-collecting objective.

Under a uniform penalty lam the PC-LP value f(lam) is concave and piecewise
linear: each LP vertex gives the line c(x) + lam * sum_v z_v, and f is their
lower envelope. :func:`coverage_tree` walks f exactly (Eisner & Severance,
J. ACM 1976) and returns every tree of the packing of every vertex it met.
A vertex's members average to at most its line, so the lower convex hull of
the trees' (node count, cost) points lies at or below the cheapest rooted
path collection spanning B nodes, for every B: the bipoint argument of
Chaudhuri, Godfrey, Rao & Talwar (FOCS 2003), read off the hull.

The probes of a walk differ only in their penalties, so they all solve one
prize-collecting LP model, which keeps the cuts that earlier probes found.
A probe's LP optimum is that of a fresh model; its vertex, and so its
trees, may be another of the same guarantee. Probes may land on the same
vertex, so a walk also keeps the packing of each distinct vertex.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Tuple

from . import arb_packing, lp_toolkit
from .instance import MetricInstance

ZERO = Fraction(0)


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


def pc_tree(
    inst: MetricInstance,
    root,
    penalties: Dict[object, Fraction],
) -> Tuple[RootedTree, Fraction]:
    """A rooted tree whose cost plus uncovered penalties is at most the
    prize-collecting LP optimum.

    Returns (tree, objective).
    """
    pen = {
        v: Fraction(penalties.get(v, 0)) for v in inst.nodes if v != root
    }
    sol, trees = _pc_tree_probe(lp_toolkit.pclp_model(inst, root), pen, {})
    node_pos = inst.node_pos

    def tree_key(tree):
        nodes = tree.nodes
        obj = tree.cost + sum(p for v, p in pen.items() if v not in nodes)
        arcs_key = tuple(
            sorted((node_pos[u], node_pos[v]) for (u, v) in tree.arcs)
        )
        return (obj, len(nodes), arcs_key)  # arcs_key settles every tie

    best = min(trees, key=tree_key)
    obj = tree_key(best)[0]
    if obj > sol.objective_value:
        raise arb_packing.PackingError(
            "prize-collecting guarantee violated: best member exceeds LP optimum"
        )
    return best, obj


def _pc_tree_probe(
    model: lp_toolkit.PcLpModel,
    penalties: Dict[object, Fraction],
    families: Dict,
) -> Tuple[lp_toolkit.LpSolution, Tuple[RootedTree, ...]]:
    """The PC-LP optimum of ``model`` under ``penalties``, and the trees of
    its vertex's packing, in member order: the trivial tree alone where the
    LP pays every penalty. ``families`` keeps each packing, as
    :func:`arb_packing.pack_scaled` keeps them."""
    inst, root = model.inst, model.root
    sol = lp_toolkit.build_and_solve_pclp(model, penalties)
    family = arb_packing.pack_scaled(
        inst.nodes, root,
        {name[1]: val for name, val in sol.values.items() if name[0] == "x"},
        families,
    )
    members = family.members if family else ((1, frozenset()),)
    return sol, tuple(
        RootedTree(
            root=root,
            arcs=frozenset(F),
            cost=sum((Fraction(inst.dist(u, v)) for (u, v) in F), ZERO),
        )
        for _, F in members
    )


def coverage_tree(inst: MetricInstance, root) -> Tuple[RootedTree, ...]:
    """Every tree of the packing of every PC-LP vertex that one exact walk
    over the uniform penalty lam meets, deduplicated by arcs, in the order
    met. For every B in 1..n, the lower convex hull of the trees' (node
    count, cost) points costs at most the cheapest rooted-path collection
    spanning >= B nodes.

    The walk probes lam = 0 and lam = n * max c + 1, past which every node
    is covered. Between two probed vertices it probes where their lines
    cross, and recurses on both halves only where the PC-LP value there lies
    below the lines; otherwise the two lines are f on that interval. So
    every lam >= 0 has a met vertex optimal there, whose members average to
    at most f(lam) <= OPT(B) + lam * (n - B). At lam = 0 no arc from the
    root (each costs >= 1) carries value, so the walk meets the trivial
    tree, which covers lam < 0. That bounds the hull at B.
    """
    model = lp_toolkit.pclp_model(inst, root)
    families: Dict = {}
    trees: Dict[FrozenSet, RootedTree] = {}

    def probe(lam: Fraction) -> Tuple[Fraction, Fraction]:
        pen = {v: lam for v in inst.nodes if v != root}
        sol, met = _pc_tree_probe(model, pen, families)
        for tree in met:
            trees.setdefault(tree.arcs, tree)
        slope = sum((sol.values.get(("z", v), ZERO) for v in pen), ZERO)
        return sol.objective_value - lam * slope, slope  # the vertex's line

    def walk(lo: Tuple[Fraction, Fraction], hi: Tuple[Fraction, Fraction]):
        if lo[1] == hi[1]:  # two supporting lines of one slope are one line
            return
        lam = (hi[0] - lo[0]) / (lo[1] - hi[1])
        mid = probe(lam)
        if mid[0] + lam * mid[1] < lo[0] + lam * lo[1]:
            walk(lo, mid)
            walk(mid, hi)

    top = inst.n * max(map(max, inst.cost)) + 1  # costs >= 0, zero diagonal
    walk(probe(ZERO), probe(Fraction(top)))
    return tuple(trees.values())
