"""Independent reference checkers that the tests compare the package against.

Each checker recomputes its quantity from the definition, by enumeration in
exact arithmetic, and imports nothing from the code it checks: the packing
verifier reads only a digraph's nodes and arc weights, the envelope checks
only a curve's corners, and the cover oracle and the serializer only an
instance's fields. All of them are exponential in the number of nodes and
meant for the desk-scale inputs of the tests (n <= 8).
"""

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple


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
