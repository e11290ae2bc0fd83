"""Shared fixtures: the two reference instances and random-instance factories."""

import random

import pytest

from mdkmlp.arb_packing import WeightedDigraph
from mdkmlp.instance import MetricInstance

# FIX-A: three nodes on a line at 0, 1, 3; one depot at 0.
FIX_A_JSON = (
    '{"nodes":["r","a","b"],"roots":["r"],'
    '"costs":[[0,1,3],[1,0,2],[3,2,0]]}'
)

# FIX-B: four nodes on a line at 0, 1, 3, 4; depots at both ends.
FIX_B_JSON = (
    '{"nodes":["r1","a","b","r2"],"roots":["r1","r2"],'
    '"costs":[[0,1,3,4],[1,0,2,3],[3,2,0,1],[4,3,1,0]]}'
)


@pytest.fixture
def fix_a() -> MetricInstance:
    return MetricInstance(
        nodes=("r", "a", "b"),
        roots=("r",),
        cost=((0, 1, 3), (1, 0, 2), (3, 2, 0)),
    )


@pytest.fixture
def fix_b() -> MetricInstance:
    return MetricInstance(
        nodes=("r1", "a", "b", "r2"),
        roots=("r1", "r2"),
        cost=((0, 1, 3, 4), (1, 0, 2, 3), (3, 2, 0, 1), (4, 3, 1, 0)),
    )


def manhattan_points(rng: random.Random, n: int, span: int):
    """n distinct integer grid points; L1 distances give an integer metric."""
    while True:
        pts = [(rng.randint(0, span), rng.randint(0, span)) for _ in range(n)]
        if len(set(pts)) == n:
            return pts


def random_instance(
    rng: random.Random,
    n: int,
    k: int,
    span: int = 6,
    single_depot: bool = False,
    weights: bool = False,
    service: bool = False,
    allowed: bool = False,
) -> MetricInstance:
    """A random Manhattan-metric instance with root-client distances >= 1."""
    while True:
        pts = manhattan_points(rng, n, span)

        def d(p, q):
            return abs(p[0] - q[0]) + abs(p[1] - q[1])

        if single_depot:
            roots_idx = [0] * k
        else:
            roots_idx = sorted(rng.sample(range(n), k))
        ok = all(
            d(pts[ri], pts[i]) >= 1
            for ri in set(roots_idx)
            for i in range(n)
            if i not in roots_idx
        )
        if ok:
            break
    nodes = tuple(f"v{i}" for i in range(n))
    cost = tuple(tuple(d(p, q) for q in pts) for p in pts)
    roots = tuple(nodes[i] for i in roots_idx)
    root_set = set(roots)
    w, sv, al = {}, {}, {}
    distinct_roots = list(dict.fromkeys(roots))
    for v in nodes:
        if v in root_set:
            continue
        if weights:
            w[v] = rng.randint(1, 4)
        if service:
            sv[v] = rng.randint(0, 3)
        if allowed and len(distinct_roots) > 1 and rng.random() < 0.5:
            al[v] = tuple(
                rng.sample(distinct_roots, rng.randint(1, len(distinct_roots)))
            )
    return MetricInstance(
        nodes=nodes, roots=roots, cost=cost, weights=w, service=sv,
        allowed_depots=al,
    )


def random_digraph(rng, max_nodes=6, max_w=5):
    """Random digraph with in-weight >= out-weight enforced by topping up."""
    n = rng.randint(2, max_nodes)
    nodes = tuple(f"n{i}" for i in range(n))
    r = nodes[0]
    arcs = {}
    for u in nodes:
        for v in nodes:
            if u != v and rng.random() < 0.45:
                arcs[(u, v)] = rng.randint(1, max_w)
    D = WeightedDigraph(nodes=nodes, arcs=arcs)
    for u in nodes:
        if u == r:
            continue
        deficit = D.out_weight(u) - D.in_weight(u)
        if deficit > 0:
            arcs[(r, u)] = arcs.get((r, u), 0) + deficit
    return WeightedDigraph(nodes=nodes, arcs=arcs), r
