"""Max-flow / min-cut on small dense digraphs with integer capacities.

Every flow in this package runs through one dense Edmonds-Karp. LP cut
separation and the flow-equivalent trees of arborescence packing take a
minimum cut (:func:`min_cut`), connectivity checks take a value
(:func:`max_flow_value`), and the coverage repair of a packing takes the
per-arc flow of an assignment network (:func:`max_flow_assignment`). Graphs
are tiny (rarely more than ten nodes), so the dense residual matrix is both
simple and fast enough.
"""

from collections import deque
from typing import Dict, List, Set, Tuple


def max_flow_value(n: int, capacities: Dict[Tuple[int, int], int], s: int, t: int) -> int:
    """Maximum s-t flow value under the given arc capacities."""
    value, _ = min_cut(n, capacities, s, t)
    return value


def max_flow_assignment(
    n: int, capacities: Dict[Tuple[int, int], int], s: int, t: int
) -> Tuple[int, Dict[Tuple[int, int], int]]:
    """Max flow value plus the per-arc flow amounts of one maximum flow.

    Flow amounts are read off the residual matrix, so the input graph must
    not contain opposite arc pairs (true for the layered assignment networks
    this is used on).
    """
    value, res = _edmonds_karp(n, capacities, s, t)
    flow = {
        (u, v): w - res[u][v]
        for (u, v), w in capacities.items()
        if u != v and w > res[u][v]
    }
    return value, flow


def min_cut(
    n: int, capacities: Dict[Tuple[int, int], int], s: int, t: int
) -> Tuple[int, Set[int]]:
    """Return (max-flow value, source side of a minimum s-t cut).

    Edmonds-Karp: BFS augmenting paths on a dense residual matrix. The number
    of augmentations is O(V*E) regardless of capacity magnitudes, so large
    integer weights (scaled LP solutions) are fine.
    """
    value, res = _edmonds_karp(n, capacities, s, t)
    # residual BFS gives the source side of a minimum cut
    side = {s}
    queue = deque([s])
    rng = range(n)
    while queue:
        u = queue.popleft()
        row = res[u]
        for v in rng:
            if v not in side and row[v] > 0:
                side.add(v)
                queue.append(v)
    return value, side


def _edmonds_karp(
    n: int, capacities: Dict[Tuple[int, int], int], s: int, t: int
) -> Tuple[int, List[List[int]]]:
    """The maximum s-t flow value and the final residual matrix."""
    if s == t:
        raise ValueError("source and sink must differ")
    res = [[0] * n for _ in range(n)]
    for (u, v), w in capacities.items():
        if u != v:
            res[u][v] += w

    flow = 0
    rng = range(n)
    while True:
        parent = [-1] * n
        parent[s] = s
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == t:
                break
            row = res[u]
            for v in rng:
                if parent[v] < 0 and row[v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[t] < 0:
            break
        bottleneck = None
        v = t
        while v != s:
            u = parent[v]
            if bottleneck is None or res[u][v] < bottleneck:
                bottleneck = res[u][v]
            v = u
        v = t
        while v != s:
            u = parent[v]
            res[u][v] -= bottleneck
            res[v][u] += bottleneck
            v = u
        flow += bottleneck
    return flow, res
