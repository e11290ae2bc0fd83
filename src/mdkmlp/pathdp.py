"""Held-Karp subset dynamic programs over rooted simple paths, and the one
submask split that spreads a client set over a fleet of them.

Shared by the exact oracles and the LP column enumeration: for a root and a
small item set, compute for every subset the cheapest rooted simple path
visiting exactly that subset (any endpoint), with an optimal visiting order
for witness reconstruction. `split` combines two such mask-indexed tables:
with ``max`` for bottleneck covers, with ``operator.add`` for latency sums.
`fleet` is the one fold of `split` over a fleet's depot groups, and lays
each witness route into its vehicle's root slot as it is made: of the
vehicles that share a depot, the one added last takes the depot's first
slot.

Lengths are whatever the length function returns and are summed as given:
the callers pass integer metrics (the LP metric doubles service lengths to
stay integer), so the DPs run on plain ints.
"""

from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

INF = 10**18  # effectively infinite: above every path length of a guarded instance
# client set -> (least value, optimal visiting order): what the path DPs return
Table = Dict[FrozenSet, Tuple[int, Tuple]]


def split(
    first: List[int], rest: List[int], combine: Callable[[int, int], int]
) -> Tuple[List[int], List[int]]:
    """Subset split DP step over mask-indexed tables: for every mask, the
    minimum over its submasks ``sub`` of ``combine(first[sub], rest[mask ^
    sub])``, and the first minimizing ``sub`` in descending submask order.

    ``combine`` is ``max`` or ``operator.add``; an ``INF`` entry makes every
    combination with it at least ``INF``, so a mask with no finite split
    keeps the value ``INF`` (and pick 0).
    """
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


def fleet(
    clients: Sequence,
    groups: Sequence[Tuple[Hashable, Sequence[int], Table]],
    combine: Callable[[int, int], int],
) -> Tuple[List[int], Callable[[int], Tuple[Tuple, ...]]]:
    """Split client sets over a fleet, one rooted path per vehicle.

    ``groups`` holds, per depot group, its root, its vehicles' slots in the
    instance's roots and its single-path table over client sets (a set
    missing from the table cannot be one vehicle's path). Bit i of a mask
    is ``clients[i]``. Returns ``best``, the least ``combine`` of the path
    values over every split of each mask (``INF`` where there is none), and
    ``witness(mask)``: for a mask of finite value, one route per slot,
    route i starting at the root of slot i and covering the mask exactly.

    Inside a group each added vehicle takes the submask of
    ``split(single, best, combine)``; the vehicle added last fills the
    group's first slot, the first one its last slot. Across groups the
    submask of ``split(group_best, F, combine)`` is the later group's part.
    """
    bit_of = {v: 1 << i for i, v in enumerate(clients)}
    full = 1 << len(clients)
    made = []  # per group: root, slots, order per mask, picks per added vehicle
    F, gpicks = None, []
    for root, slots, table in groups:
        single = [INF] * full
        order: List[Optional[Tuple]] = [None] * full
        for C, (val, path) in table.items():
            msk = sum(bit_of[v] for v in C)
            single[msk], order[msk] = val, path
        best, picks = single, []
        for _ in range(1, len(slots)):
            best, pick = split(single, best, combine)
            picks.append(pick)
        made.append((root, slots, order, picks))
        if F is None:
            F = best
        else:
            F, gpick = split(best, F, combine)
            gpicks.append(gpick)

    def witness(mask: int) -> Tuple[Tuple, ...]:
        routes: List[Optional[Tuple]] = [None] * sum(len(s) for _, s, _, _ in made)
        for gi in range(len(made) - 1, -1, -1):
            part = gpicks[gi - 1][mask] if gi else mask
            mask ^= part
            root, slots, order, picks = made[gi]
            for slot, pick in zip(slots, reversed(picks)):
                routes[slot] = (root,) + order[pick[part]]
                part ^= pick[part]
            routes[slots[-1]] = (root,) + order[part]
        return tuple(routes)

    return F, witness


def length_matrix(items: Sequence, length: Callable) -> List[List[Optional[int]]]:
    """length between every ordered pair of distinct items, by position."""
    return [[length(u, v) if u != v else None for v in items] for u in items]


def min_paths(
    root,
    items: Sequence,
    length: Callable[[object, object], int],
) -> Table:
    """Map each subset of items to (min rooted-path length, optimal order).

    length(u, v) may be asymmetric (directed service metric); paths are
    traversed root -> first -> ... -> last.
    """
    m = len(items)
    full = 1 << m
    # dp[mask][last] = min length of a path from root covering mask, ending at last
    dp = [[None] * m for _ in range(full)]
    parent = [[None] * m for _ in range(full)]
    d = length_matrix(items, length)
    for i, v in enumerate(items):
        dp[1 << i][i] = length(root, v)
    for mask in range(1, full):
        row = dp[mask]
        for last in range(m):
            cur = row[last]
            if cur is None:
                continue
            d_last = d[last]
            for nxt in range(m):
                bit = 1 << nxt
                if mask & bit:
                    continue
                cand = cur + d_last[nxt]
                nmask = mask | bit
                if dp[nmask][nxt] is None or cand < dp[nmask][nxt]:
                    dp[nmask][nxt] = cand
                    parent[nmask][nxt] = last
    out: Table = {frozenset(): (0, ())}
    for mask in range(1, full):
        best_last, best_len = None, None
        for last in range(m):
            val = dp[mask][last]
            if val is not None and (best_len is None or val < best_len):
                best_len, best_last = val, last
        if best_last is None:
            continue
        order = []
        cur, cmask = best_last, mask
        while cur is not None:
            order.append(items[cur])
            prv = parent[cmask][cur]
            cmask &= ~(1 << cur)
            cur = prv
        order.reverse()
        key = frozenset(items[i] for i in range(m) if mask & (1 << i))
        out[key] = (best_len, tuple(order))
    return out


def min_latency_orders(
    root,
    items: Sequence,
    step: Callable[[object, object], int],
    weight: Callable[[object], int],
) -> Table:
    """Map each subset to (min total weighted latency, optimal serving order).

    step(u, v) is the latency increment when moving from u to serving v
    (edge cost plus v's service time, as configured by the caller). The
    weighted objective sums, over serving steps, step cost times the total
    weight of nodes not yet served, which makes a subset DP sufficient.
    """
    m = len(items)
    full = 1 << m
    wts = [weight(v) for v in items]

    def mask_weight(mask: int) -> int:
        return sum(wts[i] for i in range(m) if mask & (1 << i))

    # Suffix DP: F[mask][first] is the latency contribution of serving the
    # nodes in mask starting at `first`, excluding the step into `first`
    # (whose multiplier depends on nodes served before the suffix).
    F = [[None] * m for _ in range(full)]
    nxt_of = [[None] * m for _ in range(full)]
    d = length_matrix(items, step)
    from_root = [step(root, v) for v in items]
    for i in range(m):
        F[1 << i][i] = 0
    masks_by_size = sorted(range(1, full), key=lambda msk: bin(msk).count("1"))
    for mask in masks_by_size:
        w_mask = mask_weight(mask)
        for u in range(m):
            if mask & (1 << u):
                continue
            best_val, best_first = None, None
            d_u = d[u]
            for first in range(m):
                cur = F[mask][first]
                if cur is None:
                    continue
                cand = d_u[first] * w_mask + cur
                if best_val is None or cand < best_val:
                    best_val, best_first = cand, first
            if best_val is not None:
                nmask = mask | (1 << u)
                if F[nmask][u] is None or best_val < F[nmask][u]:
                    F[nmask][u] = best_val
                    nxt_of[nmask][u] = best_first

    out: Table = {frozenset(): (0, ())}
    for mask in range(1, full):
        w_mask = mask_weight(mask)
        best_val, best_first = None, None
        for first in range(m):
            cur = F[mask][first]
            if cur is None:
                continue
            cand = from_root[first] * w_mask + cur
            if best_val is None or cand < best_val:
                best_val, best_first = cand, first
        if best_first is None:
            continue
        order = []
        cur, cmask = best_first, mask
        while cur is not None:
            order.append(items[cur])
            nx = nxt_of[cmask][cur]
            cmask &= ~(1 << cur)
            cur = nx
        key = frozenset(items[i] for i in range(m) if mask & (1 << i))
        out[key] = (best_val, tuple(order))
    return out
