"""Held-Karp subset dynamic programs over rooted simple paths, and the one
submask split that spreads a client set over a fleet of them.

One kernel, `_held_karp` (Held & Karp 1962), grows a chain over each subset
of a small item set one item at a time and keeps every subset's least chain;
ties go to the lowest index (strict ``<`` in index order): first the lowest
end item, then the lowest item before each one. Its two cases are
`min_paths`, the cheapest rooted simple path visiting exactly each subset
(any endpoint), and `min_latency_orders`, the least weighted-latency serving
order of each subset. `by_mask` indexes such a table by client mask, and
`split` combines two mask-indexed tables: with ``max`` for bottleneck covers,
with ``operator.add`` for latency sums. `fleet` is the one fold of `split`
over a fleet's depot groups, and lays each witness route into its vehicle's
root slot as it is made: of the vehicles that share a depot, the one added
last takes the depot's first slot.

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


def by_mask(items: Sequence, table: Table) -> Tuple[List[int], List[Optional[Tuple]]]:
    """A table's values and orders indexed by mask, bit i being ``items[i]``;
    a set missing from the table has value ``INF`` and order None."""
    bit_of = {v: 1 << i for i, v in enumerate(items)}
    values = [INF] * (1 << len(items))
    orders: List[Optional[Tuple]] = [None] * len(values)
    for C, (val, order) in table.items():
        msk = sum(bit_of[v] for v in C)
        values[msk], orders[msk] = val, order
    return values, orders


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
    made = []  # per group: root, slots, order per mask, picks per added vehicle
    F, gpicks = None, []
    for root, slots, table in groups:
        single, order = by_mask(clients, table)
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


def _held_karp(
    items: Sequence, start: List[int], arc: List[List], close: List[int], mult: List[int]
) -> Table:
    """Map each subset of items to its least chain value and that chain,
    from its end item back to its lone first item.

    A lone item i costs ``start[i]``; adding j after i to a chain over
    ``mask`` costs ``arc[i][j] * mult[mask]``; a chain over ``mask`` ending
    at i is worth its cost plus ``close[i] * mult[mask]``. Masks go up, and
    a mask only grows, so each is final before it is extended.
    """
    m = len(items)
    full = 1 << m
    cost = [[None] * m for _ in range(full)]  # least chain over mask ending at i
    prev = [[None] * m for _ in range(full)]  # the item before i on that chain
    for i in range(m):
        cost[1 << i][i] = start[i]
    out: Table = {frozenset(): (0, ())}
    for mask in range(1, full):
        row, w = cost[mask], mult[mask]
        best, end = None, None
        for i, cur in enumerate(row):
            if cur is None:
                continue
            val = cur + close[i] * w
            if best is None or val < best:
                best, end = val, i
            arc_i = arc[i]
            for j in range(m):
                nmask = mask | 1 << j
                if nmask != mask:
                    cand = cur + arc_i[j] * w
                    if cost[nmask][j] is None or cand < cost[nmask][j]:
                        cost[nmask][j], prev[nmask][j] = cand, i
        chain, i, cmask = [], end, mask
        while i is not None:
            chain.append(items[i])
            i, cmask = prev[cmask][i], cmask ^ (1 << i)
        key = frozenset(items[i] for i in range(m) if mask >> i & 1)
        out[key] = (best, tuple(chain))
    return out


def min_paths(root, items: Sequence, length: Callable[[object, object], int]) -> Table:
    """Map each subset of items to (min rooted-path length, optimal order).

    length(u, v) may be asymmetric (directed service metric); paths are
    traversed root -> first -> ... -> last.
    """
    arc = [[length(u, v) if u != v else None for v in items] for u in items]
    start = [length(root, v) for v in items]
    table = _held_karp(items, start, arc, [0] * len(items), [1] * (1 << len(items)))
    return {C: (val, chain[::-1]) for C, (val, chain) in table.items()}


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
    weight of nodes not yet served, which makes a subset DP sufficient: the
    chain is the order's suffix, built back to front, and the step into its
    new first item is paid by the weight of the suffix it leads into.
    """
    m = len(items)
    wts = [weight(v) for v in items]
    suffix_weight = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        suffix_weight[mask] = suffix_weight[mask ^ low] + wts[low.bit_length() - 1]
    arc = [[step(v, u) if u != v else None for v in items] for u in items]
    from_root = [step(root, v) for v in items]
    return _held_karp(items, [0] * m, arc, from_root, suffix_weight)
