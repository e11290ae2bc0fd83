"""Held-Karp subset dynamic programs over rooted simple paths, and the one
submask split that spreads a client set over a fleet of them.

One kernel, `_held_karp` (Held & Karp 1962), grows a chain over each subset
of a small item set one item at a time and keeps every subset's least chain.
It runs on numpy int64 arrays indexed by mask, one popcount layer at a time,
in pull form: the least chain over N ending at j extends, for the first i
of least cost, the least chain over N - j ending at i. So ties go to the
lowest index: first the lowest end item, then the lowest item before each
one. Its two cases are `min_paths`, the cheapest rooted simple path
visiting exactly each subset (any endpoint), and `min_latency_orders`, the
least weighted-latency serving order of each subset. Both return a
:class:`SubsetMap`: the values by mask, with a subset's frozenset and its
order built only when a caller reads them. `by_mask` indexes any table by
client mask, and `split` combines two mask-indexed tables: with ``max`` for
bottleneck covers, with ``operator.add`` for latency sums. It takes, per
mask, the first minimiser in descending submask order, over index arrays of
every (mask, submask) pair built once per item count, on first use.
`fleet` is the one fold of `split` over a fleet's depot groups, and lays
each witness route into its vehicle's root slot as it is made: of the
vehicles that share a depot, the one added last takes the depot's first
slot.

Lengths must be ints: the callers pass integer metrics. The DPs are exact
in int64 because `_held_karp` first bounds every value it can form and
raises if that bound reaches INF / 2; the instance guard keeps every
instance's latency sums far below it.
"""

import operator
from collections.abc import Mapping
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

import numpy as np

INF = 10**18  # effectively infinite: above every path length of a guarded instance
# client set -> (least value, optimal visiting order): what the path DPs return
Table = Mapping[FrozenSet, Tuple[int, Tuple]]

_UFUNCS = {max: np.maximum, operator.add: np.add}
_SUBMASKS: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_LAYERS: Dict[int, Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]]] = {}


class SubsetMap(Mapping):
    """A frozenset-keyed view of a table kept by mask, bit i being
    ``members[i]``: the masks of value below INF are the keys, each the set
    of its members, and ``entry(mask)`` is what it maps to. ``values`` is
    the int64 array by mask. Keys and entries are built only when read."""

    def __init__(self, members: Sequence, values: np.ndarray, entry: Callable[[int], object]):
        self.members = tuple(members)
        self.values = values
        self.entry = entry
        self._bit = {v: 1 << i for i, v in enumerate(self.members)}

    def mask(self, C) -> int:
        """The mask of a set of members (KeyError for any other node)."""
        return sum(map(self._bit.__getitem__, C))

    def key(self, mask: int) -> FrozenSet:
        return frozenset(v for i, v in enumerate(self.members) if mask >> i & 1)

    def __getitem__(self, C):
        mask = self.mask(C)
        if self.values[mask] >= INF:
            raise KeyError(C)
        return self.entry(mask)

    def __iter__(self):
        return map(self.key, np.flatnonzero(self.values < INF).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.values < INF))


class _Orders:
    """``orders[mask]``, for masks over a superset of a :class:`SubsetMap`'s
    members: the order of the table's entry at ``local[mask]``, None where
    that is -1 or the entry has no value."""

    def __init__(self, table: SubsetMap, local: Optional[np.ndarray]):
        self.table, self.local = table, local  # local None: the same masks

    def __getitem__(self, mask: int) -> Optional[Tuple]:
        t = mask if self.local is None else int(self.local[mask])
        return self.table.entry(t)[1] if t >= 0 and self.table.values[t] < INF else None


def _submasks(m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mask, sub, starts): every mask of m bits in increasing order, paired
    with each of its submasks in descending order, and the position of each
    mask's first pair. Built once per m, on first use, by doubling: a mask
    with the new top bit takes its lower part's submasks first with the top
    bit, then without it."""
    if m not in _SUBMASKS:
        mask = sub = np.zeros(1, dtype=np.int64)
        starts = np.zeros(1, dtype=np.int64)
        for b in range(m):
            top, n = 1 << b, len(mask)
            sizes = np.diff(np.append(starts, n))
            at = n + 2 * starts[mask] + np.arange(n) - starts[mask]  # with the top bit
            new_mask = np.empty(3 * n, dtype=np.int64)
            new_sub = np.empty(3 * n, dtype=np.int64)
            new_mask[:n], new_sub[:n] = mask, sub
            new_mask[at] = new_mask[at + sizes[mask]] = mask + top
            new_sub[at], new_sub[at + sizes[mask]] = sub + top, sub
            mask, sub, starts = new_mask, new_sub, np.append(starts, n + 2 * starts)
        _SUBMASKS[m] = (mask, sub, starts)
    return _SUBMASKS[m]


def split(
    first: Sequence[int], rest: Sequence[int], combine: Callable[[int, int], int]
) -> Tuple[List[int], List[int]]:
    """Subset split DP step over mask-indexed tables: for every mask, the
    minimum over its submasks ``sub`` of ``combine(first[sub], rest[mask ^
    sub])``, and the first minimizing ``sub`` in descending submask order.

    ``combine`` is ``max`` or ``operator.add``; an ``INF`` entry makes every
    combination with it at least ``INF``, so a mask with no finite split
    keeps the value ``INF`` (and pick 0).
    """
    mask, sub, starts = _submasks(len(first).bit_length() - 1)
    vals = _UFUNCS[combine](
        np.asarray(first, dtype=np.int64)[sub], np.asarray(rest, dtype=np.int64)[mask ^ sub]
    )
    best = np.minimum.reduceat(vals, starts)
    hits = np.flatnonzero(vals == best[mask])  # every mask has one
    pick = sub[hits[np.searchsorted(mask[hits], np.arange(len(best)))]]
    none = best >= INF
    best[none], pick[none] = INF, 0
    return best.tolist(), pick.tolist()


def by_mask(items: Sequence, table: Table) -> Tuple[List[int], Sequence[Optional[Tuple]]]:
    """A table's values and orders indexed by mask, bit i being ``items[i]``;
    a set missing from the table has value ``INF`` and order None."""
    if isinstance(table, SubsetMap) and table.members == tuple(items):
        return table.values.tolist(), _Orders(table, None)
    if isinstance(table, SubsetMap) and set(table.members) <= set(items):
        pos = {v: i for i, v in enumerate(items)}
        to_full = np.zeros(1, dtype=np.int64)  # the table's masks as masks over items
        for v in table.members:
            to_full = np.concatenate((to_full, to_full + (1 << pos[v])))
        values = np.full(1 << len(items), INF, dtype=np.int64)
        values[to_full] = table.values
        local = np.full(len(values), -1, dtype=np.int64)
        local[to_full] = np.arange(len(to_full))
        return values.tolist(), _Orders(table, local)
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


def _layers(m: int) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """The 0/1 matrix of bit i of each mask, and per popcount 2..m the pairs
    of a mask N of that popcount and an item j in N, masks increasing and j
    increasing within a mask: (N * m + j, j, N - j). Built once per m, on
    first use."""
    if m not in _LAYERS:
        held = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
        popcount = held.sum(axis=1)
        layers = []
        for layer in range(2, m + 1):
            N, j = np.nonzero(held * (popcount == layer)[:, None])
            layers.append((N * m + j, j, N ^ (1 << j)))
        _LAYERS[m] = held, layers
    return _LAYERS[m]


def _held_karp(
    start: List[int], arc: List[List[int]], close: List[int], weights: Optional[List[int]]
) -> Tuple[np.ndarray, Callable[[int], List[int]]]:
    """Each subset's least chain value, by mask, and ``chain(mask)``: the
    indices of a least chain over the mask, from its end item back to its
    lone first item.

    With w(mask) the total of ``weights`` over the mask's items (1 without
    weights): a lone item i costs ``start[i]``; adding j after i to a chain
    over ``mask`` costs ``arc[i][j] * w(mask)``; a chain over ``mask``
    ending at i is worth its cost plus ``close[i] * w(mask)``. ``cost[N,
    j]``, the least chain over N ending at j, is INF unless j is in N, so a
    predecessor i outside N - j never wins.
    """
    m = len(start)
    flat = [a for i, row in enumerate(arc) for j, a in enumerate(row) if i != j]
    if not {type(a) for a in (*start, *flat, *close, *(weights or ()))} <= {int}:
        raise TypeError("path DP lengths and weights must be ints")
    top = max(map(abs, (*start, *flat, *close)), default=0)
    if (m + 1) * top * max(1, sum(map(abs, weights or ()))) >= INF // 2:
        raise ValueError("path DP values too large for exact int64 arithmetic")
    if not m:
        return np.zeros(1, dtype=np.int64), lambda mask: []
    held, layers = _layers(m)
    w = np.ones(1 << m, dtype=np.int64) if weights is None else held @ weights
    arc_t = np.array(arc, dtype=np.int64).T  # arc_t[j, i] = arc[i][j]
    arc_t[np.diag_indices(m)] = 0
    cost = np.full((1 << m, m), INF, dtype=np.int64)
    prev = np.full((1 << m, m), -1, dtype=np.int8)
    cost[1 << np.arange(m), np.arange(m)] = start
    flat_cost, flat_prev = cost.reshape(-1), prev.reshape(-1)
    for Nj, j, P in layers:
        cand = cost[P] + (arc_t[j] if weights is None else arc_t[j] * w[P][:, None])
        flat_cost[Nj] = cand.min(axis=1)  # cand[pair, i]
        flat_prev[Nj] = cand.argmin(axis=1)
    total = cost + np.array(close, dtype=np.int64) * w[:, None]
    end = total.argmin(axis=1)
    value = total.min(axis=1)
    value[0] = 0

    def chain(mask: int) -> List[int]:
        out, i = [], int(end[mask])
        while mask:
            out.append(i)
            mask, i = mask ^ (1 << i), int(prev[mask, i])
        return out

    return value, chain


def min_paths(root, items: Sequence, length: Callable[[object, object], int]) -> SubsetMap:
    """Map each subset of items to (min rooted-path length, optimal order).

    length(u, v) may be asymmetric (directed service metric); paths are
    traversed root -> first -> ... -> last.
    """
    items = tuple(items)
    arc = [[length(u, v) if u != v else 0 for v in items] for u in items]
    start = [length(root, v) for v in items]
    value, chain = _held_karp(start, arc, [0] * len(items), None)
    return SubsetMap(
        items, value, lambda mask: (int(value[mask]), tuple(items[i] for i in reversed(chain(mask))))
    )


def min_latency_orders(
    root,
    items: Sequence,
    step: Callable[[object, object], int],
    weight: Callable[[object], int],
) -> SubsetMap:
    """Map each subset to (min total weighted latency, optimal serving order).

    step(u, v) is the latency increment when moving from u to serving v
    (edge cost plus v's service time, as configured by the caller). The
    weighted objective sums, over serving steps, step cost times the total
    weight of nodes not yet served, which makes a subset DP sufficient: the
    chain is the order's suffix, built back to front, and the step into its
    new first item is paid by the weight of the suffix it leads into.
    """
    items = tuple(items)
    arc = [[step(v, u) if u != v else 0 for v in items] for u in items]
    from_root = [step(root, v) for v in items]
    value, chain = _held_karp([0] * len(items), arc, from_root, [weight(v) for v in items])
    return SubsetMap(
        items, value, lambda mask: (int(value[mask]), tuple(items[i] for i in chain(mask)))
    )
