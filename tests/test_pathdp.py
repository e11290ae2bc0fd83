import itertools
import operator
import random
from functools import reduce

import pytest

import reference
from conftest import manhattan_points
from mdkmlp import lp_toolkit
from mdkmlp.instance import MetricInstance, group_slots
from mdkmlp.pathdp import INF, fleet, min_latency_orders, min_paths, split


def path_length(root, order, length):
    return sum(length(u, v) for u, v in zip((root,) + order, order))


def weighted_latency(root, order, step, weight):
    total, now = 0, 0
    for u, v in zip((root,) + order, order):
        now += step(u, v)
        total += weight(v) * now
    return total


def random_lengths(rng, m):
    """Items, an asymmetric integer length in a small span (so many orders
    tie) and weights in 0..3, over a root and m items."""
    items = [f"c{i}" for i in range(m)]
    span = rng.choice([1, 2, 4])
    d = {(u, v): rng.randint(0, span) for u in ["r"] + items for v in items if u != v}
    wts = {v: rng.randint(0, 3) for v in items}
    return items, (lambda u, v: d[u, v]), wts.get


def check_against_permutations(table, items, value, tie_key):
    """Every subset maps to the least value over its orders, and its order
    is the optimal one that ``tie_key`` ranks first; the empty set is (0, ())."""
    assert table[frozenset()] == (0, ())
    assert len(table) == 1 << len(items)
    for size in range(1, len(items) + 1):
        for C in itertools.combinations(items, size):
            orders = list(itertools.permutations(C))
            best = min(map(value, orders))
            val, order = table[frozenset(C)]
            assert val == best
            assert sorted(order) == sorted(C) and value(order) == val
            assert order == min((o for o in orders if value(o) == best), key=tie_key)


@pytest.mark.parametrize("m", range(7))
def test_min_paths_matches_permutations(m):
    """Lowest last item first, then the lowest item before each one."""
    rng = random.Random(100 + m)
    for _ in range(4):
        items, length, _ = random_lengths(rng, m)
        check_against_permutations(
            min_paths("r", items, length), items,
            lambda o: path_length("r", o, length),
            lambda o: [items.index(v) for v in reversed(o)],
        )


@pytest.mark.parametrize("m", range(7))
def test_min_latency_orders_matches_permutations(m):
    """Lowest first served item first, then the lowest item after each one."""
    rng = random.Random(200 + m)
    for _ in range(4):
        items, step, weight = random_lengths(rng, m)
        check_against_permutations(
            min_latency_orders("r", items, step, weight), items,
            lambda o: weighted_latency("r", o, step, weight),
            lambda o: [items.index(v) for v in o],
        )


def brute_split(first, rest, combine):
    """Per mask: the least combine over its disjoint (sub, mask ^ sub)
    pairs, and the first minimizing sub in descending order (INF, 0 when
    no pair is finite)."""
    out, picks = [], []
    for msk in range(len(first)):
        best, pick = INF, 0
        for sub in range(msk, -1, -1):
            if sub & ~msk:
                continue
            val = combine(first[sub], rest[msk ^ sub])
            if val < best:
                best, pick = val, sub
        out.append(best)
        picks.append(pick)
    return out, picks


@pytest.mark.parametrize("combine", [max, operator.add])
def test_split_matches_brute_force(combine):
    rng = random.Random(11)
    for _ in range(60):
        full = 1 << rng.randint(0, 6)
        # small values force ties, so the pick order is tested too; INF
        # entries leave some masks without a finite pair
        first = [INF if rng.random() < 0.25 else rng.randint(0, 5) for _ in range(full)]
        rest = [INF if rng.random() < 0.25 else rng.randint(0, 5) for _ in range(full)]
        assert split(first, rest, combine) == brute_split(first, rest, combine)


def random_table(rng, clients):
    """A single-path table over subsets of clients: a random value and
    visiting order per set, with some nonempty sets missing."""
    table = {frozenset(): (0, ())}
    for size in range(1, len(clients) + 1):
        for C in itertools.combinations(clients, size):
            if rng.random() < 0.8:
                order = list(C)
                rng.shuffle(order)
                table[frozenset(C)] = (rng.randint(0, 5), tuple(order))
    return table


def brute_fleet(clients, tables, combine):
    """Per mask: the least combine of the slots' table values over every
    assignment of the mask's clients to the slots (INF if none is valid)."""
    out = []
    for msk in range(1 << len(clients)):
        members = [v for i, v in enumerate(clients) if msk >> i & 1]
        best = INF
        for assign in itertools.product(range(len(tables)), repeat=len(members)):
            parts = [
                frozenset(v for v, s in zip(members, assign) if s == slot)
                for slot in range(len(tables))
            ]
            if all(C in table for C, table in zip(parts, tables)):
                vals = [table[C][0] for C, table in zip(parts, tables)]
                best = min(best, reduce(combine, vals))
        out.append(best)
    return out


@pytest.mark.parametrize("combine", [max, operator.add])
@pytest.mark.parametrize("roots", ["abb", "aba", "aabb"])
def test_fleet_matches_brute_force(combine, roots):
    rng = random.Random(5)
    for _ in range(6):
        clients = [f"c{i}" for i in range(rng.randint(0, 4))]
        tables = {r: random_table(rng, clients) for r in dict.fromkeys(roots)}
        groups = [
            (r, [i for i, rr in enumerate(roots) if rr == r], tables[r])
            for r in dict.fromkeys(roots)
        ]
        best, witness = fleet(clients, groups, combine)
        slot_tables = [tables[r] for r in roots]
        assert best == brute_fleet(clients, slot_tables, combine)
        for msk, val in enumerate(best):
            if val >= INF:
                continue
            routes = witness(msk)
            assert [route[0] for route in routes] == list(roots)
            parts = [frozenset(route[1:]) for route in routes]
            assert sum(map(len, parts)) == bin(msk).count("1")
            assert frozenset().union(*parts) == {
                v for i, v in enumerate(clients) if msk >> i & 1
            }
            for route, C, table in zip(routes, parts, slot_tables):
                assert route[1:] == table[C][1]
            assert reduce(combine, [t[C][0] for C, t in zip(parts, slot_tables)]) == val


def test_bottleneck_cover_witnesses_are_slot_aligned():
    """Roots (a, b, a): the witness of every client set has path i from
    roots[i], not the paths of depot a first."""
    rng = random.Random(8)
    pts = manhattan_points(rng, 7, 5)
    nodes = tuple(f"v{i}" for i in range(7))
    cost = tuple(
        tuple(abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in pts) for p in pts
    )
    inst = MetricInstance(nodes=nodes, roots=("v0", "v1", "v0"), cost=cost)
    assert group_slots(inst) == [("v0", [0, 2]), ("v1", [1])]
    table, witness = lp_toolkit.bottleneck_cover_table(inst, inst.dist)
    assert len(table) == 1 << len(inst.clients)
    for U, val in table.items():
        routes = witness(U)
        assert [route[0] for route in routes] == list(inst.roots)
        served = [v for route in routes for v in route[1:]]
        assert len(served) == len(U) and set(served) == U
        assert val == max(
            sum(inst.dist(u, v) for u, v in zip(route, route[1:])) for route in routes
        )


def reference_inputs():
    """Seeded (m, items, length, weight) inputs for m = 0..12: random
    asymmetric lengths in a small span, and tie-heavy ones with every length
    equal; weights 0..3. Fewer inputs at the larger m."""
    rng = random.Random(39)
    for m in range(13):
        for trial in range(6 if m <= 8 else 1):
            items = [f"c{i}" for i in range(m)]
            span = 0 if trial % 3 == 0 else rng.choice([1, 3, 20])
            d = {
                (u, v): rng.randint(0, span) + (m > 0 and span == 0)
                for u in ["r"] + items for v in items if u != v
            }
            w = {v: rng.randint(0, 3) for v in items}
            yield m, items, (lambda u, v, d=d: d[u, v]), w.get


def test_path_tables_equal_the_one_state_at_a_time_reference():
    """Values, orders and key order of the numpy kernel equal the pure-Python
    Held-Karp's, ties included."""
    for m, items, length, weight in reference_inputs():
        got = min_paths("r", items, length)
        assert list(got.items()) == list(reference.min_paths("r", items, length).items()), m
        got = min_latency_orders("r", items, length, weight)
        want = reference.min_latency_orders("r", items, length, weight)
        assert list(got.items()) == list(want.items()), m


@pytest.mark.parametrize("combine", [max, operator.add])
def test_split_equals_the_one_state_at_a_time_reference(combine):
    """Values and picks (the first minimiser in descending submask order),
    with INF entries and ties, for m = 0..12."""
    rng = random.Random(40)
    for m in range(13):
        for _ in range(4 if m <= 8 else 1):
            full = 1 << m
            first = [INF if rng.random() < 0.2 else rng.randint(0, 3) for _ in range(full)]
            rest = [INF if rng.random() < 0.2 else rng.randint(0, 3) for _ in range(full)]
            assert split(first, rest, combine) == reference.split(first, rest, combine), m


def test_non_integer_or_too_large_lengths_are_refused():
    items = ["a", "b"]
    with pytest.raises(TypeError, match="must be ints"):
        min_paths("r", items, lambda u, v: 0.5)
    with pytest.raises(ValueError, match="too large"):
        min_paths("r", items, lambda u, v: INF)
