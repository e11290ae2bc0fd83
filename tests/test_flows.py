import itertools
import random

import pytest

from mdkmlp import flows


def _random_capacities(rng, n, opposite=True):
    """Integer arc capacities on nodes 0..n-1, about half the ordered pairs
    with an arc; with ``opposite`` False, at most one arc per node pair."""
    caps = {}
    for u, v in itertools.permutations(range(n), 2):
        if not opposite and (v, u) in caps:
            continue
        if rng.random() < 0.5:
            caps[(u, v)] = rng.randint(1, 4)
    return caps


def _cuts(n, caps, s, t):
    """(capacity, S) for every node set S holding s and not t."""
    inner = [v for v in range(n) if v not in (s, t)]
    for size in range(len(inner) + 1):
        for extra in itertools.combinations(inner, size):
            S = {s, *extra}
            yield sum(w for (u, v), w in caps.items() if u in S and v not in S), S


def _cases(seed, count, opposite=True):
    """Seeded (n, caps, s, t) with n from 2 to 7."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 7)
        s, t = rng.sample(range(n), 2)
        yield n, _random_capacities(rng, n, opposite), s, t


class TestMinCut:
    def test_value_and_side_against_every_cut(self):
        """The value is the least capacity over all s-t cuts, and the side is
        the intersection of every S that attains it: the unique smallest
        source side of a minimum cut."""
        ties = 0
        for n, caps, s, t in _cases(1, 400):
            cuts = list(_cuts(n, caps, s, t))
            best = min(cap for cap, _ in cuts)
            sides = [S for cap, S in cuts if cap == best]
            value, side = flows.min_cut(n, caps, s, t)
            assert value == best == flows.max_flow_value(n, caps, s, t)
            assert side == set.intersection(*sides)
            ties += len(sides) > 1
        assert ties >= 50  # the side is not merely the only minimum cut

    def test_self_loops_are_ignored(self):
        caps = {(0, 0): 5, (0, 1): 2, (1, 1): 3, (1, 2): 1}
        assert flows.min_cut(3, caps, 0, 2) == (1, {0, 1})

    @pytest.mark.parametrize(
        "call", [flows.min_cut, flows.max_flow_value, flows.max_flow_assignment]
    )
    def test_source_equal_to_sink_is_refused(self, call):
        with pytest.raises(ValueError) as exc:
            call(3, {(0, 1): 1, (1, 2): 1}, 1, 1)
        assert str(exc.value) == "source and sink must differ"


class TestMaxFlowAssignment:
    def test_flow_is_feasible_and_maximum(self):
        """On graphs without opposite arc pairs: each arc's flow lies in
        (0, capacity], flow is conserved at every node but s and t, the net
        flow out of s is the value, and the value is the minimum cut's."""
        for n, caps, s, t in _cases(2, 400, opposite=False):
            value, flow = flows.max_flow_assignment(n, caps, s, t)
            assert value == min(cap for cap, _ in _cuts(n, caps, s, t))
            assert all(0 < amount <= caps[a] for a, amount in flow.items())
            net = [0] * n
            for (u, v), amount in flow.items():
                net[u] += amount
                net[v] -= amount
            assert net[s] == value == -net[t]
            assert all(net[v] == 0 for v in range(n) if v not in (s, t))
