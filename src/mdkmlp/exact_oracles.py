"""Brute-force ground truth: exact k-vehicle latency optima, bottleneck
strolls and their additive lower bound, orienteering, and prize-collecting
path collections.

Everything here is exhaustive subset dynamic programming on the integer
metric, over client sets held as int masks: the :mod:`pathdp` tables in
exact numpy int64, the scans over them in Python ints, rational only where
the caller's rewards, penalties or budgets are. Hard size limits guard
every oracle, and results are returned as Fractions. Guards fail loudly
rather than degrade to heuristics: an oracle must never silently stop
being ground truth.
The optimum and the bottleneck-stroll table run on the service-free
reduction of :func:`instance.without_service` and map its values back.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, List, Optional, Tuple

from . import pathdp
from .instance import MetricInstance, RoutePlan, without_service
from .lp_toolkit import bottleneck_cover_table

# Size guard of every exhaustive oracle: the subset DPs grow as 3^clients.
CLIENT_LIMIT = 9


class OracleGuardError(Exception):
    """An exact oracle was asked for more than its size guard allows."""


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum plus the witnessing structure."""

    value: Fraction
    witness: object


@dataclass(frozen=True)
class BnsTable:
    """Bottleneck-stroll values b*_l for l = 1..n with witnesses.

    values[l-1] is the minimum, over k-tuples of rooted paths jointly
    covering at least l nodes (roots count), of the maximum path cost. On a
    service instance the paths and costs are those of its reduction, each
    cost over the reduction's scale, and ``offset`` is shift/scale.
    """

    values: Tuple[Fraction, ...]
    witnesses: Tuple[Tuple[Tuple, ...], ...]
    offset: Fraction = Fraction(0)

    @property
    def bnslb(self) -> Fraction:
        """The additive lower bound: the sum of the values, plus the offset."""
        return sum(self.values, self.offset)


def _guard_clients(inst: MetricInstance) -> None:
    if len(inst.clients) > CLIENT_LIMIT:
        raise OracleGuardError(
            f"exact oracle guard: {len(inst.clients)} clients > limit {CLIENT_LIMIT}"
        )


def exact_kmlp(inst: MetricInstance) -> OracleResult:
    """Minimum total (weighted, service-inclusive) latency over all plans.

    Exhaustive: clients are assigned to depot groups (respecting allowed
    depots), each group's set is split optimally over its vehicles, and
    each vehicle's set is ordered optimally by the subset DP. Both splits
    are one :func:`pathdp.fleet` over latency sums, which lays the witness
    routes into root slots: of the vehicles at one depot, the one added
    last takes the depot's first slot.
    """
    _guard_clients(inst)
    plain, shift, scale = without_service(inst)
    groups = [
        (g.root, g.slots, pathdp.min_latency_orders(g.root, g.clients, plain.dist, plain.weight))
        for g in plain.groups
    ]
    # every client has an allowed depot, so the full mask has a finite value
    best, witness = pathdp.fleet(plain.clients, groups, add)
    full = len(best) - 1
    plan = RoutePlan(routes=witness(full), objective_variant=inst.default_variant)
    return OracleResult(Fraction(best[full] + shift, scale), plan)


def bnslb(inst: MetricInstance) -> BnsTable:
    """The full bottleneck-stroll table and its additive lower bound.

    Roots are covered for free by trivial paths, and under the triangle
    inequality an optimal path never detours through a foreign root, so
    only the number of distinct clients covered matters beyond the roots.
    Per size it keeps the lowest client mask of least bottleneck; where
    sizes tie at the least bottleneck, entry l keeps the largest size. A service instance's is its reduction's.
    """
    _guard_clients(inst)
    plain, shift, scale = without_service(inst)
    # per client-set size, the least bottleneck and its lowest mask
    bottleneck, witness = bottleneck_cover_table(plain)
    best: Dict[int, Tuple[int, int]] = {}
    for mask, val in enumerate(bottleneck.tolist()):
        sz = mask.bit_count()
        if sz not in best or val < best[sz][0]:
            best[sz] = (val, mask)
    free = len(inst.root_set)
    trivial = tuple((r,) for r in inst.roots)
    values: List[Fraction] = []
    witnesses: List[Tuple[Tuple, ...]] = []
    # suffix-min so b*_l is the cheapest way to reach coverage >= l
    by_need: Dict[int, Tuple[int, int]] = {}
    run: Optional[Tuple[int, int]] = None
    for sz in sorted(best, reverse=True):
        if run is None or best[sz][0] < run[0]:
            run = best[sz]
        by_need[sz] = run
    for ell in range(1, inst.n + 1):
        if ell <= free:
            values.append(Fraction(0))
            witnesses.append(trivial)
            continue
        val, mask = by_need[ell - free]
        values.append(Fraction(val, scale))
        witnesses.append(witness(mask))
    return BnsTable(tuple(values), tuple(witnesses), Fraction(shift, scale))


def exact_orienteering(
    inst: MetricInstance, root, budget, rewards: Dict
) -> OracleResult:
    """Max reward of a rooted path of length <= budget (subset DP). Of the
    node sets of max reward, the witness visits the one of lowest mask, bit
    i being the i-th node other than the root."""
    if inst.n > 12:
        raise OracleGuardError(f"orienteering guard: n={inst.n} > 12")
    if root not in inst.nodes:
        raise ValueError(f"unknown root {root!r}")
    if Fraction(rewards.get(root, 0)) != 0:
        raise ValueError("root reward must be 0")
    budget = Fraction(budget)
    if budget < 0:
        raise ValueError("negative budget")
    items = [v for v in inst.nodes if v != root]
    theta = {v: Fraction(rewards.get(v, 0)) for v in items}
    paths = pathdp.min_paths(root, items, inst.dist)
    best_val, best_path = Fraction(0), (root,)
    for mask, plen in enumerate(paths.values.tolist()):
        if plen > budget:
            continue
        reward = sum((theta[v] for i, v in enumerate(items) if mask >> i & 1), Fraction(0))
        if reward > best_val:
            best_val, best_path = reward, (root,) + paths.order(mask)
    return OracleResult(best_val, best_path)


def _path_cover_costs(
    inst: MetricInstance, root
) -> Tuple[Dict[int, Tuple[int, List[Tuple]]], List]:
    """mc: exact-cover mask -> (min cost of a rooted path collection
    covering it, witness paths), over nodes other than the root."""
    items = [v for v in inst.nodes if v != root]
    paths = pathdp.min_paths(root, items, inst.dist)
    single = paths.values.tolist()
    mc: Dict[int, Tuple[int, List[Tuple]]] = {0: (0, [])}
    for msk in range(1, len(single)):
        low = msk & -msk  # pin the lowest set bit to one part: no double count
        best = None
        sub = msk
        while sub:
            if sub & low:
                rest = msk ^ sub
                cand = single[sub] + mc[rest][0]
                if best is None or cand < best[0]:
                    best = (cand, mc[rest][1] + [(root,) + paths.order(sub)])
            sub = (sub - 1) & msk
        mc[msk] = best
    return mc, items


def exact_pc_paths(inst: MetricInstance, root, penalties: Dict) -> OracleResult:
    """Min over rooted path collections of cost plus uncovered penalties."""
    if inst.n > 8:
        raise OracleGuardError(f"prize-collecting guard: n={inst.n} > 8")
    if root not in inst.nodes:
        raise ValueError(f"unknown root {root!r}")
    mc, items = _path_cover_costs(inst, root)
    pen = {v: Fraction(penalties.get(v, 0)) for v in items}
    if any(p < 0 for p in pen.values()):
        raise ValueError("negative penalty")
    total_pen = sum(pen.values(), Fraction(0))
    best = None
    for msk, (cost, witness) in mc.items():
        uncovered = total_pen - sum(
            (pen[v] for i, v in enumerate(items) if msk & (1 << i)), Fraction(0)
        )
        cand = cost + uncovered
        if best is None or cand < best[0]:
            best = (cand, witness)
    return OracleResult(best[0], tuple(best[1]))
