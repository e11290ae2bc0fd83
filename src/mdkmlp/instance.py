"""Instance model, parsing, validation, and latency evaluation.

An instance is a complete metric graph over named nodes with k depot roots
(duplicates allowed) and optional per-node weights, service times, and
allowed-depot sets. All costs are integers; rational inputs are rejected
rather than rounded so that integrality-based lower bounds stay valid.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Tuple

Node = Hashable

VARIANTS = ("plain", "weighted", "service", "weighted+service")


@dataclass(frozen=True)
class MetricInstance:
    """A complete metric graph with depots and optional objective extras.

    Attributes:
        nodes: ordered node identifiers (strings or ints).
        roots: the k depot nodes; duplicates allowed (several vehicles may
            share a depot).
        cost: symmetric integer cost matrix indexed like `nodes`.
        weights: per-node latency weight w_v (1 where omitted, 1 at roots).
        service: per-node service time d_v (0 where omitted, 0 at roots).
        allowed_depots: per-node tuple of roots allowed to serve the node
            (defaults to all roots).
    """

    nodes: Tuple[Node, ...]
    roots: Tuple[Node, ...]
    cost: Tuple[Tuple[int, ...], ...]
    weights: Dict[Node, int] = field(default_factory=dict)
    service: Dict[Node, int] = field(default_factory=dict)
    allowed_depots: Dict[Node, Tuple[Node, ...]] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.nodes)
        if n == 0:
            raise ValueError("instance needs at least one node")
        if len(set(self.nodes)) != n:
            raise ValueError("duplicate node identifiers")
        if not self.roots:
            raise ValueError("at least one root required")
        for r in self.roots:
            if r not in self.nodes:
                raise ValueError(f"root {r!r} not among nodes")
        if len(self.cost) != n or any(len(row) != n for row in self.cost):
            raise ValueError("cost matrix must be square over the node list")
        for i in range(n):
            for j in range(n):
                cij = self.cost[i][j]
                if isinstance(cij, bool) or not isinstance(cij, int):
                    raise ValueError(
                        f"non-integer cost at ({self.nodes[i]!r},{self.nodes[j]!r})"
                    )
                if cij < 0:
                    raise ValueError("negative cost")
        for i in range(n):
            if self.cost[i][i] != 0:
                raise ValueError(f"nonzero diagonal at {self.nodes[i]!r}")
            for j in range(i + 1, n):
                if self.cost[i][j] != self.cost[j][i]:
                    raise ValueError(
                        f"asymmetric cost between {self.nodes[i]!r} and {self.nodes[j]!r}"
                    )
        for i in range(n):
            for j in range(n):
                for m in range(n):
                    if self.cost[i][j] > self.cost[i][m] + self.cost[m][j]:
                        raise ValueError(
                            "triangle inequality violated at "
                            f"({self.nodes[i]!r},{self.nodes[m]!r},{self.nodes[j]!r})"
                        )
        root_set = set(self.roots)
        for v in self.nodes:
            if v in root_set:
                continue
            for r in root_set:
                if self.dist(r, v) < 1:
                    raise ValueError(f"root distance < 1 between {r!r} and {v!r}")
        for v, w in self.weights.items():
            if v not in self.nodes:
                raise ValueError(f"weight for unknown node {v!r}")
            if isinstance(w, bool) or not isinstance(w, int) or w < 0:
                raise ValueError(f"invalid weight for {v!r}")
            if v in root_set and w != 1:
                raise ValueError(f"root {v!r} must have weight 1")
        for v, d in self.service.items():
            if v not in self.nodes:
                raise ValueError(f"service time for unknown node {v!r}")
            if isinstance(d, bool) or not isinstance(d, int) or d < 0:
                raise ValueError(f"invalid service time for {v!r}")
            if v in root_set and d != 0:
                raise ValueError(f"root {v!r} must have service time 0")
        for v, depots in self.allowed_depots.items():
            if v not in self.nodes:
                raise ValueError(f"allowed depots for unknown node {v!r}")
            if not depots:
                raise ValueError(f"empty allowed-depot set for {v!r}")
            for r in depots:
                if r not in root_set:
                    raise ValueError(f"allowed depot {r!r} of {v!r} is not a root")

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def k(self) -> int:
        return len(self.roots)

    @property
    def root_set(self) -> frozenset:
        return frozenset(self.roots)

    @property
    def clients(self) -> Tuple[Node, ...]:
        rs = self.root_set
        return tuple(v for v in self.nodes if v not in rs)

    def index(self, v: Node) -> int:
        try:
            return self.nodes.index(v)
        except ValueError:
            raise KeyError(f"unknown node {v!r}") from None

    def dist(self, u: Node, v: Node) -> int:
        return self.cost[self.index(u)][self.index(v)]

    def weight(self, v: Node) -> int:
        if v in self.root_set:
            return 1
        return self.weights.get(v, 1)

    def service_time(self, v: Node) -> int:
        if v in self.root_set:
            return 0
        return self.service.get(v, 0)

    def depots_for(self, v: Node) -> Tuple[Node, ...]:
        got = self.allowed_depots.get(v)
        if got is not None:
            return got
        return tuple(dict.fromkeys(self.roots))

    @property
    def has_weights(self) -> bool:
        return any(self.weight(v) != 1 for v in self.clients)

    @property
    def has_service(self) -> bool:
        return any(self.service_time(v) != 0 for v in self.clients)

    @property
    def default_variant(self) -> str:
        w, s = self.has_weights, self.has_service
        if w and s:
            return "weighted+service"
        if w:
            return "weighted"
        if s:
            return "service"
        return "plain"

    # -- derived metrics ---------------------------------------------------

    def service_symmetric(self, u: Node, v: Node) -> Fraction:
        """Symmetric service metric: c plus half the endpoint service times."""
        if u == v:
            return Fraction(0)
        return Fraction(self.dist(u, v)) + Fraction(
            self.service_time(u) + self.service_time(v), 2
        )

    def service_directed(self, u: Node, v: Node) -> int:
        """Directed service metric: c plus the head's service time."""
        if u == v:
            return 0
        return self.dist(u, v) + self.service_time(v)

    def latency_lower_bound(self) -> int:
        """max over clients of the distance to the nearest allowed depot."""
        best = 0
        for v in self.clients:
            best = max(best, min(self.dist(r, v) for r in self.depots_for(v)))
        return best


def vehicle_groups(inst: MetricInstance) -> List[Tuple[Node, int]]:
    """Vehicles grouped by shared depot: [(root, multiplicity)], stable order.

    Vehicles at the same depot are interchangeable, and every LP here is
    convex and symmetric under permuting them, so an optimal solution exists
    with equal per-vehicle values within a group; sharing variables across a
    group is exact and shrinks the LPs by a factor of up to k.
    """
    groups: Dict[Node, int] = {}
    for r in inst.roots:
        groups[r] = groups.get(r, 0) + 1
    return list(groups.items())


def group_slots(inst: MetricInstance) -> List[List[int]]:
    """For each group of :func:`vehicle_groups`, in order, the indices of
    its vehicles in ``inst.roots``: how per-group results (LP columns,
    witness paths, DP splits) map back to the instance's route slots."""
    return [
        [i for i, rr in enumerate(inst.roots) if rr == r]
        for r, _ in vehicle_groups(inst)
    ]


@dataclass(frozen=True)
class RoutePlan:
    """k rooted node sequences, route i starting at root i."""

    routes: Tuple[Tuple[Node, ...], ...]
    objective_variant: str = "plain"

    def __post_init__(self):
        if self.objective_variant not in VARIANTS:
            raise ValueError(f"unknown objective variant {self.objective_variant!r}")


@dataclass(frozen=True)
class TimeHorizon:
    """An integer latency bound T certified by a concrete feasible plan."""

    T: int
    certifying_plan: RoutePlan


INSTANCE_FIELDS = ("nodes", "roots", "costs", "weights", "service_times", "allowed_depots")


def node_ids(x, what: str) -> Tuple[Node, ...]:
    """A JSON list of node ids (strings or ints) as a tuple; raises otherwise."""
    if not isinstance(x, list) or not all(
        isinstance(v, (str, int)) and not isinstance(v, bool) for v in x
    ):
        raise ValueError(f"{what} must be a list of node ids (strings or ints)")
    return tuple(x)


def parse_instance(text: str) -> MetricInstance:
    """Parse and validate the JSON instance format."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed instance JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("instance JSON must be an object")
    unknown = [key for key in data if key not in INSTANCE_FIELDS]
    if unknown:
        raise ValueError(
            f"unknown instance field(s) {', '.join(map(repr, unknown))}; "
            f"known fields are {', '.join(INSTANCE_FIELDS)}"
        )
    for key in ("nodes", "roots", "costs"):
        if key not in data:
            raise ValueError(f"missing required field {key!r}")
    costs = data["costs"]
    if not isinstance(costs, list) or not all(isinstance(row, list) for row in costs):
        raise ValueError("'costs' must be a list of lists")
    maps = {}
    for key in ("weights", "service_times", "allowed_depots"):
        maps[key] = {} if data.get(key) is None else data[key]
        if not isinstance(maps[key], dict):
            raise ValueError(f"{key!r} must be an object keyed by node id")
    return MetricInstance(
        nodes=node_ids(data["nodes"], "'nodes'"),
        roots=node_ids(data["roots"], "'roots'"),
        cost=tuple(tuple(row) for row in costs),
        weights=maps["weights"],
        service=maps["service_times"],
        allowed_depots={
            v: node_ids(rs, f"allowed depots of {v!r}")
            for v, rs in maps["allowed_depots"].items()
        },
    )


def instance_to_json(inst: MetricInstance) -> str:
    data = {
        "nodes": list(inst.nodes),
        "roots": list(inst.roots),
        "costs": [list(row) for row in inst.cost],
    }
    if inst.weights:
        data["weights"] = dict(inst.weights)
    if inst.service:
        data["service_times"] = dict(inst.service)
    if inst.allowed_depots:
        data["allowed_depots"] = {v: list(rs) for v, rs in inst.allowed_depots.items()}
    return json.dumps(data, sort_keys=True)


def evaluate_plan_detail(
    inst: MetricInstance, plan: RoutePlan
) -> Tuple[Fraction, Dict[Node, Fraction]]:
    """Total objective value and per-client latencies for a plan.

    Routes are shortcut to simple paths: repeated nodes, root nodes, and
    clients already served on an earlier route are skipped (shortcutting can
    only shorten prefixes under the triangle inequality). Raises on uncovered
    clients or service from a disallowed depot.
    """
    if len(plan.routes) != inst.k:
        raise ValueError(
            f"plan has {len(plan.routes)} routes for a {inst.k}-vehicle instance"
        )
    variant = plan.objective_variant
    use_w = variant in ("weighted", "weighted+service")
    use_d = variant in ("service", "weighted+service")
    served: Dict[Node, Fraction] = {}
    root_set = inst.root_set
    for i, route in enumerate(plan.routes):
        root = inst.roots[i]
        if not route or route[0] != root:
            raise ValueError(f"route {i} must start at its root {root!r}")
        pos = root
        elapsed = Fraction(0)
        for v in route[1:]:
            if v in root_set or v in served:
                continue
            if v not in inst.nodes:
                raise ValueError(f"unknown node {v!r} in route {i}")
            if root not in inst.depots_for(v):
                raise ValueError(f"node {v!r} served from disallowed depot {root!r}")
            elapsed += inst.dist(pos, v)
            if use_d:
                elapsed += inst.service_time(v)
            served[v] = elapsed
            pos = v
    missing = [v for v in inst.clients if v not in served]
    if missing:
        raise ValueError(f"uncovered node(s): {missing!r}")
    total = Fraction(0)
    for v, lat in served.items():
        total += (inst.weight(v) if use_w else 1) * lat
    return total, served


def evaluate_plan(inst: MetricInstance, plan: RoutePlan) -> Fraction:
    """Total (weighted, service-inclusive as per variant) latency of a plan."""
    total, _ = evaluate_plan_detail(inst, plan)
    return total


def time_horizon(inst: MetricInstance) -> TimeHorizon:
    """Latency bound from a nearest-neighbor certificate plan.

    Clients go to their nearest allowed depot; each depot serves its clients
    in nearest-neighbor order. The resulting maximum (service-inclusive)
    latency is a much smaller T than the analytic 2n*LB bound, which keeps
    every time-indexed LP small.
    """
    assigned: Dict[Node, List[Node]] = {r: [] for r in dict.fromkeys(inst.roots)}
    for v in inst.clients:
        depots = inst.depots_for(v)
        best = min(depots, key=lambda r: (inst.dist(r, v), inst.roots.index(r)))
        assigned[best].append(v)
    routes = []
    max_latency = 0
    for i, r in enumerate(inst.roots):
        # duplicate roots: the first slot for a depot carries its clients
        mine = assigned.get(r, [])
        if inst.roots.index(r) != i:
            mine = []
        route = [r]
        pending = list(mine)
        pos = r
        elapsed = 0
        while pending:
            nxt = min(pending, key=lambda v: (inst.dist(pos, v), inst.nodes.index(v)))
            pending.remove(nxt)
            elapsed += inst.dist(pos, nxt) + inst.service_time(nxt)
            max_latency = max(max_latency, elapsed)
            route.append(nxt)
            pos = nxt
        routes.append(tuple(route))
    variant = "service" if inst.has_service else "plain"
    plan = RoutePlan(routes=tuple(routes), objective_variant=variant)
    return TimeHorizon(T=max_latency, certifying_plan=plan)
