"""Instance model, parsing, validation, and latency evaluation.

An instance is a complete metric graph over named nodes with k depot roots
(duplicates allowed) and optional per-node weights, service times, and
allowed-depot sets. All costs are integers; rational inputs are rejected
rather than rounded so that integrality-based lower bounds stay valid.
Service times reduce exactly to the service-free metric d'(u,v) =
2c(u,v) + d_u + d_v (:func:`without_service`), so optima, the
bottleneck-stroll bound and per-run guarantees carry over.
"""

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, Hashable, List, NamedTuple, Sequence, Tuple

from . import pathdp

Node = Hashable

VARIANTS = ("plain", "weighted", "service", "weighted+service")


class DepotGroup(NamedTuple):
    """The vehicles at one depot: ``slots`` are their indices in the
    instance's ``roots``, and ``clients`` the clients (in client order)
    whose allowed depots include ``root``."""

    root: Node
    slots: Tuple[int, ...]
    clients: Tuple[Node, ...]


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
    # dicts are unhashable: these fields count for equality, not for the hash
    weights: Dict[Node, int] = field(default_factory=dict, hash=False)
    service: Dict[Node, int] = field(default_factory=dict, hash=False)
    allowed_depots: Dict[Node, Tuple[Node, ...]] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        n = len(self.nodes)
        if n == 0:
            raise ValueError("instance needs at least one node")
        # a JSON key or a command-line argument names a node by its string
        named: Dict[str, Node] = {}
        for v in self.nodes:
            if str(v) in named:
                raise ValueError(f"duplicate node ids {named[str(v)]!r} and {v!r}")
            named[str(v)] = v
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
        # Every weighted latency sum in the exact oracles' metric, c or (with
        # service) d' <= 2(max c + max d), must stay below the DPs' INF; the
        # copy of without_service then passes too, with top at most this one.
        top = max(map(max, self.cost))
        if any(self.service.values()):  # roots have none
            top = 2 * (top + max(self.service.values()))
        reach = 4 * n * top * sum(self.weights.get(v, 1) for v in self.nodes if v not in root_set)
        if reach >= pathdp.INF:
            raise ValueError(f"latency sums too large for exact oracles: {reach} >= {pathdp.INF}")
        # evaluate_plan_detail's lookup, built here so that no evaluation
        # builds it: per variant, client -> (node index, allowed depots or
        # None, service time or 0, weight or 1); variants that read the
        # same service times and weights share one
        visits, built = {}, {}
        for variant in VARIANTS:
            service = self.service if "service" in variant else {}
            weights = self.weights if "weighted" in variant else {}
            key = (bool(service), bool(weights))
            if key not in built:
                built[key] = {
                    v: (j, self.allowed_depots.get(v), service.get(v, 0), weights.get(v, 1))
                    for j, v in enumerate(self.nodes)
                    if v not in root_set
                }
            visits[variant] = built[key]
        object.__setattr__(self, "_visits", visits)

    # -- basic accessors ---------------------------------------------------
    #
    # The fields never change, so the derived values below are computed once
    # per instance (``cached_property`` keeps them in the instance dict,
    # outside the fields that equality and hashing see).

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def k(self) -> int:
        return len(self.roots)

    @cached_property
    def node_pos(self) -> Dict[Node, int]:
        """Node -> its position in ``nodes``."""
        return {v: i for i, v in enumerate(self.nodes)}

    @cached_property
    def root_set(self) -> frozenset:
        return frozenset(self.roots)

    @cached_property
    def clients(self) -> Tuple[Node, ...]:
        rs = self.root_set
        return tuple(v for v in self.nodes if v not in rs)

    def index(self, v: Node) -> int:
        try:
            return self.node_pos[v]
        except KeyError:
            raise KeyError(f"unknown node {v!r}") from None

    def dist(self, u: Node, v: Node) -> int:
        pos = self.node_pos
        try:
            return self.cost[pos[u]][pos[v]]
        except KeyError as exc:
            raise KeyError(f"unknown node {exc.args[0]!r}") from None

    def weight(self, v: Node) -> int:
        if v in self.root_set:
            return 1
        return self.weights.get(v, 1)

    def service_time(self, v: Node) -> int:
        if v in self.root_set:
            return 0
        return self.service.get(v, 0)

    @cached_property
    def client_bit(self) -> Dict[Node, int]:
        """Client -> its bit in a client set held as an int: bit i stands for
        ``clients[i]``."""
        return {v: 1 << i for i, v in enumerate(self.clients)}

    @cached_property
    def depots(self) -> Tuple[Node, ...]:
        """The distinct roots, in the order of their first slots."""
        return tuple(dict.fromkeys(self.roots))

    def depots_for(self, v: Node) -> Tuple[Node, ...]:
        return self.allowed_depots.get(v, self.depots)

    @cached_property
    def groups(self) -> Tuple[DepotGroup, ...]:
        """The vehicles grouped by depot, in ``depots`` order: how per-group
        results (LP columns, DP splits) map back to the route slots.

        Vehicles at the same depot are interchangeable, and every LP here is
        convex and symmetric under permuting them, so an optimal solution
        exists with equal per-vehicle values within a group; sharing
        variables across a group is exact and shrinks the LPs by a factor of
        up to k."""
        return tuple(
            DepotGroup(
                r,
                tuple(i for i, s in enumerate(self.roots) if s == r),
                tuple(v for v in self.clients if r in self.depots_for(v)),
            )
            for r in self.depots
        )

    def home_slot(self, v: Node) -> int:
        """The first slot of v's nearest allowed depot; of equally near
        depots, the one that comes first in ``roots``."""
        return min((self.dist(d, v), self.roots.index(d)) for d in self.depots_for(v))[1]

    @cached_property
    def has_weights(self) -> bool:
        return any(self.weight(v) != 1 for v in self.clients)

    @cached_property
    def has_service(self) -> bool:
        return any(self.service_time(v) != 0 for v in self.clients)

    @cached_property
    def default_variant(self) -> str:
        w, s = self.has_weights, self.has_service
        if w and s:
            return "weighted+service"
        if w:
            return "weighted"
        if s:
            return "service"
        return "plain"

    @cached_property
    def _shared(self) -> Dict[Hashable, object]:
        return {}

    def shared(self, key: Hashable, build: Callable[[], object]) -> object:
        """``build()``, computed on the first call with `key` and returned by
        every later one (callers must not change it): tables that several
        bounds of one instance read, such as :meth:`path_table` and
        ``lp_toolkit.bottleneck_cover_table``, are built once."""
        if key not in self._shared:
            self._shared[key] = build()
        return self._shared[key]

    def path_table(self, root: Node, items: Sequence[Node]) -> pathdp.PathTable:
        """``pathdp.min_paths(root, items, self.dist)``, built once per
        instance and shared (:meth:`shared`): LP1, LP2 and the
        bottleneck-stroll table ask for the same ones."""
        return self.shared(
            ("path_table", root, tuple(items)),
            lambda: pathdp.min_paths(root, items, self.dist),
        )

    # -- derived metrics ---------------------------------------------------

    def service_doubled(self, u: Node, v: Node) -> int:
        """Twice the symmetric service metric c(u,v) + (d_u + d_v)/2: the
        integer metric 2c(u,v) + d_u + d_v (0 on the diagonal)."""
        if u == v:
            return 0
        return 2 * self.dist(u, v) + self.service_time(u) + self.service_time(v)

    def service_directed(self, u: Node, v: Node) -> int:
        """Directed service metric: c plus the head's service time (LP3)."""
        if u == v:
            return 0
        return self.dist(u, v) + self.service_time(v)

    @cached_property
    def _without_service(self) -> Tuple["MetricInstance", int, int]:
        """:func:`without_service` of a service instance, built once."""
        d = self.service_doubled
        cost = tuple(tuple(d(u, v) for v in self.nodes) for u in self.nodes)
        shift = sum(self.weight(v) * self.service_time(v) for v in self.clients)
        return replace(self, cost=cost, service={}), shift, 2


def without_service(inst: MetricInstance) -> Tuple[MetricInstance, int, int]:
    """The exact service-free reduction (plain, shift, scale) of `inst`:
    every plan costs (its cost in plain + shift)/scale in `inst`.

    With service times, plain is `inst` under d' = ``service_doubled`` with
    no service, shift = sum of w_v d_v and scale 2: a node's d'-latency is
    twice its latency less d_v. A service-free instance is its own
    reduction, with shift 0 and scale 1. Callers share the one copy, and so
    its path tables."""
    return inst._without_service if inst.has_service else (inst, 0, 1)


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


def node_of_key(nodes: Sequence[Node], key: str, what: str) -> Node:
    """The node whose id reads ``key`` as a string (a JSON object key, a
    command-line argument); raises ValueError naming ``what`` if there is
    none. A valid instance has no two ids that read the same."""
    for v in nodes:
        if str(v) == key:
            return v
    raise ValueError(f"{what} {key!r} matches no node")


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
    nodes = node_ids(data["nodes"], "'nodes'")
    maps = {}
    for key in ("weights", "service_times", "allowed_depots"):
        raw = {} if data.get(key) is None else data[key]
        if not isinstance(raw, dict):
            raise ValueError(f"{key!r} must be an object keyed by node id")
        maps[key] = {node_of_key(nodes, k, f"{key!r} key"): val for k, val in raw.items()}
    return MetricInstance(
        nodes=nodes,
        roots=node_ids(data["roots"], "'roots'"),
        cost=tuple(tuple(row) for row in costs),
        weights=maps["weights"],
        service=maps["service_times"],
        allowed_depots={
            v: node_ids(rs, f"allowed depots of {v!r}")
            for v, rs in maps["allowed_depots"].items()
        },
    )


def evaluate_plan_detail(
    inst: MetricInstance, plan: RoutePlan
) -> Tuple[Fraction, Dict[Node, int]]:
    """Total objective value and per-client (integer) latencies for a plan.

    Routes are shortcut to simple paths: repeated nodes, root nodes, and
    clients already served on an earlier route are skipped (shortcutting can
    only shorten prefixes under the triangle inequality). Raises on uncovered
    clients or service from a disallowed depot.

    It reads the instance's lookup for the plan's objective variant, built
    when the instance was: client -> (node index, allowed depots or None,
    service time, weight), the service time 0 and the weight 1 where the
    variant counts none. A visited node costs one served test and one dict
    read; only a node missing from the lookup is tested as a root (skipped)
    or an unknown node (raised).
    """
    if len(plan.routes) != inst.k:
        raise ValueError(
            f"plan has {len(plan.routes)} routes for a {inst.k}-vehicle instance"
        )
    visits = inst._visits[plan.objective_variant]
    served: Dict[Node, int] = {}
    total = 0
    cost = inst.cost
    for i, (root, route) in enumerate(zip(inst.roots, plan.routes)):
        if not route or route[0] != root:
            raise ValueError(f"route {i} must start at its root {root!r}")
        row = cost[inst.node_pos[root]]
        elapsed = 0
        for v in route[1:]:
            if v in served:
                continue
            visit = visits.get(v)
            if visit is None:
                if v in inst.root_set:
                    continue
                raise ValueError(f"unknown node {v!r} in route {i}")
            j, allowed, service, weight = visit
            if allowed is not None and root not in allowed:
                raise ValueError(f"node {v!r} served from disallowed depot {root!r}")
            elapsed += row[j] + service
            served[v] = elapsed
            total += weight * elapsed
            row = cost[j]
    if len(served) != len(inst.clients):  # served holds clients only
        missing = [v for v in inst.clients if v not in served]
        raise ValueError(f"uncovered node(s): {missing!r}")
    return Fraction(total), served


def evaluate_plan(inst: MetricInstance, plan: RoutePlan) -> Fraction:
    """Total (weighted, service-inclusive as per variant) latency of a plan."""
    total, _ = evaluate_plan_detail(inst, plan)
    return total


def time_horizon(inst: MetricInstance) -> TimeHorizon:
    """Latency bound from a nearest-neighbor certificate plan.

    Each client goes to its :meth:`~MetricInstance.home_slot`, the first
    vehicle of its nearest allowed depot (other vehicles at that depot stay
    empty); each vehicle serves its clients in nearest-neighbor order. The
    resulting maximum (service-inclusive) latency is a much smaller T than
    the analytic 2n*LB bound, which keeps every time-indexed LP small.
    """
    assigned: List[List[Node]] = [[] for _ in inst.roots]
    for v in inst.clients:
        assigned[inst.home_slot(v)].append(v)
    routes = []
    max_latency = 0
    for r, pending in zip(inst.roots, assigned):
        route = [r]
        pos = r
        elapsed = 0
        while pending:
            nxt = min(pending, key=lambda v: (inst.dist(pos, v), inst.index(v)))
            pending.remove(nxt)
            elapsed += inst.dist(pos, nxt) + inst.service_time(nxt)
            max_latency = max(max_latency, elapsed)
            route.append(nxt)
            pos = nxt
        routes.append(tuple(route))
    plan = RoutePlan(routes=tuple(routes), objective_variant=inst.default_variant)
    return TimeHorizon(T=max_latency, certifying_plan=plan)
