"""Span tracer for the per-module metrics of the traced benchmark run.

The tracer wraps public functions of the ``mdkmlp`` modules from outside the
program: each wrapped call becomes a span with a name, the op it belongs to,
its parent span, and both wall time (``perf_counter``) and thread CPU time
(``thread_time``). Spans nest on a per-thread stack, so the rows that
``mdkmlp bench`` runs in its thread pool keep separate call trees.

A function's *self* time is its span minus the time its child spans cover,
on the same thread. ``busy`` is the same quantity in thread CPU time, so
``self - busy`` is time the thread spent waiting (for the interpreter lock,
mostly, in the thread pool).

Installing the tracer rebinds every module attribute of ``mdkmlp.*`` that
refers to a wrapped function, from-import copies included, and fails if a
target, or one of the copies the program is known to hold, is missing.
"""

import functools
import itertools
import sys
import threading
import time

# module -> public functions whose calls become spans. ``lp_toolkit.highs`` is
# scipy's ``linprog`` as bound inside ``lp_toolkit``.
TARGETS = {
    "instance": ("parse_instance", "time_horizon", "evaluate_plan_detail"),
    "concat_graph": ("shortest_concat_path", "lower_envelope"),
    "arb_packing": ("pack_arborescences",),
    "flows": ("min_cut", "max_flow_value"),
    "pathdp": ("min_paths", "min_latency_orders"),
    "lp_toolkit": (
        "build_and_solve_lp1",
        "build_and_solve_lp2",
        "build_and_solve_lp3",
        "build_and_solve_pclp",
        "bottleneck_cover_table",
        "solve_with_cuts",
        "solve_lp",
        "highs",
    ),
    "simplex": ("exact_simplex",),
    "pc_tree": ("pc_tree", "coverage_tree"),
    "latency_solvers": (
        "solve_multidepot",
        "solve_kmlp_lp",
        "solve_mlp_lp",
        "solve_kmlp_combinatorial",
        "round_lp2",
        "bnslb_construction",
        "split_tree_into_k_tours",
    ),
    "exact_oracles": ("exact_kmlp", "bnslb"),
    "cli": ("main",),
}

# span name -> (module, attribute) where the original function lives, for the
# names that differ from ``<module>.<function>``.
_HOME = {"lp_toolkit.highs": ("lp_toolkit", "linprog")}

# From-import copies the program holds today. Rebinding finds copies by
# identity, so this list only checks that the search still sees them.
EXPECTED_COPIES = (
    ("latency_solvers", "pack_arborescences"),
    ("latency_solvers", "coverage_tree"),
    ("latency_solvers", "time_horizon"),
    ("exact_oracles", "bottleneck_cover_table"),
    ("cli", "evaluate_plan_detail"),
    ("cli", "time_horizon"),
    ("cli", "parse_instance"),
    ("lp_toolkit", "linprog"),
    ("lp_toolkit", "exact_simplex"),
)

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TARGETS.items() for f in fs)
_BUILDERS = ("lp1", "lp2", "lp3", "pclp")


class TracerError(RuntimeError):
    """The program no longer has a function or binding the tracer expects."""


class _ThreadState:
    """Call stack and accumulators of one thread; merged when the run ends."""

    def __init__(self, n):
        self.stack = []  # frames: [span_id, name_idx, wall0, cpu0, child_wall, child_cpu]
        self.calls = [0] * n
        self.self_wall = [0.0] * n
        self.self_cpu = [0.0] * n
        self.spans = []  # (span_id, name_idx, op_id, parent_id, wall0, wall1, cpu0, cpu1)
        self.counts = {}


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.op_id = -1
        self._names = list(SPAN_NAMES)
        self._idx = {name: i for i, name in enumerate(self._names)}
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)  # next() on a count is atomic in CPython
        self._restore = []  # (module, attr, original)
        self._wall = time.perf_counter
        self._cpu = time.thread_time

    # -- bookkeeping ---------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(len(self._names))
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def _count(self, st, key, amount=1):
        st.counts[key] = st.counts.get(key, 0) + amount

    def _enclosing(self, st, prefix, names):
        """Innermost open span among ``prefix + name`` for ``name`` in names."""
        for frame in reversed(st.stack):
            name = self._names[frame[1]]
            for n in names:
                if name == prefix + n:
                    return n
        return None

    # -- counters read from public arguments and results ---------------------

    def _before(self, st, name, args, kwargs):
        if name == "lp_toolkit.solve_lp":
            lp = args[0] if args else kwargs["lp"]
            self._count(st, "solve_lp.rows", len(lp.rows))
            self._count(st, "solve_lp.cols", len(lp.names))
            self._count(st, "solve_lp.nnz", sum(len(row[0]) for row in lp.rows))
            builder = self._enclosing(st, "lp_toolkit.build_and_solve_", _BUILDERS)
            if builder is not None:
                self._count(st, f"solve_lp.in_{builder}")
            return None
        if name == "lp_toolkit.solve_with_cuts":
            lp = args[0] if args else kwargs["lp"]
            return lp, len(lp.rows)
        if name == "lp_toolkit.build_and_solve_pclp":
            if self._enclosing(st, "pc_tree.", ("pc_tree", "coverage_tree")):
                self._count(st, "pclp.in_tree")
        return None

    def _after(self, st, name, token, result):
        if name == "lp_toolkit.solve_with_cuts":
            lp, rows0 = token
            self._count(st, "cuts", len(lp.rows) - rows0)
        elif name == "arb_packing.pack_arborescences":
            self._count(st, "arb.members", len(result.members))

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        i = self._idx[name]
        wall, cpu = self._wall, self._cpu
        needs_hook = name in (
            "lp_toolkit.solve_lp",
            "lp_toolkit.solve_with_cuts",
            "lp_toolkit.build_and_solve_pclp",
            "arb_packing.pack_arborescences",
        )
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            token = tracer._before(st, name, args, kwargs) if needs_hook else None
            parent = st.stack[-1][0] if st.stack else 0
            frame = [next(tracer._ids), i, wall(), cpu(), 0.0, 0.0]
            st.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                w1, c1 = wall(), cpu()
                st.stack.pop()
                dw, dc = w1 - frame[2], c1 - frame[3]
                st.calls[i] += 1
                st.self_wall[i] += dw - frame[4]
                st.self_cpu[i] += dc - frame[5]
                st.spans.append(
                    (frame[0], i, tracer.op_id, parent, frame[2], w1, frame[3], c1)
                )
                if st.stack:
                    st.stack[-1][4] += dw
                    st.stack[-1][5] += dc
            if needs_hook:
                tracer._after(st, name, token, result)
            return result

        return traced

    def install(self):
        modules = {m: sys.modules.get(f"{self.pkg}.{m}") for m in TARGETS}
        originals = {}
        for name in self._names:
            m, attr = _HOME.get(name, tuple(name.split(".", 1)))
            fn = getattr(modules[m], attr, None)
            if not callable(fn):
                raise TracerError(f"trace target {self.pkg}.{m}.{attr} is missing")
            originals[name] = fn
        by_id = {id(fn): name for name, fn in originals.items()}
        wrappers = {name: self._wrap(name, fn) for name, fn in originals.items()}
        for key, mod in list(sys.modules.items()):
            if mod is None or not (key == self.pkg or key.startswith(self.pkg + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                name = by_id.get(id(val))  # originals are alive, so ids are unique
                if name is not None:
                    setattr(mod, attr, wrappers[name])
                    self._restore.append((mod, attr, val))
        wrapped = {id(w) for w in wrappers.values()}
        for m, attr in EXPECTED_COPIES:
            if id(getattr(modules[m], attr, None)) not in wrapped:
                raise TracerError(f"binding {self.pkg}.{m}.{attr} is missing or not rebound")

    def uninstall(self):
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def totals(self):
        """Merged per-span-name calls/self/busy and counters over all threads."""
        n = len(self._names)
        calls, self_wall, self_cpu, counts = [0] * n, [0.0] * n, [0.0] * n, {}
        for st in self._states:
            for i in range(n):
                calls[i] += st.calls[i]
                self_wall[i] += st.self_wall[i]
                self_cpu[i] += st.self_cpu[i]
            for key, val in st.counts.items():
                counts[key] = counts.get(key, 0) + val
        per_name = {
            name: (calls[i], self_wall[i], self_cpu[i])
            for i, name in enumerate(self._names)
        }
        return per_name, counts

    def spans(self):
        """Every recorded span as a dict, ordered by span id."""
        out = []
        for st in self._states:
            for sid, i, op, parent, w0, w1, c0, c1 in st.spans:
                out.append({
                    "id": sid, "name": self._names[i], "op": op, "parent": parent,
                    "wall": w1 - w0, "cpu": c1 - c0, "start": w0,
                })
        out.sort(key=lambda s: s["id"])
        return out
