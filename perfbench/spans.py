"""Span tracing around the calls into each mc4 layer, from outside the program.

The tracer replaces public functions under the names the calling module looks
them up by (``mc4.cli.parse_network``, ``mc4.solvers.classify``, ...) with
wrappers that record a span: name, start, end, parent span and operation id.
Spans stay in memory and are written out when the benchmark ends.  The two
hot leaves, ``parse_relation`` and ``format_relation``, run once per file
line; their calls are folded into one (count, total time) record per parent
span instead of one span each, which keeps memory flat.

A layer's self time is its span's duration minus the part its child spans
cover.  The folded wrapper's own work (a Python call and a dict update per
call) falls partly outside the window it times, where it would land in the
parent's self time, and partly inside, where it would land in the leaf's.
``leaf_overhead`` measures both parts once per process on a no-op; count
times each cost is taken off the parent and the leaf and booked as tracer
time.
``mc4.rcc5`` is not traced: no workload calls it.  Targets that a later
version of the program no longer has are listed as absent and their metrics
read 0.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass, field

ROOT = -1

# (span name, module, attribute path, folded leaf?)
TARGETS = (
    ("cli.parse_network", "mc4.cli", "parse_network", False),
    ("cli.solve", "mc4.cli", "solve", False),
    ("cli.random_network", "mc4.cli", "random_network", False),
    ("cli.serialize_network", "mc4.cli", "serialize_network", False),
    ("solvers.classify", "mc4.solvers", "classify", False),
    ("solvers.path_consistency", "mc4.solvers", "path_consistency", False),
    ("solvers.to_gadget_m99", "mc4.solvers", "to_gadget_m99", False),
    ("solvers.to_gadget_m81", "mc4.solvers", "to_gadget_m81", False),
    ("solvers.detect_m99", "mc4.solvers", "detect_m99", False),
    ("solvers.detect_m81", "mc4.solvers", "detect_m81", False),
    ("solvers.solve_backtracking", "mc4.solvers", "solve_backtracking", False),
    ("network.relation_profile", "mc4.network", "ConstraintNetwork.relation_profile", False),
    ("network.parse_relation", "mc4.network", "parse_relation", True),
    ("network.format_relation", "mc4.network", "format_relation", True),
)

# Per-layer metric -> spans whose inclusive ("incl") or self ("self") time
# it sums.  cli.read_s and cli.render_s are the operation's own time before
# the first and after the last top-level span; no span covers them, so they
# count towards trace.unaccounted_share.
TIME_METRICS = {
    "network.parse_s": ("self", ("cli.parse_network",)),
    "algebra.parse_relation_s": ("incl", ("network.parse_relation",)),
    "network.serialize_s": ("self", ("cli.serialize_network",)),
    "network.generate_s": ("incl", ("cli.random_network",)),
    "algebra.format_relation_s": ("incl", ("network.format_relation",)),
    "network.profile_s": ("incl", ("network.relation_profile",)),
    "subalgebra.classify_s": ("incl", ("solvers.classify",)),
    "solvers.dispatch_s": ("self", ("cli.solve",)),
    "solvers.gadget_s": ("incl", ("solvers.to_gadget_m99", "solvers.to_gadget_m81")),
    "solvers.decide_s": ("incl", ("solvers.detect_m99", "solvers.detect_m81")),
    "network.pc_s": ("incl", ("solvers.path_consistency",)),
    "solvers.search_self_s": ("self", ("solvers.solve_backtracking",)),
}
COUNT_METRICS = {
    "algebra.parse_relation_calls": "network.parse_relation",
    "algebra.format_relation_calls": "network.format_relation",
    "network.pc_calls": "solvers.path_consistency",
}
GADGET_METRICS = (
    "solvers.gadget_vertices",
    "solvers.gadget_aux_vertices",
    "solvers.leq_arcs",
    "solvers.eqx_edges",
    "solvers.nle_edges",
)


def _gadget_counts(g) -> dict[str, int]:
    n_total = getattr(g, "n_total", None)
    n_base = getattr(g, "n_base", None)
    counts = {}
    if n_total is not None:
        counts["solvers.gadget_vertices"] = int(n_total)
        if n_base is not None:
            counts["solvers.gadget_aux_vertices"] = int(n_total - n_base)
    for metric, attr in (
        ("solvers.leq_arcs", "leq"),
        ("solvers.eqx_edges", "eqx"),
        ("solvers.nle_edges", "nle"),
    ):
        arr = getattr(g, attr, None)
        if arr is not None:
            counts[metric] = int(len(arr))
    return counts


@dataclass
class OpTrace:
    op: int
    start: float
    end: float = 0.0
    output_bytes: int = 0
    input_bytes: int = 0
    spans: list[tuple[int, int, str, float, float]] = field(default_factory=list)
    leaves: dict[tuple[int, str], list] = field(default_factory=dict)
    gadget: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Installs span-recording wrappers around mc4's layer entry points."""

    def __init__(self) -> None:
        self.ops: list[OpTrace] = []
        self.absent: list[str] = []
        self._current: OpTrace | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        for name, module, path, leaf in TARGETS:
            owner = importlib.import_module(module)
            *prefix, attr = path.split(".")
            try:
                for part in prefix:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except AttributeError:
                self.absent.append(name)
                continue
            on_result = self._record_gadget if "to_gadget" in name else None
            wrapper = self._leaf(name, fn) if leaf else self._span(name, fn, on_result)
            self._saved.append((owner, attr, fn))
            self._wrappers.append((owner, attr, wrapper))

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, on_result):
        def wrapper(*args, **kwargs):
            op = self._current
            if op is None:
                return fn(*args, **kwargs)
            sid = len(op.spans)
            parent = self._stack[-1] if self._stack else ROOT
            op.spans.append(None)  # reserve the id so children see it
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                op.spans[sid] = (sid, parent, name, t0, t1)
            if on_result is not None:
                on_result(op, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        def wrapper(*args, **kwargs):
            op = self._current
            if op is None:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                key = (self._stack[-1] if self._stack else ROOT, name)
                rec = op.leaves.get(key)
                if rec is None:
                    op.leaves[key] = [1, dt]
                else:
                    rec[0] += 1
                    rec[1] += dt

        return wrapper

    def leaf_overhead(self, calls: int = 50_000) -> tuple[float, float]:
        """Seconds per call the folded leaf wrapper adds, measured on a no-op
        (medians of five repeats): outside the window it times, and inside that
        window beyond what a bare call of the function costs."""
        def noop():
            return None

        wrapper = self._leaf("calibration", noop)
        outside, inside = [], []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - t0
            t0 = time.perf_counter()
            for _ in range(calls):
                pass
            loop = time.perf_counter() - t0
            self._current = op = OpTrace(-1, 0.0)
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapper()
            total = time.perf_counter() - t0
            window = op.leaves[(ROOT, "calibration")][1]
            outside.append((total - window - loop) / calls)
            inside.append((window - (bare - loop)) / calls)
        self._current = None
        return max(0.0, statistics.median(outside)), max(0.0, statistics.median(inside))

    @staticmethod
    def _record_gadget(op: OpTrace, graph) -> None:
        op.gadget = _gadget_counts(graph)

    # -- operation lifecycle ----------------------------------------------

    def install(self) -> None:
        for owner, attr, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in self._saved:
            setattr(owner, attr, fn)

    def begin(self, op_id: int, input_bytes: int) -> None:
        """Install the wrappers and open operation op_id; the caller starts
        its clock after this returns."""
        self.install()
        self._stack.clear()
        self._current = OpTrace(op_id, 0.0, input_bytes=input_bytes)

    def end(self, start: float, end: float, output_bytes: int) -> None:
        """Close the operation the caller timed from start to end."""
        op = self._current
        op.start, op.end, op.output_bytes = start, end, output_bytes
        self._current = None
        self.uninstall()
        self.ops.append(op)

    def dump(self) -> dict:
        """Every recorded span, JSON-ready, times relative to their op start."""
        return {
            "absent": self.absent,
            "ops": [
                {
                    "op": op.op,
                    "wall_s": op.end - op.start,
                    "spans": [
                        [sid, parent, name, t0 - op.start, t1 - op.start]
                        for sid, parent, name, t0, t1 in op.spans
                    ],
                    "leaves": [
                        [parent, name, count, total]
                        for (parent, name), (count, total) in op.leaves.items()
                    ],
                }
                for op in self.ops
            ],
        }


def op_metrics(op: OpTrace, leaf_cost: tuple[float, float] = (0.0, 0.0)) -> dict[str, float]:
    """Per-layer metrics of one traced operation.  leaf_cost is the folded
    wrapper's per-call overhead outside and inside its timed window
    (``Tracer.leaf_overhead``); it is taken off the parent span's self time
    and the leaf's time, and reported as trace.leaf_overhead_s."""
    outside, inside = leaf_cost
    wall = op.end - op.start
    incl: dict[str, float] = {}
    self_t: dict[str, float] = {}
    count: dict[str, int] = {}
    covered: dict[int, float] = {}
    wrapper_s = 0.0
    for sid, parent, name, t0, t1 in op.spans:
        covered[parent] = covered.get(parent, 0.0) + (t1 - t0)
    for (parent, name), (n, total) in op.leaves.items():
        covered[parent] = covered.get(parent, 0.0) + total + n * outside
        wrapper_s += n * (outside + inside)
        incl[name] = incl.get(name, 0.0) + max(0.0, total - n * inside)
        self_t[name] = incl[name]
        count[name] = count.get(name, 0) + n
    for sid, parent, name, t0, t1 in op.spans:
        incl[name] = incl.get(name, 0.0) + (t1 - t0)
        self_t[name] = self_t.get(name, 0.0) + (t1 - t0) - covered.get(sid, 0.0)
        count[name] = count.get(name, 0) + 1

    out: dict[str, float] = {}
    for metric, (kind, names) in TIME_METRICS.items():
        src = incl if kind == "incl" else self_t
        out[metric] = sum(src.get(name, 0.0) for name in names)
    for metric, name in COUNT_METRICS.items():
        out[metric] = count.get(name, 0)
    for metric in GADGET_METRICS:
        out[metric] = op.gadget.get(metric, 0)

    top = [s for s in op.spans if s[1] == ROOT]
    top_leaf = covered.get(ROOT, 0.0) - sum(s[4] - s[3] for s in top)
    if top:
        out["cli.read_s"] = min(s[3] for s in top) - op.start
        out["cli.render_s"] = op.end - max(s[4] for s in top)
    else:
        out["cli.read_s"] = wall - top_leaf
        out["cli.render_s"] = 0.0
    out["cli.output_bytes"] = op.output_bytes
    parse = incl.get("cli.parse_network", 0.0)
    out["network.parse_mb_per_s"] = op.input_bytes / 1e6 / parse if parse > 0 else 0.0
    out["trace.leaf_overhead_s"] = wrapper_s
    out["trace.unaccounted_share"] = (wall - covered.get(ROOT, 0.0)) / wall
    return out


# Layer of each time metric, for the share-of-operation report.
LAYER_OF = {metric: metric.split(".", 1)[0] for metric in TIME_METRICS}
LAYER_OF["cli.read_s"] = "cli"
LAYER_OF["cli.render_s"] = "cli"


LAYER_OF["trace.leaf_overhead_s"] = "tracer"


def layer_shares(per_op: list[dict[str, float]], walls: list[float]) -> dict[str, float]:
    """Each layer's share of total traced operation time (the tracer's own
    leaf-wrapper time apart), plus 'other': time between top-level spans,
    and span-wrapper work."""
    total = sum(walls)
    shares: dict[str, float] = {}
    for metric, layer in LAYER_OF.items():
        shares[layer] = shares.get(layer, 0.0) + sum(m[metric] for m in per_op) / total
    shares["other"] = 1.0 - sum(shares.values())
    return shares


def summarize(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median of every per-operation metric."""
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
