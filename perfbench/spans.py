"""In-memory spans recorded around steinclt's public functions, and the
arithmetic that turns a list of spans into per-layer metrics.

The tracer patches names from outside the package: a module attribute is
replaced where its caller looks it up (`steinclt.harness.decompose`, not
`steinclt.sunklodas.decompose`, because harness binds the name at import),
and a method is replaced on its class.  Nothing under `src/` changes.
"""
from __future__ import annotations

import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return asdict(self)


class Tracer:
    """Records spans with their parent and thread; safe to use from threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name: str, fn, args, kwargs, counter=None):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = self.current()
        counts = counter(*args, **kwargs) if counter is not None else {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, name, start, end, parent, threading.get_ident(), counts)
            with self._lock:
                self.spans.append(span)

    def adopt(self, parent: int | None, fn, *args, **kwargs):
        """Run fn in this thread as if called under span `parent` (for pools)."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced


# --- work counters, computed from each call's arguments -------------------

def points_counter(self, *args) -> dict:
    """Orbit points in the last positional argument (apply_param, Observable)."""
    return {"points": int(np.size(args[-1]))}


def evaluate_points(batch: int, u_order: int, gh_order: int, dim: int) -> int:
    """Quadrature points one SteinSolution.evaluate call visits.

    Every batch point is paired with every Gauss-Legendre u-node and every
    node of the tensor Gauss-Hermite rule (gh_order per axis).
    """
    return batch * u_order * gh_order**dim


def evaluate_counter(self, w, need=("value", "gradient", "hessian")) -> dict:
    shape = np.shape(w)
    batch = 1 if len(shape) == 1 else int(np.prod(shape[:-1]))
    return {
        "batch": batch,
        "hessian_batch": batch if "hessian" in need else 0,
        "points": evaluate_points(batch, self.u_order, self.gh_order, self.dimension),
    }


def traced_pool(tracer: Tracer):
    """A ThreadPoolExecutor whose workers run under the submitting thread's span."""

    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

    return TracedPool


def install(tracer: Tracer) -> None:
    """Patch steinclt's public functions so each call records a span."""
    import steinclt.cli as cli
    import steinclt.dynamics as dynamics
    import steinclt.harness as harness
    import steinclt.stein as stein

    def patch(owner, attr, name, counter=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), counter))

    patch(dynamics.LsvFamily, "apply_param", "dynamics.step", points_counter)
    patch(dynamics.ShiftedSlopeFamily, "apply_param", "dynamics.step", points_counter)
    patch(dynamics.Observable, "__call__", "dynamics.observable", points_counter)
    patch(harness, "birkhoff_raw_sums", "stats.sums")
    patch(harness, "build_ensemble", "stats.sums")
    patch(harness, "normalize_sums", "stats.normalize")
    for attr in ("wasserstein1_1d", "sliced_wasserstein", "smooth_metric_distance"):
        patch(harness, attr, "stats.distance")
    patch(harness, "fit_rate", "stats.fit")
    patch(stein.SteinSolution, "__init__", "stein.solution_init")
    patch(stein.SteinSolution, "evaluate", "stein.evaluate", evaluate_counter)
    patch(harness, "stein_residual", "stein.residual")
    patch(harness, "derivative_bound_check", "stein.bound_check")
    patch(harness, "decompose", "sunklodas.decompose")
    for attr in ("run_rates", "run_decompose", "run_stein_check"):
        patch(cli, attr, "harness.run")
    harness.ThreadPoolExecutor = traced_pool(tracer)


# --- arithmetic on recorded spans ------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children) -> float:
    """Duration of `span` minus the part of it that its children cover.

    Children may overlap one another (two worker threads under one parent);
    the union counts shared time once.
    """
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - union_length(clipped)


def children_of(spans) -> dict:
    out: dict = {}
    for s in spans:
        out.setdefault(s.parent, []).append(s)
    return out


def has_ancestor(span: Span, name: str, by_id: dict) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False


def worker_utilization(run: Span, children, threads: int) -> float:
    """Busy share of the worker capacity during one harness run.

    Busy time is, per thread, the union of the run's direct child spans in
    that thread; the capacity is threads x the run's wall time.
    """
    per_thread: dict = {}
    for c in children:
        per_thread.setdefault(c.thread, []).append((c.start, c.end))
    busy = sum(union_length(iv) for iv in per_thread.values())
    return busy / (threads * run.duration)


def _ns_per(seconds: float, count: int) -> float:
    return seconds * 1e9 / count if count else 0.0


LAYER_UNITS = {
    "dynamics.point_steps": "count",
    "dynamics.step_s": "s",
    "dynamics.step_ns_per_point": "ns",
    "dynamics.observable_points": "count",
    "dynamics.observable_s": "s",
    "dynamics.observable_ns_per_point": "ns",
    "stats.sums_self_s": "s",
    "stats.normalize_s": "s",
    "stats.distance_s": "s",
    "stats.fit_s": "s",
    "stein.evaluate_calls": "count",
    "stein.evaluate_points": "count",
    "stein.evaluate_s": "s",
    "stein.evaluate_ns_per_point": "ns",
    "stein.solution_init_s": "s",
    "stein.residual_s": "s",
    "stein.bound_check_s": "s",
    "sunklodas.decompose_s": "s",
    "sunklodas.self_s": "s",
    "sunklodas.hessian_points": "count",
    "harness.worker_utilization": "ratio",
    "harness.other_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.spans": "count",
}


def layer_metrics(spans, threads: int) -> dict:
    """Per-layer metrics of one traced `cli.main` call.

    A layer that does not run in the call reports 0.
    """
    kids = children_of(spans)
    by_id = {s.id: s for s in spans}

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return float(sum(s.duration for s in named(name)))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    def total_self(name):
        return float(sum(self_time(s, kids.get(s.id, [])) for s in named(name)))

    step_s, step_points = total("dynamics.step"), count("dynamics.step", "points")
    obs_s, obs_points = total("dynamics.observable"), count("dynamics.observable", "points")
    eval_s, eval_points = total("stein.evaluate"), count("stein.evaluate", "points")
    runs = named("harness.run")
    util = [worker_utilization(r, kids.get(r.id, []), threads) for r in runs]
    hessian_points = sum(
        s.counts.get("hessian_batch", 0)
        for s in named("stein.evaluate")
        if has_ancestor(s, "sunklodas.decompose", by_id)
    )
    return {
        "dynamics.point_steps": step_points,
        "dynamics.step_s": step_s,
        "dynamics.step_ns_per_point": _ns_per(step_s, step_points),
        "dynamics.observable_points": obs_points,
        "dynamics.observable_s": obs_s,
        "dynamics.observable_ns_per_point": _ns_per(obs_s, obs_points),
        "stats.sums_self_s": total_self("stats.sums"),
        "stats.normalize_s": total("stats.normalize"),
        "stats.distance_s": total("stats.distance"),
        "stats.fit_s": total("stats.fit"),
        "stein.evaluate_calls": len(named("stein.evaluate")),
        "stein.evaluate_points": eval_points,
        "stein.evaluate_s": eval_s,
        "stein.evaluate_ns_per_point": _ns_per(eval_s, eval_points),
        "stein.solution_init_s": total("stein.solution_init"),
        "stein.residual_s": total("stein.residual"),
        "stein.bound_check_s": total("stein.bound_check"),
        "sunklodas.decompose_s": total("sunklodas.decompose"),
        "sunklodas.self_s": total_self("sunklodas.decompose"),
        "sunklodas.hessian_points": hessian_points,
        "harness.worker_utilization": sum(util) / len(util) if util else 0.0,
        "harness.other_s": total_self("harness.run"),
        "cli.self_s": total_self("cli.main"),
        "trace.wall_s": total("cli.main"),
        "trace.spans": len(spans),
    }
