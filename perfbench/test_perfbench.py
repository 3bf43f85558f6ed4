"""Tests for the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import (  # noqa: E402
    Span,
    Tracer,
    evaluate_counter,
    evaluate_points,
    layer_metrics,
    self_time,
    traced_pool,
    union_length,
    worker_utilization,
)


def span(id, name, start, end, parent=None, thread=1, **counts):
    return Span(id, name, float(start), float(end), parent, thread, counts)


def test_union_length_merges_overlaps_and_touching_intervals():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3)]) == 3.0
    assert union_length([(1, 3), (0, 1)]) == 3.0
    assert union_length([(0, 10), (2, 3), (4, 5)]) == 10.0


def test_self_time_counts_overlapping_children_once():
    parent = span(0, "harness.run", 0, 10)
    # two worker threads: [1, 6] and [3, 8] overlap on [3, 6]
    kids = [span(1, "stats.sums", 1, 6, 0, thread=2), span(2, "stats.sums", 3, 8, 0, thread=3)]
    assert self_time(parent, kids) == pytest.approx(10 - 7)


def test_self_time_clips_children_to_the_parent_interval():
    parent = span(0, "p", 2, 6)
    kids = [span(1, "c", 0, 3, 0), span(2, "c", 5, 9, 0), span(3, "c", 7, 8, 0)]
    assert self_time(parent, kids) == pytest.approx(4 - 1 - 1)


def test_evaluate_point_formula():
    assert evaluate_points(batch=10, u_order=8, gh_order=5, dim=3) == 10 * 8 * 125
    assert evaluate_points(batch=1, u_order=32, gh_order=48, dim=1) == 32 * 48


def test_evaluate_counter_reads_batch_shape_and_need():
    class Sol:
        u_order, gh_order, dimension = 8, 10, 2

    sol = Sol()
    w = np.zeros((7, 9, 2))                                  # batch of 63 points
    counts = evaluate_counter(sol, w, ("hessian",))
    assert counts == {"batch": 63, "hessian_batch": 63, "points": 63 * 8 * 100}
    single = evaluate_counter(sol, np.zeros(2), ("gradient",))
    assert single == {"batch": 1, "hessian_batch": 0, "points": 8 * 100}


def test_evaluate_counter_matches_stein_solution_quadrature_grid():
    root = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(root))
    stein = pytest.importorskip("steinclt.stein")
    h = stein.builtin_test_functions(2)[2]
    sol = stein.SteinSolution(h, np.eye(2), gh_order=6, u_order=5)
    counts = evaluate_counter(sol, np.zeros((4, 2)))
    assert counts["points"] == 4 * sol._unodes.size * sol._znodes.shape[0]


def test_worker_utilization_on_a_synthetic_two_thread_trace():
    run = span(0, "harness.run", 0.0, 10.0)
    kids = [
        span(1, "stats.sums", 0.0, 4.0, 0, thread=2),
        span(2, "stats.sums", 4.0, 9.0, 0, thread=2),       # thread 2 busy 9 s
        span(3, "stats.sums", 0.0, 3.0, 0, thread=3),
        span(4, "stats.distance", 2.0, 5.0, 0, thread=3),    # thread 3 busy 5 s
    ]
    assert worker_utilization(run, kids, threads=2) == pytest.approx(14 / 20)


def test_layer_metrics_on_a_synthetic_trace():
    spans = [
        span(0, "cli.main", 0, 10),
        span(1, "harness.run", 0.5, 9.5, 0),
        span(2, "stats.sums", 1, 5, 1, thread=2),
        span(3, "dynamics.step", 1, 2, 2, thread=2, points=100),
        span(4, "dynamics.step", 2, 3, 2, thread=2, points=100),
        span(5, "dynamics.observable", 3, 3.5, 2, thread=2, points=200),
        span(6, "stats.sums", 2, 8, 1, thread=3),
        span(7, "dynamics.step", 2, 7, 6, thread=3, points=300),
        span(8, "stats.fit", 8.5, 9, 1),
    ]
    m = layer_metrics(spans, threads=2)
    assert m["dynamics.point_steps"] == 500
    assert m["dynamics.step_s"] == pytest.approx(7.0)
    assert m["dynamics.step_ns_per_point"] == pytest.approx(7.0e9 / 500)
    assert m["stats.sums_self_s"] == pytest.approx((4 - 2.5) + (6 - 5))
    # run children: sums [1,5] + sums [2,8] + fit [8.5,9] -> union 7.5 of 9
    assert m["harness.other_s"] == pytest.approx(9.0 - 7.5)
    assert m["harness.worker_utilization"] == pytest.approx((4 + 6 + 0.5) / (2 * 9.0))
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["stein.evaluate_points"] == 0 and m["stein.evaluate_ns_per_point"] == 0.0


def test_hessian_points_count_only_evaluate_calls_under_decompose():
    spans = [
        span(0, "sunklodas.decompose", 0, 5),
        span(1, "stein.evaluate", 1, 2, 0, batch=10, hessian_batch=10, points=1000),
        span(2, "stein.evaluate", 2, 3, 0, batch=4, hessian_batch=0, points=400),
        span(3, "stein.residual", 6, 8),
        span(4, "stein.evaluate", 6, 7, 3, batch=6, hessian_batch=6, points=600),
    ]
    m = layer_metrics(spans, threads=1)
    assert m["sunklodas.hessian_points"] == 10
    assert m["stein.evaluate_points"] == 2000
    assert m["stein.evaluate_calls"] == 3
    assert m["sunklodas.self_s"] == pytest.approx(5 - 2)


def test_tracer_links_pool_workers_to_the_submitting_span():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def leaf(x):
        barrier.wait()
        return x * 2

    traced_leaf = tracer.wrap("leaf", leaf)

    def run():
        with traced_pool(tracer)(max_workers=2) as pool:
            return list(pool.map(traced_leaf, (1, 2), timeout=10))

    assert tracer.wrap("root", run)() == [2, 4]
    root = next(s for s in tracer.spans if s.name == "root")
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 2
    assert all(s.parent == root.id for s in leaves)
    assert len({s.thread for s in leaves}) == 2
    assert len({s.id for s in tracer.spans}) == 3
