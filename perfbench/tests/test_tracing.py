"""Span self-time arithmetic, layer metrics, and patching of the layer functions."""

import json
from pathlib import Path

import pytest

import run
import tprabi
import tprabi.sweep
import tracing
from tracing import Span


def _spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6]
    return [
        Span("cli", "cli.main", 0.0, 10.0, -1),
        Span("sweep", "sweep.run", 1.0, 4.0, 0, {"points": 7, "failed": 1}),
        Span("lapack", "solver.lapack", 2.0, 3.0, 1, {"dim": 64, "bytes": 512}),
        Span("build", "model.build", 5.0, 6.0, 0, {"bytes": 100}),
        Span("critical", "analytic", 11.0, 11.5, -1),
    ]


def test_self_time_subtracts_direct_children_only():
    assert tracing.self_times(_spans()) == [6.0, 2.0, 1.0, 1.0, 0.5]


def test_layer_metrics_add_up_to_wall_time():
    metrics = tracing.layer_metrics(_spans(), wall_s=12.0, gc_located=2)
    assert metrics["cli.other_s"] == 6.0
    assert metrics["sweep.self_s"] == 2.0
    assert metrics["solver.lapack_s"] == 1.0
    assert metrics["unattributed_s"] == pytest.approx(1.5)
    assert (metrics["sweep.points_solved"], metrics["sweep.points_per_gc"]) == (7, 3.5)
    assert (metrics["sweep.rows_failed"], metrics["solver.lapack_dim_sum"]) == (1, 64)
    assert (metrics["model.build_calls"], metrics["analytic.calls"]) == (1, 1)
    assert tracing.attributed_total(metrics) == pytest.approx(12.0)
    assert set(metrics) | {"traced_wall_s", "trace_overhead_frac"} == set(run.PER_LAYER)


def test_spans_round_trip_through_file(tmp_path):
    path = str(tmp_path / "spans.json")
    tracing.write_spans(_spans(), path)
    assert tracing.read_spans(path) == _spans()


def test_tracer_patches_callers_and_restores_them():
    original = tprabi.sweep.solve_tridiagonal
    config = tprabi.SweepConfig(
        omega0_grid=(1.0,), omega_grid=(0.5,),
        coupling_spec=tprabi.RelativeComb(steps=2, lo=0.0, hi=2.0),
        subspaces=(tprabi.SubspaceLabel(0.25, 1),), cutoff=64,
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tprabi.run_sweep(config)
    finally:
        tracer.uninstall()
    assert tprabi.sweep.solve_tridiagonal is original

    spans = tracer.spans
    kinds = [span.kind for span in spans]
    assert kinds[0] == "sweep.run" and spans[0].parent == -1
    assert kinds.count("solver.lapack") == kinds.count("model.build") == 3
    for span in spans:
        if span.kind == "solver.lapack":
            assert spans[span.parent].kind == "solver.solve"
            assert span.counts["dim"] == 64
    metrics = tracing.layer_metrics(spans, spans[0].end - spans[0].start, 1)
    assert metrics["sweep.points_solved"] == 3
    assert metrics["solver.pairs_judged"] == 3 * config.requested_eigenpairs
    assert metrics["unattributed_s"] == pytest.approx(0.0, abs=1e-12)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
