"""Tests of the benchmark's own machinery (not collected by tier-1).

    PYTHONPATH=src python3 -m pytest optbench -q -p no:cacheprovider
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from optbench import tracing, workloads  # noqa: E402
from optbench.checks import (Checks, check_run, check_trace_rows,  # noqa: E402
                             check_wmape)
from optbench.tracing import Span, Tracer, self_times  # noqa: E402
from repro.model.gtn import EMB_DIM  # noqa: E402
from repro.model.predictor import ModelSuite, TargetModels  # noqa: E402


class FakeRegressor:
    """A fixed smooth function of the knobs, as in ``tests/conftest.py``."""

    def __init__(self, kind: str, broken: bool = False):
        self.kind, self.broken = kind, broken

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        if self.broken:
            return np.full(len(X), np.nan)
        conf = X[:, EMB_DIM:EMB_DIM + 19]
        cores = conf[:, 0] + conf[:, 2]
        if self.kind == "latency":
            return 30.0 / (0.3 + cores) * (1.0 + 0.3 * np.abs(conf[:, 12] - 0.5))
        return 300.0 * (1.2 - 0.4 * conf[:, 6])


def fake_suite(broken: bool = False) -> ModelSuite:
    def tm():
        return TargetModels(FakeRegressor("latency", broken),
                            FakeRegressor("io", broken))
    return ModelSuite(subq=tm(), qs=tm(), lqp=tm())


# -- self time ----------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, "op"),
        Span("a", 1.0, 3.0, 0, "op"),      # overlaps b: union [1, 5]
        Span("b", 2.0, 5.0, 0, "op"),
        Span("c", 7.0, 12.0, 0, "op"),     # clipped to the parent: [7, 10]
        Span("a.x", 1.5, 2.5, 1, "op"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.0, 3.0, 5.0, 1.0])


def test_layer_metrics_ratios_and_zero_denominators():
    spans = [
        Span("objectives.subq_batch", 0.0, 4.0, None, "op", counts={"rows": 100}),
        Span("mlp.predict", 0.5, 1.5, 0, "op", counts={"rows": 100}),
        Span("mlp.predict", 2.0, 3.0, 0, "op", counts={"rows": 100}),
        Span("pareto.pareto_indices", 3.0, 3.5, 0, "op",
             counts={"rows": 100, "kept": 5}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["objectives.subq_batch_self_s"] == pytest.approx(1.5)
    assert m["objectives.us_per_row"] == pytest.approx(4.0 / 100 * 1e6)
    assert m["mlp.rows_per_call"] == 100
    assert m["mlp.rows_per_s"] == pytest.approx(100.0)
    assert m["hmooc.pareto_kept_per_row"] == pytest.approx(0.05)
    assert m["runtime.request_ms"] == 0.0
    assert list(m) == [name for name, _ in tracing.LAYER_METRICS]


# -- wrappers -----------------------------------------------------------------

def _targets():
    from repro import tuner
    from repro.moo import hmooc, objectives
    from repro.simspark import executor
    return [
        (tuner, "hmooc"), (tuner, "run_query"), (executor, "run_query"),
        (executor, "stage_cost"), (hmooc, "pareto_indices"),
        (objectives.CompileTimeObjectives, "subq_batch"),
        (hmooc._AGGREGATORS, "boundary"),
    ]


def _get(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_wrappers_restore_originals_even_on_error():
    before = [_get(o, a) for o, a in _targets()]
    tr = Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed(tracing.install_repro):
            assert all(_get(o, a) is not b for (o, a), b in zip(_targets(), before))
            raise RuntimeError("boom")
    assert all(_get(o, a) is b for (o, a), b in zip(_targets(), before))


def test_traced_solve_records_nested_spans():
    from repro.simspark import executor

    tr = Tracer()
    tr.op = "q6"
    with tr.installed(tracing.install_repro):
        dag, res, qc, conf = workloads.solve_op("tpch", "q6", fake_suite())()
        executor.run_query(dag, conf, aqe=True, noise_seed=1)
    names = [s.name for s in tr.spans]
    root = names.index("hmooc.hmooc")
    batch = next(s for s in tr.spans if s.name == "objectives.subq_batch")
    parent = batch
    while parent.parent is not None:
        parent = tr.spans[parent.parent]
    assert parent is tr.spans[root]
    assert batch.counts["rows"] > 0 and all(s.op == "q6" for s in tr.spans)
    assert "simspark.stage_cost" in names and "core.build_query" in names


# -- failure counting ---------------------------------------------------------

def test_good_solve_passes_checks():
    checks = Checks()
    out, dt = checks.call("solve", workloads.solve_op("tpch", "q6", fake_suite()),
                          workloads.check_solved)
    assert out is not None and dt > 0
    assert (checks.attempted, checks.failed) == (1, 0)


def test_broken_outputs_count_in_fail_frac():
    class Run:
        latency_s, cost_usd = float("nan"), 1.0

    def boom():
        raise ValueError("bad input")

    checks = Checks()
    checks.call("solve", workloads.solve_op("tpch", "q6", fake_suite(broken=True)),
                workloads.check_solved)
    checks.call("execute", Run, check_run)
    checks.call("trace", lambda: [{"kind": "subq", "feats": [0.0], "latency": 1.0,
                                   "io_mb": 1.0}], check_trace_rows)
    checks.call("fit", lambda: float("inf"), check_wmape)
    checks.call("execute", boom, check_run)
    checks.call("fit", lambda: 0.2, check_wmape)
    assert (checks.attempted, checks.failed) == (6, 5)
    assert checks.fail_frac == pytest.approx(5 / 6)
    assert any("ValueError" in e for e in checks.errors)


def test_timed_loop_runs_whole_passes():
    ctx = workloads.Context(seed=0, seconds=0.0, t_start=0.0)
    calls = []
    ops = [(i, lambda i=i: calls.append(i) or i) for i in range(3)]
    workloads.timed_loop(ctx, ops, lambda o: None, "x")
    assert sorted(calls) == [0, 1, 2] and ctx.report["passes"] == 1
    assert ctx.setup_s > 0 and len(workloads.op_times(ctx)) == 3
    assert workloads.first_pass(ctx) == {0: 0, 1: 1, 2: 2}


def test_reference_rescales_by_the_samples_around_a_time():
    from optbench.reference import REF_MS, Reference

    ref = Reference()
    ref.at = [float(i) for i in range(20)]
    ref.took = [REF_MS / 1e3] * 10 + [2 * REF_MS / 1e3] * 10
    assert ref.scale(2.0) == pytest.approx(1.0)
    assert ref.scale(18.0) == pytest.approx(0.5)
    assert ref.scale(-5.0) == pytest.approx(1.0)
    assert ref.scale_until(20.0) == pytest.approx(2 / 3)
    assert ref.scale_until(3.0) == pytest.approx(1.0)
    ref.sample(force=True)
    assert len(ref.took) == 21 and ref.took[-1] > 0
