"""Tracing of the ``repro`` layers from outside, for the traced run.

The benchmark never edits the program: a :class:`Tracer` replaces public
functions and methods of the ``repro`` modules with wrappers that record a
span per call (name, start, end, parent span, operation id) plus per-call
counters, and puts every original back when the run ends.

A function must be wrapped where callers look it up. ``from x import f``
binds ``f`` in the importing module at import time, so e.g.
``repro.tuner.run_query`` and ``repro.moo.hmooc.pareto_indices`` are
wrapped in the importing module, and ``hmooc._AGGREGATORS`` is patched
entry by entry. Methods are wrapped on the class.
"""
from __future__ import annotations

import contextlib
import time
from typing import Any, Callable

import numpy as np


class Span:
    """One recorded call of a wrapped function."""

    __slots__ = ("name", "start", "end", "parent", "op", "cpu", "counts")

    def __init__(self, name: str, start: float, end: float, parent: int | None,
                 op: str, cpu: float = 0.0, counts: dict | None = None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.cpu = cpu
        self.counts = counts

    @property
    def dur(self) -> float:
        return self.end - self.start


Counter = Callable[[tuple, dict, Any], dict]


class Tracer:
    """Records spans from wrapped callables; holds them in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []

    # -- wrapping -------------------------------------------------------------
    def _wrapper(self, orig: Callable, name: str, counter: Counter | None,
                 cpu: bool) -> Callable:
        spans, stack = self.spans, self._stack
        clock, cpu_clock = time.perf_counter, time.process_time

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(idx)
            c0 = cpu_clock() if cpu else 0.0
            span.start = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                span.end = clock()
                if cpu:
                    span.cpu = cpu_clock() - c0
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, out)
            return out

        traced.__wrapped__ = orig
        return traced

    def wrap(self, owner: Any, attr: str, name: str, *,
             counter: Counter | None = None, cpu: bool = False) -> None:
        """Replace ``owner.attr`` (a module function or a class's method)."""
        if isinstance(owner, type):
            orig = owner.__dict__[attr]
        else:
            orig = getattr(owner, attr)
        setattr(owner, attr, self._wrapper(orig, name, counter, cpu))
        self._restore.append(lambda: setattr(owner, attr, orig))

    def wrap_item(self, mapping: dict, key: Any, name: str) -> None:
        """Replace one entry of a dispatch dict."""
        orig = mapping[key]
        mapping[key] = self._wrapper(orig, name, None, False)
        self._restore.append(lambda: mapping.__setitem__(key, orig))

    def restore(self) -> None:
        """Put every original back, last wrapped first."""
        while self._restore:
            self._restore.pop()()

    @contextlib.contextmanager
    def installed(self, install: Callable[["Tracer"], None]):
        """Wrap with ``install(self)`` for the block; always restore."""
        try:
            install(self)
            yield self
        finally:
            self.restore()


# -- span arithmetic ----------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.dur - covered)
    return out


# -- the repro layers ---------------------------------------------------------

def _rows_of(pos: int, key: str) -> Counter:
    def count(args, kwargs, out):
        X = kwargs[key] if key in kwargs else args[pos]
        return {"rows": int(np.atleast_2d(X).shape[0])}
    return count


def _pareto_count(args, kwargs, out):
    F = kwargs["F"] if "F" in kwargs else args[0]
    return {"rows": int(len(F)), "kept": int(len(out))}


def _trace_count(args, kwargs, out):
    return {"rows": len(out)}


def _run_query_count(args, kwargs, out):
    if kwargs.get("runtime_opt") is None:
        return None
    return {"requests": out.lqp_requests + out.qs_requests,
            "opportunities": out.lqp_request_opportunities
            + out.qs_request_opportunities}


def _lqp_count(args, kwargs, out):
    theta_p = kwargs["theta_p"] if "theta_p" in kwargs else args[4]
    return {"request": out is not None,
            "changed": out is not None and out != theta_p}


def _qs_count(args, kwargs, out):
    conf = kwargs["conf"] if "conf" in kwargs else args[4]
    return {"request": out is not None,
            "changed": out is not None
            and out != {"s10": conf["s10"], "s11": conf["s11"]}}


def install_repro(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro import tuner
    from repro.core import plan, workloads
    from repro.experiments import common
    from repro.model import gtn, mlp, predictor, traces
    from repro.moo import hmooc, objectives
    from repro.runtime import optimizer
    from repro.simspark import executor

    w = tracer.wrap
    for mod in (workloads, traces):
        w(mod, "build_query", "core.build_query")
    for mod in (plan, traces):
        w(mod, "partition_subqs", "core.partition_subqs")
    w(objectives.CompileTimeObjectives, "__init__", "objectives.init")
    w(objectives.CompileTimeObjectives, "subq_batch", "objectives.subq_batch",
      counter=_rows_of(2, "U_full"))
    w(tuner, "hmooc", "hmooc.hmooc", cpu=True)
    w(hmooc, "generate_effective_set", "hmooc.effective_set")
    w(hmooc, "pareto_indices", "pareto.pareto_indices", counter=_pareto_count)
    for key in list(hmooc._AGGREGATORS):
        tracer.wrap_item(hmooc._AGGREGATORS, key, "hmooc.aggregate")
    w(tuner, "submit_conf", "tuner.submit_conf")
    w(mlp.MLPRegressor, "predict", "mlp.predict", counter=_rows_of(1, "X"))
    w(mlp.MLPRegressor, "fit", "mlp.fit", counter=_rows_of(1, "X"))
    w(gtn.GTNEmbedder, "embed", "gtn.embed")
    for fn in ("subq_feature_rows", "qs_feature_rows", "lqp_feature_rows"):
        w(predictor, fn, "predictor.feature_rows")
    w(predictor, "stage_derived", "predictor.stage_derived")
    w(traces, "trace_rows", "traces.trace_rows", counter=_trace_count)
    for mod in (executor, tuner, traces):
        w(mod, "run_query", "simspark.run_query", counter=_run_query_count)
    w(executor, "stage_cost", "simspark.stage_cost")
    w(optimizer.OnlineOptimizer, "__init__", "runtime.init")
    w(optimizer.OnlineOptimizer, "on_collapsed_lqp", "runtime.lqp",
      counter=_lqp_count)
    w(optimizer.OnlineOptimizer, "on_query_stage", "runtime.qs",
      counter=_qs_count)
    w(common, "train_suite", "common.train_suite")


# (metric name, unit) in report order; values come from layer_metrics.
LAYER_METRICS = [
    ("mlp.predict_calls", "count"), ("mlp.predict_rows", "count"),
    ("mlp.predict_s", "s"), ("mlp.rows_per_s", "rows/s"),
    ("mlp.rows_per_call", "rows"),
    ("objectives.init_ms", "ms"), ("objectives.subq_batch_calls", "count"),
    ("objectives.subq_batch_rows", "count"),
    ("objectives.subq_batch_self_s", "s"), ("objectives.us_per_row", "us"),
    ("hmooc.calls", "count"), ("hmooc.wall_s", "s"), ("hmooc.cpu_s", "s"),
    ("hmooc.self_s", "s"), ("hmooc.effective_set_s", "s"),
    ("hmooc.aggregate_s", "s"), ("pareto.calls", "count"), ("pareto.s", "s"),
    ("hmooc.pareto_kept_per_row", "fraction"),
    ("gtn.embed_calls", "count"), ("gtn.embed_s", "s"),
    ("gtn.ms_per_embed", "ms"), ("predictor.feature_rows_s", "s"),
    ("predictor.stage_derived_s", "s"),
    ("traces.trace_rows_calls", "count"), ("traces.rows_emitted", "count"),
    ("traces.ms_per_run", "ms"),
    ("simspark.run_query_calls", "count"), ("simspark.run_query_ms", "ms"),
    ("simspark.stage_cost_calls", "count"), ("simspark.stage_cost_us", "us"),
    ("runtime.init_ms", "ms"), ("runtime.lqp_calls", "count"),
    ("runtime.lqp_requests", "count"), ("runtime.qs_calls", "count"),
    ("runtime.qs_requests", "count"), ("runtime.request_ms", "ms"),
    ("runtime.prune_rate", "fraction"),
    ("runtime.changed_per_request", "fraction"),
    ("mlp.fit_s", "s"), ("mlp.fit_rows", "count"),
    ("common.train_suite_s", "s"),
    ("core.build_ms", "ms"), ("tuner.submit_conf_ms", "ms"),
]


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals, rates and ratios over all recorded spans."""
    selfs = self_times(spans)
    n: dict[str, int] = {}
    tot: dict[str, float] = {}
    own: dict[str, float] = {}
    cnt: dict[str, float] = {}
    cpu: dict[str, float] = {}
    for s, st in zip(spans, selfs):
        n[s.name] = n.get(s.name, 0) + 1
        tot[s.name] = tot.get(s.name, 0.0) + s.dur
        own[s.name] = own.get(s.name, 0.0) + st
        cpu[s.name] = cpu.get(s.name, 0.0) + s.cpu
        for k, v in (s.counts or {}).items():
            key = f"{s.name}:{k}"
            cnt[key] = cnt.get(key, 0.0) + float(v)

    def c(name):
        return n.get(name, 0)

    def t(name):
        return tot.get(name, 0.0)

    def k(name):
        return cnt.get(name, 0.0)

    requests = k("runtime.lqp:request") + k("runtime.qs:request")
    m = {
        "mlp.predict_calls": c("mlp.predict"),
        "mlp.predict_rows": k("mlp.predict:rows"),
        "mlp.predict_s": t("mlp.predict"),
        "mlp.rows_per_s": _div(k("mlp.predict:rows"), t("mlp.predict")),
        "mlp.rows_per_call": _div(k("mlp.predict:rows"), c("mlp.predict")),
        "objectives.init_ms": 1e3 * _div(t("objectives.init"), c("objectives.init")),
        "objectives.subq_batch_calls": c("objectives.subq_batch"),
        "objectives.subq_batch_rows": k("objectives.subq_batch:rows"),
        "objectives.subq_batch_self_s": own.get("objectives.subq_batch", 0.0),
        "objectives.us_per_row": 1e6 * _div(t("objectives.subq_batch"),
                                            k("objectives.subq_batch:rows")),
        "hmooc.calls": c("hmooc.hmooc"),
        "hmooc.wall_s": t("hmooc.hmooc"),
        "hmooc.cpu_s": cpu.get("hmooc.hmooc", 0.0),
        "hmooc.self_s": own.get("hmooc.hmooc", 0.0),
        "hmooc.effective_set_s": t("hmooc.effective_set"),
        "hmooc.aggregate_s": t("hmooc.aggregate"),
        "pareto.calls": c("pareto.pareto_indices"),
        "pareto.s": t("pareto.pareto_indices"),
        "hmooc.pareto_kept_per_row": _div(k("pareto.pareto_indices:kept"),
                                          k("pareto.pareto_indices:rows")),
        "gtn.embed_calls": c("gtn.embed"),
        "gtn.embed_s": t("gtn.embed"),
        "gtn.ms_per_embed": 1e3 * _div(t("gtn.embed"), c("gtn.embed")),
        "predictor.feature_rows_s": t("predictor.feature_rows"),
        "predictor.stage_derived_s": t("predictor.stage_derived"),
        "traces.trace_rows_calls": c("traces.trace_rows"),
        "traces.rows_emitted": k("traces.trace_rows:rows"),
        "traces.ms_per_run": 1e3 * _div(t("traces.trace_rows"), c("traces.trace_rows")),
        "simspark.run_query_calls": c("simspark.run_query"),
        "simspark.run_query_ms": 1e3 * _div(t("simspark.run_query"),
                                            c("simspark.run_query")),
        "simspark.stage_cost_calls": c("simspark.stage_cost"),
        "simspark.stage_cost_us": 1e6 * _div(t("simspark.stage_cost"),
                                             c("simspark.stage_cost")),
        "runtime.init_ms": 1e3 * _div(t("runtime.init"), c("runtime.init")),
        "runtime.lqp_calls": c("runtime.lqp"),
        "runtime.lqp_requests": k("runtime.lqp:request"),
        "runtime.qs_calls": c("runtime.qs"),
        "runtime.qs_requests": k("runtime.qs:request"),
        "runtime.request_ms": 1e3 * _div(t("runtime.lqp") + t("runtime.qs"), requests),
        "runtime.prune_rate": (1.0 - _div(k("simspark.run_query:requests"),
                                          k("simspark.run_query:opportunities"))
                               if k("simspark.run_query:opportunities") else 0.0),
        "runtime.changed_per_request": _div(
            k("runtime.lqp:changed") + k("runtime.qs:changed"), requests),
        "mlp.fit_s": t("mlp.fit"),
        "mlp.fit_rows": k("mlp.fit:rows"),
        "common.train_suite_s": t("common.train_suite"),
        "core.build_ms": 1e3 * _div(t("core.build_query") + t("core.partition_subqs"),
                                    c("core.build_query")),
        "tuner.submit_conf_ms": 1e3 * _div(t("tuner.submit_conf"),
                                           c("tuner.submit_conf")),
    }
    return {name: float(m[name]) for name, _ in LAYER_METRICS}
