"""The three OPT benchmark workloads.

Each is a closed loop with one client: the next operation starts when the
previous one returns, in this thread. A workload fixes a list of
operations from its seed and runs it in whole passes, each pass in a fresh
seeded order; a new pass starts while fewer than ``seconds`` have elapsed,
so every operation weighs the same in every run. Times are rescaled to a
box of fixed speed (see ``optbench.reference``); raw ones stay in the
report.

Set-up builds everything from source: seeded traces from ``trace_rows``
and the six MLPs at the shipped width, with no cached artifact.

* ``compile-tpcds`` — one operation is one compile-time solve of a TPC-DS
  query: DAG, objectives, HMOOC3, WUN pick, submitted configuration.
* ``adapt-tpch`` — one operation constructs the runtime plugin and runs one
  AQE-driven simulated execution of a precompiled TPC-H recommendation.
* ``traces-train`` — one operation is one ``trace_rows`` call; the first
  pass's traces then train the six MLPs.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import pandas as pd

from optbench.checks import (Checks, check_run, check_solve, check_trace_rows,
                             check_wmape)
from optbench.reference import Reference
from optbench.tracing import Tracer
from repro import tuner
from repro.core import plan, workloads
from repro.experiments import common
from repro.model import traces
from repro.model.predictor import eval_metrics
from repro.moo import objectives
from repro.params import default_conf
from repro.runtime import optimizer
from repro.simspark import executor

WEIGHTS = (0.9, 0.1)  # the paper's strong speed preference (Table 4)
# Trace grid per benchmark: every template, one variant, this many LHS
# configurations. Sized so set-up stays a few seconds.
TRACE_CONFS = {"tpcds": 6, "tpch": 8}
# adapt-tpch runs each TPC-H query under this many noise seeds per pass.
NOISE_SEEDS = 10

# Units of the named figures in a run's report.
REPORT_UNITS = {
    "n_solves": "count", "solve_p50_s": "s", "solve_p90_s": "s",
    "solve_max_s": "s", "solve_cov1s": "fraction", "solve_cpu_p50_s": "s",
    "h3_lat_red": "fraction", "n_adapts": "count", "adapt_ms_p50": "ms",
    "adapt_ms_p90": "ms", "h3p_lat_red": "fraction", "h3p_cost_rel": "ratio",
    "n_trace_runs": "count", "trace_runs_per_s": "runs/s", "train_s": "s",
    "subq_lat_wmape": "fraction", "setup_s": "s", "peak_rss_mb": "MB",
    "fail_frac": "fraction", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ops_per_s": "1/s", "passes": "count", "op_raw_p50_ms": "ms",
    "op_raw_p90_ms": "ms", "setup_raw_s": "s", "ref_ms": "ms",
}


@dataclass
class Op:
    """One timed execution of an operation and its outcome."""

    pass_no: int
    key: Any
    fn: Callable[[], Any]
    out: Any
    at: float
    wall_s: float
    cpu_s: float
    scale: float = 1.0  # to reference speed, from the kernel runs around it


@dataclass
class Context:
    """What one benchmark run shares between set-up, loop and report."""

    seed: int
    seconds: float
    t_start: float
    checks: Checks = field(default_factory=Checks)
    tracer: Tracer | None = None
    ref: Reference = field(default_factory=Reference)
    setup_raw_s: float = 0.0
    setup_s: float = 0.0
    ops: list[Op] = field(default_factory=list)
    report: dict = field(default_factory=dict)


def timed_loop(ctx: Context, ops: list[tuple[Any, Callable]],
               check: Callable[[Any], str | None], what: str) -> None:
    """Run ``ops`` in whole passes for ``ctx.seconds``, sampling the
    reference kernel between them; record and rescale set-up time."""
    rng = np.random.default_rng(ctx.seed)
    t0 = time.perf_counter()
    ctx.setup_raw_s = t0 - ctx.t_start
    p = 0
    while p == 0 or time.perf_counter() - t0 < ctx.seconds:
        ctx.ref.sample(force=True)
        for i in rng.permutation(len(ops)):
            key, fn = ops[i]
            if ctx.tracer is not None:
                ctx.tracer.op = f"{what}:{p}:{key}"
            at, c0 = time.perf_counter(), time.process_time()
            out, dt = ctx.checks.call(what, fn, check)
            ctx.ops.append(Op(p, key, fn, out, at, dt, time.process_time() - c0))
            ctx.ref.sample()
        p += 1
    if ctx.tracer is not None:
        ctx.tracer.op = "tail"
    for o in ctx.ops:
        o.scale = ctx.ref.scale(o.at)
    ctx.setup_s = ctx.setup_raw_s * ctx.ref.scale_until(t0)
    ctx.report["passes"] = p


def op_times(ctx: Context, *, raw: bool = False) -> np.ndarray:
    """Seconds of every successful timed operation, rescaled unless ``raw``."""
    return np.array([o.wall_s * (1.0 if raw else o.scale)
                     for o in ctx.ops if o.out is not None])


def first_pass(ctx: Context) -> dict:
    """Outputs of the first pass's successful operations, by key."""
    return {o.key: o.out for o in ctx.ops if o.pass_no == 0 and o.out is not None}


# -- shared building blocks ---------------------------------------------------

def trace_grid(benchmark: str, seed: int) -> list:
    grid = traces.task_grid(benchmark, workloads.benchmark_queries(benchmark),
                            1, TRACE_CONFS[benchmark], seed=seed)
    return list(grid.itertuples(index=False))


def trace_op(rec) -> Callable[[], list[dict]]:
    return lambda: traces.trace_rows(rec.benchmark, rec.template, int(rec.variant),
                                     json.loads(rec.conf_json), int(rec.conf_id))


def fit(ctx: Context, rows: list[dict]):
    """Train the six MLPs; record ``train_s`` and the held-out subQ WMAPE."""
    df = pd.DataFrame(rows)

    def train():
        t0 = time.perf_counter()
        suite = common.train_suite(df, hidden=common.HIDDEN)
        train_s = time.perf_counter() - t0
        _, _, (Xte, y_lat, _) = traces.split_traces(df, "subq")
        wmape = eval_metrics(y_lat, suite.subq.latency.predict(Xte))["wmape"]
        return suite, train_s, wmape

    out, _ = ctx.checks.call("fit", train, lambda o: check_wmape(o[2]))
    if out is None:
        return None
    suite, ctx.report["train_s"], ctx.report["subq_lat_wmape"] = out
    return suite


def setup_models(ctx: Context, benchmark: str):
    rows: list[dict] = []
    for rec in trace_grid(benchmark, ctx.seed):
        out, _ = ctx.checks.call("trace", trace_op(rec), check_trace_rows)
        rows.extend(out or ())
        ctx.ref.sample()
    suite = fit(ctx, rows)
    ctx.ref.sample(force=True)
    return suite


def solve_op(benchmark: str, query: str, suite) -> Callable[[], tuple]:
    """DAG → objectives → HMOOC3 → WUN pick → submitted configuration."""
    def solve():
        dag = plan.partition_subqs(workloads.build_query(benchmark, query))
        obj = objectives.CompileTimeObjectives(dag, suite)
        res, _ = tuner.compile_hmooc3(dag, suite, objectives=obj)
        _, qc = res.recommend(WEIGHTS)
        return dag, res, qc, tuner.submit_conf(qc, dag)
    return solve


def check_solved(out) -> str | None:
    return check_solve(out[1], out[3])


def execute(ctx: Context, dag, conf: dict, noise: int):
    run, _ = ctx.checks.call(
        "execute", lambda: executor.run_query(dag, conf, aqe=True, noise_seed=noise),
        check_run)
    return run


# -- workloads ----------------------------------------------------------------

def compile_tpcds(ctx: Context) -> None:
    queries = workloads.benchmark_queries("tpcds")
    suite = setup_models(ctx, "tpcds")
    timed_loop(ctx, [(q, solve_op("tpcds", q, suite)) for q in queries],
               check_solved, "solve")
    t = op_times(ctx)
    cpu = [o.cpu_s * o.scale for o in ctx.ops if o.out is not None]
    solved = first_pass(ctx)
    lat_def = lat_h3 = 0.0
    for qi, q in enumerate(queries):
        if q not in solved:
            continue
        dag, _, _, conf = solved[q]
        noise = ctx.seed * 1009 + qi
        d = execute(ctx, dag, default_conf(), noise)
        h = execute(ctx, dag, conf, noise)
        if d is not None and h is not None:
            lat_def += d.latency_s
            lat_h3 += h.latency_s
    ctx.report.update(
        n_solves=len(ctx.ops), solve_p50_s=float(np.median(t)),
        solve_p90_s=float(np.percentile(t, 90)), solve_max_s=float(t.max()),
        solve_cov1s=float(np.mean(t <= 1.0)),
        solve_cpu_p50_s=float(np.median(cpu)),
        h3_lat_red=1.0 - lat_h3 / lat_def if lat_def else float("nan"))


def adapt_tpch(ctx: Context) -> None:
    queries = workloads.benchmark_queries("tpch")
    suite = setup_models(ctx, "tpch")
    recs = {}
    for q in queries:
        out, _ = ctx.checks.call("solve", solve_op("tpch", q, suite), check_solved)
        ctx.ref.sample()
        if out is not None:
            recs[q] = out

    def adapt(q: str, noise: int):
        dag, _, qc, conf = recs[q]

        def op():
            rt = optimizer.OnlineOptimizer(dag, suite, qc.theta_c, WEIGHTS)
            return executor.run_query(dag, conf, aqe=True, noise_seed=noise,
                                      runtime_opt=rt)
        return op

    keys = [(q, ctx.seed * 100_003 + qi * NOISE_SEEDS + j)
            for qi, q in enumerate(queries) if q in recs for j in range(NOISE_SEEDS)]
    timed_loop(ctx, [(k, adapt(*k)) for k in keys], check_run, "adapt")
    t = op_times(ctx) * 1e3
    sums = np.zeros(6)  # default lat/cost, hmooc3 lat/cost, hmooc3+ lat/cost
    for (q, noise), plus in first_pass(ctx).items():
        dag, _, _, conf = recs[q]
        d = execute(ctx, dag, default_conf(), noise)
        h = execute(ctx, dag, conf, noise)
        if d is not None and h is not None:
            sums += [d.latency_s, d.cost_usd, h.latency_s, h.cost_usd,
                     plus.latency_s, plus.cost_usd]
    ctx.report.update(
        n_adapts=len(ctx.ops), adapt_ms_p50=float(np.median(t)),
        adapt_ms_p90=float(np.percentile(t, 90)),
        h3p_lat_red=1.0 - sums[4] / sums[0], h3p_cost_rel=sums[5] / sums[1],
        h3_lat_red=1.0 - sums[2] / sums[0])


def traces_train(ctx: Context) -> None:
    recs = trace_grid("tpcds", ctx.seed)
    timed_loop(ctx, [(i, trace_op(r)) for i, r in enumerate(recs)],
               check_trace_rows, "trace")
    first = first_pass(ctx)
    rows = [r for i in range(len(recs)) for r in first.get(i, ())]
    t = op_times(ctx)
    ctx.report.update(n_trace_runs=len(ctx.ops), trace_runs_per_s=len(t) / t.sum())
    fit(ctx, rows)


WORKLOADS: dict[str, Callable[[Context], None]] = {
    "compile-tpcds": compile_tpcds,
    "adapt-tpch": adapt_tpch,
    "traces-train": traces_train,
}
