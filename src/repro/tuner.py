"""End-to-end tuning pipelines: compile-time MOO → submit → (optionally)
runtime-adaptive execution.

Methods compared in the paper's end-to-end evaluation (Tables 4 & 5):

* ``run_default``    — Spark defaults with AQE on;
* ``run_mo_ws``      — MO-WS: query-level weighted-sum MOO (the strongest
  prior method, UDAO-style), WUN recommendation, static θp/θs;
* ``run_so_fw``      — SO-FW: fixed-weight single-objective collapse;
* ``run_hmooc3``     — our compile-time HMOOC (boundary aggregation,
  solved once by ``compile_hmooc3``), with per-subQ θp/θs collapsed to one
  submission copy via §C.2.1;
* ``run_hmooc3_plus``— HMOOC3 + the runtime optimizer plugin (HMOOC3+) on
  the same compiled Pareto set.

Every method executes on the same simulated cluster with the same noise
seed, so latency/cost deltas are paired.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import SubQDag
from repro.model.predictor import ModelSuite
from repro.moo.baselines import so_fixed_weights, weighted_sum
from repro.moo.hmooc import MOOResult, QueryConfig, hmooc
from repro.moo.objectives import CompileTimeObjectives
from repro.params import default_conf, merge_conf
from repro.runtime.optimizer import OnlineOptimizer, aggregate_theta
from repro.simspark.executor import QueryRun, run_query


@dataclass
class TunedOutcome:
    """One method's result on one query."""

    method: str
    solving_time_s: float
    conf0: dict            # the 19-knob configuration submitted to Spark
    run: QueryRun

    @property
    def latency_s(self) -> float:
        return self.run.latency_s

    @property
    def cost_usd(self) -> float:
        return self.run.cost_usd


def submit_conf(qc: QueryConfig, dag: SubQDag) -> dict:
    """θc + the single aggregated θp/θs copy Spark accepts at submission."""
    theta_p, theta_s = aggregate_theta(qc, dag)
    return merge_conf(qc.theta_c, theta_p, theta_s)


def run_default(dag: SubQDag, *, noise_seed: int = 0) -> TunedOutcome:
    conf = default_conf()
    run = run_query(dag, conf, aqe=True, noise_seed=noise_seed)
    return TunedOutcome("default", 0.0, conf, run)


def run_mo_ws(dag: SubQDag, suite: ModelSuite, weights, *, noise_seed: int = 0,
              n_samples: int = 10_000, n_weights: int = 11, seed: int = 0,
              objectives: CompileTimeObjectives | None = None) -> TunedOutcome:
    obj = objectives or CompileTimeObjectives(dag, suite)
    res = weighted_sum(obj, n_samples=n_samples, n_weights=n_weights,
                       fine=False, seed=seed)
    _, qc = res.recommend(weights)
    conf = submit_conf(qc, dag)
    run = run_query(dag, conf, aqe=True, noise_seed=noise_seed)
    return TunedOutcome("mo-ws", res.solving_time_s, conf, run)


def run_so_fw(dag: SubQDag, suite: ModelSuite, weights, *, noise_seed: int = 0,
              n_samples: int = 4096, seed: int = 0,
              objectives: CompileTimeObjectives | None = None) -> TunedOutcome:
    obj = objectives or CompileTimeObjectives(dag, suite)
    qc, _, solve_t = so_fixed_weights(obj, weights, n_samples=n_samples, seed=seed)
    conf = submit_conf(qc, dag)
    run = run_query(dag, conf, aqe=True, noise_seed=noise_seed)
    return TunedOutcome("so-fw", solve_t, conf, run)


def compile_hmooc3(dag: SubQDag, suite: ModelSuite, *, seed: int = 0,
                   objectives: CompileTimeObjectives | None = None,
                   **hmooc_kw) -> tuple[MOOResult, CompileTimeObjectives]:
    obj = objectives or CompileTimeObjectives(dag, suite)
    res = hmooc(dag, suite, agg="boundary", seed=seed, objectives=obj, **hmooc_kw)
    return res, obj


def run_hmooc3(dag: SubQDag, res: MOOResult, weights, *,
               noise_seed: int = 0) -> TunedOutcome:
    """Execute the WUN pick of a compiled HMOOC3 Pareto set."""
    _, qc = res.recommend(weights)
    conf = submit_conf(qc, dag)
    run = run_query(dag, conf, aqe=True, noise_seed=noise_seed)
    return TunedOutcome("hmooc3", res.solving_time_s, conf, run)


def run_hmooc3_plus(dag: SubQDag, suite: ModelSuite, res: MOOResult, weights, *,
                    noise_seed: int = 0) -> TunedOutcome:
    """Execute the same pick as ``run_hmooc3`` with the runtime plugin on."""
    _, qc = res.recommend(weights)
    conf = submit_conf(qc, dag)
    rt = OnlineOptimizer(dag, suite, qc.theta_c, weights)
    run = run_query(dag, conf, aqe=True, noise_seed=noise_seed, runtime_opt=rt)
    return TunedOutcome("hmooc3+", res.solving_time_s + rt.time_spent_s, conf, run)
