"""Integration tests with a small *trained* model suite: the optimizer must
actually beat the default configuration on the simulated cluster, and the
models must be usably accurate — the end-to-end claims in miniature."""
import numpy as np
import pytest

from repro.core.plan import partition_subqs
from repro.core.workloads import build_query
from repro.model.predictor import eval_metrics
from repro.model.traces import split_traces
from repro import tuner

W = (0.9, 0.1)


def test_trained_models_usable(small_suite, tiny_traces):
    _, _, (Xte, y_lat, _) = split_traces(tiny_traces, "lqp")
    m = eval_metrics(y_lat, small_suite.lqp.latency.predict(Xte))
    assert m["wmape"] < 0.6
    assert m["corr"] > 0.7


@pytest.mark.parametrize("q", ["q3", "q9", "q18"])
def test_hmooc3_beats_default(small_suite, q):
    dag = partition_subqs(build_query("tpch", q, sf=100.0))
    d = tuner.run_default(dag, noise_seed=42)
    res, _ = tuner.compile_hmooc3(dag, small_suite, seed=0)
    h = tuner.run_hmooc3(dag, res, W, noise_seed=42)
    assert h.latency_s < d.latency_s


def test_hmooc3_plus_close_to_or_better_than_hmooc3(small_suite):
    """Runtime adaptation must not wreck the compile-time plan (and usually
    helps); allow small noise-level slack."""
    ratios = []
    for qi, q in enumerate(["q3", "q9", "q14", "q18"]):
        dag = partition_subqs(build_query("tpch", q, sf=100.0))
        res, _ = tuner.compile_hmooc3(dag, small_suite, seed=0)
        h3 = tuner.run_hmooc3(dag, res, W, noise_seed=qi)
        h3p = tuner.run_hmooc3_plus(dag, small_suite, res, W, noise_seed=qi)
        ratios.append(h3p.latency_s / h3.latency_s)
    assert np.mean(ratios) < 1.15


def test_hmooc3_faster_solving_than_mo_ws(small_suite):
    dag = partition_subqs(build_query("tpch", "q9", sf=100.0))
    res, _ = tuner.compile_hmooc3(dag, small_suite, seed=0)
    h = tuner.run_hmooc3(dag, res, W, noise_seed=0)
    m = tuner.run_mo_ws(dag, small_suite, W, noise_seed=0, seed=0)
    assert h.solving_time_s < m.solving_time_s


def test_preference_shift_moves_along_frontier(small_suite):
    """Latency-preferring WUN must pick a faster config than the
    cost-preferring one (Table 5's monotonicity)."""
    dag = partition_subqs(build_query("tpch", "q9", sf=100.0))
    res, _ = tuner.compile_hmooc3(dag, small_suite, seed=0)
    F_lat, _ = res.recommend((1.0, 0.0))
    F_cost, _ = res.recommend((0.0, 1.0))
    assert F_lat[0] <= F_cost[0]
    assert F_cost[1] <= F_lat[1]


def test_so_fw_weaker_adaptability(small_suite):
    """SO-FW's recommendations collapse: across the five preference
    vectors it returns at most a few distinct predicted points, while the
    HMOOC Pareto front offers at least as many distinct recommendations."""
    from repro.moo.baselines import so_fixed_weights
    from repro.moo.objectives import CompileTimeObjectives
    from repro.experiments.table5 import PREFS

    dag = partition_subqs(build_query("tpch", "q9", sf=100.0))
    obj = CompileTimeObjectives(dag, small_suite)
    so_points = {tuple(np.round(so_fixed_weights(obj, p, seed=0)[1], 6))
                 for p in PREFS}
    res, _ = tuner.compile_hmooc3(dag, small_suite, seed=0, objectives=obj)
    h_points = {tuple(np.round(res.recommend(p)[0], 6)) for p in PREFS}
    assert len(h_points) >= len(so_points) - 1
