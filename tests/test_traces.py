"""Unit tests for trace generation (local core + Spark pipeline)."""
import json

import numpy as np
import pandas as pd
import pytest

from repro.core.plan import partition_subqs
from repro.core.workloads import benchmark_queries, build_query
from repro.model import predictor as P
from repro.model.features import ALPHA_DIM, BETA_DIM, GAMMA_DIM, JOIN_ALGS
from repro.model.gtn import EMB_DIM
from repro.model.traces import (TRACE_SCHEMA, generate_traces_spark,
                                split_traces, task_grid, trace_rows)
from repro.moo.objectives import CompileTimeObjectives
from repro.params import C_IDS, default_conf
from repro.runtime.optimizer import OnlineOptimizer
from repro.simspark.executor import run_query


@pytest.fixture(scope="module")
def rows():
    return trace_rows("tpch", "q3", 0, default_conf(), 0)


def test_row_counts(rows):
    dag = partition_subqs(build_query("tpch", "q3", sf=100.0))
    kinds = pd.Series([r["kind"] for r in rows]).value_counts()
    assert kinds["subq"] == dag.n_subqs()
    assert kinds["qs"] == dag.n_subqs()
    assert kinds["lqp"] == 1


def test_feature_dims(rows):
    for r in rows:
        want = {"subq": P.SUBQ_DIM, "qs": P.QS_DIM, "lqp": P.LQP_DIM}[r["kind"]]
        assert len(r["feats"]) == want, r["kind"]


def test_labels_positive(rows):
    for r in rows:
        assert r["latency"] > 0
        assert r["io_mb"] > 0


def test_lqp_label_is_query_latency(rows):
    dag = partition_subqs(build_query("tpch", "q3", sf=100.0))
    from repro.simspark.executor import run_query
    run = run_query(dag, default_conf(), noise_seed=0 * 7919 + 0)
    lqp = next(r for r in rows if r["kind"] == "lqp")
    assert lqp["latency"] == pytest.approx(run.latency_s)


def test_rows_deterministic():
    a = trace_rows("tpch", "q6", 1, default_conf(), 3)
    b = trace_rows("tpch", "q6", 1, default_conf(), 3)
    assert a[0]["latency"] == b[0]["latency"]
    np.testing.assert_allclose(a[0]["feats"], b[0]["feats"])


def test_task_grid():
    g = task_grid("tpch", ["q1", "q3"], 2, 3, seed=0)
    assert len(g) == 2 * 2 * 3
    assert set(g.columns) == {"benchmark", "template", "variant", "conf_id", "conf_json"}
    conf = json.loads(g.iloc[0]["conf_json"])
    assert len(conf) == 19


def test_split_traces_proportions():
    grid = task_grid("tpch", ["q1", "q6"], 2, 5, seed=1)
    rows = []
    for rec in grid.itertuples(index=False):
        rows.extend(trace_rows(rec.benchmark, rec.template, int(rec.variant),
                               json.loads(rec.conf_json), int(rec.conf_id)))
    tr = pd.DataFrame(rows)
    (Xtr, yl, yi), (Xv, _, _), (Xte, _, _) = split_traces(tr, "subq")
    n = len(Xtr) + len(Xv) + len(Xte)
    assert len(Xtr) == int(0.8 * n)
    assert Xtr.shape[1] == P.SUBQ_DIM
    assert len(yl) == len(yi) == len(Xtr)


def test_trace_schema_fields():
    assert "feats array<double>" in TRACE_SCHEMA


def test_generate_traces_spark_matches_local(spark):
    tr = generate_traces_spark(spark, "tpch", ["q6"], n_variants=1, n_confs=2,
                               seed=5)
    dag = partition_subqs(build_query("tpch", "q6", sf=100.0))
    # 2 runs x (2 rows per subQ + 1 lqp row)
    assert len(tr) == 2 * (2 * dag.n_subqs() + 1)
    assert set(tr["kind"]) == {"subq", "qs", "lqp"}
    # feats survive the Arrow roundtrip with the right dims
    sub = tr[tr["kind"] == "subq"].iloc[0]
    assert len(sub["feats"]) == P.SUBQ_DIM


# QS-row columns where serving knowingly differs from training:
# * GAMMA_DRIFT — traces carry the observed sibling contention; the runtime
#   plugin serves gamma_features(1, 0, 0) because it runs before siblings do;
# * JOIN_ALG_DRIFT — the executor re-plans a join with its compile-time
#   algorithm as the demote-only baseline, the plugin with compile_alg=None.
JOIN_ALG_DRIFT = set(range(EMB_DIM, EMB_DIM + len(JOIN_ALGS)))
_G0 = EMB_DIM + len(JOIN_ALGS) + P.CONF_DIM_QS + ALPHA_DIM + BETA_DIM
GAMMA_DRIFT = set(range(_G0, _G0 + GAMMA_DIM))


class _Recorder:
    """A model that records every feature matrix and predicts zeros, so the
    runtime plugin keeps every submitted knob (a replay changes nothing)."""

    def __init__(self):
        self.X: list[np.ndarray] = []

    def predict(self, X):
        self.X.append(np.array(X))
        return np.zeros(len(X))


def _recording_suite():
    return P.ModelSuite(*(P.TargetModels(_Recorder(), _Recorder())
                          for _ in range(3)))


def test_serving_rows_match_trace_rows():
    """Compile-time subQ rows equal the trace rows; runtime QS rows equal
    them outside the two named drifts."""
    n_qs = n_gamma = n_join = 0
    grid = task_grid("tpch", benchmark_queries("tpch"), 1, 2, seed=0)
    for rec in grid.itertuples(index=False):
        conf = json.loads(rec.conf_json)
        variant, conf_id = int(rec.variant), int(rec.conf_id)
        rows = trace_rows("tpch", rec.template, variant, conf, conf_id)
        trace = {(r["kind"], r["sq_id"]): np.array(r["feats"]) for r in rows}
        dag = partition_subqs(build_query("tpch", rec.template, variant=variant))
        suite = _recording_suite()

        obj = CompileTimeObjectives(dag, suite)
        for sq_id in dag.subqs:
            obj.subq_batch(sq_id, P.conf_to_vec_full(conf)[None, :])
            np.testing.assert_array_equal(suite.subq.latency.X[-1][0],
                                          trace["subq", sq_id])

        opt = OnlineOptimizer(dag, suite, {k: conf[k] for k in C_IDS}, (0.9, 0.1))
        served = {}
        on_query_stage = opt.on_query_stage

        def record(d, sq_id, input_bytes, stage_conf):
            n = len(suite.qs.latency.X)
            out = on_query_stage(d, sq_id, input_bytes, stage_conf)
            if len(suite.qs.latency.X) > n:  # not pruned: row 0 keeps θs
                served[sq_id] = suite.qs.latency.X[-1][0]
            return out

        opt.on_query_stage = record
        run_query(dag, conf, aqe=True, noisy=True,
                  noise_seed=conf_id * 7919 + variant, runtime_opt=opt)
        for sq_id, x in served.items():
            diff = set(np.flatnonzero(x != trace["qs", sq_id]).tolist())
            assert diff <= GAMMA_DRIFT | JOIN_ALG_DRIFT, (rec.template, sq_id, diff)
            n_qs += 1
            n_gamma += bool(diff & GAMMA_DRIFT)
            n_join += bool(diff & JOIN_ALG_DRIFT)
    assert n_qs > 100
    # Both drifts are known and still open; once fixed, drop them above.
    assert n_gamma > 0 and n_join > 0
