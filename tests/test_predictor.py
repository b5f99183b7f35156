"""Unit tests for the predictor suite and feature-layout constants."""
import numpy as np
import pytest

from repro.core.plan import partition_subqs
from repro.core.workloads import build_query
from repro.model import predictor as P
from repro.model.features import beta_features, gamma_features
from repro.model.mlp import MLPRegressor
from repro.params import default_conf


@pytest.fixture(scope="module")
def dag():
    return partition_subqs(build_query("tpch", "q3", sf=1.0))


def test_dims_consistent(dag):
    conf = default_conf()
    U = P.conf_to_vec_full(conf)[None, :]
    M = np.array([[conf[i] for i in P.FULL_IDS]])
    sq = min(dag.subqs)
    c = P.StageContext.of(dag, sq, true=False)
    assert c.subq_rows(U, c.derived(M)).shape == (1, P.SUBQ_DIM)

    r = P.StageContext.of(dag, sq, true=True)
    qs_row = r.qs_rows(P.conf_to_vec_qs(conf)[None, :], r.derived(M), "SMJ",
                       gamma_features(2, 10, 5.0))
    assert qs_row.shape == (1, P.QS_DIM)

    assert P.lqp_rows(dag, U, gamma_features(2, 10, 5.0)).shape == (1, P.LQP_DIM)


def test_batched_rows_tile_context(dag):
    conf = default_conf()
    U = np.tile(P.conf_to_vec_full(conf), (4, 1))
    M = np.tile([[conf[i] for i in P.FULL_IDS]], (4, 1))
    c = P.StageContext.of(dag, min(dag.subqs), true=False)
    rows = c.subq_rows(U, c.derived(M))
    assert rows.shape == (4, P.SUBQ_DIM)
    assert np.allclose(rows[0], rows[3])


def test_stage_context_views(dag):
    sq = max(dag.subqs)  # deep stage: est != true
    est = P.StageContext.of(dag, sq, true=False)
    true = P.StageContext.of(dag, sq, true=True)
    np.testing.assert_array_equal(est.emb, P.embed_subq(dag, sq, true_stats=False))
    np.testing.assert_array_equal(true.emb, P.embed_subq(dag, sq, true_stats=True))
    assert est.input_bytes == dag.input_bytes(sq, true=False)
    assert true.input_bytes == dag.input_bytes(sq, true=True)
    assert est.kind == true.kind == dag.subqs[sq].kind
    assert not np.allclose(est.alpha, true.alpha)
    np.testing.assert_array_equal(est.beta, beta_features(dag.skew(sq)))


def test_embed_views_differ(dag):
    sq = max(dag.subqs)  # deep stage: est != true
    e1 = P.embed_subq(dag, sq, true_stats=True)
    e2 = P.embed_subq(dag, sq, true_stats=False)
    assert not np.allclose(e1, e2)


def test_shared_gtn_singleton():
    assert P.shared_gtn() is P.shared_gtn()


def test_eval_metrics_perfect():
    y = np.array([1.0, 2.0, 3.0])
    m = P.eval_metrics(y, y)
    assert m["wmape"] == 0.0 and m["p50"] == 0.0 and m["p90"] == 0.0
    assert m["corr"] == pytest.approx(1.0)


def test_eval_metrics_known_case():
    y = np.array([100.0, 100.0])
    pred = np.array([110.0, 90.0])
    m = P.eval_metrics(y, pred)
    assert m["wmape"] == pytest.approx(0.10)
    assert m["p50"] == pytest.approx(0.10)


def test_inference_throughput_positive():
    m = MLPRegressor(4, hidden=(8,), seed=0)
    m.fit(np.random.default_rng(0).random((64, 4)), np.ones(64), epochs=1)
    x = np.random.default_rng(1).random((1000, 4))
    assert P.inference_throughput(m, x, repeats=2) > 1000


def test_suite_save_load(tmp_path):
    rng = np.random.default_rng(0)

    def mk():
        m = MLPRegressor(3, hidden=(4,), seed=1)
        m.fit(rng.random((32, 3)), np.ones(32), epochs=1)
        return m

    suite = P.ModelSuite(
        subq=P.TargetModels(mk(), mk()),
        qs=P.TargetModels(mk(), mk()),
        lqp=P.TargetModels(mk(), mk()))
    d = str(tmp_path / "models")
    assert not P.ModelSuite.exists(d)
    suite.save(d)
    assert P.ModelSuite.exists(d)
    loaded = P.ModelSuite.load(d)
    X = rng.random((5, 3))
    np.testing.assert_allclose(suite.qs.latency.predict(X),
                               loaded.qs.latency.predict(X))


def test_target_models_predict_pair():
    rng = np.random.default_rng(0)
    m1 = MLPRegressor(3, hidden=(4,), seed=1)
    m1.fit(rng.random((32, 3)), np.ones(32), epochs=1)
    tm = P.TargetModels(m1, m1)
    lat, io = tm.predict(rng.random((7, 3)))
    assert lat.shape == (7,) and io.shape == (7,)
