"""Unit tests for the end-to-end tuning pipelines (fake models)."""
import pytest

from repro.core.plan import partition_subqs
from repro.core.workloads import build_query
from repro.params import KNOB_BY_ID
from repro import tuner


@pytest.fixture(scope="module")
def dag():
    return partition_subqs(build_query("tpch", "q3", sf=10.0))


def _check(outcome, method):
    assert outcome.method == method
    assert outcome.latency_s > 0 and outcome.cost_usd > 0
    assert set(outcome.conf0) == set(KNOB_BY_ID)
    for kid, v in outcome.conf0.items():
        k = KNOB_BY_ID[kid]
        assert k.lo <= v <= k.hi, kid


def test_run_default(dag):
    out = tuner.run_default(dag, noise_seed=1)
    _check(out, "default")
    assert out.solving_time_s == 0.0
    assert out.conf0["k1"] == 2.0  # the cluster-baseline default


def test_run_mo_ws(dag, fake_suite):
    out = tuner.run_mo_ws(dag, fake_suite, (0.9, 0.1), noise_seed=1,
                          n_samples=300, seed=0)
    _check(out, "mo-ws")
    assert out.solving_time_s > 0


def test_run_so_fw(dag, fake_suite):
    out = tuner.run_so_fw(dag, fake_suite, (0.5, 0.5), noise_seed=1,
                          n_samples=300, seed=0)
    _check(out, "so-fw")


@pytest.fixture(scope="module")
def compiled(dag, fake_suite):
    res, _ = tuner.compile_hmooc3(dag, fake_suite, seed=0, n_c=10,
                                  n_clusters=3, n_p=12)
    return res


def test_run_hmooc3(dag, compiled):
    out = tuner.run_hmooc3(dag, compiled, (0.9, 0.1), noise_seed=1)
    _check(out, "hmooc3")


def test_run_hmooc3_plus(dag, fake_suite, compiled):
    out = tuner.run_hmooc3_plus(dag, fake_suite, compiled, (0.9, 0.1),
                                noise_seed=1)
    _check(out, "hmooc3+")
    # runtime plugin issued (and pruned) requests
    assert out.run.lqp_request_opportunities > 0
    assert out.run.lqp_requests <= out.run.lqp_request_opportunities
    assert out.run.qs_requests <= out.run.qs_request_opportunities


def test_hmooc3_plus_includes_runtime_solving_time(dag, fake_suite, compiled):
    out3 = tuner.run_hmooc3(dag, compiled, (0.9, 0.1), noise_seed=1)
    out3p = tuner.run_hmooc3_plus(dag, fake_suite, compiled, (0.9, 0.1),
                                  noise_seed=1)
    # same compile-time solve, plus the runtime plugin's time
    assert out3.solving_time_s == compiled.solving_time_s
    assert out3p.solving_time_s >= out3.solving_time_s
    assert out3p.conf0 == out3.conf0


def test_submit_conf_resolves_fine_grained(dag, fake_suite):
    res, obj = tuner.compile_hmooc3(dag, fake_suite, seed=0, n_c=10,
                                    n_clusters=3, n_p=12)
    _, qc = res.recommend((0.9, 0.1))
    conf = tuner.submit_conf(qc, dag)
    assert set(conf) == set(KNOB_BY_ID)
    # θc is passed through verbatim
    for kid, v in qc.theta_c.items():
        assert conf[kid] == v


def test_paired_noise_seeds(dag, fake_suite):
    a = tuner.run_default(dag, noise_seed=7)
    b = tuner.run_default(dag, noise_seed=7)
    assert a.latency_s == b.latency_s
