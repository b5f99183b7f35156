"""Unit tests for the MOO baselines (WS, Evo, PF, SO-FW)."""
import numpy as np
import pytest

from repro.core.plan import partition_subqs
from repro.core.workloads import build_query
from repro.moo import baselines as B
from repro.moo.objectives import CompileTimeObjectives
from repro.moo.pareto import pareto_indices
from repro.params import C_IDS, KNOB_BY_ID, P_IDS, S_IDS, from_vector


@pytest.fixture(scope="module")
def obj(fake_suite):
    dag = partition_subqs(build_query("tpch", "q3", sf=10.0))
    return CompileTimeObjectives(dag, fake_suite)


def _check_result(res, obj, fine):
    assert len(res.F) >= 1
    assert len(res.configs) == len(res.F)
    assert len(pareto_indices(res.F)) == len(res.F)  # mutually non-dominated
    assert res.solving_time_s > 0
    qc = res.configs[0]
    assert set(qc.theta_c) == set(C_IDS)
    assert set(qc.theta_p) == set(obj.sq_ids)
    for sq, tp in qc.theta_p.items():
        for kid, v in tp.items():
            k = KNOB_BY_ID[kid]
            assert k.lo <= v <= k.hi
    if not fine:
        # query-level: one θp copy replicated
        first = qc.theta_p[obj.sq_ids[0]]
        assert all(qc.theta_p[sq] == first for sq in obj.sq_ids)


@pytest.mark.parametrize("fine", [False, True])
def test_weighted_sum(obj, fine):
    res = B.weighted_sum(obj, n_samples=400, n_weights=7, fine=fine, seed=0)
    _check_result(res, obj, fine)
    assert res.method == f"ws-{'fine' if fine else 'query'}"
    # WS's known weakness: few distinct solutions relative to weights
    assert len(res.F) <= 7


@pytest.mark.parametrize("fine", [False, True])
def test_evo(obj, fine):
    res = B.evo(obj, pop=20, n_evals=60, fine=fine, seed=0)
    _check_result(res, obj, fine)


@pytest.mark.parametrize("fine", [False, True])
def test_progressive_frontier(obj, fine):
    res = B.progressive_frontier(obj, n_probes=256, n_points=7, fine=fine, seed=0)
    _check_result(res, obj, fine)


def test_pf_contains_extremes(obj):
    res = B.progressive_frontier(obj, n_probes=256, n_points=7, seed=1)
    # PF seeds with per-objective extreme points of its probe set
    assert len(res.F) >= 1


def test_so_fw_single_solution(obj):
    qc, F, t = B.so_fixed_weights(obj, (0.9, 0.1), n_samples=256, seed=0)
    assert F.shape == (2,)
    assert t > 0
    assert set(qc.theta_c) == set(C_IDS)


def test_so_fw_weight_sensitivity(obj):
    """With extreme weights SO-FW optimizes the corresponding objective."""
    _, F_lat, _ = B.so_fixed_weights(obj, (1.0, 0.0), n_samples=512, seed=3)
    _, F_cost, _ = B.so_fixed_weights(obj, (0.0, 1.0), n_samples=512, seed=3)
    assert F_lat[0] <= F_cost[0]
    assert F_cost[1] <= F_lat[1]


def test_ws_collapse_behavior(obj):
    """Fig. 4's phenomenon: many weights, few distinct WS solutions."""
    res = B.weighted_sum(obj, n_samples=400, n_weights=101, fine=False, seed=0)
    assert len(res.F) < 101  # heavy collapse


def test_decode_fine_vs_query_dims(obj):
    assert B._dims(obj, False) == 19
    assert B._dims(obj, True) == 8 + 11 * obj.m


def test_query_level_decode_matches_full_vector_split(obj):
    """A query-level vector decodes as if the whole 19-knob vector were
    split into θc / θp / θs, with the same θp and θs for every subQ."""
    rng = np.random.default_rng(4)
    for U in rng.random((5, 19)):
        qc = B._decode(obj, U, fine=False)
        conf = from_vector(U, C_IDS + P_IDS + S_IDS)
        assert qc.theta_c == {k: conf[k] for k in C_IDS}
        for sq in obj.sq_ids:
            assert qc.theta_p[sq] == {k: conf[k] for k in P_IDS}
            assert qc.theta_s[sq] == {k: conf[k] for k in S_IDS}


def test_nondominated_rank():
    F = np.array([[0.0, 2.0], [2.0, 0.0], [1.0, 3.0], [3.0, 3.0]])
    rank = B._fast_nondominated_rank(F)
    assert rank[0] == 0 and rank[1] == 0   # the two extremes
    assert rank[2] == 1                     # dominated by [0,2]
    assert rank[3] == 2                     # dominated by [1,3] as well


def test_crowding_extremes_infinite():
    F = np.array([[0, 2.0], [1, 1.0], [2, 0.0]])
    c = B._crowding(F)
    assert np.isinf(c[0]) and np.isinf(c[2])
    assert np.isfinite(c[1])
