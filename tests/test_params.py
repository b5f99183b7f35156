"""Unit tests for the 19-knob parameter space."""
import numpy as np
import pytest

from repro import params as P


@pytest.mark.parametrize("knob", P.ALL_KNOBS, ids=[k.kid for k in P.ALL_KNOBS])
class TestKnob:
    def test_default_in_domain(self, knob):
        assert knob.lo <= knob.default <= knob.hi

    def test_normalize_bounds(self, knob):
        assert knob.normalize(knob.lo) == pytest.approx(0.0)
        assert knob.normalize(knob.hi) == pytest.approx(1.0)

    def test_roundtrip_mid(self, knob):
        v = knob.denormalize(0.5)
        assert knob.lo <= v <= knob.hi
        u = knob.normalize(v)
        # integer rounding can shift the midpoint; tiny integer domains
        # (e.g. the boolean k7) shift it up to a whole step
        tol = 0.26 if not knob.integer else max(0.26, 1.0 / (knob.hi - knob.lo))
        assert abs(u - 0.5) <= tol

    def test_clamp(self, knob):
        assert knob.clamp(knob.hi * 2) == knob.hi
        assert knob.clamp(knob.lo - abs(knob.lo) - 1) == knob.lo

    def test_denormalize_clips(self, knob):
        assert knob.denormalize(-0.5) == pytest.approx(knob.lo, rel=1e-9)
        assert knob.denormalize(1.5) == pytest.approx(knob.hi, rel=1e-9)

    def test_monotone(self, knob):
        vals = [knob.denormalize(u) for u in np.linspace(0, 1, 7)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_category_sizes():
    assert P.D_C == 8 and P.D_P == 9 and P.D_S == 2
    assert len(P.ALL_KNOBS) == 19  # the paper's 19 selected parameters


def test_default_conf_complete():
    conf = P.default_conf()
    assert set(conf) == {k.kid for k in P.ALL_KNOBS}


def test_split_merge_roundtrip():
    conf = P.default_conf()
    c, p, s = P.split_conf(conf)
    assert set(c) == set(P.C_IDS) and set(p) == set(P.P_IDS) and set(s) == set(P.S_IDS)
    assert P.merge_conf(c, p, s) == conf


def test_to_from_vector_roundtrip():
    conf = P.default_conf()
    v = P.to_vector(conf)
    back = P.from_vector(v)
    for kid, val in conf.items():
        assert back[kid] == pytest.approx(val, rel=1e-6), kid


def test_from_vector_length_check():
    with pytest.raises(ValueError):
        P.from_vector(np.zeros(5))


def test_lhs_sample_stratified():
    ids = P.C_IDS
    confs = P.lhs_sample(16, ids, seed=1)
    assert len(confs) == 16
    # each knob covers its domain (stratification): normalized values hit
    # both halves
    for kid in ids:
        us = [P.KNOB_BY_ID[kid].normalize(c[kid]) for c in confs]
        assert min(us) < 0.3 and max(us) > 0.7


def test_lhs_deterministic():
    a = P.lhs_sample(8, P.P_IDS, seed=5)
    b = P.lhs_sample(8, P.P_IDS, seed=5)
    assert a == b


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    ids = [k.kid for k in P.ALL_KNOBS]
    U = rng.random((64, len(ids)))
    M = P.denormalize_matrix(U, ids)
    U2 = P.normalize_matrix(M, ids)
    M2 = P.denormalize_matrix(U2, ids)
    np.testing.assert_allclose(M, M2, rtol=1e-9)


def test_matrix_matches_scalar():
    rng = np.random.default_rng(1)
    ids = [k.kid for k in P.ALL_KNOBS]
    U = rng.random((8, len(ids)))
    M = P.denormalize_matrix(U, ids)
    for r in range(8):
        conf = P.from_vector(U[r], ids)
        for j, kid in enumerate(ids):
            assert M[r, j] == pytest.approx(conf[kid], rel=1e-9), kid


def test_spark_conf_items_rendering():
    items = P.spark_conf_items(P.default_conf())
    assert items["spark.executor.cores"] == "2"
    assert items["spark.shuffle.compress"] == "true"
    assert items["spark.sql.shuffle.partitions"] == "200"
    # byte knobs render as integral strings
    assert items["spark.sql.adaptive.advisoryPartitionSizeInBytes"] == str(64 * 1024**2)


def test_spark_conf_items_bool_false():
    items = P.spark_conf_items({"k7": 0.0})
    assert items["spark.shuffle.compress"] == "false"
