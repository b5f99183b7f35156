"""Unit tests for the numpy MLP regressor."""
import numpy as np
import pytest

from repro.model.mlp import MLPRegressor
from tests.conftest import reference_predict


@pytest.fixture(scope="module")
def toy():
    rng = np.random.default_rng(0)
    X = rng.random((600, 6))
    y = 50.0 * X[:, 0] + 10.0 * X[:, 1] * X[:, 2] + 1.0
    return X, y


def test_training_reduces_loss(toy):
    X, y = toy
    m = MLPRegressor(6, hidden=(32, 32), seed=1)
    losses = m.fit(X, y, epochs=30)
    assert losses[-1] < losses[0] * 0.5


def test_learns_function(toy):
    X, y = toy
    m = MLPRegressor(6, hidden=(64, 64), seed=1)
    m.fit(X, y, epochs=200, lr=5e-3)
    pred = m.predict(X)
    wmape = np.abs(pred - y).sum() / y.sum()
    assert wmape < 0.10


def test_predict_shape_and_positive(toy):
    X, y = toy
    m = MLPRegressor(6, seed=0)
    m.fit(X, y, epochs=5)
    pred = m.predict(X[:10])
    assert pred.shape == (10,)
    assert np.all(pred > -1.0)  # expm1 lower bound


def test_deterministic_training(toy):
    X, y = toy
    a = MLPRegressor(6, seed=3)
    a.fit(X, y, epochs=5)
    b = MLPRegressor(6, seed=3)
    b.fit(X, y, epochs=5)
    np.testing.assert_allclose(a.predict(X[:5]), b.predict(X[:5]))


def test_save_load_roundtrip(tmp_path, toy):
    X, y = toy
    m = MLPRegressor(6, hidden=(16,), seed=2)
    m.fit(X, y, epochs=10)
    path = str(tmp_path / "m.npz")
    m.save(path)
    m2 = MLPRegressor.load(path)
    np.testing.assert_allclose(m.predict(X[:20]), m2.predict(X[:20]))
    assert m2.hidden == (16,)


def test_standardization_stored(toy):
    X, y = toy
    m = MLPRegressor(6, seed=0)
    m.fit(X, y, epochs=2)
    np.testing.assert_allclose(m.x_mean, X.mean(axis=0))
    assert np.all(m.x_std > 0)


def test_constant_feature_no_nan(toy):
    X, y = toy
    X = X.copy()
    X[:, 5] = 7.0  # zero-variance feature
    m = MLPRegressor(6, seed=0)
    m.fit(X, y, epochs=3)
    assert np.all(np.isfinite(m.predict(X[:5])))


def test_float32_predict_matches_float64_reference(toy):
    X, y = toy
    X = X.copy()
    X[:, 5] = 7.0  # zero-variance feature: x_std falls back to 1
    m = MLPRegressor(6, hidden=(64, 64), seed=1)
    m.fit(X, y, epochs=50)
    assert m.x_std[5] == 1.0
    np.testing.assert_allclose(m.predict(X), reference_predict(m, X), rtol=1e-4)


def test_predict_follows_refit(toy):
    X, y = toy
    m = MLPRegressor(6, hidden=(32,), seed=1)
    m.fit(X, y, epochs=5)
    first = m.predict(X[:20])
    m.fit(X, 3.0 * y + 100.0, epochs=20)
    second = m.predict(X[:20])
    assert not np.allclose(first, second)
    np.testing.assert_allclose(second, reference_predict(m, X[:20]), rtol=1e-4)


def test_load_predicts_exactly_like_saved(tmp_path, toy):
    X, y = toy
    m = MLPRegressor(6, hidden=(32, 32), seed=2)
    m.fit(X, y, epochs=10)
    path = str(tmp_path / "m.npz")
    m.save(path)
    np.testing.assert_array_equal(MLPRegressor.load(path).predict(X), m.predict(X))


def test_saved_npz_keys_and_dtypes(tmp_path, toy):
    X, y = toy
    m = MLPRegressor(6, hidden=(16, 8), seed=2)
    m.fit(X, y, epochs=2)
    path = str(tmp_path / "m.npz")
    m.save(path)
    z = np.load(path)
    assert set(z.files) == {"x_mean", "x_std", "meta", "hidden",
                            "W0", "b0", "W1", "b1", "W2", "b2"}
    assert all(z[k].dtype == np.float64 for k in ("x_mean", "x_std", "W0", "b2"))
