"""Network and linear-baseline regressor tests."""

import numpy as np
import pytest

from fofr.errors import DivergenceDetected, ShapeMismatch
from fofr.regression import (
    FflmParams,
    NetworkSpec,
    TrainConfig,
    count_params,
    fit_fflm,
    forward,
    gradients,
    init_network,
    mse_loss,
    predict_fflm,
    train_network,
)


def finite_difference_grads(params, X, T, h=1e-6):
    """Central finite differences of the batch MSE for every parameter."""
    fd_w = [np.zeros_like(w) for w in params.weights]
    fd_b = [np.zeros_like(b) for b in params.biases]
    for store, arrays in ((fd_w, params.weights), (fd_b, params.biases)):
        for k, arr in enumerate(arrays):
            flat = arr.ravel()
            out = store[k].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = mse_loss(params, X, T)
                flat[i] = orig - h
                down = mse_loss(params, X, T)
                flat[i] = orig
                out[i] = (up - down) / (2 * h)
    return fd_w, fd_b


class TestGradients:
    @pytest.mark.parametrize("activation", ["elu", "relu", "tanh"])
    def test_matches_finite_differences(self, activation):
        rng = np.random.default_rng(0)
        spec = NetworkSpec(3, (5, 4), 2, activation, seed=1)
        params = init_network(spec)
        X = rng.standard_normal((7, 3))
        T = rng.standard_normal((7, 2))
        gw, gb = gradients(params, X, T)
        fw, fb = finite_difference_grads(params, X, T)
        for a, b in zip(gw + gb, fw + fb):
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-7)

    def test_shape_errors(self):
        params = init_network(NetworkSpec(3, (4,), 2))
        with pytest.raises(ShapeMismatch):
            gradients(params, np.zeros((5, 3)), np.zeros((4, 2)))
        with pytest.raises(ShapeMismatch):
            gradients(params, np.zeros((5, 3)), np.zeros((5, 3)))


class TestForward:
    def test_single_and_batch_agree(self):
        params = init_network(NetworkSpec(4, (6,), 3, seed=5))
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 4))
        batch = forward(params, X)
        singles = np.stack([forward(params, x) for x in X])
        # BLAS may route batch and single products differently; bitwise
        # equality is not guaranteed, only tight agreement
        np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-14)

    def test_wrong_width(self):
        params = init_network(NetworkSpec(4, (6,), 3))
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros(5))

    def test_init_deterministic(self):
        a = init_network(NetworkSpec(4, (6,), 3, seed=9))
        b = init_network(NetworkSpec(4, (6,), 3, seed=9))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert all(np.all(b_ == 0) for b_ in a.biases)


class TestTraining:
    def test_learns_linear_map(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((2, 4))
        X = rng.standard_normal((200, 4))
        T = X @ B.T
        spec = NetworkSpec(4, (16,), 2, seed=7)
        cfg = TrainConfig(epochs=300, batch_size=32, learning_rate=1e-2, seed=7)
        params, log = train_network(spec, cfg, X, T)
        assert log.train_loss[-1] < 1e-3
        assert log.train_loss[-1] < log.train_loss[0]

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 3))
        T = rng.standard_normal((50, 2))
        spec = NetworkSpec(3, (8,), 2, seed=11)
        cfg = TrainConfig(epochs=20, seed=11)
        p1, l1 = train_network(spec, cfg, X, T)
        p2, l2 = train_network(spec, cfg, X, T)
        for a, b in zip(p1.weights, p2.weights):
            np.testing.assert_array_equal(a, b)
        assert l1.train_loss == l2.train_loss

    def test_early_stopping_returns_best(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((60, 3))
        T = rng.standard_normal((60, 2))  # pure noise: validation loss plateaus
        spec = NetworkSpec(3, (8,), 2, seed=13)
        cfg = TrainConfig(epochs=500, learning_rate=5e-2, val_fraction=0.25,
                          early_stop_patience=10, seed=13)
        params, log = train_network(spec, cfg, X, T)
        assert log.best_epoch is not None
        assert len(log.val_loss) < 500  # stopped early
        assert min(log.val_loss) == log.val_loss[log.best_epoch]

    def test_divergence_detected(self):
        rng = np.random.default_rng(6)
        X = 1e3 * rng.standard_normal((40, 3))
        T = 1e3 * rng.standard_normal((40, 2))
        spec = NetworkSpec(3, (8,), 2, seed=17)
        cfg = TrainConfig(epochs=200, learning_rate=1e12, optimizer="sgd", seed=17)
        with np.errstate(all="ignore"), pytest.raises(DivergenceDetected):
            train_network(spec, cfg, X, T)

    @staticmethod
    def _linear_scores():
        rng = np.random.default_rng(8)
        X = rng.standard_normal((60, 4))
        return X, X @ rng.standard_normal((3, 4)).T

    def test_runaway_loss_detected(self):
        # finite at every epoch, but far above the untrained network's loss
        X, T = self._linear_scores()
        cfg = TrainConfig(epochs=100, learning_rate=1e6, seed=21)
        with np.errstate(all="ignore"), pytest.raises(DivergenceDetected, match="epoch 0"):
            train_network(NetworkSpec(4, (16,), 3, seed=21), cfg, X, T)

    def test_large_convergent_rate_still_trains(self):
        # the loss peaks at about 23 times the initial loss, then falls below it
        X, T = self._linear_scores()
        spec = NetworkSpec(4, (16,), 3, seed=21)
        cfg = TrainConfig(epochs=100, learning_rate=1.0, seed=21)
        params, log = train_network(spec, cfg, X, T)
        assert len(log.train_loss) == 100
        assert max(log.train_loss) > 10 * mse_loss(init_network(spec), X, T)
        assert log.train_loss[-1] < mse_loss(init_network(spec), X, T)

    @pytest.mark.parametrize("opt", ["sgd", "sgd_momentum", "adam"])
    def test_all_optimizers_reduce_loss(self, opt):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((100, 3))
        T = X @ rng.standard_normal((2, 3)).T
        spec = NetworkSpec(3, (8,), 2, seed=19)
        cfg = TrainConfig(epochs=100, learning_rate=1e-2, optimizer=opt, seed=19)
        _, log = train_network(spec, cfg, X, T)
        assert log.train_loss[-1] < 0.5 * log.train_loss[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer="lbfgs")
        with pytest.raises(ValueError):
            TrainConfig(val_fraction=0.9)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        for epochs in (-1, 2.0, "many"):
            with pytest.raises(ValueError):
                TrainConfig(epochs=epochs)
        assert TrainConfig(epochs=0).epochs == 0


class TestFflm:
    def test_exact_on_linear_targets(self):
        rng = np.random.default_rng(8)
        B = rng.standard_normal((3, 5))
        X = rng.standard_normal((100, 5))
        fit = fit_fflm(X, X @ B.T)
        np.testing.assert_allclose(fit.B, B, rtol=1e-10)

    def test_minimal_norm_when_underdetermined(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((3, 6))  # fewer samples than features
        T = rng.standard_normal((3, 2))
        fit = fit_fflm(X, T)
        expected = (np.linalg.pinv(X) @ T).T
        np.testing.assert_allclose(fit.B, expected, rtol=1e-10)

    def test_ridge_matches_normal_equations(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((50, 4))
        T = rng.standard_normal((50, 3))
        lam = 0.7
        fit = fit_fflm(X, T, ridge=lam)
        expected = np.linalg.solve(X.T @ X + lam * np.eye(4), X.T @ T).T
        np.testing.assert_allclose(fit.B, expected, rtol=1e-10)

    def test_predict_shapes(self):
        B = np.arange(6.0).reshape(2, 3)
        params = FflmParams(B)
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(predict_fflm(params, x), B @ x)
        X = np.stack([x, 2 * x])
        np.testing.assert_allclose(predict_fflm(params, X), X @ B.T)
        with pytest.raises(ShapeMismatch):
            predict_fflm(params, np.zeros(4))

    def test_ridge_validation(self):
        with pytest.raises(ValueError):
            fit_fflm(np.zeros((4, 2)), np.zeros((4, 1)), ridge=-1.0)


class TestCountParams:
    def test_network_counts(self):
        assert count_params(NetworkSpec(11, (16,), 10)) == 362
        assert count_params(NetworkSpec(27, (16,), 30)) == 958
        params = init_network(NetworkSpec(11, (16,), 10))
        assert count_params(params) == 362

    def test_fflm_counts(self):
        assert count_params(FflmParams(np.zeros((10, 11)))) == 110
        assert count_params(FflmParams(np.zeros((30, 27)))) == 810

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            count_params(object())
