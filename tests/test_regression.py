"""Network and linear-baseline regressor tests."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from fofr import pipeline
from fofr.errors import DivergenceDetected, ShapeMismatch
from fofr.pipeline import PipelineConfig
from fofr.regression import (
    DIVERGENCE_RATIO,
    FflmParams,
    NetworkParams,
    NetworkSpec,
    TrainConfig,
    TrainLog,
    _act_grad,
    _forward_cached,
    count_params,
    fit_fflm,
    forward,
    gradients,
    init_network,
    mse_loss,
    predict_fflm,
    train_network,
)
from fofr.synthgen import generate, preset_scenario


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


def _reference_gradients(params, X, T):
    """Per-layer backpropagation into freshly allocated arrays."""
    pre, post = _forward_cached(params, X)
    n, p = T.shape
    delta = 2.0 * (post[-1] - T) / (n * p)
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    for k in range(len(params.weights) - 1, -1, -1):
        grads_w[k] = delta.T @ post[k]
        grads_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ params.weights[k]) * _act_grad(
                params.hidden_activation, pre[k - 1], post[k])
    return grads_w, grads_b


def _reference_train(spec, config, X, T):
    """Mini-batch training with one Adam update per weight and bias array:
    the oracle that the flat-vector ``train_network`` must match bit for bit."""
    rng = np.random.default_rng(spec.seed)
    n = X.shape[0]
    use_val = config.val_fraction > 0 and config.early_stop_patience is not None
    if use_val:
        n_val = max(1, int(round(config.val_fraction * n)))
        perm = rng.permutation(n)
        val_idx, train_idx = perm[:n_val], perm[n_val:]
        X_val, T_val = X[val_idx], T[val_idx]
        X_tr, T_tr = X[train_idx], T[train_idx]
    else:
        X_tr, T_tr = X, T

    params = init_network(spec)
    initial_loss = mse_loss(params, X_tr, T_tr)
    state_m = [np.zeros_like(a) for a in params.weights + params.biases]
    state_v = [np.zeros_like(a) for a in params.weights + params.biases]
    step = 0
    log = TrainLog()
    best = (np.inf, None, None)
    n_tr = X_tr.shape[0]
    batch = min(config.batch_size, n_tr)
    for epoch in range(config.epochs):
        order = rng.permutation(n_tr)
        for lo in range(0, n_tr, batch):
            idx = order[lo:lo + batch]
            gw, gb = _reference_gradients(params, X_tr[idx], T_tr[idx])
            step += 1
            for k, (theta, g) in enumerate(zip(params.weights + params.biases, gw + gb)):
                state_m[k] = 0.9 * state_m[k] + (1 - 0.9) * g
                state_v[k] = 0.999 * state_v[k] + (1 - 0.999) * g * g
                m_hat = state_m[k] / (1 - 0.9 ** step)
                v_hat = state_v[k] / (1 - 0.999 ** step)
                theta -= config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        train_loss = mse_loss(params, X_tr, T_tr)
        if not train_loss <= DIVERGENCE_RATIO * initial_loss:
            raise DivergenceDetected(f"training diverged at epoch {epoch}: loss "
                                     f"{train_loss:.3g}, initial loss {initial_loss:.3g}")
        log.train_loss.append(train_loss)
        if use_val:
            val_loss = mse_loss(params, X_val, T_val)
            log.val_loss.append(val_loss)
            if val_loss < best[0]:
                best = (val_loss, NetworkParams([w.copy() for w in params.weights],
                                                [b.copy() for b in params.biases],
                                                params.hidden_activation), epoch)
            elif epoch - (best[2] if best[2] is not None else 0) >= config.early_stop_patience:
                break
    if use_val and best[1] is not None:
        log.best_epoch = best[2]
        return best[1], log
    return params, log


class TestFlatTrainingMatchesReference:
    @staticmethod
    def _data(seed=12, n=64):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 3))
        return X, np.tanh(X @ rng.standard_normal((2, 3)).T) + 0.1 * rng.standard_normal((n, 2))

    @pytest.mark.parametrize("activation, widths, early_stop", itertools.product(
        ["elu", "relu", "tanh"], [(16,), (8, 4)], [False, True]))
    def test_bit_equal(self, activation, widths, early_stop):
        X, T = self._data()
        spec = NetworkSpec(3, widths, 2, activation, seed=23)
        stop = (dict(val_fraction=0.25, early_stop_patience=10) if early_stop
                else dict(val_fraction=0.0, early_stop_patience=None))
        cfg = TrainConfig(epochs=60, batch_size=16, learning_rate=5e-2, **stop)
        params, log = train_network(spec, cfg, X, T)
        ref_params, ref_log = _reference_train(spec, cfg, X, T)
        for a, b in zip(params.weights + params.biases, ref_params.weights + ref_params.biases):
            assert a.flags.c_contiguous and a.shape == b.shape
            np.testing.assert_array_equal(a, b, strict=True)
        assert log.train_loss == ref_log.train_loss
        assert log.val_loss == ref_log.val_loss
        assert log.best_epoch == ref_log.best_epoch
        assert params.hidden_activation == activation

    def test_diverges_at_the_same_epoch(self):
        X, T = self._data(seed=31)
        spec = NetworkSpec(3, (8, 4), 2, seed=37)
        cfg = TrainConfig(epochs=50, learning_rate=2.0, val_fraction=0.0,
                          early_stop_patience=None)
        messages = []
        for train in (train_network, _reference_train):
            with np.errstate(all="ignore"), pytest.raises(DivergenceDetected) as err:
                train(spec, cfg, X, T)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


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


class TestNetworkSettings:
    @pytest.mark.parametrize("widths", [(1.5,), (True,), ("16",), (0,), (4, -1)])
    def test_hidden_widths_must_be_integers_of_at_least_one(self, widths):
        with pytest.raises(ValueError, match="hidden_widths must be integers >= 1"):
            NetworkSpec(4, widths, 3)

    def test_numpy_integer_hidden_widths(self):
        widths = NetworkSpec(4, np.array([8, 4]), 3).hidden_widths
        assert widths == (8, 4) and all(type(w) is int for w in widths)

    def test_unknown_hidden_activation(self):
        params = init_network(NetworkSpec(1, (2,), 1))
        with pytest.raises(ValueError, match="unknown hidden activation 'sigmoid'"):
            NetworkParams(params.weights, params.biases, "sigmoid")
        with pytest.raises(ValueError, match="unknown hidden activation 'sigmoid'"):
            NetworkSpec(1, (2,), 1, "sigmoid")


class TestTraining:
    def test_learns_linear_map(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((2, 4))
        X = rng.standard_normal((200, 4))
        T = X @ B.T
        spec = NetworkSpec(4, (16,), 2, seed=7)
        cfg = TrainConfig(epochs=300, batch_size=32, learning_rate=1e-2)
        params, log = train_network(spec, cfg, X, T)
        assert log.train_loss[-1] < 1e-3
        assert log.train_loss[-1] < log.train_loss[0]

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 3))
        T = rng.standard_normal((50, 2))
        spec = NetworkSpec(3, (8,), 2, seed=11)
        cfg = TrainConfig(epochs=20)
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
                          early_stop_patience=10)
        params, log = train_network(spec, cfg, X, T)
        assert log.best_epoch is not None
        assert len(log.val_loss) < 500  # stopped early
        assert min(log.val_loss) == log.val_loss[log.best_epoch]

    def test_divergence_detected(self):
        rng = np.random.default_rng(6)
        X = 1e3 * rng.standard_normal((40, 3))
        T = 1e3 * rng.standard_normal((40, 2))
        spec = NetworkSpec(3, (8,), 2, seed=17)
        cfg = TrainConfig(epochs=200, learning_rate=1e12)
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
        cfg = TrainConfig(epochs=100, learning_rate=1e6)
        with np.errstate(all="ignore"), pytest.raises(DivergenceDetected, match="epoch 0"):
            train_network(NetworkSpec(4, (16,), 3, seed=21), cfg, X, T)

    def test_large_convergent_rate_still_trains(self):
        # the loss peaks at about 23 times the initial loss, then falls below it
        X, T = self._linear_scores()
        spec = NetworkSpec(4, (16,), 3, seed=21)
        cfg = TrainConfig(epochs=100, learning_rate=1.0)
        params, log = train_network(spec, cfg, X, T)
        assert len(log.train_loss) == 100
        assert max(log.train_loss) > 10 * mse_loss(init_network(spec), X, T)
        assert log.train_loss[-1] < mse_loss(init_network(spec), X, T)

    def test_adam_reduces_loss(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((100, 3))
        T = X @ rng.standard_normal((2, 3)).T
        spec = NetworkSpec(3, (8,), 2, seed=19)
        cfg = TrainConfig(epochs=100, learning_rate=1e-2)
        _, log = train_network(spec, cfg, X, T)
        assert log.train_loss[-1] < 0.5 * log.train_loss[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(val_fraction=0.9)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        for epochs in (-1, 2.0, "many"):
            with pytest.raises(ValueError):
                TrainConfig(epochs=epochs)
        assert TrainConfig(epochs=0).epochs == 0
        for bad in (dict(learning_rate=np.inf), dict(learning_rate=np.nan),
                    dict(early_stop_patience=0), dict(early_stop_patience=-2)):
            with pytest.raises(ValueError, match=next(iter(bad))):
                TrainConfig(**bad)
        TrainConfig(early_stop_patience=1)
        # the network validates only with both knobs
        for bad in (dict(val_fraction=0.0), dict(early_stop_patience=None)):
            with pytest.raises(ValueError, match="only together; .* val_fraction: 0 and "
                                                 "early_stop_patience: null"):
                TrainConfig(**bad)
        TrainConfig(val_fraction=0.2, early_stop_patience=5)
        TrainConfig(val_fraction=0.0, early_stop_patience=None)


class TestRoundingStability:
    def test_default_fit_ignores_rounding_of_its_inputs(self, monkeypatch):
        # the default network stops on held-out loss well before training turns
        # chaotic, so a rounding-level change of the scores keeps its fit
        data, _ = generate(replace(preset_scenario("dense"), n_subjects=400, seed=5))
        fits = []

        def recording_train_network(spec, config, X, T):
            fits.append((spec, config, X, T, *train_network(spec, config, X, T)))
            return fits[-1][4:]

        monkeypatch.setattr(pipeline, "train_network", recording_train_network)
        pipeline.train_pipeline(data, PipelineConfig())
        (spec, config, X, T, params, log), = fits
        assert config == TrainConfig()
        nudged, nudged_log = train_network(spec, config, X * (1 + 1e-14), T)
        assert log.best_epoch is not None and len(log.train_loss) < config.epochs
        assert nudged_log.best_epoch == log.best_epoch
        np.testing.assert_allclose(forward(nudged, X), forward(params, X), rtol=1e-9, atol=0)


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
