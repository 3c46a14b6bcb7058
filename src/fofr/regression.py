"""Score-space regressors: a small fully connected network trained by
backpropagation, and the closed-form linear baseline between score spaces.

Training keeps every weight and bias as a view into one flat parameter
vector, writes the backward pass into one flat gradient buffer, and runs one
fused Adam update on the flat arrays per step.  Each element goes through the
same operations in the same order as a per-layer update would, so the trained
parameters and losses are unchanged by the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fofr.core import _check_ints, _is_int, _is_real
from fofr.errors import DivergenceDetected, ShapeMismatch

ACTIVATIONS = ("elu", "relu", "tanh")
#: Kingma & Ba's Adam constants: the moment decay rates and the denominator's epsilon
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
#: an epoch whose training loss is not finite, or exceeds this multiple of
#: the initial network's loss, has diverged
DIVERGENCE_RATIO = 1e3


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    hidden_widths: tuple = (16,)
    output_dim: int = 1
    hidden_activation: str = "elu"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths",
                           _checked_hidden(self.hidden_widths, self.hidden_activation))
        _check_ints(self, ("input_dim", "output_dim", "seed"), error=ShapeMismatch)
        if self.input_dim < 1 or self.output_dim < 1:
            raise ShapeMismatch("input_dim and output_dim must be >= 1")

    @property
    def layer_dims(self) -> list:
        return [self.input_dim, *self.hidden_widths, self.output_dim]


@dataclass
class NetworkParams:
    """Per-layer (out x in) weight matrices and (out,) bias vectors."""

    weights: list
    biases: list
    hidden_activation: str = "elu"

    def __post_init__(self):
        _checked_hidden((), self.hidden_activation)


def _checked_hidden(hidden_widths, hidden_activation: str) -> tuple:
    """``hidden_widths`` as a tuple of ints, once each width is checked to be
    an integer >= 1 (a numpy integer passes; a bool, float or string does
    not) and ``hidden_activation`` to be one of ACTIVATIONS; raises ValueError."""
    widths = tuple(hidden_widths)
    if not all(_is_int(w) and w >= 1 for w in widths):
        raise ValueError(f"hidden_widths must be integers >= 1, got {list(widths)}")
    if hidden_activation not in ACTIVATIONS:
        raise ValueError(f"unknown hidden activation {hidden_activation!r}")
    return tuple(int(w) for w in widths)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    batch_size: int = 32
    learning_rate: float = 1e-2
    #: stop on the loss of val_fraction of the samples, held out; 0 and None turn it off
    early_stop_patience: int | None = 100
    val_fraction: float = 0.2

    def __post_init__(self):
        _check_ints(self, ("epochs", "batch_size"), ("early_stop_patience",))
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError(f"epochs must be >= 0 and batch_size >= 1, got {self.epochs}, "
                             f"{self.batch_size}")
        if not _is_real(self.learning_rate) or not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ValueError(
                f"early_stop_patience must be >= 1, got {self.early_stop_patience!r}")
        if not _is_real(self.val_fraction) or not 0.0 <= self.val_fraction <= 0.5:
            raise ValueError(f"val_fraction must lie in [0, 0.5], got {self.val_fraction!r}")
        if (self.val_fraction > 0) != (self.early_stop_patience is not None):
            raise ValueError("val_fraction and early_stop_patience work only together; turn early "
                             "stopping off with val_fraction: 0 and early_stop_patience: null")


@dataclass(frozen=True)
class FflmParams:
    """Linear baseline: a (P x L) map between input and target score spaces."""

    B: np.ndarray

    def __post_init__(self):
        # C order whatever the source, so that a reloaded B predicts bit-equal
        B = np.ascontiguousarray(self.B, dtype=float)
        object.__setattr__(self, "B", B)
        if B.ndim != 2 or not np.all(np.isfinite(B)):
            raise ShapeMismatch("B must be a finite 2-d matrix")


@dataclass
class TrainLog:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    best_epoch: int | None = None
    steps: int = 0  # optimizer steps taken


def init_network(spec: NetworkSpec) -> NetworkParams:
    """Uniform(-1, 1)/sqrt(fan_in) weights, zero biases; deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    weights, biases = [], []
    dims = spec.layer_dims
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return NetworkParams(weights, biases, spec.hidden_activation)


def _act(name: str, x: np.ndarray) -> np.ndarray:
    if name == "elu":
        return np.where(x >= 0, x, np.expm1(np.minimum(x, 0.0)))
    if name == "relu":
        return np.maximum(0.0, x)
    return np.tanh(x)


def _act_grad(name: str, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "elu":
        return np.where(x >= 0, 1.0, a + 1.0)
    if name == "relu":
        return (x > 0).astype(float)
    return 1.0 - a * a


def _forward_cached(params: NetworkParams, X: np.ndarray):
    pre, post = [], [X]
    a = X
    n_layers = len(params.weights)
    for k, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ W.T + b
        pre.append(z)
        a = z if k == n_layers - 1 else _act(params.hidden_activation, z)
        post.append(a)
    return pre, post


def forward(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on a single input vector or an (n, L) batch."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.shape[1] != params.weights[0].shape[1]:
        raise ShapeMismatch(
            f"input has {X.shape[1]} features, network expects {params.weights[0].shape[1]}")
    _, post = _forward_cached(params, X)
    out = post[-1]
    return out[0] if single else out


def mse_loss(params: NetworkParams, X: np.ndarray, T: np.ndarray) -> float:
    """Mean over samples and output coordinates of the squared residual."""
    pred = forward(params, X)
    return float(np.mean((pred - T) ** 2))


def _backprop(params: NetworkParams, X: np.ndarray, T: np.ndarray, grads_w: list,
              grads_b: list):
    """Write the exact gradients of the batch MSE loss into ``grads_w`` and
    ``grads_b``, one (out x in) and one (out,) array per layer; no checks."""
    pre, post = _forward_cached(params, X)
    n, p = T.shape
    delta = 2.0 * (post[-1] - T) / (n * p)
    for k in range(len(params.weights) - 1, -1, -1):
        np.matmul(delta.T, post[k], out=grads_w[k])
        np.add.reduce(delta, axis=0, out=grads_b[k])
        if k > 0:
            delta = (delta @ params.weights[k]) * _act_grad(
                params.hidden_activation, pre[k - 1], post[k])


def gradients(params: NetworkParams, batch_inputs: np.ndarray,
              batch_targets: np.ndarray):
    """Exact gradients of the batch MSE loss for every weight and bias."""
    X = np.atleast_2d(np.asarray(batch_inputs, dtype=float))
    T = np.atleast_2d(np.asarray(batch_targets, dtype=float))
    if X.shape[0] != T.shape[0]:
        raise ShapeMismatch("batch inputs and targets disagree on sample count")
    if T.shape[1] != params.weights[-1].shape[0]:
        raise ShapeMismatch(
            f"targets have {T.shape[1]} outputs, network produces {params.weights[-1].shape[0]}")
    grads_w = [np.empty_like(w) for w in params.weights]
    grads_b = [np.empty_like(b) for b in params.biases]
    _backprop(params, X, T, grads_w, grads_b)
    return grads_w, grads_b


def _layer_views(flat: np.ndarray, dims: list):
    """Per-layer (out x in) weight and (out,) bias views of a flat vector that
    holds each layer's weights, row-major, followed by its biases."""
    weights, biases, lo = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        mid = lo + fan_out * fan_in
        weights.append(flat[lo:mid].reshape(fan_out, fan_in))
        biases.append(flat[mid:mid + fan_out])
        lo = mid + fan_out
    return weights, biases


def train_network(spec: NetworkSpec, config: TrainConfig, inputs: np.ndarray,
                  targets: np.ndarray):
    """Mini-batch training of the score-space network; deterministic per ``spec.seed``.

    Returns (NetworkParams, TrainLog).  When early stopping is configured the
    parameters at the best validation loss are returned; otherwise the final
    parameters.  Either way the weights and biases are C-contiguous views into
    one flat parameter vector.
    """
    X = np.asarray(inputs, dtype=float)
    T = np.asarray(targets, dtype=float)
    if X.ndim != 2 or T.ndim != 2 or X.shape[0] != T.shape[0]:
        raise ShapeMismatch("inputs must be (N, L) and targets (N, P) with matching N")
    if X.shape[0] < 2:
        raise ShapeMismatch("training needs N >= 2 samples")
    if X.shape[1] != spec.input_dim or T.shape[1] != spec.output_dim:
        raise ShapeMismatch(
            f"data dims ({X.shape[1]}, {T.shape[1]}) do not match spec "
            f"({spec.input_dim}, {spec.output_dim})")

    rng = np.random.default_rng(spec.seed)
    n = X.shape[0]
    use_val = config.val_fraction > 0
    if use_val:
        val, tr = np.split(rng.permutation(n), [max(1, int(round(config.val_fraction * n)))])
        X_val, T_val, X_tr, T_tr = X[val], T[val], X[tr], T[tr]
    else:
        X_tr, T_tr = X, T

    dims = spec.layer_dims
    init = init_network(spec)
    theta = np.concatenate([a.ravel() for w, b in zip(init.weights, init.biases)
                            for a in (w, b)])
    params = NetworkParams(*_layer_views(theta, dims), spec.hidden_activation)
    grad = np.zeros_like(theta)
    grads_w, grads_b = _layer_views(grad, dims)
    m, v = np.zeros_like(theta), np.zeros_like(theta)  # Adam's moment estimates
    lr = config.learning_rate
    initial_loss = mse_loss(params, X_tr, T_tr)
    log = TrainLog()
    best_loss, best_theta = np.inf, None
    n_tr = X_tr.shape[0]
    batch = min(config.batch_size, n_tr)

    for epoch in range(config.epochs):
        order = rng.permutation(n_tr)
        for lo in range(0, n_tr, batch):
            idx = order[lo:lo + batch]
            _backprop(params, X_tr[idx], T_tr[idx], grads_w, grads_b)
            log.steps += 1
            m *= ADAM_BETA1
            m += grad * (1 - ADAM_BETA1)
            v *= ADAM_BETA2
            v += grad * (1 - ADAM_BETA2) * grad
            theta -= (m / (1 - ADAM_BETA1 ** log.steps) * lr
                      / (np.sqrt(v / (1 - ADAM_BETA2 ** log.steps)) + ADAM_EPS))
        train_loss = mse_loss(params, X_tr, T_tr)
        if not train_loss <= DIVERGENCE_RATIO * initial_loss:  # also when NaN
            raise DivergenceDetected(f"training diverged at epoch {epoch}: loss "
                                     f"{train_loss:.3g}, initial loss {initial_loss:.3g}")
        log.train_loss.append(train_loss)
        if use_val:
            val_loss = mse_loss(params, X_val, T_val)
            log.val_loss.append(val_loss)
            if val_loss < best_loss:
                best_loss, best_theta, log.best_epoch = val_loss, theta.copy(), epoch
            elif epoch - (log.best_epoch or 0) >= config.early_stop_patience:
                break

    if best_theta is not None:
        return NetworkParams(*_layer_views(best_theta, dims), spec.hidden_activation), log
    return params, log


def fit_fflm(inputs: np.ndarray, targets: np.ndarray, ridge: float = 0.0) -> FflmParams:
    """Least-squares fit of the score-space linear map.

    ridge = 0 returns the minimal-norm solution when rank-deficient;
    ridge > 0 solves the Tikhonov-regularized normal equations.
    """
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    T = np.atleast_2d(np.asarray(targets, dtype=float))
    if X.shape[0] != T.shape[0]:
        raise ShapeMismatch("inputs and targets disagree on sample count")
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    if ridge == 0:
        sol, *_ = np.linalg.lstsq(X, T, rcond=None)
    else:
        l = X.shape[1]
        sol = np.linalg.solve(X.T @ X + ridge * np.eye(l), X.T @ T)
    return FflmParams(sol.T)


def predict_fflm(params: FflmParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if len(x) != params.B.shape[1]:
            raise ShapeMismatch(f"input length {len(x)} != {params.B.shape[1]}")
        return params.B @ x
    return x @ params.B.T


def count_params(model) -> int:
    """Scalar parameter count of a NetworkSpec, NetworkParams or FflmParams."""
    if isinstance(model, NetworkSpec):
        dims = model.layer_dims
        return sum(i * o + o for i, o in zip(dims[:-1], dims[1:]))
    if isinstance(model, NetworkParams):
        return sum(w.size for w in model.weights) + sum(b.size for b in model.biases)
    if isinstance(model, FflmParams):
        return int(model.B.size)
    raise TypeError(f"cannot count parameters of {type(model).__name__}")
