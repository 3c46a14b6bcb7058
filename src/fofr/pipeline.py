"""End-to-end training and application of the score-space regression model.

Training: per-channel mean/covariance smoothing, point-wise standardization,
univariate then multivariate FPCA per side, score projection, and regressor
fitting.  Application: standardize new covariates with the training
parameters, project, map through the regressor, reconstruct on the response
grid and scale back to the original units.  Both score all subjects in one
pass, on an (N, C, G) array of each side's standardized grid curves.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from fofr.core import (
    EvalGrid,
    FunctionalDataset,
    Interval,
    _check_coverage,
    _config_from_json,
    _first_outside,
    _check_ints,
    _read_json,
    _write_json,
    make_grid,
)
from fofr.errors import (
    BadConfig,
    ChannelMismatch,
    CorruptArtifact,
    DomainViolation,
    EmptySpectrum,
    FofrError,
    InsufficientCoverage,
    NoOverlap,
    PipelineError,
    TooSparse,
    VersionMismatch,
)
from fofr.fpca import (
    MultivariateEigenSystem,
    TruncationRule,
    UnivariateEigenSystem,
    cumulative_fve,
    multivariate_fpca,
    project_multivariate,
    project_univariate,
    reconstruct,
    score_covariance,
    univariate_fpca,
)
from fofr.regression import (
    FflmParams,
    NetworkParams,
    NetworkSpec,
    TrainConfig,
    _checked_hidden,
    count_params,
    fit_fflm,
    forward,
    predict_fflm,
    train_network,
)
from fofr.smoothing import (
    CovarianceSurface,
    KernelSpec,
    StandardizationParams,
    build_standardization,
    resolve_bandwidths,
    smooth_covariance,
    smooth_mean,
    variance_floor,
)

logger = logging.getLogger("fofr")

MODEL_FORMAT_VERSION = "1"


@dataclass(frozen=True)
class PipelineConfig:
    grid_size_s: int = 101
    grid_size_t: int = 101
    kernel_x: KernelSpec = field(default_factory=KernelSpec)
    kernel_y: KernelSpec = field(default_factory=KernelSpec)
    truncation_x: TruncationRule = field(default_factory=TruncationRule)
    truncation_y: TruncationRule = field(default_factory=TruncationRule)
    regressor: str = "nn"  # "nn" or "fflm"
    hidden_widths: tuple = (16,)
    hidden_activation: str = "elu"
    train: TrainConfig = field(default_factory=TrainConfig)
    ridge: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths",
                           _checked_hidden(self.hidden_widths, self.hidden_activation))
        if self.regressor not in ("nn", "fflm"):
            raise ValueError(f"regressor must be 'nn' or 'fflm', got {self.regressor!r}")
        _check_ints(self, ("grid_size_s", "grid_size_t", "seed"))
        if not (0 <= self.ridge < np.inf and self.seed >= 0):
            raise ValueError("ridge must be finite and non-negative, seed non-negative")

    def to_dict(self) -> dict:
        return {**asdict(self), "hidden_widths": list(self.hidden_widths)}

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """The ``pipeline`` section of a run configuration; raises BadConfig."""
        return _config_from_json(cls, d, "pipeline")


@dataclass(frozen=True)
class SideModel:
    """Everything FPCA-related for one side (covariates or responses)."""

    grid: EvalGrid
    channel_names: tuple
    standardization: tuple          # per channel StandardizationParams
    univariate: tuple               # per channel UnivariateEigenSystem
    multivariate: MultivariateEigenSystem

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)


@dataclass(frozen=True)
class TrainedModel:
    covariate_side: SideModel
    response_side: SideModel
    regressor_kind: str             # "nn" or "fflm"
    regressor: object               # NetworkParams or FflmParams
    config: dict                    # config snapshot

    @property
    def n_inputs(self) -> int:
        return self.covariate_side.multivariate.n_components

    @property
    def n_outputs(self) -> int:
        return self.response_side.multivariate.n_components


@dataclass(frozen=True)
class PredictionSet:
    subject_ids: tuple
    channel_names: tuple
    grid: EvalGrid
    values: np.ndarray  # (N, D, G), original scale


@dataclass(frozen=True)
class MetricsReport:
    channel_names: tuple
    rmse: tuple        # mean squared error per point, as printed in the source metric
    rmspe: tuple
    n_subjects: int
    n_excluded_rmspe: tuple

    @property
    def rmse_sqrt(self) -> tuple:
        """The square root of each ``rmse``, for conventional comparison."""
        return tuple(float(np.sqrt(mse)) for mse in self.rmse)

    def to_dict(self) -> dict:
        return {
            "n_subjects": self.n_subjects,
            "channels": [
                {"channel": name, "rmse": self.rmse[d], "rmse_sqrt": self.rmse_sqrt[d],
                 "rmspe": self.rmspe[d], "n_excluded_rmspe": self.n_excluded_rmspe[d]}
                for d, name in enumerate(self.channel_names)
            ],
            "mean_rmse": float(np.mean(self.rmse)),
            "mean_rmspe": float(np.mean(self.rmspe)),
        }

    def to_table(self) -> str:
        header = f"{'channel':<12}{'rmse':>14}{'rmse_sqrt':>14}{'rmspe':>14}"
        lines = [header, "-" * len(header)]
        for name, mse, root, pe in zip(self.channel_names, self.rmse, self.rmse_sqrt, self.rmspe):
            lines.append(f"{name:<12}{mse:>14.6g}{root:>14.6g}{pe:>14.6g}")
        return "\n".join(lines)


@contextlib.contextmanager
def _stage(label: str):
    try:
        yield
    except FofrError as exc:
        raise PipelineError(label, exc) from exc


def _capped(rule: TruncationRule, cap: int) -> TruncationRule:
    """``rule`` keeping at most ``cap`` components."""
    return replace(rule, max_components=min(cap, rule.max_components or cap))


def _standardized_curves(channels, names, standardization, subject_ids) -> np.ndarray:
    """(N, C, G) grid curves of a side's series (``channels[c][i]``: subject i,
    channel c), each Z-scored at its own times, then interpolated linearly onto
    the grid and held constant beyond its observed span; raises TooSparse on a
    series with fewer than 2 observations."""
    curves = np.empty((len(subject_ids), len(names), standardization[0].grid.size))
    for c, (name, series_set, params) in enumerate(zip(names, channels, standardization)):
        for i, series in enumerate(series_set):
            if len(series) < 2:
                raise TooSparse(f"subject {subject_ids[i]!r} channel {name!r}: need at least "
                                f"2 observations to project, got {len(series)}")
            t = series.times
            z = (series.values - params.mean_at(t)) / np.sqrt(params.var_at(t))
            curves[i, c] = np.interp(params.grid.points, t, z)
    return curves


def _fit_side(channels, names, domain, grid_size, kernel, rule, side_label, subject_ids):
    """Smooth, standardize and run FPCA for one side; returns the SideModel,
    the (N, L) multivariate scores of its subjects, and per channel what the
    fit chose that the model does not hold (bandwidths, variance clipping)."""
    grid = make_grid(domain, grid_size)
    standardizations = []
    univariate_systems = []
    fits = []

    for name, series_set in zip(names, channels):
        label = f"{side_label}/channel={name}"
        with _stage(f"smoothing/{label}"):
            resolved = resolve_bandwidths(series_set, kernel, grid)
            mean = smooth_mean(series_set, resolved, grid)
            surface = smooth_covariance(series_set, mean, resolved, grid)
            params = build_standardization(mean, surface)
        standardizations.append(params)

        # covariance of the standardized process, by rescaling the raw surface
        sd = np.sqrt(params.var_values)
        z_surface = CovarianceSurface(grid, surface.values / np.outer(sd, sd))
        variance = np.diag(surface.values)
        floor = variance_floor(variance)
        times = np.concatenate([s.times for s in series_set])
        fit = {"bandwidth_mean": float(resolved.bandwidth_mean),
               "bandwidth_cov": float(resolved.bandwidth_cov),
               "variance_floor": floor, "n_variance_clipped": int(np.sum(variance < floor)),
               "n_observations": len(times), "n_sites": len(np.unique(times))}
        if fit["n_variance_clipped"]:
            logger.warning("%s: variance function clipped at %d of %d grid points (floor %.3g)",
                           label, fit["n_variance_clipped"], grid.size, floor)
        uni_rule = _capped(rule, min(len(subject_ids) - 1, grid.size))
        with _stage(f"fpca/{label}"):
            try:
                system = univariate_fpca(z_surface, uni_rule, channel=name)
            except EmptySpectrum:
                logger.warning("%s: empty spectrum; channel contributes no components", label)
                fit["warning"] = "empty spectrum"
                system = UnivariateEigenSystem(grid, np.zeros(0), np.zeros((0, grid.size)), name)
        univariate_systems.append(system)
        fits.append(fit)

    p_plus = sum(s.n_components for s in univariate_systems)
    if p_plus == 0:
        raise PipelineError(f"fpca/{side_label}",
                            EmptySpectrum("every channel has an empty spectrum"))

    with _stage(f"fpca/{side_label}/multivariate"):
        curves = _standardized_curves(channels, names, standardizations, subject_ids)
        scores = np.concatenate([project_univariate(curves[:, c], system)
                                 for c, system in enumerate(univariate_systems)], axis=1)
        xi = score_covariance(scores)
        multivariate = multivariate_fpca(univariate_systems, xi,
                                         _capped(rule, min(len(subject_ids) - 1, p_plus)))
        side_scores = project_multivariate(curves, multivariate)

    side = SideModel(grid, tuple(names), tuple(standardizations),
                     tuple(univariate_systems), multivariate)
    return side, side_scores, fits


def side_report(side: SideModel, fits=()) -> dict:
    """Eigenvalues, cumulative FVE and component count of each channel, in
    order and merged with its dict in ``fits`` if given, and of the side."""
    lam = side.multivariate.eigenvalues
    return {
        "channels": [{"channel": system.channel,
                      "eigenvalues": system.eigenvalues.tolist(),
                      "fve": cumulative_fve(system.eigenvalues).tolist(),
                      "n_components": system.n_components,
                      **(fits[c] if fits else {})}
                     for c, system in enumerate(side.univariate)],
        "multivariate_eigenvalues": lam.tolist(),
        "multivariate_fve": cumulative_fve(lam).tolist(),
        "n_components": side.multivariate.n_components,
    }


def fpca_report(model: TrainedModel) -> dict:
    """The spectra of both sides of a model, its L and P, and its regressor kind."""
    return {
        "covariate_side": side_report(model.covariate_side),
        "response_side": side_report(model.response_side),
        "L": model.n_inputs,
        "P": model.n_outputs,
        "regressor": model.regressor_kind,
    }


def train_pipeline(data: FunctionalDataset, config: PipelineConfig):
    """Train the full model; returns (TrainedModel, diagnostics dict)."""
    if data.responses is None:
        raise PipelineError("input", ChannelMismatch("training data has no responses"))

    cov_channels = [data.covariate_channel(r) for r in range(data.n_covariates)]
    res_channels = [data.response_channel(d) for d in range(data.n_responses)]
    # the smoothers need several subjects and pooled times covering each domain
    if data.n_subjects < 2:
        raise InsufficientCoverage(f"need at least 2 subjects, got {data.n_subjects}")
    for channels, names, domain in ((cov_channels, data.covariate_names, data.covariate_domain),
                                    (res_channels, data.response_names, data.response_domain)):
        for series_set, name in zip(channels, names):
            _check_coverage(series_set, domain, name)

    cov_side, inputs, cov_fits = _fit_side(
        cov_channels, data.covariate_names, data.covariate_domain, config.grid_size_s,
        config.kernel_x, config.truncation_x, "covariate", data.subject_ids)
    res_side, targets, res_fits = _fit_side(
        res_channels, data.response_names, data.response_domain, config.grid_size_t,
        config.kernel_y, config.truncation_y, "response", data.subject_ids)
    diagnostics = {"covariate": side_report(cov_side, cov_fits),
                   "response": side_report(res_side, res_fits)}

    l = cov_side.multivariate.n_components
    p = res_side.multivariate.n_components
    with _stage("regressor"):
        if config.regressor == "fflm":
            regressor = fit_fflm(inputs, targets, config.ridge)
            diagnostics["regressor"] = {"kind": "fflm", "n_params": count_params(regressor)}
        else:
            spec = NetworkSpec(l, config.hidden_widths, p, config.hidden_activation,
                               seed=config.seed)
            regressor, log = train_network(spec, config.train, inputs, targets)
            diagnostics["regressor"] = {"kind": "nn", "n_params": count_params(spec),
                                        **asdict(log)}
    diagnostics["n_inputs"] = l
    diagnostics["n_outputs"] = p

    model = TrainedModel(cov_side, res_side, config.regressor, regressor,
                         config.to_dict())
    return model, diagnostics


def predict_pipeline(model: TrainedModel, new_data: FunctionalDataset) -> PredictionSet:
    """Apply a trained model to new covariate data, scoring every subject at once."""
    cov, res = model.covariate_side, model.response_side
    if tuple(new_data.covariate_names) != cov.channel_names:
        raise ChannelMismatch(
            f"covariate channels {list(new_data.covariate_names)} do not match the "
            f"model's {list(cov.channel_names)}")
    dom = cov.grid.interval
    channels = [new_data.covariate_channel(r) for r in range(new_data.n_covariates)]
    for series_set in channels:
        i = _first_outside(series_set, dom)
        if i is not None:
            raise DomainViolation(
                f"subject {new_data.subject_ids[i]!r}: covariate times outside "
                f"the training domain [{dom.lo}, {dom.hi}]")
    curves = _standardized_curves(channels, cov.channel_names, cov.standardization,
                                  new_data.subject_ids)
    eta = project_multivariate(curves, cov.multivariate)
    regress = predict_fflm if model.regressor_kind == "fflm" else forward
    out_scores = regress(model.regressor, eta)
    sds = np.sqrt([p.var_values for p in res.standardization])
    means = np.array([p.mean_values for p in res.standardization])
    values = reconstruct(out_scores, res.multivariate) * sds + means
    return PredictionSet(tuple(new_data.subject_ids), res.channel_names, res.grid, values)


def evaluate(predictions: PredictionSet, truth: FunctionalDataset) -> MetricsReport:
    """Per-response error metrics of predictions against observed truth.

    The predicted curve is linearly interpolated from the response grid to
    each truth timestamp.  The first metric is the mean squared error per
    observation (no square root, matching the source convention);
    ``rmse_sqrt`` carries the square-rooted value.
    """
    if truth.responses is None:
        raise NoOverlap("truth dataset has no responses")
    observed = {(sid, name): (series.times, series.values)
                for sid, row in zip(truth.subject_ids, truth.responses)
                for name, series in zip(truth.response_names, row)}
    predicted = {(sid, name): (predictions.grid.points, predictions.values[i, d])
                 for i, sid in enumerate(predictions.subject_ids)
                 for d, name in enumerate(predictions.channel_names)}
    return _score_series(predicted, observed, predictions.channel_names, truth.subject_ids)


def _score_series(predicted: dict, observed: dict, channels, truth_subjects) -> MetricsReport:
    """Metrics of ``predicted`` against ``observed`` curves, both mapping
    (subject, channel) to (times, values).

    Channels are reported in the order of ``channels``, and each sum runs over
    the subjects of ``truth_subjects`` that were predicted, in that order.
    """
    missing = sorted(set(channels) - {name for _, name in observed})
    if missing:
        raise ChannelMismatch(f"truth lacks predicted channels {missing}")
    predicted_subjects = {sid for sid, _ in predicted}
    common = [sid for sid in truth_subjects if sid in predicted_subjects]
    if not common:
        raise NoOverlap("no subjects shared between predictions and truth")
    if len(common) < len(truth_subjects) or len(common) < len(predicted_subjects):
        logger.warning("evaluating %d common subjects (%d truth, %d predicted)",
                       len(common), len(truth_subjects), len(predicted_subjects))

    rmse, rmspe, excluded = [], [], []
    for name in channels:
        sse, n_obs = 0.0, 0
        ratios, n_zero = [], 0
        for sid in common:
            if (sid, name) not in observed or (sid, name) not in predicted:
                continue
            times, values = observed[sid, name]
            resid = values - np.interp(times, *predicted[sid, name])
            sq = float(np.dot(resid, resid))
            sse += sq
            n_obs += len(times)
            denom = float(np.dot(values, values))
            if denom == 0.0:
                n_zero += 1
            else:
                ratios.append(sq / denom)
        if n_obs == 0:
            raise NoOverlap(f"channel {name!r}: no overlapping observations")
        mse = sse / n_obs
        rmse.append(mse)
        rmspe.append(float(np.mean(ratios)) if ratios else 0.0)
        excluded.append(n_zero)
    return MetricsReport(tuple(channels), tuple(rmse), tuple(rmspe), len(common),
                         tuple(excluded))


def split_subjects(dataset: FunctionalDataset, test_fraction: float, seed: int):
    """Seeded subject-level train/test split; returns (train, test) datasets."""
    if not 0.0 < test_fraction < 1.0:
        raise BadConfig("test_fraction must lie in (0, 1)")
    n = dataset.n_subjects
    n_test = max(1, int(round(test_fraction * n)))
    if n_test >= n - 1:
        raise BadConfig("split leaves fewer than 2 training subjects")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])

    def subset(idx):
        return replace(dataset, subject_ids=[dataset.subject_ids[i] for i in idx],
                       covariates=[dataset.covariates[i] for i in idx],
                       responses=None if dataset.responses is None
                       else [dataset.responses[i] for i in idx])

    return subset(train_idx), subset(test_idx)


# --- persistence ---

def _grid_to_dict(grid: EvalGrid) -> dict:
    return {"lo": float(grid.points[0]), "hi": float(grid.points[-1]), "size": grid.size}


def _grid_from_dict(d: dict) -> EvalGrid:
    return make_grid(Interval(d["lo"], d["hi"]), d["size"])


def _side_to_dict(side: SideModel) -> dict:
    return {
        "grid": _grid_to_dict(side.grid),
        "channel_names": list(side.channel_names),
        "mean": [p.mean_values.tolist() for p in side.standardization],
        "variance": [p.var_values.tolist() for p in side.standardization],
        "univariate": [
            {"channel": s.channel,
             "eigenvalues": s.eigenvalues.tolist(),
             "eigenfunctions": s.eigenfunctions.tolist()}
            for s in side.univariate
        ],
        "multivariate": {
            "eigenvalues": side.multivariate.eigenvalues.tolist(),
            "eigenfunctions": side.multivariate.eigenfunctions.tolist(),
            "block_vectors": side.multivariate.block_vectors.tolist(),
            "block_widths": list(side.multivariate.block_widths),
        },
    }


def _array(values, shape: tuple, name: str) -> np.ndarray:
    """A float array of ``shape`` read from an artifact, where ``[]`` stands
    for any empty shape; raises ValueError naming ``name`` on a mismatch."""
    a = np.array(values, dtype=float)
    if a.size == 0 == np.prod(shape):
        a = a.reshape(shape)
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    return a


def _eigen_arrays(d: dict, shape: tuple, name: str):
    """Eigenvalues and eigenfunctions, each of ``shape``, of an artifact's eigen system."""
    n = len(d["eigenvalues"])
    return (_array(d["eigenvalues"], (n,), f"{name}.eigenvalues"),
            _array(d["eigenfunctions"], (n, *shape), f"{name}.eigenfunctions"))


def _side_from_dict(d: dict, label: str) -> SideModel:
    grid = _grid_from_dict(d["grid"])
    names = tuple(d["channel_names"])
    g = grid.size
    if not len(names) == len(d["mean"]) == len(d["variance"]) == len(d["univariate"]):
        raise ValueError(f"{label}: mean, variance and univariate systems do not match "
                         f"the {len(names)} channels")
    standardization = tuple(
        StandardizationParams(grid, _array(m, (g,), f"{label}.mean[{c}]"),
                              _array(v, (g,), f"{label}.variance[{c}]"))
        for c, (m, v) in enumerate(zip(d["mean"], d["variance"])))
    univariate = tuple(
        UnivariateEigenSystem(grid, *_eigen_arrays(u, (g,), f"{label}.univariate[{c}]"),
                              u["channel"])
        for c, u in enumerate(d["univariate"]))
    m = d["multivariate"]
    widths = tuple(m["block_widths"])
    lam, funcs = _eigen_arrays(m, (len(names), g), f"{label}.multivariate")
    multivariate = MultivariateEigenSystem(
        grid, lam, funcs, _array(m["block_vectors"], (len(lam), sum(widths)),
                                 f"{label}.multivariate.block_vectors"), widths)
    return SideModel(grid, names, standardization, univariate, multivariate)


def _regressor_to_dict(kind: str, regressor) -> dict:
    if kind == "fflm":
        return {"kind": "fflm", "B": regressor.B.tolist()}
    return {
        "kind": "nn",
        "hidden_activation": regressor.hidden_activation,
        "weights": [w.tolist() for w in regressor.weights],
        "biases": [b.tolist() for b in regressor.biases],
    }


def _regressor_from_dict(d: dict, l: int, p: int):
    """The regressor of an artifact, checked to map L input scores to P outputs."""
    if d["kind"] == "fflm":
        return "fflm", FflmParams(_array(d["B"], (p, l), "regressor.B"))
    if d["kind"] != "nn":
        raise ValueError(f"unknown regressor kind {d['kind']!r}")
    dims = [l, *(len(w) for w in d["weights"][:-1]), p]
    if not len(d["weights"]) == len(d["biases"]) == len(dims) - 1:
        raise ValueError("regressor weights and biases differ in layer count")
    params = NetworkParams(
        [_array(w, (o, i), f"regressor.weights[{k}]")
         for k, (w, i, o) in enumerate(zip(d["weights"], dims, dims[1:]))],
        [_array(b, (o,), f"regressor.biases[{k}]")
         for k, (b, o) in enumerate(zip(d["biases"], dims[1:]))],
        d["hidden_activation"])
    return "nn", params


def _checksum(payload: dict) -> str:
    """sha256 of the payload's canonical JSON."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def model_to_dict(model: TrainedModel) -> dict:
    payload = {
        "covariate_side": _side_to_dict(model.covariate_side),
        "response_side": _side_to_dict(model.response_side),
        "regressor": _regressor_to_dict(model.regressor_kind, model.regressor),
        "config": model.config,
    }
    return {"format_version": MODEL_FORMAT_VERSION, "checksum": _checksum(payload),
            "payload": payload}


def save_model(model: TrainedModel, path):
    _write_json(path, model_to_dict(model))


def load_model(path) -> TrainedModel:
    doc = _read_json(path, CorruptArtifact)  # an unreadable path stays an OSError
    if not isinstance(doc, dict) or "payload" not in doc:
        raise CorruptArtifact(f"{path}: not a model artifact")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise VersionMismatch(
            f"{path}: artifact version {version!r}, this build reads {MODEL_FORMAT_VERSION!r}")
    if _checksum(doc["payload"]) != doc.get("checksum"):
        raise CorruptArtifact(f"{path}: checksum mismatch")
    payload = doc["payload"]
    try:
        covariate_side = _side_from_dict(payload["covariate_side"], "covariate_side")
        response_side = _side_from_dict(payload["response_side"], "response_side")
        kind, regressor = _regressor_from_dict(
            payload["regressor"], covariate_side.multivariate.n_components,
            response_side.multivariate.n_components)
        config = payload["config"]
    except (FofrError, KeyError, TypeError, ValueError) as exc:
        raise CorruptArtifact(f"{path}: bad model payload ({type(exc).__name__}: {exc})") from exc
    return TrainedModel(covariate_side, response_side, kind, regressor, config)
