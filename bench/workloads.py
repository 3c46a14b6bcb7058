"""The benchmark's workloads: their inputs, the timed operations and their checks.

Every workload draws a pool of subjects from one planted scenario (the
``dense`` preset's structure, seed 31).  The first ``n_fit`` pool subjects
are fitted in every run; ``--seed`` draws the ``n_score`` scored subjects
from the rest of the pool.  Fitted and scored subjects therefore always
share one planted basis and map, and the fitting problem is the same on
every seed: with fitted sets drawn per seed, ``test_mse`` on the irregular
design spread by more than any bound can hold (see README.md).

The operations call fofr's public functions through their modules, so a
traced run that patches those functions sees every call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from fofr import cli, core, pipeline, regression, synthgen

import checks

STRUCTURE_SEED = 31  # the dense preset's own seed


@dataclass(frozen=True)
class Workload:
    name: str
    sampling: tuple          # synthgen sampling of every pool subject
    n_fit: int               # the first n_fit pool subjects are fitted
    n_score: int             # scored subjects, drawn by the seed ...
    n_reserve: int           # ... from this many pool subjects after the fitted ones
    regressor: str           # "nn" or "fflm"
    epochs: int              # network epochs; fflm ignores it
    score_passes: int        # score passes per round
    max_mse_ratio: float     # test_mse / error of the planted mean curve
    check_ranks: bool        # selected L, P equal the planted ranks
    max_variance_error: float | None  # variance functions vs planted, integrated

    @property
    def scenario(self):
        return replace(synthgen.preset_scenario("dense"), seed=STRUCTURE_SEED,
                       n_subjects=self.n_fit + self.n_reserve, sampling=self.sampling)


DENSE = ("dense", 61)
IRREGULAR = ("irregular", 20, 5)

WORKLOADS = {
    "full": {
        "dense_nn": Workload("dense_nn", DENSE, 400, 500, 555, "nn", 2000, 1,
                             0.01, True, None),
        "irregular_fflm": Workload("irregular_fflm", IRREGULAR, 120, 200, 222, "fflm", 0, 3,
                                   0.15, False, 0.25),
        "batch_score": Workload("batch_score", DENSE, 200, 2000, 2222, "fflm", 0, 1,
                                0.01, False, None),
    },
    # the same operations and checks on inputs that run in a few seconds
    "small": {
        "dense_nn": Workload("dense_nn", DENSE, 60, 20, 40, "nn", 100, 2,
                             0.05, True, None),
        "irregular_fflm": Workload("irregular_fflm", ("irregular", 12, 5), 50, 20, 40, "fflm", 0, 2,
                                   0.5, False, 0.5),
        "batch_score": Workload("batch_score", DENSE, 40, 60, 80, "fflm", 0, 1,
                                0.05, False, None),
    },
}


@dataclass
class Inputs:
    """Files the program reads, plus the generated data and truth behind them."""

    fit_csv: str
    score_csv: str
    schema_json: str
    fit_set: object       # core.FunctionalDataset
    score_set: object
    truth: object         # synthgen.GroundTruth of the whole pool
    fit_index: np.ndarray
    score_index: np.ndarray


def _subset(data, index):
    return core.FunctionalDataset(
        covariate_domain=data.covariate_domain,
        response_domain=data.response_domain,
        covariate_names=data.covariate_names,
        response_names=data.response_names,
        subject_ids=[data.subject_ids[i] for i in index],
        covariates=[data.covariates[i] for i in index],
        responses=[data.responses[i] for i in index],
    )


def make_inputs(spec: Workload, seed: int, workdir: str) -> Inputs:
    """Generate the pool, draw the scored subjects, write the CSVs and schema."""
    scenario = spec.scenario
    data, truth = synthgen.generate(scenario)
    rng = np.random.default_rng(seed)
    fit_index = np.arange(spec.n_fit)
    score_index = np.sort(spec.n_fit + rng.choice(spec.n_reserve, spec.n_score, replace=False))
    inputs = Inputs(os.path.join(workdir, "fit.csv"), os.path.join(workdir, "score.csv"),
                    os.path.join(workdir, "schema.json"),
                    _subset(data, fit_index), _subset(data, score_index), truth,
                    fit_index, score_index)
    core.write_dataset(inputs.fit_set, inputs.fit_csv)
    core.write_dataset(inputs.score_set, inputs.score_csv)
    core.write_schema(synthgen.dataset_schema(scenario), inputs.schema_json)
    return inputs


def fit(spec: Workload, inputs: Inputs, model_path: str):
    """What ``fofr train`` does: CSV on disk to a saved model."""
    schema = core.load_schema(inputs.schema_json)
    data = core.load_dataset(inputs.fit_csv, schema)
    config = pipeline.PipelineConfig(
        grid_size_s=schema.grid_size, grid_size_t=schema.grid_size,
        regressor=spec.regressor, train=regression.TrainConfig(epochs=spec.epochs))
    model, _ = pipeline.train_pipeline(data, config)
    pipeline.save_model(model, model_path)
    return model


def score(inputs: Inputs, model_path: str, predictions_csv: str):
    """What ``fofr predict`` then ``fofr evaluate`` do: saved model and CSV to
    a predictions CSV and its metrics."""
    model = pipeline.load_model(model_path)
    schema = core.load_schema(inputs.schema_json)
    data = core.load_dataset(inputs.score_csv, schema)
    predictions = pipeline.predict_pipeline(model, data)
    cli.write_predictions_csv(predictions, predictions_csv)
    report = cli.evaluate_csv(predictions_csv, inputs.score_csv)
    return data, predictions, report


def planted_curves(inputs: Inputs, grid: np.ndarray):
    """Noiseless response curves of the scored subjects and the planted mean
    curve, both on ``grid``: (N, D, G) and (1, D, G)."""
    t = inputs.truth.grid_t.points
    curves = checks.planted_on_grid(inputs.truth.noiseless_responses[inputs.score_index], t, grid)
    mean = checks.planted_on_grid(inputs.truth.response_mean, t, grid)[None]
    return curves, mean


def verify(spec: Workload, inputs: Inputs, model, model_path: str):
    """Checks of a fitted model on the fitted subjects, which do not depend on
    the seed: so this operation passes or fails alike on every run.

    Raises ``CheckFailed`` listing every check that failed.
    """
    truth = inputs.truth
    failures = []

    def attempt(check, *args):
        try:
            check(*args)
        except checks.CheckFailed as exc:
            failures.append(str(exc))

    if spec.check_ranks:
        attempt(checks.check_ranks, model.n_inputs, model.n_outputs,
                len(truth.scenario.eigenvalues_x), len(truth.scenario.eigenvalues_y))
    if spec.max_variance_error is not None:
        sides = [("covariate", model.covariate_side, truth.covariate_basis,
                  truth.covariate_scores, truth.grid_s.points),
                 ("response", model.response_side, truth.response_basis,
                  truth.response_scores, truth.grid_t.points)]
        for label, side, basis, scores, truth_grid in sides:
            planted = checks.planted_variance(basis, scores[inputs.fit_index])
            planted = checks.planted_on_grid(planted, truth_grid, side.grid.points)
            for c, params in enumerate(side.standardization):
                attempt(checks.check_variance, f"{label} channel {side.channel_names[c]}",
                        params.var_values, planted[c], side.grid.quad_weights,
                        spec.max_variance_error)
    reloaded = pipeline.load_model(model_path)
    attempt(checks.check_same_predictions, "reloaded model vs in-memory model",
            pipeline.predict_pipeline(reloaded, inputs.fit_set),
            pipeline.predict_pipeline(model, inputs.fit_set))
    checks.require(not failures, "; ".join(failures))


def check_score(spec: Workload, inputs: Inputs, loaded, predictions, report,
                predictions_csv: str) -> float:
    """Checks of one score pass; returns its test_mse."""
    checks.check_dataset_equal(loaded, inputs.score_set)
    checks.check_predictions_csv(predictions_csv, predictions)
    grid = predictions.grid.points
    observed = [[(s.times, s.values) for s in row] for row in inputs.score_set.responses]
    expected = checks.observed_mse(predictions.values, grid, observed)
    checks.check_metrics_agree("cli.evaluate_csv", report.rmse, expected)
    checks.check_metrics_agree("pipeline.evaluate",
                               pipeline.evaluate(predictions, loaded).rmse, expected)
    curves, mean = planted_curves(inputs, grid)
    test_mse = checks.curve_mse(predictions.values, curves)
    checks.check_test_mse(test_mse, checks.curve_mse(mean, curves), spec.max_mse_ratio)
    return test_mse
