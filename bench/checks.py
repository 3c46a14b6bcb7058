"""Correctness checks of fofr's outputs against values computed apart from it.

Every reference here comes from the synthetic generator's planted truth or
from the benchmark's own arithmetic; none calls the code under test.  Each
check raises ``CheckFailed`` with a one-line reason, so the runner can count
the operation whose output it checked as failed.
"""

from __future__ import annotations

import csv

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with its independent reference."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def planted_on_grid(planted: np.ndarray, truth_grid: np.ndarray,
                    grid: np.ndarray) -> np.ndarray:
    """Resample planted curves (..., G_truth) onto the model grid (..., G)."""
    flat = planted.reshape(-1, planted.shape[-1])
    out = np.stack([np.interp(grid, truth_grid, row) for row in flat])
    return out.reshape(planted.shape[:-1] + (len(grid),))


def curve_mse(curves: np.ndarray, planted: np.ndarray) -> float:
    """Mean squared difference of two (N, D, G) stacks of curves on one grid."""
    return float(np.mean((curves - planted) ** 2))


def check_test_mse(test_mse: float, mean_curve_mse: float, max_ratio: float):
    """The fitted model must beat predicting the planted mean curve by a margin."""
    require(np.isfinite(test_mse), f"test_mse is not finite ({test_mse})")
    ratio = test_mse / mean_curve_mse
    require(ratio < max_ratio,
            f"test_mse / mean-curve error = {ratio:.4g}, limit {max_ratio}")


def observed_mse(values: np.ndarray, grid: np.ndarray, responses) -> np.ndarray:
    """Per-channel MSE of gridded predictions against observed responses.

    ``responses[i][d]`` is a (times, values) pair of subject i, channel d; the
    prediction is linearly interpolated to each observed time.
    """
    n_channels = values.shape[1]
    sse = np.zeros(n_channels)
    count = np.zeros(n_channels)
    for i, row in enumerate(responses):
        for d, (times, observed) in enumerate(row):
            resid = observed - np.interp(times, grid, values[i, d])
            sse[d] += float(resid @ resid)
            count[d] += len(times)
    return sse / count


def check_metrics_agree(label: str, reported, expected, rel: float = 1e-9):
    reported = np.asarray(reported, dtype=float)
    expected = np.asarray(expected, dtype=float)
    require(reported.shape == expected.shape,
            f"{label}: {reported.shape[0]} channels reported, {expected.shape[0]} expected")
    gap = np.max(np.abs(reported - expected) / np.abs(expected))
    require(gap <= rel, f"{label}: MSE differs from the reference by {gap:.3g} relative")


def check_ranks(n_inputs: int, n_outputs: int, planted_l: int, planted_p: int):
    require((n_inputs, n_outputs) == (planted_l, planted_p),
            f"selected L={n_inputs}, P={n_outputs}; planted L={planted_l}, P={planted_p}")


def planted_variance(basis: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Variance functions (C, G) of curves sum_p scores[:, p] * basis[p].

    ``basis`` is (P, C, G); the score covariance is the sample covariance of
    the given subjects' planted scores, so the check below compares like
    with like and leaves the subjects' sampling error out.
    """
    cov = np.atleast_2d(np.cov(scores, rowvar=False))
    return np.einsum("pcg,pq,qcg->cg", basis, cov, basis)


def integrated_relative_error(fitted: np.ndarray, planted: np.ndarray,
                              weights: np.ndarray) -> float:
    """sqrt(int (fitted - planted)^2) / sqrt(int planted^2) by quadrature."""
    return float(np.sqrt(weights @ (fitted - planted) ** 2 / (weights @ planted ** 2)))


def check_variance(label: str, fitted: np.ndarray, planted: np.ndarray,
                   weights: np.ndarray, max_error: float):
    error = integrated_relative_error(fitted, planted, weights)
    require(error < max_error,
            f"{label}: variance function off by {error:.3g} (integrated relative), "
            f"limit {max_error}")


def check_dataset_equal(loaded, generated):
    """A loaded dataset holds the generated subjects, times and values bit for bit."""
    require(tuple(loaded.subject_ids) == tuple(generated.subject_ids),
            "loaded subjects differ from the generated ones")
    sides = [("covariate", loaded.covariates, generated.covariates),
             ("response", loaded.responses, generated.responses)]
    for side, got_rows, want_rows in sides:
        require(got_rows is not None, f"loaded dataset lacks its {side}s")
        for sid, got_row, want_row in zip(loaded.subject_ids, got_rows, want_rows):
            for got, want in zip(got_row, want_row):
                require(np.array_equal(got.times, want.times)
                        and np.array_equal(got.values, want.values),
                        f"subject {sid}: loaded {side} series differs from the generated one")


def check_same_predictions(label: str, got, want):
    require(tuple(got.subject_ids) == tuple(want.subject_ids)
            and tuple(got.channel_names) == tuple(want.channel_names)
            and np.array_equal(got.grid.points, want.grid.points)
            and np.array_equal(got.values, want.values),
            f"{label}: predictions are not bit-equal")


def check_predictions_csv(path, predictions):
    """The predictions CSV holds N*D*G rows that read back to the exact floats."""
    n, d, g = predictions.values.shape
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows[0] == ["subject_id", "variable_id", "time", "value"],
            f"predictions CSV header is {rows[0]}")
    body = rows[1:]
    require(len(body) == n * d * g, f"predictions CSV has {len(body)} rows, expected {n * d * g}")
    sids = [r[0] for r in body[::g]]
    names = [r[1] for r in body[::g]]
    require(sids == [s for s in predictions.subject_ids for _ in range(d)]
            and names == list(predictions.channel_names) * n,
            "predictions CSV rows are not in subject, channel order")
    times = np.array([float(r[2]) for r in body]).reshape(n, d, g)
    values = np.array([float(r[3]) for r in body]).reshape(n, d, g)
    require(np.array_equal(times, np.broadcast_to(predictions.grid.points, (n, d, g))),
            "predictions CSV times differ from the grid")
    require(np.array_equal(values, predictions.values),
            "predictions CSV values differ from the PredictionSet")
