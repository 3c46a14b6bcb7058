"""Per-layer metrics of a traced run, named ``<module>.<what>``.

Every ``*_s`` metric is a self time: the span's duration minus the time of
the traced calls inside it.  Values are per fit-and-score cycle: for each
metric, the median over the run's setup repeats, plus the median over its
fits, plus the median over its score passes, of the metric's total within
that operation.  The self times of one cycle's spans therefore add up to
``trace.fit_s + trace.score_s`` less ``trace.unattributed_s``.
"""

from __future__ import annotations

import math
import os
import statistics

import numpy as np

from fofr import cli, core, fpca, pipeline, regression, smoothing, synthgen

import spans as spanlib

OPERATIONS = ("setup", "fit", "score")


def _rows(args, kwargs, dataset):
    rows = sum(len(s) for row in dataset.covariates for s in row)
    if dataset.responses is not None:
        rows += sum(len(s) for row in dataset.responses for s in row)
    return rows


def _channel_times(args, kwargs, result):
    return [s.times for s in args[0]]


def _adam_steps(args, kwargs, result):
    config, inputs = args[1], args[2]
    n = np.asarray(inputs).shape[0]
    return len(result[1].train_loss) * math.ceil(n / min(config.batch_size, n))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def _prediction_rows(args, kwargs, result):
    return int(args[0].values.size)


#: (span name, module, function, info hook) for every traced public function
TARGETS = [
    ("synthgen.generate", synthgen, "generate", None),
    ("core.write_dataset", core, "write_dataset", None),
    ("core.load_dataset", core, "load_dataset", _rows),
    ("smoothing.resolve_bandwidths", smoothing, "resolve_bandwidths", None),
    ("smoothing.smooth_mean", smoothing, "smooth_mean", None),
    ("smoothing.smooth_covariance", smoothing, "smooth_covariance", _channel_times),
    ("fpca.univariate_fpca", fpca, "univariate_fpca", None),
    ("fpca.multivariate_fpca", fpca, "multivariate_fpca", None),
    ("fpca.project_univariate", fpca, "project_univariate", None),
    ("fpca.project_multivariate", fpca, "project_multivariate", None),
    ("regression.train_network", regression, "train_network", _adam_steps),
    ("regression.fit_fflm", regression, "fit_fflm", None),
    ("pipeline.train_pipeline", pipeline, "train_pipeline", None),
    ("pipeline.predict_pipeline", pipeline, "predict_pipeline", None),
    ("pipeline.save_model", pipeline, "save_model", _file_bytes),
    ("pipeline.load_model", pipeline, "load_model", None),
    ("cli.write_predictions_csv", cli, "write_predictions_csv", _prediction_rows),
    ("cli.evaluate_csv", cli, "evaluate_csv", None),
]

PROJECT = ("fpca.project_univariate", "fpca.project_multivariate")

#: metric name -> spans whose self time it sums
TIME_METRICS = {
    "core.load_dataset_s": ["core.load_dataset"],
    "core.write_dataset_s": ["core.write_dataset"],
    "smoothing.resolve_bandwidths_s": ["smoothing.resolve_bandwidths"],
    "smoothing.smooth_mean_s": ["smoothing.smooth_mean"],
    "smoothing.smooth_covariance_s": ["smoothing.smooth_covariance"],
    "fpca.univariate_fpca_s": ["fpca.univariate_fpca"],
    "fpca.multivariate_fpca_s": ["fpca.multivariate_fpca"],
    "fpca.project_s": list(PROJECT),
    "regression.train_network_s": ["regression.train_network"],
    "regression.fit_fflm_s": ["regression.fit_fflm"],
    "pipeline.train_pipeline_self_s": ["pipeline.train_pipeline"],
    "pipeline.predict_pipeline_s": ["pipeline.predict_pipeline"],
    "pipeline.save_model_s": ["pipeline.save_model"],
    "pipeline.load_model_s": ["pipeline.load_model"],
    "cli.write_predictions_csv_s": ["cli.write_predictions_csv"],
    "cli.evaluate_csv_s": ["cli.evaluate_csv"],
    "synthgen.generate_s": ["synthgen.generate"],
}


def raw_pairs(channel_times) -> int:
    """Off-diagonal within-subject pairs, sum of m_i (m_i - 1)."""
    return sum(len(t) * (len(t) - 1) for t in channel_times)


def pair_sites(channel_times) -> int:
    """Distinct (t, t') sites among the off-diagonal within-subject pairs."""
    sites = []
    for t in channel_times:
        off = ~np.eye(len(t), dtype=bool)
        sites.append((t[:, None] + 1j * t[None, :])[off])
    return len(np.unique(np.concatenate(sites))) if sites else 0


#: metric name -> function of one operation's spans (list of span lists)
COUNT_METRICS = {
    "core.rows_loaded": lambda ss: sum(s[4] for s in ss if s[0] == "core.load_dataset"),
    "smoothing.raw_pairs": lambda ss: sum(
        raw_pairs(s[4]) for s in ss if s[0] == "smoothing.smooth_covariance"),
    "smoothing.pair_sites": lambda ss: sum(
        pair_sites(s[4]) for s in ss if s[0] == "smoothing.smooth_covariance"),
    "fpca.project_calls": lambda ss: sum(1 for s in ss if s[0] in PROJECT),
    "regression.adam_steps": lambda ss: sum(
        s[4] for s in ss if s[0] == "regression.train_network"),
    "pipeline.model_bytes": lambda ss: sum(s[4] for s in ss if s[0] == "pipeline.save_model"),
    "cli.prediction_rows": lambda ss: sum(
        s[4] for s in ss if s[0] == "cli.write_predictions_csv"),
}

UNITS = {**{name: "s" for name in TIME_METRICS}, **{name: "count" for name in COUNT_METRICS},
         "trace.fit_s": "s", "trace.score_s": "s", "trace.unattributed_s": "s"}


def summarize(all_spans) -> dict:
    """Per-layer metrics from the spans of a traced run."""
    selfs = spanlib.self_times(all_spans)
    top = spanlib.roots(all_spans)
    ops = {kind: {} for kind in OPERATIONS}  # kind -> root index -> [span indices]
    for i, r in enumerate(top):
        kind = all_spans[r][0]
        if kind in ops:
            ops[kind].setdefault(r, []).append(i)

    def per_cycle(measure) -> float:
        total = 0.0
        for members in ops.values():
            if members:
                total += statistics.median(measure(m) for m in members.values())
        return total

    out = {}
    for name, span_names in TIME_METRICS.items():
        out[name] = per_cycle(lambda m: sum(selfs[i] for i in m if all_spans[i][0] in span_names))
    for name, count in COUNT_METRICS.items():
        out[name] = per_cycle(lambda m: count([all_spans[i] for i in m]))
    for kind in ("fit", "score"):
        out[f"trace.{kind}_s"] = statistics.median(
            all_spans[r][2] - all_spans[r][1] for r in ops[kind])
    out["trace.unattributed_s"] = sum(
        statistics.median(selfs[r] for r in ops[kind]) for kind in ("fit", "score"))
    return {name: {"value": value, "unit": UNITS[name]} for name, value in out.items()}
