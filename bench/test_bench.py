"""Tests of the benchmark itself: its reduced-size runs, its span arithmetic
and that every correctness check rejects a wrong output."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from fofr import cli, core, pipeline, synthgen  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def run_small(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_small_run_checks_every_output(workload):
    result = run_small(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # one fit, one verification and at least one score pass per round;
    # only verifications may fail (program faults on the fitted subjects)
    assert result["attempted"] >= 3
    assert result["failed"] <= result["attempted"] // 3
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_small_traced_run_reports_every_layer_metric():
    result = run_small("dense_nn", trace=1)
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["regression.adam_steps"] > 0 and metrics["regression.fit_fflm_s"] == 0
    assert metrics["smoothing.pair_sites"] <= metrics["smoothing.raw_pairs"]
    layer_self = sum(v for k, v in metrics.items()
                     if k.endswith("_s") and not k.startswith("trace.")
                     and k not in ("synthgen.generate_s", "core.write_dataset_s"))
    cycle = metrics["trace.fit_s"] + metrics["trace.score_s"]
    assert layer_self + metrics["trace.unattributed_s"] == pytest.approx(cycle, rel=0.05)


# --- span arithmetic ---

def span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_subtracts_the_union_of_child_intervals():
    trace = [
        span("op", 0.0, 10.0, None),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 5.0, 0),      # overlaps a: together they cover 1..5
        span("c", 6.0, 7.0, 0),
        span("d", 6.2, 6.7, 3),      # grandchild: counts against c, not op
    ]
    assert spans.self_times(trace) == pytest.approx([5.0, 2.0, 3.0, 0.5, 0.5])
    assert spans.roots(trace) == [0, 0, 0, 0, 0]


def test_tracer_nests_spans_of_wrapped_functions():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    callees = {"inner": lambda: 1}

    def outer():
        return callees["inner"]() + callees["inner"]()

    callees["inner"] = tracer.wrap("inner", callees["inner"], info=lambda a, k, r: r)
    with tracer.span("op"):
        assert tracer.wrap("outer", outer)() == 2
    assert [s[0] for s in tracer.spans] == ["op", "outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [None, 0, 1, 1]
    assert tracer.spans[2][4] == 1
    # op 0..7, outer 1..6, inner 2..3 and 4..5
    assert spans.self_times(tracer.spans) == [2.0, 3.0, 1.0, 1.0]


def test_patch_everywhere_reaches_names_imported_by_value_and_restores():
    tracer = spans.Tracer()
    original = core.load_dataset
    restore = spans.patch_everywhere(
        tracer, [("core.load_dataset", core, "load_dataset", None)])
    try:
        assert cli.load_dataset is core.load_dataset is not original
    finally:
        restore()
    assert cli.load_dataset is core.load_dataset is original


def test_layer_summary_takes_medians_per_operation_kind():
    trace = [
        span("fit", 0.0, 10.0, None),
        span("smoothing.smooth_covariance", 1.0, 5.0, 0),
        span("fit", 10.0, 22.0, None),
        span("smoothing.smooth_covariance", 11.0, 19.0, 2),
        span("score", 22.0, 23.0, None),
        span("core.load_dataset", 22.0, 22.5, 4),
        span("warmup", 23.0, 40.0, None),
        span("core.load_dataset", 23.0, 39.0, 6),
    ]
    trace[1][4] = trace[3][4] = [np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0])]
    trace[5][4] = trace[7][4] = 7
    out = {k: v["value"] for k, v in layers.summarize(trace).items()}
    assert out["smoothing.smooth_covariance_s"] == pytest.approx(6.0)
    assert out["core.load_dataset_s"] == pytest.approx(0.5)   # warm-up excluded
    assert out["core.rows_loaded"] == 7
    assert out["smoothing.raw_pairs"] == 3 * 2 + 2 * 1
    assert out["smoothing.pair_sites"] == 6                     # (0, 1) and (1, 0) repeat
    assert out["trace.fit_s"] == pytest.approx(11.0)
    assert out["trace.unattributed_s"] == pytest.approx(5.0 + 0.5)


# --- every check rejects a wrong output ---

@pytest.fixture(scope="module")
def planted():
    scenario = synthgen.SynthScenario(n_subjects=6, covariate_channels=1, response_channels=2,
                                      eigenvalues_y=(1.0, 0.5), noise_sd=0.1, seed=5,
                                      sampling=("dense", 21))
    return synthgen.generate(scenario)


def prediction_set(values):
    grid = core.make_grid(core.Interval(0.0, 1.0), values.shape[-1])
    return pipeline.PredictionSet(tuple(f"s{i}" for i in range(values.shape[0])),
                                  ("y1", "y2"), grid, values)


def nudge(a):
    """The same array with its first element one float step larger."""
    a = np.array(a, dtype=float)
    a.flat[0] = np.nextafter(a.flat[0], np.inf)
    return a


def test_test_mse_check_rejects_the_planted_mean_curve(planted):
    _, truth = planted
    curves = truth.noiseless_responses
    mean = np.broadcast_to(truth.response_mean, curves.shape)
    base = checks.curve_mse(mean, curves)
    checks.check_test_mse(checks.curve_mse(curves + 0.01, curves), base, 0.01)
    with pytest.raises(checks.CheckFailed):
        checks.check_test_mse(checks.curve_mse(mean, curves), base, 0.5)
    with pytest.raises(checks.CheckFailed):
        checks.check_test_mse(float("nan"), base, 0.5)


def test_variance_check_rejects_a_variance_scaled_by_one_and_a_half(planted):
    _, truth = planted
    variance = checks.planted_variance(truth.covariate_basis, truth.covariate_scores)[0]
    weights = truth.grid_s.quad_weights
    checks.check_variance("x1", variance, variance, weights, 0.25)
    with pytest.raises(checks.CheckFailed):
        checks.check_variance("x1", 1.5 * variance, variance, weights, 0.25)


def test_planted_variance_is_the_variance_of_the_planted_curves(planted):
    _, truth = planted
    curves = np.einsum("np,pcg->ncg", truth.response_scores, truth.response_basis)
    expected = np.var(curves, axis=0, ddof=1)
    got = checks.planted_variance(truth.response_basis, truth.response_scores)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


def test_rank_check_rejects_other_ranks():
    checks.check_ranks(4, 3, 4, 3)
    for wrong in ((5, 3), (4, 2)):
        with pytest.raises(checks.CheckFailed):
            checks.check_ranks(*wrong, 4, 3)


def test_observed_mse_and_agreement_check():
    grid = np.array([0.0, 0.5, 1.0])
    values = np.array([[[0.0, 1.0, 2.0], [1.0, 1.0, 1.0]]])
    observed = [[(np.array([0.25, 1.0]), np.array([1.5, 2.0])),
                 (np.array([0.5]), np.array([3.0]))]]
    mse = checks.observed_mse(values, grid, observed)
    np.testing.assert_allclose(mse, [(1.0 ** 2 + 0.0) / 2, 2.0 ** 2])
    checks.check_metrics_agree("cli", mse * (1 + 1e-12), mse)
    with pytest.raises(checks.CheckFailed):
        checks.check_metrics_agree("cli", mse * (1 + 1e-6), mse)
    with pytest.raises(checks.CheckFailed):
        checks.check_metrics_agree("cli", mse[:1], mse)


def test_dataset_check_rejects_a_one_ulp_change(planted):
    data, _ = planted
    checks.check_dataset_equal(data, data)
    rows = [list(row) for row in data.responses]
    s = rows[2][1]
    rows[2][1] = core.ObservationSeries(s.times, nudge(s.values))
    changed = core.FunctionalDataset(data.covariate_domain, data.response_domain,
                                     data.covariate_names, data.response_names,
                                     data.subject_ids, data.covariates, rows)
    with pytest.raises(checks.CheckFailed):
        checks.check_dataset_equal(changed, data)


def test_prediction_checks_reject_changed_values_and_rows(tmp_path):
    values = np.random.default_rng(0).standard_normal((3, 2, 11))
    predictions = prediction_set(values)
    path = str(tmp_path / "pred.csv")
    cli.write_predictions_csv(predictions, path)
    checks.check_predictions_csv(path, predictions)
    checks.check_same_predictions("same", predictions, prediction_set(values.copy()))
    with pytest.raises(checks.CheckFailed):
        checks.check_predictions_csv(path, prediction_set(nudge(values)))
    with pytest.raises(checks.CheckFailed):
        checks.check_same_predictions("nudged", predictions, prediction_set(nudge(values)))
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    with pytest.raises(checks.CheckFailed):
        checks.check_predictions_csv(path, predictions)
