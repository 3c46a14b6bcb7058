"""End-to-end pipeline, persistence and metric tests."""

import hashlib
import io
import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from fofr.cli import SplitConfig
from fofr.core import DatasetSchema, FunctionalDataset, Interval, ObservationSeries, make_grid
from fofr import pipeline
from fofr.errors import (
    BadConfig,
    BadScenario,
    ChannelMismatch,
    CorruptArtifact,
    DomainViolation,
    EmptySpectrum,
    MalformedRow,
    NoOverlap,
    PipelineError,
    ShapeMismatch,
    TooSparse,
    VersionMismatch,
)
from fofr.fpca import TruncationRule
from fofr.pipeline import (
    MetricsReport,
    PipelineConfig,
    PredictionSet,
    evaluate,
    load_model,
    model_to_dict,
    predict_pipeline,
    save_model,
    split_subjects,
    train_pipeline,
)
from fofr.regression import NetworkSpec, TrainConfig, fit_fflm, forward, predict_fflm
from fofr.smoothing import KernelSpec, standardize
from fofr.synthgen import SynthScenario, generate, preset_scenario


@pytest.fixture(scope="module")
def small_linear():
    sc = replace(preset_scenario("linear"), n_subjects=60)
    data, truth = generate(sc)
    return data, truth


@pytest.fixture(scope="module")
def fflm_model(small_linear):
    data, _ = small_linear
    return train_pipeline(data, PipelineConfig(regressor="fflm"))


@pytest.fixture(scope="module")
def nn_model(small_linear):
    data, _ = small_linear
    return train_pipeline(data, PipelineConfig(train=TrainConfig(epochs=5)))


class TestTrain:
    def test_in_sample_accuracy(self, small_linear, fflm_model):
        data, _ = small_linear
        model, diag = fflm_model
        pred = predict_pipeline(model, data)
        report = evaluate(pred, data)
        assert max(report.rmspe) < 1e-2
        assert diag["n_inputs"] == 4 and diag["n_outputs"] == 3

    def test_diagnostics_contents(self, fflm_model):
        _, diag = fflm_model
        assert set(diag) >= {"covariate", "response", "regressor",
                             "n_inputs", "n_outputs"}
        cov = diag["covariate"]
        assert [ch["channel"] for ch in cov["channels"]] == ["x1", "x2"]
        assert all(ch["bandwidth_mean"] > 0 and ch["bandwidth_cov"] > 0
                   for ch in cov["channels"])
        assert cov["multivariate_fve"][-1] == pytest.approx(1.0)

    def test_diagnostics_work_counts(self):
        # irregular times: the pooled observations of a channel fall on
        # nearly as many distinct sites
        sc = replace(preset_scenario("linear"), n_subjects=30, sampling=("irregular", 12, 5))
        data, _ = generate(sc)
        _, diag = train_pipeline(data, PipelineConfig(regressor="fflm"))
        for side, channels in (("covariate", [data.covariate_channel(r) for r in range(2)]),
                               ("response", [data.response_channel(d) for d in range(2)])):
            for entry, series in zip(diag[side]["channels"], channels):
                times = np.concatenate([s.times for s in series])
                assert entry["n_observations"] == len(times) == sum(len(s) for s in series)
                assert entry["n_sites"] == len(set(times.tolist()))
                assert 5 * len(series) <= entry["n_sites"] <= entry["n_observations"]

    def test_report_is_the_spectrum_of_the_diagnostics(self, fflm_model):
        model, diag = fflm_model
        report = pipeline.fpca_report(model)
        fit_keys = {"bandwidth_mean", "bandwidth_cov", "variance_floor",
                    "n_variance_clipped", "n_observations", "n_sites", "warning"}
        for side in ("covariate", "response"):
            spectrum = {**diag[side], "channels": [
                {k: v for k, v in ch.items() if k not in fit_keys}
                for ch in diag[side]["channels"]]}
            assert report[f"{side}_side"] == spectrum

    def test_nn_regressor_trains(self, small_linear):
        data, _ = small_linear
        cfg = PipelineConfig(regressor="nn", train=TrainConfig(epochs=50), seed=3)
        model, diag = train_pipeline(data, cfg)
        reg = diag["regressor"]
        assert reg["kind"] == "nn"
        assert reg["train_loss"][-1] < reg["train_loss"][0]
        # the default holds out 20 % of the subjects; one step per batch of 32
        assert set(reg) == {"kind", "n_params", "train_loss", "val_loss", "best_epoch", "steps"}
        n_train = data.n_subjects - round(0.2 * data.n_subjects)
        assert reg["steps"] == len(reg["train_loss"]) * -(-n_train // 32)

    def test_empty_spectrum_channel_contributes_nothing(self, small_linear, monkeypatch,
                                                         caplog):
        def fpca(surface, rule, channel=""):
            if channel == "x2":
                raise EmptySpectrum(f"channel {channel!r}: no positive eigenvalues")
            return univariate_fpca(surface, rule, channel=channel)

        univariate_fpca = pipeline.univariate_fpca
        monkeypatch.setattr(pipeline, "univariate_fpca", fpca)
        data, _ = small_linear
        model, diag = train_pipeline(data, PipelineConfig(regressor="fflm"))
        x2 = diag["covariate"]["channels"][1]
        assert x2["channel"] == "x2" and x2["warning"] == "empty spectrum"
        assert x2["n_components"] == 0 and x2["eigenvalues"] == [] and x2["fve"] == []
        assert model.covariate_side.univariate[1].eigenfunctions.shape == (0, 101)
        assert model.covariate_side.multivariate.block_widths[1] == 0
        assert any("empty spectrum" in r.message for r in caplog.records)

    def test_config_from_dict_rejects(self):
        for bad in ([1], {"bogus": 1}, {"train": {"epochs": "many"}}, {"train": {"bogus": 1}},
                    {"kernel_x": [1]}, {"truncation_y": "x"}, {"seed": True},
                    {"hidden_widths": ["x"]}, {"ridge": -1.0}):
            with pytest.raises(BadConfig):
                PipelineConfig.from_dict(bad)

    @pytest.mark.parametrize("widths", [[0], [16, -2], [1.5], [True], ["16"]])
    def test_hidden_widths_must_be_integers_of_at_least_one(self, widths):
        with pytest.raises(BadConfig, match="hidden_widths"):
            PipelineConfig.from_dict({"hidden_widths": widths})

    def test_numpy_integer_hidden_widths(self):
        widths = PipelineConfig(hidden_widths=np.array([8, 4])).hidden_widths
        assert widths == (8, 4) and all(type(w) is int for w in widths)

    def test_variance_clip_is_logged_once_under_its_channel(self, caplog):
        # 60 subjects at about 4 points each leave a few covariance-diagonal
        # values below the floor on x1 and y1
        sc = replace(preset_scenario("dense"), n_subjects=60, sampling=("irregular", 4, 2))
        data, _ = generate(sc)
        with caplog.at_level("WARNING", logger="fofr"):
            _, diag = train_pipeline(data, PipelineConfig(regressor="fflm"))
        clipped = [f"{side}/channel={ch['channel']}: variance function clipped at "
                   f"{ch['n_variance_clipped']} of 101 grid points"
                   for side in ("covariate", "response") for ch in diag[side]["channels"]
                   if ch["n_variance_clipped"]]
        logged = [r.getMessage() for r in caplog.records if "clipped" in r.getMessage()]
        assert len(clipped) == 2 and len(logged) == len(clipped)
        assert all(line.startswith(prefix) for line, prefix in zip(logged, clipped))

    def test_requires_responses(self, small_linear):
        data, _ = small_linear
        bare = FunctionalDataset(
            covariate_domain=data.covariate_domain,
            response_domain=data.response_domain,
            covariate_names=data.covariate_names,
            response_names=data.response_names,
            subject_ids=data.subject_ids,
            covariates=data.covariates,
            responses=None,
        )
        with pytest.raises(PipelineError) as err:
            train_pipeline(bare, PipelineConfig())
        assert err.value.stage == "input"

    def test_stage_labeled_smoothing_failure(self, small_linear):
        data, _ = small_linear
        cfg = PipelineConfig(
            kernel_x=KernelSpec("epanechnikov", bandwidth_mean=1e-9, bandwidth_cov=1e-9))
        with pytest.raises(PipelineError) as err:
            train_pipeline(data, cfg)
        assert err.value.stage.startswith("smoothing/covariate")

    @pytest.mark.parametrize("cls, args, field, value, error", [
        pytest.param(*case, id=f"{case[0].__name__}.{case[2]}={case[3]!r}") for case in [
            (TrainConfig, (), "batch_size", 2.5, ValueError),
            (TrainConfig, (), "epochs", True, ValueError),
            (TrainConfig, (), "early_stop_patience", 2.5, ValueError),
            (PipelineConfig, (), "grid_size_s", 2.5, ValueError),
            (PipelineConfig, (), "grid_size_t", True, ValueError),
            (PipelineConfig, (), "seed", 1.5, ValueError),
            (SplitConfig, (), "seed", 1.5, ValueError),
            (DatasetSchema, (("x1",), ("y1",), Interval(0, 1), Interval(0, 1)), "grid_size",
             2.5, MalformedRow),
            (KernelSpec, (), "bandwidth_mean", True, ValueError),
            (KernelSpec, (), "bandwidth_cov", True, ValueError),
            (TruncationRule, (), "max_components", True, ValueError),
            (NetworkSpec, (), "input_dim", True, ShapeMismatch),
            (NetworkSpec, (4,), "output_dim", 2.0, ShapeMismatch),
            (NetworkSpec, (4,), "seed", 1.5, ShapeMismatch)]])
    def test_library_configs_reject_a_bool_or_a_non_integer(self, cls, args, field, value,
                                                             error):
        with pytest.raises(error, match=field):
            cls(*args, **{field: value})

    @pytest.mark.parametrize("cls, kwargs, error", [
        pytest.param(*case, id=f"{case[0].__name__}.{next(iter(case[1]))}") for case in [
            (TrainConfig, dict(learning_rate=True), ValueError),
            (TrainConfig, dict(val_fraction=False, early_stop_patience=None), ValueError),
            (PipelineConfig, dict(ridge=True), ValueError),
            (TruncationRule, dict(fve_cutoff=True), ValueError),
            (SplitConfig, dict(test_fraction=False), ValueError),
            (SynthScenario, dict(noise_sd=False), BadScenario),
            (SynthScenario, dict(mean_scale=True), BadScenario)]])
    def test_float_settings_reject_a_bool(self, cls, kwargs, error):
        name = next(iter(kwargs))
        with pytest.raises(error, match=name):
            cls(**kwargs)
        cls(**{**kwargs, name: float(kwargs[name])})  # the same value as a number passes

    def test_numpy_integers_become_ints(self):
        i = np.int64
        configs = [TrainConfig(epochs=i(5), batch_size=np.int32(8), early_stop_patience=i(3)),
                   PipelineConfig(grid_size_s=i(51), grid_size_t=i(41), seed=i(2)),
                   SplitConfig(seed=i(1)), TruncationRule(max_components=i(2)),
                   NetworkSpec(i(3), (4,), i(2), seed=i(1)),
                   DatasetSchema(("x1",), ("y1",), Interval(0, 1), Interval(0, 1), i(51)),
                   SynthScenario(n_subjects=i(30), sampling=("irregular", 3.0, i(2)), seed=i(4))]
        for config in configs:
            json.dumps(asdict(config))  # a numpy integer is not JSON serializable

    def test_config_round_trip(self):
        cfg = PipelineConfig(regressor="fflm", hidden_widths=(8, 4), ridge=0.1,
                             kernel_x=KernelSpec("epanechnikov", 0.2, 0.3))
        back = PipelineConfig.from_dict(cfg.to_dict())
        assert back == cfg


class TestPredict:
    def test_shapes(self, small_linear, fflm_model):
        data, _ = small_linear
        model, _ = fflm_model
        pred = predict_pipeline(model, data)
        assert pred.values.shape == (data.n_subjects, 2, 101)
        assert pred.channel_names == ("y1", "y2")

    def test_channel_mismatch(self, small_linear, fflm_model):
        data, _ = small_linear
        model, _ = fflm_model
        renamed = FunctionalDataset(
            covariate_domain=data.covariate_domain,
            response_domain=data.response_domain,
            covariate_names=("a", "b"),
            response_names=data.response_names,
            subject_ids=data.subject_ids,
            covariates=data.covariates,
            responses=data.responses,
        )
        with pytest.raises(ChannelMismatch):
            predict_pipeline(model, renamed)

    def test_out_of_domain_times(self, small_linear, fflm_model):
        data, _ = small_linear
        model, _ = fflm_model
        wide = Interval(0.0, 2.0)
        times = np.linspace(0.0, 2.0, 30)
        series = ObservationSeries(times, np.zeros(30))
        stretched = FunctionalDataset(
            covariate_domain=wide,
            response_domain=data.response_domain,
            covariate_names=data.covariate_names,
            response_names=data.response_names,
            subject_ids=("a", "b"),
            covariates=(((series, series)), (series, series)),
            responses=None,
        )
        with pytest.raises(DomainViolation):
            predict_pipeline(model, stretched)


    def test_one_subject_is_scored_as_its_row_in_a_batch(self, small_linear, fflm_model):
        data, _ = small_linear
        model, _ = fflm_model
        batch = predict_pipeline(model, data).values
        i = 7
        one = replace(data, subject_ids=data.subject_ids[i:i + 1],
                      covariates=data.covariates[i:i + 1], responses=None)
        alone = predict_pipeline(model, one)
        assert alone.subject_ids == (data.subject_ids[i],)
        assert np.max(np.abs(alone.values[0] - batch[i])) <= 1e-12 * np.max(np.abs(batch[i]))

    def test_too_sparse_series(self, small_linear, fflm_model):
        data, _ = small_linear
        model, _ = fflm_model
        rows = [list(row) for row in data.covariates]
        rows[3][1] = ObservationSeries([0.5], [0.1])
        sparse = replace(data, covariates=rows)
        named = f"subject {data.subject_ids[3]!r} channel 'x2'"
        with pytest.raises(TooSparse, match=named):
            predict_pipeline(model, sparse)
        with pytest.raises(PipelineError, match=named) as err:
            train_pipeline(sparse, PipelineConfig(regressor="fflm"))
        assert err.value.stage == "fpca/covariate/multivariate"
        assert isinstance(err.value.cause, TooSparse)


def per_subject_scores(side, rows):
    """Reference for the batched score path: standardize one subject's
    series, interpolate them onto the grid and take that subject's
    multivariate quadrature scores on their own."""
    eig = side.multivariate
    scores = []
    for row in rows:
        curves = []
        for series, params in zip(row, side.standardization):
            z = standardize(series, params)
            curves.append(np.interp(side.grid.points, z.times, z.values))
        scores.append(np.einsum("pdg,dg,g->p", eig.eigenfunctions, np.stack(curves),
                                eig.grid.quad_weights))
    return np.stack(scores)


def per_subject_predictions(model, data):
    """Reference for the batched prediction: one subject through the regressor,
    reconstruction and de-standardization at a time."""
    res = model.response_side
    values = np.empty((data.n_subjects, res.n_channels, res.grid.size))
    for i, eta in enumerate(per_subject_scores(model.covariate_side, data.covariates)):
        out = (predict_fflm(model.regressor, eta) if model.regressor_kind == "fflm"
               else forward(model.regressor, eta))
        z = np.einsum("p,pdg->dg", out, res.multivariate.eigenfunctions)
        for d, params in enumerate(res.standardization):
            values[i, d] = z[d] * np.sqrt(params.var_values) + params.mean_values
    return values


@pytest.fixture(scope="module", params=[("dense", 61), ("irregular", 20, 5)], ids=str)
def split_dense(request):
    sc = replace(preset_scenario("dense"), n_subjects=100, sampling=request.param)
    return split_subjects(generate(sc)[0], 0.2, seed=0)


class TestBatchedScores:
    def test_fflm_fit_on_reference_scores_is_bit_equal(self, split_dense):
        train, _ = split_dense
        model, _ = train_pipeline(train, PipelineConfig(regressor="fflm"))
        inputs = per_subject_scores(model.covariate_side, train.covariates)
        targets = per_subject_scores(model.response_side, train.responses)
        np.testing.assert_array_equal(fit_fflm(inputs, targets).B, model.regressor.B)

    @pytest.mark.parametrize("config", [
        PipelineConfig(regressor="fflm"),
        PipelineConfig(regressor="nn", train=TrainConfig(epochs=30), seed=2),
    ], ids=["fflm", "nn"])
    def test_predictions_match_reference(self, split_dense, config):
        train, test = split_dense
        model, _ = train_pipeline(train, config)
        for data in (train, test):
            expected = per_subject_predictions(model, data)
            got = predict_pipeline(model, data).values
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestEvaluate:
    def naive_metrics(self, predictions, truth):
        """Double-loop oracle for the printed MSE and RMSPE formulas."""
        out = []
        for d, name in enumerate(predictions.channel_names):
            dt = truth.response_names.index(name)
            sse = 0.0
            n_obs = 0
            ratios = []
            for i, sid in enumerate(truth.subject_ids):
                j = predictions.subject_ids.index(sid)
                s = truth.responses[i][dt]
                num = 0.0
                den = 0.0
                for t, y in zip(s.times, s.values):
                    yhat = float(np.interp(t, predictions.grid.points,
                                           predictions.values[j, d]))
                    num += (y - yhat) ** 2
                    den += y * y
                    sse += (y - yhat) ** 2
                    n_obs += 1
                if den > 0:
                    ratios.append(num / den)
            out.append((sse / n_obs, float(np.mean(ratios))))
        return out

    def test_matches_naive_oracle(self, small_linear, fflm_model):
        data, _ = small_linear
        model, _ = fflm_model
        pred = predict_pipeline(model, data)
        report = evaluate(pred, data)
        oracle = self.naive_metrics(pred, data)
        for d in range(2):
            assert report.rmse[d] == pytest.approx(oracle[d][0], rel=1e-12)
            assert report.rmspe[d] == pytest.approx(oracle[d][1], rel=1e-12)
            assert report.rmse_sqrt[d] == pytest.approx(np.sqrt(oracle[d][0]), rel=1e-12)

    def test_perfect_predictions_score_zero(self, small_linear):
        data, _ = small_linear
        grid = make_grid(data.response_domain, 101)
        values = np.zeros((data.n_subjects, 2, 101))
        # tabulate each observed response onto the grid (they were sampled densely)
        for i in range(data.n_subjects):
            for d in range(2):
                s = data.responses[i][d]
                values[i, d] = np.interp(grid.points, s.times, s.values)
        pred = PredictionSet(data.subject_ids, data.response_names, grid, values)
        report = evaluate(pred, data)
        assert max(report.rmse) < 1e-5  # only interpolation error remains

    def test_partial_overlap_warns(self, small_linear, fflm_model, caplog):
        data, _ = small_linear
        model, _ = fflm_model
        pred = predict_pipeline(model, data)
        half = PredictionSet(pred.subject_ids[:30], pred.channel_names, pred.grid,
                             pred.values[:30])
        with caplog.at_level("WARNING", logger="fofr"):
            report = evaluate(half, data)
        assert report.n_subjects == 30
        assert any("common subjects" in r.message for r in caplog.records)

    def test_rmse_sqrt_is_the_root_of_rmse(self):
        report = MetricsReport(("y1", "y2"), (4.0, 2.0), (0.25, 0.5), 3, (0, 1))
        assert report.rmse_sqrt == (2.0, float(np.sqrt(2.0)))
        assert [ch["rmse_sqrt"] for ch in report.to_dict()["channels"]] == [2.0, np.sqrt(2.0)]

    def test_no_overlap(self, small_linear, fflm_model):
        data, _ = small_linear
        model, _ = fflm_model
        pred = predict_pipeline(model, data)
        alien = PredictionSet(("zzz",), pred.channel_names, pred.grid, pred.values[:1])
        with pytest.raises(NoOverlap):
            evaluate(alien, data)


class TestSplit:
    def test_partition(self, small_linear):
        data, _ = small_linear
        train, test = split_subjects(data, 0.25, seed=1)
        assert train.n_subjects + test.n_subjects == data.n_subjects
        assert not set(train.subject_ids) & set(test.subject_ids)

    def test_deterministic(self, small_linear):
        data, _ = small_linear
        a = split_subjects(data, 0.25, seed=1)[1].subject_ids
        b = split_subjects(data, 0.25, seed=1)[1].subject_ids
        assert a == b

    def test_small_test_set_of_a_sparse_design(self):
        # three test subjects with about 4 times per series pool too few times
        # to smooth a channel; only training needs that
        sc = replace(preset_scenario("dense"), n_subjects=60, sampling=("irregular", 4, 2))
        data, _ = generate(sc)
        for seed in range(3):
            train, test = split_subjects(data, 0.05, seed)
            assert (train.n_subjects, test.n_subjects) == (57, 3)
        model, _ = train_pipeline(train, PipelineConfig(regressor="fflm"))
        assert np.all(np.isfinite(predict_pipeline(model, test).values))

    def test_bad_fraction(self, small_linear):
        data, _ = small_linear
        with pytest.raises(ValueError):
            split_subjects(data, 0.0, seed=1)
        with pytest.raises(ValueError):
            split_subjects(data, 0.99, seed=1)


class TestPersistence:
    def test_round_trip_predictions_identical(self, small_linear, fflm_model, tmp_path):
        data, _ = small_linear
        model, _ = fflm_model
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        a = predict_pipeline(model, data).values
        b = predict_pipeline(loaded, data).values
        np.testing.assert_array_equal(a, b)

    def test_save_is_deterministic(self, fflm_model, tmp_path):
        model, _ = fflm_model
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_bytes_match_json_dump(self, fflm_model, nn_model, tmp_path):
        for name, (model, _) in (("fflm", fflm_model), ("nn", nn_model)):
            path = tmp_path / f"{name}.json"
            save_model(model, path)
            oracle = io.StringIO()
            json.dump(model_to_dict(model), oracle, sort_keys=True)
            assert path.read_bytes() == (oracle.getvalue() + "\n").encode("utf-8"), name

    def test_version_mismatch(self, fflm_model, tmp_path):
        model, _ = fflm_model
        path = tmp_path / "model.json"
        doc = model_to_dict(model)
        doc["format_version"] = "999"
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatch):
            load_model(path)

    def test_checksum_mismatch(self, fflm_model, tmp_path):
        model, _ = fflm_model
        path = tmp_path / "model.json"
        doc = model_to_dict(model)
        doc["payload"]["regressor"]["B"][0][0] += 1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptArtifact):
            load_model(path)

    @staticmethod
    def _write_resigned(doc, path):
        """Write ``doc`` with a checksum that matches its edited payload."""
        canonical = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
        doc["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        path.write_text(json.dumps(doc))

    def test_missing_grid(self, fflm_model, tmp_path):
        doc = model_to_dict(fflm_model[0])
        del doc["payload"]["covariate_side"]["grid"]
        self._write_resigned(doc, tmp_path / "model.json")
        with pytest.raises(CorruptArtifact, match="'grid'"):
            load_model(tmp_path / "model.json")

    @pytest.mark.parametrize("model, edit, named", [
        ("fflm_model", lambda p: p["regressor"].update(B=[[1.0]] * 4), r"regressor\.B"),
        ("nn_model", lambda p: p["regressor"]["weights"][-1].pop(), r"regressor\.weights\[1\]"),
        ("nn_model", lambda p: p["regressor"]["biases"][0].pop(), r"regressor\.biases\[0\]"),
        ("fflm_model", lambda p: p["response_side"]["variance"][1].pop(),
         r"response_side\.variance\[1\]"),
        ("fflm_model", lambda p: [f.pop() for f in
                                  p["covariate_side"]["univariate"][0]["eigenfunctions"]],
         r"covariate_side\.univariate\[0\]\.eigenfunctions"),
        ("fflm_model", lambda p: p["covariate_side"]["multivariate"]["block_widths"].append(1),
         r"covariate_side\.multivariate\.block_vectors"),
    ])
    def test_inconsistent_shapes(self, model, edit, named, request, tmp_path):
        doc = model_to_dict(request.getfixturevalue(model)[0])
        edit(doc["payload"])
        self._write_resigned(doc, tmp_path / "model.json")
        with pytest.raises(CorruptArtifact, match=named):
            load_model(tmp_path / "model.json")

    @pytest.mark.parametrize("model, edit, named", [
        ("fflm_model", {"kind": "linear"}, "unknown regressor kind 'linear'"),
        ("nn_model", {"hidden_activation": "sigmoid"}, "unknown hidden activation 'sigmoid'"),
    ])
    def test_unknown_regressor(self, model, edit, named, request, tmp_path):
        doc = model_to_dict(request.getfixturevalue(model)[0])
        doc["payload"]["regressor"].update(edit)
        self._write_resigned(doc, tmp_path / "model.json")
        with pytest.raises(CorruptArtifact, match=named):
            load_model(tmp_path / "model.json")

    def test_nn_round_trip(self, small_linear, nn_model, tmp_path):
        data, _ = small_linear
        save_model(nn_model[0], tmp_path / "model.json")
        np.testing.assert_array_equal(
            predict_pipeline(load_model(tmp_path / "model.json"), data).values,
            predict_pipeline(nn_model[0], data).values)

    def test_not_a_model(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{\"hello\": 1}")
        with pytest.raises(CorruptArtifact):
            load_model(path)
        path.write_text("not json at all")
        with pytest.raises(CorruptArtifact):
            load_model(path)

    def test_nn_model_round_trip(self, small_linear, tmp_path):
        # the in-memory network is views into the flat training vector, the
        # reloaded one separate arrays: the predictions must not differ
        data, _ = small_linear
        path = tmp_path / "model.json"
        for train in (TrainConfig(epochs=20, val_fraction=0.0, early_stop_patience=None),
                      TrainConfig(epochs=20, val_fraction=0.25, early_stop_patience=5)):
            model, _ = train_pipeline(data, PipelineConfig(regressor="nn", train=train, seed=5))
            save_model(model, path)
            a = predict_pipeline(model, data).values
            b = predict_pipeline(load_model(path), data).values
            np.testing.assert_array_equal(a, b)
