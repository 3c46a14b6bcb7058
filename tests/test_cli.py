"""CLI contract tests: commands, formats and exit codes."""

import csv
import hashlib
import json
import os

import numpy as np
import pytest

from fofr.cli import evaluate_csv, main, write_predictions_csv
from fofr.core import (PREDICTIONS_HEADER, Interval, _read_series, load_dataset, load_schema,
                       make_grid)
from fofr.pipeline import PredictionSet, evaluate, load_model, predict_pipeline


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_one_error_line(err):
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.fixture
def workspace(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"preset": "linear", "n_subjects": 40}))
    return tmp_path, scenario


@pytest.fixture
def synthesized(workspace, capsys):
    tmp, scenario = workspace
    out_dir = tmp / "data"
    code, _, _ = run(capsys, "synth", "--scenario", str(scenario),
                     "--out-dir", str(out_dir))
    assert code == 0
    return tmp, out_dir


@pytest.fixture
def trained(synthesized, capsys):
    tmp, out_dir = synthesized
    model = tmp / "model.json"
    diag = tmp / "diag.json"
    code, _, _ = run(capsys, "train",
                     "--data", str(out_dir / "data.csv"),
                     "--schema", str(out_dir / "schema.json"),
                     "--model-out", str(model),
                     "--diagnostics-out", str(diag),
                     "--baseline", "fflm")
    assert code == 0
    return tmp, out_dir, model, diag


class TestSynth:
    def test_creates_three_files(self, synthesized):
        _, out_dir = synthesized
        for name in ("data.csv", "schema.json", "ground_truth.json"):
            assert (out_dir / name).exists()

    def test_malformed_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, "synth", "--scenario", str(bad),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 2 and "error" in err

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"preset": "linear", "noise_sd": -1}))
        code, _, _ = run(capsys, "synth", "--scenario", str(bad),
                         "--out-dir", str(tmp_path / "out"))
        assert code == 2

    @pytest.mark.parametrize("field,value", [
        ("noise_sd", "NaN"), ("noise_sd", "Infinity"), ("mean_scale", "NaN"),
        ("mean_scale", "-Infinity"), ("eigenvalues_y", "[Infinity]"),
        ("eigenvalues_x", "[1.0, NaN]")])
    def test_non_finite_scenario_number_exits_2(self, tmp_path, capsys, field, value):
        # json.load parses NaN and Infinity, which no scenario number may be
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"preset": "linear", "n_subjects": 5, "{field}": {value}}}')
        code, _, err = run(capsys, "synth", "--scenario", str(bad),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert_one_error_line(err)
        assert f"{field} must be" in err and "finite" in err
        assert not (tmp_path / "out").exists()

    def test_deterministic(self, workspace, capsys):
        tmp, scenario = workspace
        for d in ("r1", "r2"):
            assert run(capsys, "synth", "--scenario", str(scenario),
                       "--out-dir", str(tmp / d))[0] == 0
        assert (tmp / "r1" / "data.csv").read_bytes() == (tmp / "r2" / "data.csv").read_bytes()


class TestTrain:
    def test_writes_model_and_diagnostics(self, trained):
        _, _, model, diag = trained
        assert model.exists()
        doc = json.loads(diag.read_text())
        assert doc["n_inputs"] == 4 and doc["n_outputs"] == 3
        assert doc["regressor"]["kind"] == "fflm"
        assert doc["regressor"]["n_params"] == 12  # P*L = 3*4

    def test_missing_arguments_exit_2(self, capsys):
        code, _, _ = run(capsys, "train", "--data", "x.csv")
        assert code == 2

    def test_duplicate_paths_exit_2(self, synthesized, capsys):
        _, out_dir = synthesized
        code, _, _ = run(capsys, "train",
                         "--data", str(out_dir / "data.csv"),
                         "--schema", str(out_dir / "schema.json"),
                         "--model-out", str(out_dir / "data.csv"))
        assert code == 2

    @pytest.mark.parametrize("split_out, path, spelling", [
        ("test_data_out", "data", ""), ("test_ids_out", "model_out", ""),
        ("test_data_out", "data", "./")])
    def test_split_output_over_another_path_exit_2(self, synthesized, split_out, path, spelling,
                                                   capsys):
        tmp, out_dir = synthesized
        config = {"data": str(out_dir / "data.csv"), "schema": str(out_dir / "schema.json"),
                  "model_out": str(tmp / "model.json"),
                  "split": {"test_fraction": 0.25, "seed": 4}}
        head, name = os.path.split(config[path])
        config["split"][split_out] = os.path.join(head, spelling + name)
        (tmp / "config.json").write_text(json.dumps(config))
        data = (out_dir / "data.csv").read_text()
        code, _, err = run(capsys, "train", "--config", str(tmp / "config.json"),
                           "--baseline", "fflm")
        assert code == 2
        assert_one_error_line(err)
        assert (out_dir / "data.csv").read_text() == data
        assert not (tmp / "model.json").exists()

    def test_config_file_with_split(self, synthesized, capsys):
        tmp, out_dir = synthesized
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps({
            "data": str(out_dir / "data.csv"),
            "schema": str(out_dir / "schema.json"),
            "model_out": str(tmp / "model.json"),
            "split": {"test_fraction": 0.25, "seed": 4,
                      "test_ids_out": str(tmp / "ids.txt"),
                      "test_data_out": str(tmp / "test.csv")},
            "pipeline": {"regressor": "fflm"},
        }))
        code, _, _ = run(capsys, "train", "--config", str(cfg), "--json")
        assert code == 0
        ids = (tmp / "ids.txt").read_text().split()
        assert len(ids) == 10
        assert (tmp / "test.csv").exists()

    @pytest.mark.parametrize("config", [
        '{"pipeline": {"bogus": 1}}',
        '[1, 2]',
        '{"split": {"test_fraction": "abc"}}',
        '{"pipeline": {"train": {"epochs": "many"}}}',
        '{"pipeline": {"train": {"bogus": 1}}}',
        '{"pipeline": {"train": {"learning_rate": Infinity}}}',
        '{"pipeline": {"train": {"momentum": -3}}}',
        '{"pipeline": {"train": {"adam_beta1": 1.0}}}',
        '{"pipeline": {"train": {"adam_beta2": 1.5}}}',
        '{"pipeline": {"train": {"adam_eps": -1}}}',
        '{"pipeline": {"train": {"early_stop_patience": 0}}}',
        '{"pipeline": {"train": {"seed": 99}}}',
        '{"pipeline": {"train": {"val_fraction": 0.2}}}',
        '{"pipeline": {"train": {"early_stop_patience": 5}}}',
        '{"pipeline": {"hidden_widths": [0]}}',
        '5',
        '{broken',
    ])
    def test_bad_config_exit_2(self, synthesized, config, capsys):
        tmp, out_dir = synthesized
        (tmp / "config.json").write_text(config)
        code, _, err = run(capsys, "train", "--config", str(tmp / "config.json"),
                           "--data", str(out_dir / "data.csv"),
                           "--schema", str(out_dir / "schema.json"),
                           "--model-out", str(tmp / "m.json"), "--baseline", "fflm")
        assert code == 2
        assert_one_error_line(err)
        assert not (tmp / "m.json").exists()

    def test_diagnostics_are_deterministic(self, synthesized, capsys):
        tmp, out_dir = synthesized
        (tmp / "config.json").write_text('{"pipeline": {"train": {"epochs": 20}}}')
        for name in ("a", "b"):
            code, _, _ = run(capsys, "train", "--config", str(tmp / "config.json"),
                             "--data", str(out_dir / "data.csv"),
                             "--schema", str(out_dir / "schema.json"),
                             "--model-out", str(tmp / f"m_{name}.json"),
                             "--diagnostics-out", str(tmp / f"d_{name}.json"), "--seed", "3")
            assert code == 0
        assert (tmp / "d_a.json").read_bytes() == (tmp / "d_b.json").read_bytes()

    def test_unwritable_model_out_exit_2(self, synthesized, capsys):
        tmp, out_dir = synthesized
        code, _, err = run(capsys, "train", "--data", str(out_dir / "data.csv"),
                           "--schema", str(out_dir / "schema.json"),
                           "--model-out", str(tmp / "nodir" / "m.json"), "--baseline", "fflm")
        assert code == 2
        assert_one_error_line(err)

    def test_divergence_exit_3(self, synthesized, capsys):
        tmp, out_dir = synthesized
        (tmp / "config.json").write_text('{"pipeline": {"train": {"learning_rate": 1e6}}}')
        code, _, err = run(capsys, "train", "--config", str(tmp / "config.json"),
                           "--data", str(out_dir / "data.csv"),
                           "--schema", str(out_dir / "schema.json"),
                           "--model-out", str(tmp / "m.json"))
        assert code == 3 and "DivergenceDetected" in err
        assert_one_error_line(err)
        assert not (tmp / "m.json").exists()

    def test_json_summary(self, synthesized, capsys):
        tmp, out_dir = synthesized
        code, out, _ = run(capsys, "train",
                           "--data", str(out_dir / "data.csv"),
                           "--schema", str(out_dir / "schema.json"),
                           "--model-out", str(tmp / "m.json"),
                           "--baseline", "fflm", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["L"] == 4 and doc["P"] == 3 and doc["regressor"] == "fflm"


    @pytest.mark.parametrize("bad_id", [1, None, float("nan"), ["x1"]])
    def test_non_string_variable_id_exit_2(self, synthesized, bad_id, tmp_path, capsys):
        _, out_dir = synthesized
        schema = json.loads((out_dir / "schema.json").read_text())
        schema["covariates"] = [bad_id]
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps(schema))
        code, _, err = run(capsys, "train", "--data", str(out_dir / "data.csv"),
                           "--schema", str(bad), "--model-out", str(tmp_path / "m.json"),
                           "--baseline", "fflm")
        assert code == 2 and "is not a string" in err
        assert_one_error_line(err)


class TestPredict:
    def test_row_count(self, trained, capsys):
        tmp, out_dir, model, _ = trained
        pred = tmp / "pred.csv"
        code, _, _ = run(capsys, "predict", "--model", str(model),
                         "--data", str(out_dir / "data.csv"),
                         "--schema", str(out_dir / "schema.json"),
                         "--out", str(pred))
        assert code == 0
        with open(pred) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["subject_id", "variable_id", "time", "value"]
        assert len(rows) - 1 == 40 * 2 * 101  # N * D * G_t

    def test_one_subject_file(self, trained, tmp_path, capsys):
        # one subject's covariates are scored as that subject's rows in a batch
        tmp, out_dir, model, _ = trained
        header, *rows = (out_dir / "data.csv").read_text().splitlines()
        one = tmp_path / "one.csv"
        one.write_text("\n".join([header] + [r for r in rows if r.startswith("s0003,")
                                              and ",covariate," in r]) + "\n")
        predicted = []
        for data in (out_dir / "data.csv", one):
            pred = tmp_path / f"{data.stem}_pred.csv"
            code, _, _ = run(capsys, "predict", "--model", str(model), "--data", str(data),
                             "--schema", str(out_dir / "schema.json"), "--out", str(pred))
            assert code == 0
            predicted.append(_read_series(pred))
        batch, alone = predicted
        assert {sid for sid, _ in alone} == {"s0003"}
        for key, (times, values) in alone.items():
            np.testing.assert_array_equal(times, batch[key][0])
            scale = np.max(np.abs(batch[key][1]))
            assert np.max(np.abs(values - batch[key][1])) <= 1e-12 * scale

    def test_wrong_channels_exit_3(self, trained, tmp_path, capsys):
        tmp, out_dir, model, _ = trained
        renamed = tmp_path / "renamed.csv"
        renamed.write_text((out_dir / "data.csv").read_text().replace("x1", "a1"))
        schema = tmp_path / "schema.json"
        schema.write_text((out_dir / "schema.json").read_text().replace("x1", "a1"))
        code, _, _ = run(capsys, "predict", "--model", str(model),
                         "--data", str(renamed), "--schema", str(schema),
                         "--out", str(tmp_path / "pred.csv"))
        assert code == 3

    def test_unwritable_out_exit_2(self, trained, capsys):
        tmp, out_dir, model, _ = trained
        code, _, err = run(capsys, "predict", "--model", str(model),
                           "--data", str(out_dir / "data.csv"),
                           "--schema", str(out_dir / "schema.json"),
                           "--out", str(tmp / "nodir" / "p.csv"))
        assert code == 2
        assert_one_error_line(err)

    def test_times_outside_training_domain_exit_2(self, trained, tmp_path, capsys):
        tmp, out_dir, model, _ = trained
        schema = json.loads((out_dir / "schema.json").read_text())
        schema["covariate_domain"] = [0.0, 1.05]
        wide = tmp_path / "schema.json"
        wide.write_text(json.dumps(schema))
        data = tmp_path / "data.csv"
        first = (out_dir / "data.csv").read_text().splitlines()[1].split(",")
        data.write_text((out_dir / "data.csv").read_text()
                        + f"{first[0]},x1,covariate,1.02,0.0\n")
        code, _, err = run(capsys, "predict", "--model", str(model), "--data", str(data),
                           "--schema", str(wide), "--out", str(tmp_path / "p.csv"))
        assert code == 2 and "training domain" in err
        assert_one_error_line(err)

    def test_one_point_series_exit_3(self, trained, tmp_path, capsys):
        tmp, out_dir, model, _ = trained
        lines = (out_dir / "data.csv").read_text().splitlines(keepends=True)
        subject = lines[1].split(",")[0]
        x1 = [ln for ln in lines if ln.startswith(f"{subject},x1,")]
        data = tmp_path / "data.csv"
        data.write_text("".join(ln for ln in lines if ln not in x1[1:]))
        code, _, err = run(capsys, "predict", "--model", str(model), "--data", str(data),
                           "--schema", str(out_dir / "schema.json"),
                           "--out", str(tmp_path / "p.csv"))
        assert code == 3 and f"subject {subject!r} channel 'x1'" in err
        assert_one_error_line(err)

    def test_idempotent(self, trained, capsys):
        tmp, out_dir, model, _ = trained
        p1, p2 = tmp / "p1.csv", tmp / "p2.csv"
        for p in (p1, p2):
            assert run(capsys, "predict", "--model", str(model),
                       "--data", str(out_dir / "data.csv"),
                       "--schema", str(out_dir / "schema.json"),
                       "--out", str(p))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestWritePredictionsCsv:
    def test_quoted_ids_match_csv_writer_and_load_back(self, tmp_path):
        grid = make_grid(Interval(0.0, 2.0), 7)
        ids = ("a,b", 'q"t', " lead", "é", "two\nlines")
        names = ("y,1", ' y"2')
        values = np.random.default_rng(3).standard_normal((len(ids), len(names), grid.size))
        predictions = PredictionSet(ids, names, grid, values)
        path, reference = tmp_path / "pred.csv", tmp_path / "reference.csv"
        write_predictions_csv(predictions, path)
        with open(reference, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(PREDICTIONS_HEADER)
            for sid, curves in zip(ids, values):
                for name, curve in zip(names, curves):
                    writer.writerows([sid, name, repr(t), repr(v)]
                                     for t, v in zip(grid.points.tolist(), curve.tolist()))
        assert path.read_bytes() == reference.read_bytes()
        series = _read_series(path)
        assert sorted(series) == sorted((sid, name) for sid in ids for name in names)
        for i, sid in enumerate(ids):
            for d, name in enumerate(names):
                times, curve = series[sid, name]
                assert times.tobytes() == grid.points.tobytes()
                assert curve.tobytes() == values[i, d].tobytes()


class TestEvaluate:
    def test_predictions_against_truth(self, trained, capsys):
        tmp, out_dir, model, _ = trained
        pred = tmp / "pred.csv"
        run(capsys, "predict", "--model", str(model),
            "--data", str(out_dir / "data.csv"),
            "--schema", str(out_dir / "schema.json"), "--out", str(pred))
        metrics = tmp / "metrics.json"
        code, out, _ = run(capsys, "evaluate", "--predictions", str(pred),
                           "--truth", str(out_dir / "data.csv"),
                           "--out", str(metrics), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc == json.loads(metrics.read_text())
        assert {c["channel"] for c in doc["channels"]} == {"y1", "y2"}
        assert all(c["rmspe"] < 1e-2 for c in doc["channels"])

    def test_truth_as_predictions_scores_zero(self, synthesized, capsys):
        tmp, out_dir = synthesized
        # feed the 5-column truth file as its own prediction: need 4-column, so
        # strip the role column from response rows
        src = (out_dir / "data.csv").read_text().splitlines()
        pred_rows = ["subject_id,variable_id,time,value"]
        for line in src[1:]:
            sid, var, role, t, v = line.split(",")
            if role == "response":
                pred_rows.append(",".join([sid, var, t, v]))
        pred = tmp / "self.csv"
        pred.write_text("\n".join(pred_rows) + "\n")
        code, out, _ = run(capsys, "evaluate", "--predictions", str(pred),
                           "--truth", str(out_dir / "data.csv"), "--json")
        assert code == 0
        doc = json.loads(out)
        assert all(c["rmse"] == 0.0 for c in doc["channels"])

    def test_table_output(self, trained, capsys):
        tmp, out_dir, model, _ = trained
        pred = tmp / "pred.csv"
        run(capsys, "predict", "--model", str(model),
            "--data", str(out_dir / "data.csv"),
            "--schema", str(out_dir / "schema.json"), "--out", str(pred))
        code, out, _ = run(capsys, "evaluate", "--predictions", str(pred),
                           "--truth", str(out_dir / "data.csv"))
        assert code == 0
        assert "rmse" in out and "rmse_sqrt" in out and "rmspe" in out
        assert "y1" in out and "y2" in out

    def test_csv_metrics_equal_in_memory_metrics(self, trained):
        tmp, out_dir, model, _ = trained
        truth = load_dataset(out_dir / "data.csv", load_schema(out_dir / "schema.json"))
        predictions = predict_pipeline(load_model(model), truth)
        pred = tmp / "pred.csv"
        write_predictions_csv(predictions, pred)
        from_csv = evaluate_csv(pred, out_dir / "data.csv")
        in_memory = evaluate(predictions, truth)
        assert from_csv.channel_names == in_memory.channel_names == ("y1", "y2")
        assert from_csv.n_subjects == in_memory.n_subjects == 40
        for d in range(2):
            assert from_csv.rmse[d] == in_memory.rmse[d]
            assert from_csv.rmse_sqrt[d] == in_memory.rmse_sqrt[d]
            assert from_csv.rmspe[d] == in_memory.rmspe[d]
            assert from_csv.n_excluded_rmspe[d] == in_memory.n_excluded_rmspe[d]

    def test_bad_header_exit_2(self, synthesized, tmp_path, capsys):
        _, out_dir = synthesized
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        code, _, _ = run(capsys, "evaluate", "--predictions", str(bad),
                         "--truth", str(out_dir / "data.csv"))
        assert code == 2


class TestFpcaReport:
    def test_tables(self, trained, capsys):
        _, _, model, _ = trained
        code, out, _ = run(capsys, "fpca-report", "--model", str(model))
        assert code == 0
        assert "covariate side" in out and "response side" in out
        assert "selected L=4, P=3" in out

    def test_json_schema(self, trained, capsys):
        _, _, model, _ = trained
        code, out, _ = run(capsys, "fpca-report", "--model", str(model), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["L"] == 4 and doc["P"] == 3
        fve = doc["covariate_side"]["multivariate_fve"]
        assert fve[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("command", ["predict", "fpca-report"])
    def test_payload_without_grid_exit_3(self, trained, command, tmp_path, capsys):
        _, out_dir, model, _ = trained
        doc = json.loads(model.read_text())
        del doc["payload"]["covariate_side"]["grid"]
        canonical = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
        doc["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        extra = [] if command == "fpca-report" else [
            "--data", str(out_dir / "data.csv"), "--schema", str(out_dir / "schema.json"),
            "--out", str(tmp_path / "p.csv")]
        code, _, err = run(capsys, command, "--model", str(bad), *extra)
        assert code == 3 and "'grid'" in err
        assert_one_error_line(err)

    @pytest.mark.parametrize("command", ["predict", "fpca-report"])
    def test_missing_model_exit_2(self, synthesized, command, tmp_path, capsys):
        _, out_dir = synthesized
        extra = [] if command == "fpca-report" else [
            "--data", str(out_dir / "data.csv"), "--schema", str(out_dir / "schema.json"),
            "--out", str(tmp_path / "p.csv")]
        code, _, err = run(capsys, command, "--model", str(tmp_path / "missing.json"), *extra)
        assert code == 2 and "missing.json" in err
        assert_one_error_line(err)

    def test_corrupt_artifact_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text("{\"format_version\": \"1\", \"nope\": true}")
        code, _, _ = run(capsys, "fpca-report", "--model", str(bad))
        assert code == 3
