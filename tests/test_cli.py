"""CLI contract tests: commands, formats and exit codes."""

import csv
import hashlib
import io
import json
import logging
import os
import re
import subprocess
import sys
from dataclasses import fields
from itertools import chain

import numpy as np
import pytest

import fofr
from fofr import core
from fofr.cli import RunConfig, SplitConfig, evaluate_csv, main, write_predictions_csv
from fofr.core import (PREDICTIONS_HEADER, Interval, _read_series, load_dataset, load_schema,
                       make_grid)
from fofr.errors import DuplicateTimestamp, MalformedRow
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


class TestImports:
    def test_cli_loads_no_scipy(self):
        # fofr runs on numpy alone; scipy backs only the tests' oracles
        src = os.path.dirname(os.path.dirname(os.path.abspath(fofr.__file__)))
        code = ("import sys, fofr.cli; print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout == "[]\n"


class TestBlasThreads:
    def test_default_is_one_thread(self, tmp_path):
        # the covariance smoother's last bits follow the BLAS thread count, so
        # a train with the thread variables unset must write the same bytes as
        # one with them set to 1, whatever the machine's core count
        src = os.path.dirname(os.path.dirname(os.path.abspath(fofr.__file__)))
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        unset = {k: v for k, v in os.environ.items() if k not in names}
        unset["PYTHONPATH"] = src
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"preset": "dense"}))

        def fofr_cli(env, *argv):
            subprocess.run([sys.executable, "-m", "fofr.cli", *argv], env=env, check=True,
                           capture_output=True)

        fofr_cli(unset, "synth", "--scenario", str(scenario), "--out-dir", str(tmp_path))
        models = []
        for env in (unset, {**unset, **dict.fromkeys(names, "1")}):
            models.append(tmp_path / f"model{len(models)}.json")
            fofr_cli(env, "train", "--data", str(tmp_path / "data.csv"),
                     "--schema", str(tmp_path / "schema.json"),
                     "--model-out", str(models[-1]), "--baseline", "fflm")
        assert models[0].read_bytes() == models[1].read_bytes()


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

    def test_diagnostics_bytes_match_json_dump(self, trained):
        *_, diag = trained
        oracle = io.StringIO()
        json.dump(json.loads(diag.read_text()), oracle, sort_keys=True)
        assert diag.read_bytes() == (oracle.getvalue() + "\n").encode("utf-8")

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
        '{"pipeline": {"train": {"val_fraction": 0}}}',
        '{"pipeline": {"train": {"early_stop_patience": null}}}',
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

    BAD_RUN_CONFIG = {"data": 1, "schema": ["s"], "model_out": None, "diagnostics_out": True,
                      "split": 1, "pipeline": [], "split.test_fraction": "0.2",
                      "split.seed": 1.5, "split.test_ids_out": 3, "split.test_data_out": None}

    def test_bad_run_config_covers_every_key(self):
        assert set(self.BAD_RUN_CONFIG) == ({f.name for f in fields(RunConfig)}
                                            | {f"split.{f.name}" for f in fields(SplitConfig)})

    @pytest.mark.parametrize("key, value", [
        *BAD_RUN_CONFIG.items(), ("bogus", 1), ("split.bogus", 1),
        ("split.test_fraction", 0.7), ("split.seed", -1)])
    def test_bad_run_config_value_names_its_key(self, synthesized, key, value, capsys):
        tmp, out_dir = synthesized
        section, _, name = key.rpartition(".")
        config = {section: {name: value}} if section else {name: value}
        (tmp / "config.json").write_text(json.dumps(config))
        code, _, err = run(capsys, "train", "--config", str(tmp / "config.json"),
                           "--data", str(out_dir / "data.csv"),
                           "--schema", str(out_dir / "schema.json"),
                           "--model-out", str(tmp / "m.json"), "--baseline", "fflm")
        assert code == 2
        assert_one_error_line(err)
        assert name in err
        assert not (tmp / "m.json").exists()

    def test_train_seed_is_an_unknown_key(self, synthesized, capsys):
        # the network's weights, validation split and batch order follow pipeline.seed
        tmp, out_dir = synthesized
        (tmp / "config.json").write_text('{"pipeline": {"train": {"seed": 0}}}')
        code, _, err = run(capsys, "train", "--config", str(tmp / "config.json"),
                           "--data", str(out_dir / "data.csv"),
                           "--schema", str(out_dir / "schema.json"),
                           "--model-out", str(tmp / "m.json"), "--baseline", "fflm")
        assert code == 2
        assert err == "error: pipeline.train: unknown key 'seed'\n"
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

    def test_split_write_matches_serial(self, tmp_path, monkeypatch):
        grid = make_grid(Interval(0.0, 2.0), 7)
        ids = ("a,b", 'q"t', " lead", "é", "two\nlines")
        values = np.random.default_rng(4).standard_normal((len(ids), 2, grid.size))
        values[2:, :, 0] = -0.0
        predictions = PredictionSet(ids, ("y,1", "y2"), grid, values)
        path, serial = tmp_path / "pred.csv", tmp_path / "serial.csv"
        write_predictions_csv(predictions, serial)
        monkeypatch.setattr(core, "SPLIT_ROWS", 0)
        write_predictions_csv(predictions, path)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert path.read_bytes() == serial.read_bytes()


class TestVerbose:
    def test_verbose_logs_each_split_read_and_write(self, trained, tmp_path, monkeypatch,
                                                    capsys, caplog):
        tmp, out_dir, model, _ = trained
        data, pred = out_dir / "data.csv", tmp_path / "pred.csv"
        monkeypatch.setattr(core, "SPLIT_BYTES", 0)
        monkeypatch.setattr(core, "SPLIT_ROWS", 0)
        argv = ["predict", "--model", str(model), "--data", str(data),
                "--schema", str(out_dir / "schema.json"), "--out", str(pred)]
        assert run(capsys, "-v", *argv)[0] == 0
        read, wrote = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        halves = re.fullmatch(rf"read {re.escape(str(data))} in two processes: (\d+) \+ (\d+) rows",
                              read)
        assert halves and sum(map(int, halves.groups())) == len(data.read_text().splitlines()) - 1
        assert wrote == f"wrote {pred} in two processes: 4040 + 4040 rows"  # 20 subjects each
        caplog.clear()
        assert run(capsys, "--verbose", *argv)[0] == 0
        assert len([r for r in caplog.records if r.levelno == logging.DEBUG]) == 2
        caplog.clear()
        assert run(capsys, *argv)[0] == 0
        assert not [r for r in caplog.records if r.levelno < logging.WARNING]


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


class TestEvaluateRejects:
    """``fofr evaluate`` holds both of its files to the long-CSV contract that
    ``load_dataset`` holds a dataset to, and exits 2 with one ``error:`` line."""

    @pytest.fixture
    def files(self, trained, capsys):
        tmp, out_dir, model, _ = trained
        pred = tmp / "pred.csv"
        assert run(capsys, "predict", "--model", str(model), "--data", str(out_dir / "data.csv"),
                   "--schema", str(out_dir / "schema.json"), "--out", str(pred))[0] == 0
        return pred, out_dir / "data.csv", out_dir / "schema.json"

    @pytest.mark.parametrize("order", ["in order", "shuffled"])
    @pytest.mark.parametrize("which", ["predictions", "truth"])
    def test_repeated_row(self, files, tmp_path, capsys, which, order):
        pred, truth, schema = files
        lines = (pred if which == "predictions" else truth).read_text().splitlines()
        j = next(i for i, line in enumerate(lines) if line.startswith("s0003,y1,"))
        lines = lines[:j + 1] + lines[j:]  # the copy, at line j + 2, follows its row
        if order == "shuffled":  # the rows after the copy
            rest = lines[j + 2:]
            lines[j + 2:] = [rest[i] for i in np.random.default_rng(0).permutation(len(rest))]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        files = {"predictions": pred, "truth": truth, which: bad}
        code, _, err = run(capsys, "evaluate", "--predictions", str(files["predictions"]),
                           "--truth", str(files["truth"]))
        assert code == 2
        assert_one_error_line(err)
        assert f"error: {bad}:{j + 2}: subject 's0003' variable 'y1': duplicate time" in err
        if which == "truth":
            with pytest.raises(DuplicateTimestamp) as raised:
                load_dataset(bad, load_schema(schema))
            assert err == f"error: {raised.value}\n"

    def test_unknown_role_in_truth(self, files, tmp_path, capsys):
        pred, truth, schema = files
        lines = truth.read_text().splitlines()
        j = next(i for i, line in enumerate(lines) if ",response," in line)
        lines[j] = lines[j].replace(",response,", ",respnse,")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "evaluate", "--predictions", str(pred), "--truth", str(bad))
        assert code == 2
        assert_one_error_line(err)
        assert err.startswith(f"error: {bad}:{j + 1}: role 'respnse' is neither")
        with pytest.raises(MalformedRow, match=rf"^{re.escape(str(bad))}:{j + 1}: "):
            load_dataset(bad, load_schema(schema))

    def test_dataset_as_predictions(self, files, capsys):
        _, truth, _ = files
        code, _, err = run(capsys, "evaluate", "--predictions", str(truth), "--truth", str(truth))
        assert code == 2
        assert_one_error_line(err)
        assert "expected header 'subject_id,variable_id,time,value'" in err


class TestOutputPaths:
    """An output path of ``fofr predict`` or ``fofr evaluate`` that names one
    of the command's inputs exits 2 and leaves the input as it was."""

    @pytest.mark.parametrize("over", ["--model", "--data", "--schema"])
    def test_predict_out_over_an_input(self, trained, capsys, over):
        tmp, out_dir, model, _ = trained
        argv = {"--model": str(model), "--data": str(out_dir / "data.csv"),
                "--schema": str(out_dir / "schema.json")}
        before = open(argv[over], "rb").read()
        head, name = os.path.split(argv[over])
        code, _, err = run(capsys, "predict", *chain(*argv.items()),
                           "--out", os.path.join(head, ".", name))
        assert code == 2
        assert err == "error: --out must differ from --model, --data and --schema\n"
        assert open(argv[over], "rb").read() == before

    @pytest.mark.parametrize("over", ["--predictions", "--truth"])
    def test_evaluate_out_over_an_input(self, trained, tmp_path, capsys, over):
        tmp, out_dir, model, _ = trained
        pred = tmp_path / "pred.csv"
        assert run(capsys, "predict", "--model", str(model), "--data", str(out_dir / "data.csv"),
                   "--schema", str(out_dir / "schema.json"), "--out", str(pred))[0] == 0
        argv = {"--predictions": str(pred), "--truth": str(out_dir / "data.csv")}
        before = open(argv[over], "rb").read()
        code, _, err = run(capsys, "evaluate", *chain(*argv.items()), "--out", argv[over])
        assert code == 2
        assert err == "error: --out must differ from --predictions and --truth\n"
        assert open(argv[over], "rb").read() == before


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
