"""Fuzz test of the CLI failure contract.

Each test mutates one kind of input (long CSV, schema, run config, scenario,
model artifact) and runs the command that reads it through ``cli.main``.
Whatever the input, the command exits 0, 2 or 3; a failure prints exactly
one stderr line, starting with ``error:``, and no traceback.  A JSON value
of the wrong type, and a key the input does not know, exit 2.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fofr.cli import main
from fofr.core import DatasetSchema
from fofr.fpca import TruncationRule
from fofr.pipeline import PipelineConfig
from fofr.regression import TrainConfig
from fofr.smoothing import KernelSpec
from fofr.synthgen import SynthScenario

#: small values only: a mutation must not ask for a huge grid or dataset
VALUES = [None, True, -1, 0, 1, 3, 0.5, 2.5, float("nan"), float("inf"), "", "x", "plugin",
          [], [1, 2], {}, {"a": 1}]
#: garbled fields; quotes, carriage returns and NULs send the file to csv.reader
FIELDS = ["", "x", "nan", "inf", "-1e400", "0", "-0.5", "2", "s0001", "x1", "y2",
          "covariate", "response", "a,b", '"', "\r", "\0", '"s0001"', 'a"b']
#: a scenario that names every field of SynthScenario, with the object form of sampling
SCENARIO = {"preset": "linear", "n_subjects": 20, "covariate_channels": 2,
            "response_channels": 2, "fourier_order_x": 2, "fourier_order_y": 2,
            "eigenvalues_x": [1, 0.75, 0.5625, 0.421875], "eigenvalues_y": [1, 0.75, 0.5625],
            "mapping": "linear", "noise_sd": 0.1,
            "sampling": {"kind": "irregular", "rate": 8, "min_points": 3},
            "covariate_domain": [0, 2], "response_domain": [0, 1], "mix_channels": True,
            "mean_scale": 1.0, "seed": 3}
#: per input, a value of a wrong JSON type for every key (dotted where nested),
#: and for a key the input does not know
WRONG_TYPES = {
    "schema": {"covariates": "x1", "responses": {"y1": 1}, "covariate_domain": "0,1",
               "response_domain": ["0", 1], "grid_size": "7", "grid_sise": 51},
    "scenario": {"preset": 1, "n_subjects": "20", "covariate_channels": 2.0,
                 "response_channels": True, "fourier_order_x": "2", "fourier_order_y": [2],
                 "eigenvalues_x": "1 0.5", "eigenvalues_y": 1.0, "mapping": 1,
                 "noise_sd": "0.1", "sampling": "dense", "sampling.kind": 1,
                 "sampling.rate": "8", "sampling.min_points": 3.5, "sampling.points": "21",
                 "covariate_domain": "0-2", "response_domain": [0, True],
                 "mix_channels": "no", "mean_scale": "2", "seed": 3.0, "wavelength": 3},
    "pipeline": {"grid_size_s": "101", "grid_size_t": 101.0, "kernel_x": "gaussian",
                 "kernel_y": [1], "truncation_x": 0.99, "truncation_y": "x", "regressor": 1,
                 "hidden_widths": 16, "hidden_activation": ["elu"], "train": 1, "ridge": "0",
                 "seed": True, "kernel_x.family": 1, "kernel_x.bandwidth_mean": True,
                 "kernel_x.bandwidth_cov": [0.1], "truncation_x.fve_cutoff": "0.9",
                 "truncation_x.max_components": 2.5, "train.epochs": "many",
                 "train.batch_size": 32.0, "train.learning_rate": "0.01", "train.optimizer": 1,
                 "train.momentum": True, "train.adam_beta1": "0.9", "train.adam_beta2": [0.999],
                 "train.adam_eps": {}, "train.early_stop_patience": "5",
                 "train.val_fraction": False, "bogus": 1, "train.bogus": 1,
                 # the network trains with the pipeline's seed, and with Adam's fixed constants
                 "train.seed": 0.0},
}


def fuzz(max_examples):
    return settings(max_examples=max_examples, derandomize=True, deadline=None)


def run(cwd, *argv):
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)  # a mutated run config may name relative output paths
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
    finally:
        os.chdir(home)
    err = err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    return code


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A synthesized 40-subject dataset, an FFLM model trained on it, its
    predictions and the texts of every input; mutations are written to
    ``work``, which is also the working directory of each run."""
    tmp = tmp_path_factory.mktemp("contract")
    work = tmp / "work"
    work.mkdir()
    (tmp / "scenario.json").write_text(json.dumps({"preset": "linear", "n_subjects": 40}))
    data, schema = tmp / "data" / "data.csv", tmp / "data" / "schema.json"
    model, pred = tmp / "model.json", tmp / "pred.csv"
    for argv in (("synth", "--scenario", tmp / "scenario.json", "--out-dir", tmp / "data"),
                 ("train", "--data", data, "--schema", schema, "--model-out", model,
                  "--baseline", "fflm"),
                 ("predict", "--model", model, "--data", data, "--schema", schema,
                  "--out", pred)):
        assert main([str(a) for a in argv]) == 0
    return {"work": work, "data": data, "schema": schema, "model": model, "pred": pred}


def mutate_lines(draw, text):
    """``text`` with one to three rows dropped, repeated, cut off or garbled."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "repeat", "cut", "garble"]))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "cut":
            lines = lines[:i]
        else:
            fields = lines[i].split(",")
            j = draw(st.integers(0, len(fields)))  # len(fields) appends a field
            fields[j:j + 1] = [draw(st.sampled_from(FIELDS) | st.text(max_size=4))]
            lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def mutate_json(draw, doc):
    """``doc`` with one or two entries, at most six levels deep, replaced,
    deleted or added."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        parent, key, node = None, None, doc
        for _ in range(draw(st.integers(0, 6))):
            if not isinstance(node, (dict, list)) or not node:
                break
            parent, key = node, draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        value = copy.deepcopy(draw(st.sampled_from(VALUES)))
        if op == "add" and isinstance(node, dict):
            node["unknown"] = value
        elif op == "add" and isinstance(node, list):
            node.append(value)
        elif op == "delete" and parent is not None:
            del parent[key]
        elif parent is None:
            doc = value
        else:
            parent[key] = value
    return doc


@fuzz(12)
@given(st.data())
def test_long_csv(base, data):
    command = data.draw(st.sampled_from(["train", "predict", "evaluate-truth",
                                         "evaluate-predictions"]))
    source = base["pred"] if command == "evaluate-predictions" else base["data"]
    bad = base["work"] / "bad.csv"
    bad.write_text(mutate_lines(data.draw, source.read_text()))
    argv = {
        "train": ("train", "--data", bad, "--schema", base["schema"],
                  "--model-out", "m.json", "--baseline", "fflm"),
        "predict": ("predict", "--model", base["model"], "--data", bad,
                    "--schema", base["schema"], "--out", "p.csv"),
        "evaluate-truth": ("evaluate", "--predictions", base["pred"], "--truth", bad),
        "evaluate-predictions": ("evaluate", "--predictions", bad, "--truth", base["data"]),
    }[command]
    run(base["work"], *argv)


@fuzz(10)
@given(st.data())
def test_schema(base, data):
    bad = base["work"] / "schema.json"
    bad.write_text(json.dumps(mutate_json(data.draw, json.loads(base["schema"].read_text()))))
    if data.draw(st.booleans()):
        run(base["work"], "train", "--data", base["data"], "--schema", bad,
            "--model-out", "m.json", "--baseline", "fflm")
    else:
        run(base["work"], "predict", "--model", base["model"], "--data", base["data"],
            "--schema", bad, "--out", "p.csv")


@fuzz(12)
@given(st.data())
def test_run_config(base, data):
    config = {"data": str(base["data"]), "schema": str(base["schema"]),
              "model_out": "m.json", "diagnostics_out": "d.json",
              "split": {"test_fraction": 0.2, "seed": 1, "test_ids_out": "ids.txt"},
              "pipeline": {"kernel_x": {"family": "gaussian", "bandwidth_cov": 0.1},
                           "truncation_y": {"fve_cutoff": 0.99, "max_components": 3},
                           "train": {"epochs": 5, "learning_rate": 0.01},
                           "ridge": 0.0, "seed": 2}}
    bad = base["work"] / "config.json"
    bad.write_text(json.dumps(mutate_json(data.draw, config)))
    run(base["work"], "train", "--config", bad, "--baseline", "fflm")


@fuzz(10)
@given(st.data())
def test_scenario(base, data):
    bad = base["work"] / "scenario.json"
    bad.write_text(json.dumps(mutate_json(data.draw, SCENARIO)))
    run(base["work"], "synth", "--scenario", bad, "--out-dir", "synth")


def test_wrong_types_name_every_key():
    def keys(cls, prefix=""):
        return {prefix + f.name for f in fields(cls)}

    assert set(SCENARIO) == keys(SynthScenario) | {"preset"}
    assert set(WRONG_TYPES["schema"]) == keys(DatasetSchema) | {"grid_sise"}
    assert set(WRONG_TYPES["scenario"]) == set(SCENARIO) | {
        "sampling.kind", "sampling.rate", "sampling.min_points", "sampling.points",
        "wavelength"}
    assert set(WRONG_TYPES["pipeline"]) == (
        keys(PipelineConfig) | keys(KernelSpec, "kernel_x.")
        | keys(TruncationRule, "truncation_x.") | keys(TrainConfig, "train.")
        | {"bogus", "train.bogus", "train.seed", "train.optimizer", "train.momentum",
           "train.adam_beta1", "train.adam_beta2", "train.adam_eps"})


@pytest.mark.parametrize("kind, key, value", [
    (kind, key, value) for kind, table in WRONG_TYPES.items() for key, value in table.items()])
def test_wrong_json_type_exits_2(base, kind, key, value):
    doc = {"schema": json.loads(base["schema"].read_text()),
           "scenario": copy.deepcopy(SCENARIO), "pipeline": {}}[kind]
    *path, last = key.split(".")
    node = doc
    for name in path:
        node = node.setdefault(name, {})
    node[last] = value
    bad = base["work"] / f"{kind}.json"
    bad.write_text(json.dumps({"pipeline": doc} if kind == "pipeline" else doc))
    argv = {
        "schema": ("train", "--data", base["data"], "--schema", bad,
                   "--model-out", "m.json", "--baseline", "fflm"),
        "scenario": ("synth", "--scenario", bad, "--out-dir", "synth"),
        "pipeline": ("train", "--config", bad, "--data", base["data"],
                     "--schema", base["schema"], "--model-out", "m.json"),
    }[kind]
    assert run(base["work"], *argv) == 2


@fuzz(16)
@given(st.data())
def test_model_artifact(base, data):
    doc = json.loads(base["model"].read_text())
    doc["payload"] = mutate_json(data.draw, doc["payload"])
    if data.draw(st.booleans()):
        canonical = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
        doc["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    bad = base["work"] / "model.json"
    bad.write_text(json.dumps(doc))
    if data.draw(st.booleans()):
        run(base["work"], "fpca-report", "--model", bad, "--json")
    else:
        run(base["work"], "predict", "--model", bad, "--data", base["data"],
            "--schema", base["schema"], "--out", "p.csv")


def test_channel_without_pairs_exits_3(tmp_path):
    # every subject has one x1 and one y1 observation, spread over the whole
    # domain: the data load, but no covariance surface can be smoothed
    rows = ["subject_id,variable_id,role,time,value"]
    for i in range(30):
        rows += [f"s{i:02d},x1,covariate,{i / 29!r},{i % 7 / 7!r}",
                 f"s{i:02d},y1,response,{i / 29!r},{i % 5 / 5!r}"]
    (tmp_path / "data.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "schema.json").write_text(json.dumps(
        {"covariates": ["x1"], "responses": ["y1"], "covariate_domain": [0, 1],
         "response_domain": [0, 1], "grid_size": 11}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in ("train", "--data", tmp_path / "data.csv", "--schema",
                                      tmp_path / "schema.json", "--model-out",
                                      tmp_path / "m.json", "--baseline", "fflm")])
    assert code == 3
    assert err.getvalue() == ("error: smoothing/covariate/channel=x1: NoPairs: "
                              "no subject has at least 2 observations\n")
