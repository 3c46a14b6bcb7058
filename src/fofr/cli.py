"""Command-line interface: synthesize, train, predict, evaluate, inspect.

Exit codes: 0 success; on failure the class of the error decides the code
(see ``fofr.errors``): 2 for input errors and unreadable or unwritable paths,
3 for runtime failures.  ``main`` is the only place that maps an error to it.
Every command is deterministic and idempotent on identical inputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field

from fofr.core import (
    PREDICTIONS_HEADER,
    _config_from_json,
    _check_ints,
    _is_real,
    _read_json,
    _read_series,
    _write_json,
    _write_long_csv,
    load_dataset,
    load_schema,
    write_dataset,
    write_schema,
)
from fofr.errors import BadConfig, FofrError, InputError
from fofr.pipeline import (
    MetricsReport,
    PipelineConfig,
    _score_series,
    fpca_report,
    load_model,
    predict_pipeline,
    save_model,
    split_subjects,
    train_pipeline,
)
from fofr.synthgen import dataset_schema, generate, load_scenario, save_ground_truth

EXIT_OK = 0


@dataclass(frozen=True)
class SplitConfig:
    test_fraction: float = 0.0
    seed: int = 0
    test_ids_out: str = ""
    test_data_out: str = ""

    def __post_init__(self):
        _check_ints(self, ("seed",))
        if not (_is_real(self.test_fraction) and 0.0 <= self.test_fraction <= 0.5
                and self.seed >= 0):
            raise ValueError(f"test_fraction must lie in [0, 0.5] and seed be >= 0, "
                             f"got {self.test_fraction} and {self.seed}")


@dataclass(frozen=True)
class RunConfig:
    """A ``fofr train --config`` file; an empty path is unset, a flag overrides it."""

    data: str = ""
    schema: str = ""
    model_out: str = ""
    diagnostics_out: str = ""
    split: SplitConfig = field(default_factory=SplitConfig)
    pipeline: dict = field(default_factory=dict)


def cmd_synth(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        from dataclasses import replace
        scenario = replace(scenario, seed=args.seed)
    dataset, truth = generate(scenario)

    os.makedirs(args.out_dir, exist_ok=True)
    data_path = os.path.join(args.out_dir, "data.csv")
    schema_path = os.path.join(args.out_dir, "schema.json")
    truth_path = os.path.join(args.out_dir, "ground_truth.json")
    write_dataset(dataset, data_path)
    write_schema(dataset_schema(scenario), schema_path)
    save_ground_truth(truth, truth_path)

    summary = {
        "n_subjects": dataset.n_subjects,
        "covariates": list(dataset.covariate_names),
        "responses": list(dataset.response_names),
        "files": [data_path, schema_path, truth_path],
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(f"wrote {dataset.n_subjects} subjects "
              f"({len(dataset.covariate_names)} covariate, "
              f"{len(dataset.response_names)} response channels) to {args.out_dir}")
    return EXIT_OK


def _check_distinct(message, paths, inputs=()):
    """Raise BadConfig(``message``) unless the non-empty ``paths`` name
    distinct files, none of them one of ``inputs``; paths are compared after
    resolving ``.``, ``..`` and symbolic links."""
    paths = [os.path.realpath(p) for p in paths if p]
    if len(set(paths)) != len(paths) or set(paths) & {os.path.realpath(p) for p in inputs}:
        raise BadConfig(message)


def cmd_train(args) -> int:
    cfg = (_config_from_json(RunConfig, _read_json(args.config, BadConfig), "config")
           if args.config else RunConfig())
    data_path, schema_path, model_out, diagnostics_out = (
        getattr(args, key) or getattr(cfg, key)
        for key in ("data", "schema", "model_out", "diagnostics_out"))
    if not data_path or not schema_path or not model_out:
        raise BadConfig("train needs data, schema and model_out (via --config or flags)")
    ids_out, data_out = cfg.split.test_ids_out, cfg.split.test_data_out
    _check_distinct("data, schema and output paths must be distinct",
                    [data_path, schema_path, model_out, diagnostics_out, ids_out, data_out])

    schema = load_schema(schema_path)
    dataset = load_dataset(data_path, schema)
    if cfg.split.test_fraction > 0:
        dataset, test_set = split_subjects(dataset, cfg.split.test_fraction, cfg.split.seed)
        if ids_out:
            with open(ids_out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(test_set.subject_ids) + "\n")
        if data_out:
            write_dataset(test_set, data_out)

    flags = {"regressor": args.baseline, "seed": args.seed}
    config = PipelineConfig.from_dict({
        "grid_size_s": schema.grid_size, "grid_size_t": schema.grid_size, **cfg.pipeline,
        **{key: value for key, value in flags.items() if value is not None}})
    model, diagnostics = train_pipeline(dataset, config)
    save_model(model, model_out)
    if diagnostics_out:
        _write_json(diagnostics_out, diagnostics)
    if args.json:
        print(json.dumps({"model": model_out, "L": diagnostics["n_inputs"],
                          "P": diagnostics["n_outputs"],
                          "regressor": diagnostics["regressor"]["kind"],
                          "n_params": diagnostics["regressor"]["n_params"]},
                         sort_keys=True))
    else:
        print(f"trained {diagnostics['regressor']['kind']} model "
              f"(L={diagnostics['n_inputs']}, P={diagnostics['n_outputs']}, "
              f"{diagnostics['regressor']['n_params']} parameters) -> {model_out}")
    return EXIT_OK


def write_predictions_csv(predictions, path):
    """Long CSV of predicted curves on the response grid; repr-float round-trip."""
    times = predictions.grid.points
    _write_long_csv(path, PREDICTIONS_HEADER,
                    [((sid, name), times, curve)
                     for sid, curves in zip(predictions.subject_ids, predictions.values)
                     for name, curve in zip(predictions.channel_names, curves)])


def cmd_predict(args) -> int:
    _check_distinct("--out must differ from --model, --data and --schema", [args.out],
                    [args.model, args.data, args.schema])
    model = load_model(args.model)
    dataset = load_dataset(args.data, load_schema(args.schema))
    predictions = predict_pipeline(model, dataset)
    write_predictions_csv(predictions, args.out)
    n_rows = len(predictions.subject_ids) * len(predictions.channel_names) * predictions.grid.size
    if args.json:
        print(json.dumps({"out": args.out, "n_rows": n_rows}, sort_keys=True))
    else:
        print(f"wrote {n_rows} prediction rows -> {args.out}")
    return EXIT_OK


def evaluate_csv(pred_path, truth_path) -> MetricsReport:
    """Metrics of a predictions CSV (4-column) against a truth CSV (4- or
    5-column, its response rows), no schema needed."""
    predicted = _read_series(pred_path)
    observed = _read_series(truth_path, role="response")
    return _score_series(predicted, observed, sorted({name for _, name in predicted}),
                         sorted({sid for sid, _ in observed}))


def cmd_evaluate(args) -> int:
    _check_distinct("--out must differ from --predictions and --truth", [args.out],
                    [args.predictions, args.truth])
    report = evaluate_csv(args.predictions, args.truth)
    doc = report.to_dict()
    if args.out:
        _write_json(args.out, doc)
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        print(report.to_table())
    return EXIT_OK


def _print_fpca_tables(doc: dict):
    for label, key in (("covariate", "covariate_side"), ("response", "response_side")):
        side = doc[key]
        print(f"== {label} side ==")
        for ch in side["channels"]:
            print(f"channel {ch['channel']} ({ch['n_components']} components)")
            print(f"  {'comp':>4}{'eigenvalue':>14}{'fve':>10}")
            for i, (lam, fve) in enumerate(zip(ch["eigenvalues"], ch["fve"]), start=1):
                print(f"  {i:>4}{lam:>14.6g}{fve:>10.4f}")
        print(f"multivariate spectrum ({side['n_components']} components)")
        print(f"  {'comp':>4}{'eigenvalue':>14}{'fve':>10}")
        for i, (lam, fve) in enumerate(zip(side["multivariate_eigenvalues"],
                                           side["multivariate_fve"]), start=1):
            print(f"  {i:>4}{lam:>14.6g}{fve:>10.4f}")
    print(f"selected L={doc['L']}, P={doc['P']}, regressor={doc['regressor']}")


def cmd_fpca_report(args) -> int:
    doc = fpca_report(load_model(args.model))
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        _print_fpca_tables(doc)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fofr",
        description="Non-linear function-on-function regression for time series")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log debug lines, such as how each large CSV was read or written")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset from a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit the model on a long-format CSV")
    p.add_argument("--config", default=None, help="run configuration JSON")
    p.add_argument("--data", default=None, help="training CSV (overrides config)")
    p.add_argument("--schema", default=None, help="dataset schema JSON (overrides config)")
    p.add_argument("--model-out", default=None, help="model artifact path (overrides config)")
    p.add_argument("--diagnostics-out", default=None,
                   help="diagnostics JSON path (overrides config)")
    p.add_argument("--baseline", choices=["fflm"], default=None,
                   help="fit the linear baseline instead of the network")
    p.add_argument("--seed", type=int, default=None, help="override the pipeline seed")
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="apply a trained model to new covariates")
    p.add_argument("--model", required=True, help="model artifact path")
    p.add_argument("--data", required=True, help="covariate CSV")
    p.add_argument("--schema", required=True, help="dataset schema JSON")
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against observed truth")
    p.add_argument("--predictions", required=True, help="predictions CSV (4-column)")
    p.add_argument("--truth", required=True, help="truth CSV (4- or 5-column)")
    p.add_argument("--out", default=None, help="metrics JSON path")
    p.add_argument("--json", action="store_true", help="print metrics as JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fpca-report", help="eigenvalue and FVE tables of a trained model")
    p.add_argument("--model", required=True, help="model artifact path")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_fpca_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    args = build_parser().parse_args(argv)
    logging.getLogger("fofr").setLevel(logging.DEBUG if args.verbose else logging.NOTSET)
    try:
        return args.func(args)
    except (FofrError, OSError) as exc:  # an OSError is an unreadable or unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, FofrError) else InputError.exit_code


if __name__ == "__main__":
    sys.exit(main())
