"""Run one workload of the fofr fit-and-score benchmark and print its metrics.

    python3 bench/run.py --workload dense_nn --seed 1 --seconds 20 --trace 0

fofr is imported from the ``src/`` directory beside ``bench/``, never from
an installed copy.  The run sets up its inputs several times (reporting the
median), then repeats whole rounds of one fit and a fixed number of score
passes until ``--seconds`` have passed, checking every output.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

import os
import sys
import time

START = time.perf_counter()

# One BLAS thread, set before numpy loads: at two threads scipy's eigh on the
# 101 x 101 FPCA operator takes ~1.5 ms in some processes and ~165 ms in
# others, and the covariance smoother's bytes change with the thread count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402

import fofr  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(fofr.__file__))) != SRC:
    sys.exit(f"bench: fofr was imported from {fofr.__file__}, not from {SRC}")

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="rounds start until this much time has been measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: the same operations and checks on tiny inputs")
    return parser.parse_args(argv)


def environment() -> dict:
    def blas(show_config):
        info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config),
    }


class Run:
    """One workload's rounds, their timings and the count of failed operations.

    A round is one fit, one verification of the fitted model and
    ``score_passes`` score passes, each an operation.  An operation fails when
    it raises or when a check of its output fails.  The verification checks
    the model on the fitted subjects, which do not depend on the seed, so a
    fault it finds fails it on every run and shows in ``failed`` alone (see
    README.md); a failed check of a score pass also makes the run incorrect.
    """

    def __init__(self, spec, seed, workdir, span):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.span = span
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.setup_s = []
        self.fit_s = []
        self.score_s = []
        self.test_mse = []
        self.inputs = None

    def _fail(self, operations: int = 1, incorrect: bool = False):
        self.failed += operations
        exc = sys.exc_info()[1]
        if isinstance(exc, checks.CheckFailed):
            self.correct = self.correct and not incorrect
            print(f"bench: check failed: {exc}", file=sys.stderr)
        else:
            traceback.print_exc(file=sys.stderr)

    def _timed(self, name, fn, *args):
        t0 = time.perf_counter()
        with self.span(name):
            result = fn(*args)
        return result, time.perf_counter() - t0

    def setup(self, repeats: int):
        for _ in range(repeats):
            self.inputs, elapsed = self._timed(
                "setup", workloads.make_inputs, self.spec, self.seed, self.workdir)
            self.setup_s.append(elapsed)

    def round(self):
        spec, inputs = self.spec, self.inputs
        model_path = os.path.join(self.workdir, "model.json")
        predictions_csv = os.path.join(self.workdir, "predictions.csv")
        self.attempted += 2 + spec.score_passes
        try:
            model, fit_s = self._timed("fit", workloads.fit, spec, inputs, model_path)
        except Exception:  # the run goes on; every operation of the round fails
            self._fail(2 + spec.score_passes)
            return
        self.fit_s.append(fit_s)
        try:
            with self.span("check"):
                workloads.verify(spec, inputs, model, model_path)
        except Exception:
            self._fail()
        for _ in range(spec.score_passes):
            try:
                (loaded, predictions, report), score_s = self._timed(
                    "score", workloads.score, inputs, model_path, predictions_csv)
                self.score_s.append(score_s)
                with self.span("check"):
                    self.test_mse.append(workloads.check_score(
                        spec, inputs, loaded, predictions, report, predictions_csv))
            except Exception:
                self._fail(incorrect=True)


def warm_up(spec, seed, workdir, span):
    """One untimed fit and score pass on tiny inputs, so that lazy imports and
    first-call costs land in set-up rather than in the first timed call."""
    tiny = replace(workloads.WORKLOADS["small"][spec.name],
                   n_fit=20, n_score=5, n_reserve=10, epochs=10)
    os.makedirs(workdir)
    with span("warmup"):
        inputs = workloads.make_inputs(tiny, seed, workdir)
        model_path = os.path.join(workdir, "model.json")
        workloads.fit(tiny, inputs, model_path)
        workloads.score(inputs, model_path, os.path.join(workdir, "predictions.csv"))


def main() -> int:
    args = parse_args(sys.argv[1:])
    spec = workloads.WORKLOADS[args.size][args.workload]
    print(json.dumps({"env": environment()}, sort_keys=True))

    tracer = spans.Tracer() if args.trace else None
    restore = spans.patch_everywhere(tracer, layers.TARGETS) if tracer else (lambda: None)
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    import_s = time.perf_counter() - START

    base = os.path.join(HERE, "work")
    workdir = os.path.join(base, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        t0 = time.perf_counter()
        warm_up(spec, args.seed, os.path.join(workdir, "warmup"), span)
        warmup_s = time.perf_counter() - t0
        run = Run(spec, args.seed, workdir, span)
        run.setup(SETUP_REPEATS)
        deadline = time.perf_counter() + args.seconds
        while True:
            run.round()
            if time.perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        restore()
        shutil.rmtree(workdir, ignore_errors=True)

    if not run.fit_s or not run.score_s or not run.test_mse:
        print("bench: no fit and checked score pass completed; no metrics", file=sys.stderr)
        return 3
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "rounds": len(run.fit_s), "import_s": import_s, "warmup_s": warmup_s,
        "setup_repeats_s": run.setup_s, "fit_s": run.fit_s, "score_s": run.score_s}}))

    if tracer:
        metrics = layers.summarize(tracer.spans)
        tracer.dump(os.path.join(base, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = {
            "setup_s": {"value": import_s + warmup_s + statistics.median(run.setup_s),
                        "unit": "s"},
            "fit_s": {"value": statistics.median(run.fit_s), "unit": "s"},
            "score_s": {"value": statistics.median(run.score_s), "unit": "s"},
            "test_mse": {"value": statistics.median(run.test_mse), "unit": "1"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
