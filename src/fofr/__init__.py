"""Non-linear function-on-function regression for multivariate time series.

Learns mappings from irregularly sampled functional covariates to functional
responses: local-linear kernel smoothing, point-wise standardization,
multivariate functional PCA, and a small fully connected network (or linear
baseline) between score spaces.
"""

import os

# BLAS runs one thread unless told otherwise, set before numpy loads: the
# last bits of the covariance smoother's products follow the thread count, so
# a seed then repeats its bytes whatever the core count.  An explicit setting
# wins, and a program that loaded numpy before fofr keeps its own count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from fofr.core import (
    DatasetSchema,
    EvalGrid,
    FunctionalDataset,
    Interval,
    ObservationSeries,
    load_dataset,
    load_schema,
    make_grid,
    write_dataset,
    write_schema,
)
from fofr.errors import FofrError, PipelineError
from fofr.fpca import (
    MultivariateEigenSystem,
    TruncationRule,
    UnivariateEigenSystem,
    multivariate_fpca,
    project_multivariate,
    reconstruct,
    univariate_fpca,
)
from fofr.pipeline import (
    MetricsReport,
    PipelineConfig,
    PredictionSet,
    TrainedModel,
    evaluate,
    load_model,
    predict_pipeline,
    save_model,
    split_subjects,
    train_pipeline,
)
from fofr.regression import (
    FflmParams,
    NetworkParams,
    NetworkSpec,
    TrainConfig,
    count_params,
    fit_fflm,
    forward,
    predict_fflm,
    train_network,
)
from fofr.smoothing import (
    KernelSpec,
    StandardizationParams,
    destandardize,
    smooth_covariance,
    smooth_mean,
    standardize,
)
from fofr.synthgen import SynthScenario, generate, preset_scenario

__version__ = "0.1.0"

__all__ = [
    "DatasetSchema", "EvalGrid", "FunctionalDataset", "Interval",
    "ObservationSeries", "load_dataset", "load_schema", "make_grid",
    "write_dataset", "write_schema",
    "FofrError", "PipelineError",
    "MultivariateEigenSystem", "TruncationRule", "UnivariateEigenSystem",
    "multivariate_fpca", "project_multivariate", "reconstruct", "univariate_fpca",
    "MetricsReport", "PipelineConfig", "PredictionSet", "TrainedModel",
    "evaluate", "load_model", "predict_pipeline", "save_model",
    "split_subjects", "train_pipeline",
    "FflmParams", "NetworkParams", "NetworkSpec", "TrainConfig",
    "count_params", "fit_fflm", "forward", "predict_fflm", "train_network",
    "KernelSpec", "StandardizationParams", "destandardize",
    "smooth_covariance", "smooth_mean", "standardize",
    "SynthScenario", "generate", "preset_scenario",
    "__version__",
]
