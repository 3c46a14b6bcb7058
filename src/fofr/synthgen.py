"""Synthetic functional-data generator with planted eigenstructure.

Curves are built from orthonormal multivariate Fourier systems with planted
component variances; response scores are a planted (linear or quadratic)
function of the covariate scores, constructed so the response process has
exactly the planted spectrum.  Everything needed to check the pipeline
against ground truth is returned alongside the dataset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from fofr.core import (
    DatasetSchema,
    EvalGrid,
    FunctionalDataset,
    Interval,
    ObservationSeries,
    _read_json,
    make_grid,
)
from fofr.errors import BadScenario, IndexOutOfRange

TRUTH_GRID_SIZE = 201


@dataclass(frozen=True)
class SynthScenario:
    n_subjects: int = 200
    covariate_channels: int = 1
    response_channels: int = 1
    fourier_order_x: int = 3
    fourier_order_y: int = 3
    eigenvalues_x: tuple = (1.0, 0.75, 0.5625)
    eigenvalues_y: tuple = (1.0, 0.75)
    mapping: str = "linear"  # or "quadratic"
    noise_sd: float = 0.0
    sampling: tuple = ("dense", 41)  # or ("irregular", rate, min_points)
    covariate_domain: Interval = field(default_factory=lambda: Interval(0.0, 1.0))
    response_domain: Interval = field(default_factory=lambda: Interval(0.0, 1.0))
    mix_channels: bool = True
    mean_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues_x", tuple(float(v) for v in self.eigenvalues_x))
        object.__setattr__(self, "eigenvalues_y", tuple(float(v) for v in self.eigenvalues_y))
        object.__setattr__(self, "sampling", tuple(self.sampling))
        self._validate()

    def _validate(self):
        for name in ("n_subjects", "covariate_channels", "response_channels",
                     "fourier_order_x", "fourier_order_y", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise BadScenario(f"{name} must be a non-negative integer, got {value!r}")
        if self.n_subjects < 2:
            raise BadScenario("need at least 2 subjects")
        if self.covariate_channels < 1 or self.response_channels < 1:
            raise BadScenario("need at least one channel per side")
        for name, lams in (("eigenvalues_x", self.eigenvalues_x),
                           ("eigenvalues_y", self.eigenvalues_y)):
            if not lams or any(v <= 0 for v in lams):
                raise BadScenario(f"{name} must be non-empty and positive")
            if any(a < b for a, b in zip(lams, lams[1:])):
                raise BadScenario(f"{name} must be non-increasing")
        cap_x = self.covariate_channels * (2 * self.fourier_order_x + 1)
        cap_y = self.response_channels * (2 * self.fourier_order_y + 1)
        if len(self.eigenvalues_x) > cap_x:
            raise BadScenario(
                f"covariate rank {len(self.eigenvalues_x)} exceeds basis capacity {cap_x}")
        if len(self.eigenvalues_y) > cap_y:
            raise BadScenario(
                f"response rank {len(self.eigenvalues_y)} exceeds basis capacity {cap_y}")
        if self.mapping not in ("linear", "quadratic"):
            raise BadScenario(f"unknown mapping {self.mapping!r}")
        lx, ly = len(self.eigenvalues_x), len(self.eigenvalues_y)
        if self.mapping == "linear" and ly > lx:
            raise BadScenario("linear mapping cannot raise the rank: need P <= L")
        if self.mapping == "quadratic" and ly > 2 * lx:
            raise BadScenario("quadratic mapping needs P <= 2L")
        if self.noise_sd < 0:
            raise BadScenario("noise_sd must be >= 0")
        kind = self.sampling[0]
        if kind == "dense":
            if len(self.sampling) != 2 or int(self.sampling[1]) < 2:
                raise BadScenario("dense sampling needs ('dense', points>=2)")
        elif kind == "irregular":
            if (len(self.sampling) != 3 or not 0 < float(self.sampling[1]) < np.inf
                    or int(self.sampling[2]) < 2):
                raise BadScenario("irregular sampling needs ('irregular', rate>0, min_points>=2)")
        else:
            raise BadScenario(f"unknown sampling kind {kind!r}")


class PlantedBasis:
    """Orthonormal multivariate Fourier system of a given rank.

    Raw components place one scalar Fourier function in one channel,
    frequency-major so low frequencies come first; an optional seeded
    orthogonal mix spreads every component across channels.
    """

    def __init__(self, domain: Interval, channels: int, order: int, rank: int,
                 mix: np.ndarray | None):
        self.domain = domain
        self.channels = channels
        self.rank = rank
        nb = 2 * order + 1
        self.assignment = [(f, c) for f in range(nb) for c in range(channels)][:rank]
        if mix is not None and mix.shape != (rank, rank):
            raise BadScenario("mixing matrix shape does not match rank")
        self.mix = mix

    def _scalar(self, f_idx: int, times: np.ndarray) -> np.ndarray:
        length = self.domain.length
        u = (times - self.domain.lo) / length
        scale = 1.0 / np.sqrt(length)
        if f_idx == 0:
            return np.full_like(u, scale)
        k = (f_idx + 1) // 2
        if f_idx % 2 == 1:
            return scale * np.sqrt(2.0) * np.sin(2 * np.pi * k * u)
        return scale * np.sqrt(2.0) * np.cos(2 * np.pi * k * u)

    def eval(self, times: np.ndarray) -> np.ndarray:
        """Tabulate all components: (rank, channels, len(times))."""
        raw = np.zeros((self.rank, self.channels, len(times)))
        for q, (f_idx, c) in enumerate(self.assignment):
            raw[q, c] = self._scalar(f_idx, times)
        if self.mix is None:
            return raw
        return np.einsum("pq,qct->pct", self.mix, raw)


@dataclass(frozen=True)
class GroundTruth:
    scenario: SynthScenario
    grid_s: EvalGrid
    grid_t: EvalGrid
    covariate_basis: np.ndarray   # (L, R, G)
    response_basis: np.ndarray    # (P, D, G)
    covariate_mean: np.ndarray    # (R, G)
    response_mean: np.ndarray     # (D, G)
    covariate_var: np.ndarray     # (R, G)
    response_var: np.ndarray      # (D, G)
    covariate_scores: np.ndarray  # (N, L)
    response_scores: np.ndarray   # (N, P)
    mapping_matrices: dict        # {"B": ...} or {"B1": ..., "B2": ...}
    noiseless_responses: np.ndarray  # (N, D, G)


def oracle_scores(ground_truth: GroundTruth, subject: int):
    """The exact (covariate, response) score vectors used in generation."""
    n = ground_truth.covariate_scores.shape[0]
    if not 0 <= subject < n:
        raise IndexOutOfRange(f"subject {subject} outside [0, {n})")
    return ground_truth.covariate_scores[subject], ground_truth.response_scores[subject]


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _mean_function(domain: Interval, channel: int, scale: float, times: np.ndarray) -> np.ndarray:
    u = (times - domain.lo) / domain.length
    return scale * (1.0 + 0.3 * channel + 0.5 * np.sin(2 * np.pi * u + 0.7 * channel))


def _build_mapping(scenario: SynthScenario, rng: np.random.Generator) -> dict:
    lam_x = np.array(scenario.eigenvalues_x)
    lam_y = np.array(scenario.eigenvalues_y)
    l, p = len(lam_x), len(lam_y)
    if scenario.mapping == "linear":
        o = _random_orthogonal(rng, l)
        sel = np.eye(p, l)
        b = np.sqrt(lam_y)[:, None] * sel @ o / np.sqrt(lam_x)[None, :]
        return {"B": b}
    # quadratic: features [xi, xi^2 - lam_x] have diagonal covariance
    # diag(lam_x, 2 lam_x^2); an orthogonal mix keeps the response spectrum exact
    o = _random_orthogonal(rng, 2 * l)
    sel = np.eye(p, 2 * l)
    feat_sd = np.concatenate([np.sqrt(lam_x), np.sqrt(2.0) * lam_x])
    b_full = np.sqrt(lam_y)[:, None] * sel @ o / feat_sd[None, :]
    return {"B1": b_full[:, :l], "B2": b_full[:, l:]}


def apply_mapping(mapping: dict, eigenvalues_x, xi: np.ndarray) -> np.ndarray:
    """Planted score map; xi is (N, L) or (L,)."""
    xi = np.atleast_2d(xi)
    if "B" in mapping:
        theta = xi @ mapping["B"].T
    else:
        quad = xi * xi - np.asarray(eigenvalues_x)[None, :]
        theta = xi @ mapping["B1"].T + quad @ mapping["B2"].T
    return theta if theta.shape[0] > 1 else theta[0]


def _sample_times(scenario: SynthScenario, domain: Interval, rng: np.random.Generator) -> np.ndarray:
    if scenario.sampling[0] == "dense":
        return np.linspace(domain.lo, domain.hi, int(scenario.sampling[1]))
    rate, min_points = float(scenario.sampling[1]), int(scenario.sampling[2])
    m = max(int(rng.poisson(rate)), min_points)
    return np.sort(rng.uniform(domain.lo, domain.hi, size=m))


def generate(scenario: SynthScenario):
    """Draw a full dataset plus its GroundTruth record; deterministic per seed."""
    rng = np.random.default_rng(scenario.seed)
    l, p = len(scenario.eigenvalues_x), len(scenario.eigenvalues_y)
    lam_x = np.array(scenario.eigenvalues_x)
    lam_y = np.array(scenario.eigenvalues_y)

    mix_x = _random_orthogonal(rng, l) if scenario.mix_channels else None
    mix_y = _random_orthogonal(rng, p) if scenario.mix_channels else None
    basis_x = PlantedBasis(scenario.covariate_domain, scenario.covariate_channels,
                           scenario.fourier_order_x, l, mix_x)
    basis_y = PlantedBasis(scenario.response_domain, scenario.response_channels,
                           scenario.fourier_order_y, p, mix_y)
    mapping = _build_mapping(scenario, rng)

    n = scenario.n_subjects
    xi = rng.standard_normal((n, l)) * np.sqrt(lam_x)[None, :]
    theta = np.atleast_2d(apply_mapping(mapping, lam_x, xi))

    grid_s = make_grid(scenario.covariate_domain, TRUTH_GRID_SIZE)
    grid_t = make_grid(scenario.response_domain, TRUTH_GRID_SIZE)
    tab_x = basis_x.eval(grid_s.points)
    tab_y = basis_y.eval(grid_t.points)
    mean_x = np.stack([_mean_function(scenario.covariate_domain, c, scenario.mean_scale,
                                      grid_s.points)
                       for c in range(scenario.covariate_channels)])
    mean_y = np.stack([_mean_function(scenario.response_domain, c, scenario.mean_scale,
                                      grid_t.points)
                       for c in range(scenario.response_channels)])
    var_x = np.einsum("p,pcg->cg", lam_x, tab_x ** 2)
    var_y = np.einsum("p,pcg->cg", lam_y, tab_y ** 2)
    noiseless = mean_y[None, :, :] + np.einsum("np,pdg->ndg", theta, tab_y)

    subject_ids = [f"s{i:04d}" for i in range(n)]
    covariates, responses = [], []
    for i in range(n):
        cov_row = []
        for r in range(scenario.covariate_channels):
            times = _sample_times(scenario, scenario.covariate_domain, rng)
            vals = (_mean_function(scenario.covariate_domain, r, scenario.mean_scale, times)
                    + np.einsum("p,pt->t", xi[i], basis_x.eval(times)[:, r, :]))
            if scenario.noise_sd > 0:
                vals = vals + scenario.noise_sd * rng.standard_normal(len(times))
            cov_row.append(ObservationSeries(times, vals))
        covariates.append(cov_row)
        res_row = []
        for d in range(scenario.response_channels):
            times = _sample_times(scenario, scenario.response_domain, rng)
            vals = (_mean_function(scenario.response_domain, d, scenario.mean_scale, times)
                    + np.einsum("p,pt->t", theta[i], basis_y.eval(times)[:, d, :]))
            if scenario.noise_sd > 0:
                vals = vals + scenario.noise_sd * rng.standard_normal(len(times))
            res_row.append(ObservationSeries(times, vals))
        responses.append(res_row)

    dataset = FunctionalDataset(
        covariate_domain=scenario.covariate_domain,
        response_domain=scenario.response_domain,
        covariate_names=tuple(f"x{r + 1}" for r in range(scenario.covariate_channels)),
        response_names=tuple(f"y{d + 1}" for d in range(scenario.response_channels)),
        subject_ids=subject_ids,
        covariates=covariates,
        responses=responses,
    )
    truth = GroundTruth(
        scenario=scenario,
        grid_s=grid_s,
        grid_t=grid_t,
        covariate_basis=tab_x,
        response_basis=tab_y,
        covariate_mean=mean_x,
        response_mean=mean_y,
        covariate_var=var_x,
        response_var=var_y,
        covariate_scores=xi,
        response_scores=theta,
        mapping_matrices=mapping,
        noiseless_responses=noiseless,
    )
    return dataset, truth


def dataset_schema(scenario: SynthScenario, grid_size: int = 101) -> DatasetSchema:
    return DatasetSchema(
        covariates=tuple(f"x{r + 1}" for r in range(scenario.covariate_channels)),
        responses=tuple(f"y{d + 1}" for d in range(scenario.response_channels)),
        covariate_domain=scenario.covariate_domain,
        response_domain=scenario.response_domain,
        grid_size=grid_size,
    )


def drop_observations(dataset: FunctionalDataset, fraction: float, seed: int,
                      min_keep: int = 2) -> FunctionalDataset:
    """Drop a random share of points from every series (training-robustness probe)."""
    if not 0.0 <= fraction < 1.0:
        raise BadScenario(f"fraction must lie in [0, 1), got {fraction}")
    rng = np.random.default_rng(seed)

    def thin(series: ObservationSeries) -> ObservationSeries:
        m = len(series)
        n_keep = max(min_keep, int(round((1.0 - fraction) * m)))
        keep = np.sort(rng.choice(m, size=min(n_keep, m), replace=False))
        return ObservationSeries(series.times[keep], series.values[keep])

    covariates = [[thin(s) for s in row] for row in dataset.covariates]
    responses = None
    if dataset.responses is not None:
        responses = [[thin(s) for s in row] for row in dataset.responses]
    return FunctionalDataset(
        covariate_domain=dataset.covariate_domain,
        response_domain=dataset.response_domain,
        covariate_names=dataset.covariate_names,
        response_names=dataset.response_names,
        subject_ids=dataset.subject_ids,
        covariates=covariates,
        responses=responses,
    )


def scenario_from_dict(d: dict) -> SynthScenario:
    try:
        kwargs = dict(d)
        preset = kwargs.pop("preset", None)
        if preset is not None:
            base = preset_scenario(preset)
            merged = {**base.__dict__, **kwargs}
            kwargs = merged
        if "covariate_domain" in kwargs and not isinstance(kwargs["covariate_domain"], Interval):
            kwargs["covariate_domain"] = Interval(*map(float, kwargs["covariate_domain"]))
        if "response_domain" in kwargs and not isinstance(kwargs["response_domain"], Interval):
            kwargs["response_domain"] = Interval(*map(float, kwargs["response_domain"]))
        sampling = kwargs.get("sampling")
        if isinstance(sampling, dict):
            if sampling.get("kind") == "dense":
                kwargs["sampling"] = ("dense", int(sampling["points"]))
            elif sampling.get("kind") == "irregular":
                kwargs["sampling"] = ("irregular", float(sampling["rate"]),
                                      int(sampling["min_points"]))
            else:
                raise BadScenario(f"unknown sampling kind {sampling.get('kind')!r}")
        return SynthScenario(**kwargs)
    except (TypeError, LookupError, ValueError, OverflowError) as exc:
        raise BadScenario(f"bad scenario: {exc}") from exc


def load_scenario(path) -> SynthScenario:
    payload = _read_json(path, BadScenario)
    if not isinstance(payload, dict):
        raise BadScenario(f"{path}: scenario must be a JSON object")
    return scenario_from_dict(payload)


def ground_truth_to_dict(truth: GroundTruth) -> dict:
    sc = truth.scenario
    return {
        "scenario": {
            "n_subjects": sc.n_subjects,
            "covariate_channels": sc.covariate_channels,
            "response_channels": sc.response_channels,
            "fourier_order_x": sc.fourier_order_x,
            "fourier_order_y": sc.fourier_order_y,
            "eigenvalues_x": list(sc.eigenvalues_x),
            "eigenvalues_y": list(sc.eigenvalues_y),
            "mapping": sc.mapping,
            "noise_sd": sc.noise_sd,
            "sampling": list(sc.sampling),
            "covariate_domain": [sc.covariate_domain.lo, sc.covariate_domain.hi],
            "response_domain": [sc.response_domain.lo, sc.response_domain.hi],
            "mix_channels": sc.mix_channels,
            "mean_scale": sc.mean_scale,
            "seed": sc.seed,
        },
        "grid_s": truth.grid_s.points.tolist(),
        "grid_t": truth.grid_t.points.tolist(),
        "covariate_basis": truth.covariate_basis.tolist(),
        "response_basis": truth.response_basis.tolist(),
        "covariate_mean": truth.covariate_mean.tolist(),
        "response_mean": truth.response_mean.tolist(),
        "covariate_var": truth.covariate_var.tolist(),
        "response_var": truth.response_var.tolist(),
        "covariate_scores": truth.covariate_scores.tolist(),
        "response_scores": truth.response_scores.tolist(),
        "mapping_matrices": {k: v.tolist() for k, v in truth.mapping_matrices.items()},
        "noiseless_responses": truth.noiseless_responses.tolist(),
    }


def save_ground_truth(truth: GroundTruth, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ground_truth_to_dict(truth), fh, sort_keys=True)
        fh.write("\n")


# canonical scenarios used across the test and demo suites

def preset_scenario(name: str) -> SynthScenario:
    q = 0.75
    if name == "rank_11_10":
        return SynthScenario(
            n_subjects=500, covariate_channels=1, response_channels=1,
            fourier_order_x=5, fourier_order_y=5,
            eigenvalues_x=tuple(q ** k for k in range(1, 12)),
            eigenvalues_y=tuple(q ** k for k in range(1, 11)),
            mapping="linear", noise_sd=0.0, sampling=("dense", 51),
            mix_channels=False, seed=11)
    if name == "linear":
        return SynthScenario(
            n_subjects=500, covariate_channels=2, response_channels=2,
            fourier_order_x=2, fourier_order_y=2,
            eigenvalues_x=tuple(q ** k for k in range(1, 5)),
            eigenvalues_y=tuple(q ** k for k in range(1, 4)),
            mapping="linear", noise_sd=0.0, sampling=("dense", 41),
            mix_channels=True, seed=23)
    if name == "dense":
        return SynthScenario(
            n_subjects=500, covariate_channels=2, response_channels=2,
            fourier_order_x=2, fourier_order_y=2,
            eigenvalues_x=tuple(q ** k for k in range(1, 5)),
            eigenvalues_y=tuple(q ** k for k in range(1, 4)),
            mapping="linear", noise_sd=0.15, sampling=("dense", 61),
            mix_channels=True, seed=31)
    if name == "quadratic":
        return SynthScenario(
            n_subjects=500, covariate_channels=2, response_channels=2,
            fourier_order_x=2, fourier_order_y=2,
            eigenvalues_x=tuple(q ** k for k in range(1, 5)),
            eigenvalues_y=tuple(q ** k for k in range(1, 4)),
            mapping="quadratic", noise_sd=0.05, sampling=("dense", 31),
            mix_channels=True, seed=47)
    raise BadScenario(f"unknown preset {name!r}")
