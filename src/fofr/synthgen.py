"""Synthetic functional-data generator with planted eigenstructure.

Curves are built from orthonormal multivariate Fourier systems with planted
component variances; response scores are a planted (linear or quadratic)
function of the covariate scores, constructed so the response process has
exactly the planted spectrum.  Everything needed to check the pipeline
against ground truth is returned alongside the dataset.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from fofr.core import (
    DatasetSchema,
    EvalGrid,
    FunctionalDataset,
    Interval,
    ObservationSeries,
    _checked_series,
    _config_from_json,
    _json_object,
    _read_json,
    make_grid,
)
from fofr.errors import BadScenario, DuplicateTimestamp, IndexOutOfRange, MalformedRow

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
        for name in ("eigenvalues_x", "eigenvalues_y"):
            lams = tuple(getattr(self, name))
            if not all(map(_is_real, lams)):
                raise BadScenario(f"{name} must be numbers, got {list(lams)!r}")
            object.__setattr__(self, name, tuple(float(v) for v in lams))
        object.__setattr__(self, "sampling", tuple(self.sampling))
        self._validate()

    def _validate(self):
        for name in ("n_subjects", "covariate_channels", "response_channels",
                     "fourier_order_x", "fourier_order_y", "seed"):
            value = getattr(self, name)
            if not _is_int(value) or value < 0:
                raise BadScenario(f"{name} must be a non-negative integer, got {value!r}")
        if self.n_subjects < 2:
            raise BadScenario("need at least 2 subjects")
        if self.covariate_channels < 1 or self.response_channels < 1:
            raise BadScenario("need at least one channel per side")
        for name, lams in (("eigenvalues_x", self.eigenvalues_x),
                           ("eigenvalues_y", self.eigenvalues_y)):
            if not lams or not all(0 < v < np.inf for v in lams):
                raise BadScenario(f"{name} must be non-empty, positive and finite")
            if any(a < b for a, b in zip(lams, lams[1:])):
                raise BadScenario(f"{name} must be non-increasing")
        for side, _, channels, order, lams in self._sides():
            capacity = channels * (2 * order + 1)
            if len(lams) > capacity:
                raise BadScenario(f"{side} rank {len(lams)} exceeds basis capacity {capacity}")
        if self.mapping not in ("linear", "quadratic"):
            raise BadScenario(f"unknown mapping {self.mapping!r}")
        lx, ly = len(self.eigenvalues_x), len(self.eigenvalues_y)
        if self.mapping == "linear" and ly > lx:
            raise BadScenario("linear mapping cannot raise the rank: need P <= L")
        if self.mapping == "quadratic" and ly > 2 * lx:
            raise BadScenario("quadratic mapping needs P <= 2L")
        if not 0 <= self.noise_sd < np.inf:
            raise BadScenario(f"noise_sd must be finite and >= 0, got {self.noise_sd!r}")
        if not np.isfinite(self.mean_scale):
            raise BadScenario(f"mean_scale must be finite, got {self.mean_scale!r}")
        kind, *design = self.sampling or (None,)
        if kind == "dense":
            if len(design) != 1 or not _is_int(design[0]) or design[0] < 2:
                raise BadScenario("dense sampling needs ('dense', points>=2), "
                                  f"got {list(self.sampling)!r}")
        elif kind == "irregular":
            if (len(design) != 2 or not _is_real(design[0]) or not 0 < design[0] < np.inf
                    or not _is_int(design[1]) or design[1] < 2):
                raise BadScenario("irregular sampling needs ('irregular', rate>0, min_points>=2), "
                                  f"got {list(self.sampling)!r}")
        else:
            raise BadScenario(f"unknown sampling kind {kind!r}")

    def _sides(self):
        """(side, domain, channels, Fourier order, eigenvalues), covariates first."""
        return (("covariate", self.covariate_domain, self.covariate_channels,
                 self.fourier_order_x, self.eigenvalues_x),
                ("response", self.response_domain, self.response_channels,
                 self.fourier_order_y, self.eigenvalues_y))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class PlantedBasis:
    """Orthonormal multivariate Fourier system of a given rank.

    Raw components place one scalar Fourier function in one channel,
    frequency-major so low frequencies come first; an optional seeded
    orthogonal mix spreads every component across channels.
    """

    def __init__(self, domain: Interval, channels: int, order: int, rank: int,
                 mix: np.ndarray | None):
        self.domain, self.channels, self.rank = domain, channels, rank
        self.assignment = [(f, c) for f in range(2 * order + 1) for c in range(channels)][:rank]
        if mix is not None and mix.shape != (rank, rank):
            raise BadScenario("mixing matrix shape does not match rank")
        self.mix = mix

    def _scalar(self, f_idx: int, times: np.ndarray) -> np.ndarray:
        u = (times - self.domain.lo) / self.domain.length
        scale = 1.0 / np.sqrt(self.domain.length)
        if f_idx == 0:
            return np.full_like(u, scale)
        wave = np.sin if f_idx % 2 == 1 else np.cos
        return scale * np.sqrt(2.0) * wave(2 * np.pi * ((f_idx + 1) // 2) * u)

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
    lam_x, lam_y = np.array(scenario.eigenvalues_x), np.array(scenario.eigenvalues_y)
    # linear features xi have covariance diag(lam_x), quadratic ones [xi, xi^2 - lam_x]
    # diag(lam_x, 2 lam_x^2); an orthogonal mix keeps the response spectrum exact
    feat_sd = np.sqrt(lam_x)
    if scenario.mapping == "quadratic":
        feat_sd = np.concatenate([feat_sd, np.sqrt(2.0) * lam_x])
    o = _random_orthogonal(rng, len(feat_sd))
    b = np.sqrt(lam_y)[:, None] * np.eye(len(lam_y), len(feat_sd)) @ o / feat_sd[None, :]
    if scenario.mapping == "linear":
        return {"B": b}
    return {"B1": b[:, :len(lam_x)], "B2": b[:, len(lam_x):]}


def apply_mapping(mapping: dict, eigenvalues_x, xi: np.ndarray) -> np.ndarray:
    """Planted score map; xi is (N, L) or (L,)."""
    xi = np.atleast_2d(xi)
    if "B" in mapping:
        theta = xi @ mapping["B"].T
    else:
        quad = xi * xi - np.asarray(eigenvalues_x)[None, :]
        theta = xi @ mapping["B1"].T + quad @ mapping["B2"].T
    return theta if theta.shape[0] > 1 else theta[0]


def _tabulate(scenario: SynthScenario, basis: PlantedBasis, times: np.ndarray):
    """``times`` with the planted means (channels, T) and basis (rank, channels, T) on them."""
    means = [_mean_function(basis.domain, c, scenario.mean_scale, times)
             for c in range(basis.channels)]
    return times, means, basis.eval(times)


def _dense_design(scenario: SynthScenario, basis: PlantedBasis):
    """A dense side's tables, on one time grid that every series of the side
    shares: read-only, so that a write cannot reach every subject."""
    times = np.linspace(basis.domain.lo, basis.domain.hi, scenario.sampling[1])
    times.flags.writeable = False
    return _tabulate(scenario, basis, times)


def _draw_series(scenario: SynthScenario, basis: PlantedBasis, channel: int,
                 scores: np.ndarray, rng: np.random.Generator, design):
    """One subject's (times, values) on one channel: planted mean + scores·basis,
    noise.  ``design`` is the side's dense design; None draws irregular times."""
    if design is None:
        _, rate, min_points = scenario.sampling
        size = max(int(rng.poisson(rate)), min_points)
        design = _tabulate(scenario, basis,
                           np.sort(rng.uniform(basis.domain.lo, basis.domain.hi, size=size)))
    times, means, tab = design
    values = means[channel] + np.einsum("p,pt->t", scores, tab[:, channel, :])
    if scenario.noise_sd > 0:
        values = values + scenario.noise_sd * rng.standard_normal(len(times))
    return times, values


def _check_draws(draws):
    """Raise with ``ObservationSeries``' errors unless all of a channel's
    (times, values) draws are finite and rise in time; one pass over all."""
    times = np.concatenate([t for t, _ in draws])
    if not (np.isfinite(times).all() and np.isfinite(np.concatenate([v for _, v in draws])).all()):
        raise MalformedRow("times and values must be finite")
    rising = np.diff(times) > 0
    rising[np.cumsum([len(t) for t, _ in draws])[:-1] - 1] = True  # across series
    if not rising.all():
        raise DuplicateTimestamp("times must be strictly increasing")


def generate(scenario: SynthScenario):
    """Draw a full dataset plus its GroundTruth record; deterministic per seed."""
    rng = np.random.default_rng(scenario.seed)
    bases = [PlantedBasis(domain, channels, order, len(lams),
                          _random_orthogonal(rng, len(lams)) if scenario.mix_channels else None)
             for _, domain, channels, order, lams in scenario._sides()]
    mapping = _build_mapping(scenario, rng)

    n = scenario.n_subjects
    xi = rng.standard_normal((n, bases[0].rank)) * np.sqrt(scenario.eigenvalues_x)[None, :]
    scores = (xi, np.atleast_2d(apply_mapping(mapping, scenario.eigenvalues_x, xi)))

    grids = [make_grid(basis.domain, TRUTH_GRID_SIZE) for basis in bases]
    tabs = [basis.eval(grid.points) for basis, grid in zip(bases, grids)]
    means = [np.stack([_mean_function(basis.domain, c, scenario.mean_scale, grid.points)
                       for c in range(basis.channels)]) for basis, grid in zip(bases, grids)]
    variances = [np.einsum("p,pcg->cg", np.array(lams), tab ** 2)
                 for (*_, lams), tab in zip(scenario._sides(), tabs)]
    noiseless = means[1][None, :, :] + np.einsum("np,pdg->ndg", scores[1], tabs[1])

    designs = [_dense_design(scenario, basis) if scenario.sampling[0] == "dense" else None
               for basis in bases]
    # subject by subject, covariates before responses
    draws = [[[_draw_series(scenario, basis, c, side_scores[i], rng, design)
               for c in range(basis.channels)]
              for basis, side_scores, design in zip(bases, scores, designs)]
             for i in range(n)]
    for side, basis in enumerate(bases):
        for c in range(basis.channels):
            _check_draws([draw[side][c] for draw in draws])
    covariates, responses = ([[_checked_series(*d) for d in draw[side]] for draw in draws]
                             for side in range(2))
    schema = dataset_schema(scenario)
    dataset = FunctionalDataset(scenario.covariate_domain, scenario.response_domain,
                                schema.covariates, schema.responses,
                                [f"s{i:04d}" for i in range(n)], covariates, responses)
    # GroundTruth holds each pair of tables covariate side first
    truth = GroundTruth(scenario, *grids, *tabs, *means, *variances, *scores, mapping, noiseless)
    return dataset, truth


def dataset_schema(scenario: SynthScenario, grid_size: int = 101) -> DatasetSchema:
    return DatasetSchema(tuple(f"x{r + 1}" for r in range(scenario.covariate_channels)),
                         tuple(f"y{d + 1}" for d in range(scenario.response_channels)),
                         scenario.covariate_domain, scenario.response_domain, grid_size)


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
    responses = (None if dataset.responses is None
                 else [[thin(s) for s in row] for row in dataset.responses])
    return replace(dataset, covariates=covariates, responses=responses)


#: the keys of a ``sampling`` object, in the order of the list form, and their JSON types
_SAMPLING_KEYS = {"kind": str, "points": int, "rate": (int, float), "min_points": int}


def scenario_from_dict(d: dict) -> SynthScenario:
    """A scenario from a JSON object of ``SynthScenario`` fields, which replace
    those of its ``preset``, if any; ``sampling`` may also be an object."""
    base = None
    if isinstance(d, dict):
        d = dict(d)
        if "preset" in d:
            base = preset_scenario(d.pop("preset"))
        sampling = d.get("sampling")
        if isinstance(sampling, dict):  # ground_truth.json records its rate as a float
            _json_object(sampling, "scenario.sampling", _SAMPLING_KEYS, BadScenario)
            d["sampling"] = [float(sampling[k]) if k == "rate" else sampling[k]
                             for k in _SAMPLING_KEYS if k in sampling]
    return _config_from_json(SynthScenario, d, "scenario", BadScenario, base)


def load_scenario(path) -> SynthScenario:
    return scenario_from_dict(_read_json(path, BadScenario))


def ground_truth_to_dict(truth: GroundTruth) -> dict:
    scenario = {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(truth.scenario).items()}
    for name in ("covariate_domain", "response_domain"):
        scenario[name] = [scenario[name]["lo"], scenario[name]["hi"]]
    out = {name: value.tolist() for name, value in vars(truth).items()
           if isinstance(value, np.ndarray)}
    out.update(scenario=scenario, grid_s=truth.grid_s.points.tolist(),
               grid_t=truth.grid_t.points.tolist(),
               mapping_matrices={k: v.tolist() for k, v in truth.mapping_matrices.items()})
    return out


def save_ground_truth(truth: GroundTruth, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ground_truth_to_dict(truth), fh, sort_keys=True)
        fh.write("\n")


def preset_scenario(name: str) -> SynthScenario:
    """The canonical scenarios of the test and demo suites."""
    q = 0.75
    if name == "rank_11_10":
        return SynthScenario(n_subjects=500, fourier_order_x=5, fourier_order_y=5,
                             eigenvalues_x=tuple(q ** k for k in range(1, 12)),
                             eigenvalues_y=tuple(q ** k for k in range(1, 11)),
                             sampling=("dense", 51), mix_channels=False, seed=11)
    # the other three share one design, and differ in mapping, noise, sampling and seed
    changes = {
        "linear": dict(mapping="linear", noise_sd=0.0, sampling=("dense", 41), seed=23),
        "dense": dict(mapping="linear", noise_sd=0.15, sampling=("dense", 61), seed=31),
        "quadratic": dict(mapping="quadratic", noise_sd=0.05, sampling=("dense", 31), seed=47),
    }
    if not isinstance(name, str) or name not in changes:
        raise BadScenario(f"unknown preset {name!r}")
    return SynthScenario(n_subjects=500, covariate_channels=2, response_channels=2,
                         fourier_order_x=2, fourier_order_y=2,
                         eigenvalues_x=tuple(q ** k for k in range(1, 5)),
                         eigenvalues_y=tuple(q ** k for k in range(1, 4)), **changes[name])
