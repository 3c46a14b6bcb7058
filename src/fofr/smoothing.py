"""Local-linear kernel estimation of mean functions and covariance surfaces.

Both smoothers tabulate the kernel on distinct times (sites) and grid points
a block of ``SITE_BLOCK`` sites at a time, and take every moment of their
local fits as products of those tables with per-site or per-subject sums.
The mean smoother fits a line through the pooled (time, value) pairs, from
per-site counts and value sums.  The covariance smoother fits a plane
through the pooled off-diagonal raw cross products, which removes
measurement-error bias from the diagonal.  Its kernel factorizes over the
two times and every product stays within one subject, so each moment is a
sum over subjects of products of per-subject kernel sums, minus the
diagonal (same observation twice) term collected by site.  No code here
pools pairs: the smoothers' cost follows subjects, sites and the grid, their
memory one (sites, G) kernel table plus ``SITE_BLOCK`` x 3G rows of its
moments, and bandwidth CV scores each held-out subject's m x m products alone.

Both fits end in a closed-form intercept, taken by cofactors element-wise on
the grid, and one rule names a degenerate window: too little weight mass, or
a determinant that is not positive and finite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from fofr.core import EvalGrid, ObservationSeries
from fofr.errors import (
    AllCandidatesDegenerate,
    DegenerateWindow,
    NoPairs,
    NonFiniteFit,
)

KERNEL_FAMILIES = ("gaussian", "epanechnikov")

#: relative weight-mass floor below which a window counts as degenerate
MASS_FLOOR = 1e-12

#: kernel weights below this are zeroed: their products underflow to
#: subnormal numbers, which slow the matrix products several-fold, and they
#: move a window that passes MASS_FLOOR by under 1e-88 relative
WEIGHT_FLUSH = 1e-100

#: paired subjects per block of the per-subject kernel sums: one dense
#: product per block, over the block's own distinct sites, so the work
#: follows observations, not subjects times sites
SUBJECT_BLOCK = 8

#: sites per block of the kernel tables.  On a 120-subject irregular design
#: the smoothers took the same time at 64 to 512 sites per block and more
#: from 1024 on; 256 keeps a block's three (SITE_BLOCK, G) tables at 0.6 MB
#: for G = 101, and a dense design of up to 256 times in one block, so its
#: mean keeps the bytes of one full table
SITE_BLOCK = 256

#: bandwidth cross-validation: subject folds and log-spaced candidates
N_FOLDS = 5
N_CANDIDATES = 10

#: sentinel bandwidth values
AUTO = "auto"      # subject-level cross-validated selection
PLUGIN = "plugin"  # gap-based plug-in rule (default)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidths for the mean and covariance smoothers.

    A bandwidth is either an explicit positive float, ``"auto"`` (5-fold
    subject-level CV over a log grid of candidates) or ``"plugin"`` (a
    gap-based rule of thumb, the default).
    """

    family: str = "gaussian"
    bandwidth_mean: float | str = PLUGIN
    bandwidth_cov: float | str = PLUGIN

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        for name, bw in (("bandwidth_mean", self.bandwidth_mean),
                         ("bandwidth_cov", self.bandwidth_cov)):
            if isinstance(bw, str):
                if bw not in (AUTO, PLUGIN):
                    raise ValueError(f"{name} must be a float, 'auto' or 'plugin'")
            elif isinstance(bw, bool) or not (np.isfinite(bw) and bw > 0):
                raise ValueError(f"{name} must be positive, got {bw}")

    def weights(self, u: np.ndarray) -> np.ndarray:
        if self.family == "gaussian":
            return np.exp(-0.5 * u * u)
        return np.maximum(0.0, 0.75 * (1.0 - u * u))


@dataclass(frozen=True)
class MeanFunction:
    grid: EvalGrid
    values: np.ndarray

    def at(self, t) -> np.ndarray:
        """Linear interpolation between grid points (constant beyond ends)."""
        return np.interp(t, self.grid.points, self.values)


@dataclass(frozen=True)
class CovarianceSurface:
    grid: EvalGrid
    values: np.ndarray  # G x G, symmetric


@dataclass(frozen=True)
class StandardizationParams:
    """Mean and variance function of one channel, tabulated on the grid."""

    grid: EvalGrid
    mean_values: np.ndarray
    var_values: np.ndarray

    def mean_at(self, t) -> np.ndarray:
        return np.interp(t, self.grid.points, self.mean_values)

    def var_at(self, t) -> np.ndarray:
        return np.interp(t, self.grid.points, self.var_values)


def _pooled_times(series_set) -> np.ndarray:
    return np.unique(np.concatenate([s.times for s in series_set]))


def plugin_bandwidth(series_set, grid: EvalGrid) -> float:
    """Gap-based default bandwidth.

    Half the median within-subject gap keeps the smoother close to
    interpolation on dense designs without collapsing when many subjects'
    irregular times pool into a near-continuum; the floors guard against
    empty windows near coverage gaps and grid-scale underflow.
    """
    length = grid.interval.length
    gaps = np.concatenate([np.diff(s.times) for s in series_set])
    median_gap = float(np.median(gaps)) if len(gaps) else length
    pooled = _pooled_times(series_set)
    edges = np.concatenate([[grid.points[0]], pooled, [grid.points[-1]]])
    max_gap = float(np.max(np.diff(edges))) if len(edges) > 1 else length
    return max(0.5 * median_gap, 0.005 * length, max_gap / 3.0)


def resolve_bandwidths(series_set, kernel: KernelSpec, grid: EvalGrid) -> KernelSpec:
    """Replace sentinel bandwidths with concrete values, the mean's first."""
    resolved, plugin = {}, None
    for name, target in (("bandwidth_mean", "mean"), ("bandwidth_cov", "covariance")):
        bw = getattr(kernel, name)
        if bw == PLUGIN:
            plugin = plugin_bandwidth(series_set, grid) if plugin is None else plugin
            resolved[name] = plugin
        elif bw == AUTO:
            resolved[name] = select_bandwidth(series_set, kernel.family, grid, target)
    return replace(kernel, **resolved)


def _require_float(bw, name):
    if isinstance(bw, str):
        raise ValueError(f"{name} is unresolved ({bw!r}); call resolve_bandwidths first")
    return float(bw)


def _kernel_weights(kernel: KernelSpec, h: float, sites: np.ndarray, grid: EvalGrid):
    """(sites, G) table W0 = K((t - g) / h), zeroed below WEIGHT_FLUSH."""
    w0 = kernel.weights((sites[:, None] - grid.points[None, :]) / h)
    w0[w0 < WEIGHT_FLUSH] = 0.0
    return w0


def _moment_tables(w0: np.ndarray, sites: np.ndarray, points: np.ndarray):
    """W0, W1 = W0 d and W2 = W1 d, d = t - g, from W0's table at ``sites``
    and grid ``points``."""
    d = sites[:, None] - points[None, :]
    w1 = w0 * d
    return w0, w1, w1 * d


def _kernel_table(kernel: KernelSpec, h: float, sites: np.ndarray, grid: EvalGrid):
    """(sites, G) tables, d = t - g: W0 = K(d / h), W1 = W0 d, W2 = W1 d."""
    return _moment_tables(_kernel_weights(kernel, h, sites, grid), sites, grid.points)


def _site_blocks(n_sites: int):
    return [slice(lo, lo + SITE_BLOCK) for lo in range(0, n_sites, SITE_BLOCK)]


def _intercept(s00, det, numer, total, grid: EvalGrid, h: float, target: str):
    """numer / det, the intercepts of the local fits on the grid.  A window
    needs weight mass above MASS_FLOOR times the pooled count ``total`` and a
    positive, finite determinant; the first window in row-major order that
    lacks either is named, its mass checked first."""
    has_mass = s00 > MASS_FLOOR * total
    bad = ~(has_mass & (det > 0) & np.isfinite(det))
    if np.any(bad):
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        problem = "singular local fit" if has_mass[i] else "effective weight mass vanished"
        at = ", ".join(f"{grid.points[k]:.6g}" for k in i)
        where = f"t={at}" if len(i) == 1 else f"(t, t') = ({at})"
        raise DegenerateWindow(f"{problem} at {where} (bandwidth {h:.4g} too small)")
    out = numer / det
    if not np.all(np.isfinite(out)):
        raise NonFiniteFit(f"{target} smoother produced non-finite values")
    return out


def smooth_mean(series_set, kernel: KernelSpec, grid: EvalGrid) -> MeanFunction:
    """Local-linear mean estimate on the grid from all subjects' pooled data."""
    times = np.concatenate([s.times for s in series_set])
    values = np.concatenate([s.values for s in series_set])
    if len(times) < 2:
        raise DegenerateWindow("mean smoothing needs at least 2 pooled observations")
    h = _require_float(kernel.bandwidth_mean, "bandwidth_mean")
    sites, site_of = np.unique(times, return_inverse=True)

    # moments of the line on [1, t - g]: per-site counts and value sums
    # times the kernel tables, summed over blocks of sites
    counts = np.bincount(site_of).astype(float)
    sums = np.stack([counts, np.bincount(site_of, weights=values)])
    moments = None
    for block in _site_blocks(len(sites)):
        w0, w1, w2 = _kernel_table(kernel, h, sites[block], grid)
        part = np.vstack([sums[:, block] @ w0, sums[:, block] @ w1, counts[block] @ w2])
        moments = part if moments is None else moments + part
    s00, r0, s01, r1, s11 = moments
    det = s00 * s11 - s01 * s01
    # the intercept is the estimate at g
    out = _intercept(s00, det, s11 * r0 - s01 * r1, len(times), grid, h, "mean")
    return MeanFunction(grid, out)


def _subject_sums(lengths, site_of, resid, w0, sites, grid: EvalGrid):
    """Per-subject sums of the (3G,) rows [W0, W1, W2] at each subject's
    sites, from ``w0``, the W0 table at ``sites``: ``C`` weighs every row by
    1, ``R`` by the residual and keeps the first 2G columns.  Subjects are
    the consecutive runs of ``lengths`` in ``site_of`` and ``resid``, each
    with strictly increasing times, so a subject meets a site at most once.
    A block of subjects that meets the same sites as the block before it
    reuses that block's rows."""
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    G = grid.size
    C = np.empty((len(lengths), 3 * G))
    R = np.empty((len(lengths), 2 * G))
    local = rows = None
    for lo in range(0, len(lengths), SUBJECT_BLOCK):
        hi = min(lo + SUBJECT_BLOCK, len(lengths))
        b, obs = hi - lo, slice(bounds[lo], bounds[hi])
        seen = local
        local, col = np.unique(site_of[obs], return_inverse=True)
        if not np.array_equal(local, seen):
            rows = np.concatenate(_moment_tables(w0[local], sites[local], grid.points),
                                  axis=1)
        row = np.repeat(np.arange(b), lengths[lo:hi])
        # count rows on top, residual rows below
        M = np.zeros((2 * b, len(local)))
        M[row, col] = 1.0
        M[b + row, col] = resid[obs]
        sums = M @ rows
        C[lo:hi] = sums[:b]
        R[lo:hi] = sums[b:, :2 * G]
    return C, R


def smooth_covariance(series_set, mean: MeanFunction, kernel: KernelSpec,
                      grid: EvalGrid) -> CovarianceSurface:
    """Local-plane fit of pooled raw products on every grid pair, symmetrized."""
    h = _require_float(kernel.bandwidth_cov, "bandwidth_cov")
    paired = [s for s in series_set if len(s) > 1]
    if not paired:
        raise NoPairs("no subject has at least 2 observations")
    lengths = np.array([len(s) for s in paired])
    times = np.concatenate([s.times for s in paired])
    resid = np.concatenate([s.values for s in paired]) - mean.at(times)
    total = float(np.sum(lengths * (lengths - 1)))
    sites, site_of = np.unique(times, return_inverse=True)
    G = grid.size

    # one W0 table, filled a block at a time so that the temporaries of the
    # tabulation stay block-sized
    blocks = _site_blocks(len(sites))
    w0 = np.empty((len(sites), G))
    for block in blocks:
        w0[block] = _kernel_weights(kernel, h, sites[block], grid)

    # per-subject kernel sums of counts and residuals; their outer products
    # cover every within-subject pair, the diagonal j = j' included, which
    # is then taken off by site, a block of sites at a time.  Only the four
    # moment blocks the plane reads are formed
    C, R = _subject_sums(lengths, site_of, resid, w0, sites, grid)
    n = np.bincount(site_of, minlength=len(sites)).astype(float)
    rsq = np.bincount(site_of, weights=resid * resid, minlength=len(sites))
    C1 = C[:, G:2 * G]
    S, s12, U = C.T @ C[:, :G], C1.T @ C1, R.T @ R[:, :G]
    S3, U3 = S.reshape(3, G, G), U.reshape(2, G, G)
    for block in blocks:
        # a block's sites lie close together, so its kernel weights vanish
        # outside one run of grid points; only that run is multiplied
        on = np.flatnonzero(np.any(w0[block], axis=0))
        if not len(on):
            continue
        g, k = slice(on[0], on[-1] + 1), on[-1] + 1 - on[0]
        w0b, w1b, w2b = _moment_tables(w0[block, g], sites[block], grid.points[g])
        W = np.concatenate([w0b, w1b, w2b], axis=1)
        S3[:, g, g] -= (W.T @ (n[block, None] * w0b)).reshape(3, k, k)
        s12[g, g] -= w1b.T @ (n[block, None] * w1b)
        U3[:, g, g] -= (W[:, :2 * k].T @ (rsq[block, None] * w0b)).reshape(2, k, k)

    # moments of the plane on [1, t - g_a, t' - g_b]; the pair set is
    # symmetric, so the t' moments are transposes of the t moments
    s00, s01, s11 = S[:G], S[G:2 * G], S[2 * G:]
    r0, r1 = U[:G], U[G:]

    # the intercept is the estimate at (g_a, g_b); it takes the cofactors
    # of the first column
    k0 = s11 * s11.T - s12 * s12
    k1 = s01.T * s12 - s01 * s11.T
    k2 = s01 * s12 - s01.T * s11
    det = s00 * k0 + s01 * k1 + s01.T * k2
    values = _intercept(s00, det, r0 * k0 + r1 * k1 + r1.T * k2, total, grid, h,
                        "covariance")
    values = 0.5 * (values + values.T)
    return CovarianceSurface(grid, values)


def variance_floor(diag: np.ndarray) -> float:
    top = float(np.max(diag)) if np.any(diag > 0) else 1.0
    return 1e-8 * top


def variance_function(surface: CovarianceSurface) -> np.ndarray:
    """Surface diagonal, clipped from below at the variance floor."""
    diag = np.diag(surface.values)
    return np.maximum(diag, variance_floor(diag))


def build_standardization(mean: MeanFunction, surface: CovarianceSurface) -> StandardizationParams:
    return StandardizationParams(mean.grid, mean.values, variance_function(surface))


def standardize(series: ObservationSeries, params: StandardizationParams) -> ObservationSeries:
    """Point-wise Z-score: z = (y - mu(t)) / sqrt(v(t))."""
    mu = params.mean_at(series.times)
    v = params.var_at(series.times)
    return ObservationSeries(series.times, (series.values - mu) / np.sqrt(v))


def destandardize(series: ObservationSeries, params: StandardizationParams) -> ObservationSeries:
    """Exact inverse of standardize: y = z * sqrt(v(t)) + mu(t)."""
    mu = params.mean_at(series.times)
    v = params.var_at(series.times)
    return ObservationSeries(series.times, series.values * np.sqrt(v) + mu)


def bandwidth_candidates(series_set, grid: EvalGrid) -> np.ndarray:
    pooled = _pooled_times(series_set)
    gaps = np.diff(pooled)
    length = grid.interval.length
    lo = 2.0 * (float(np.median(gaps)) if len(gaps) else 0.05 * length)
    hi = 0.5 * length
    if lo >= hi:
        lo = hi / 10.0
    return np.geomspace(lo, hi, N_CANDIDATES)


def _grid_cells(grid: EvalGrid, t: np.ndarray):
    """Left grid index i and weight a of each time t: a grid-tabulated
    surface F interpolates linearly along an axis as (1 - a) F[i] + a F[i + 1]."""
    p = grid.points
    i = np.clip(np.searchsorted(p, t) - 1, 0, len(p) - 2)
    return i, (t - p[i]) / (p[i + 1] - p[i])


def _cv_errors(series_set, family: str, grid: EvalGrid, target: str):
    """Bandwidth candidates and their subject-level CV errors (inf where a
    fold's fit degenerates, or where no fold can score).  The mean scores
    every held-out value; the covariance scores every held-out subject's
    off-diagonal residual products r r' against the fitted surface, which
    it interpolates bilinearly at that subject's time pairs."""
    series_set = list(series_set)
    candidates = bandwidth_candidates(series_set, grid)
    n = min(N_FOLDS, len(series_set))  # fold f tests subjects f, f + n, ...
    splits = [([s for i, s in enumerate(series_set) if i % n != f], series_set[f::n])
              for f in range(n) if n > 1]  # one subject leaves no training set

    # the validation data of a fold does not depend on the bandwidth
    if target == "mean":
        held_out = [(np.concatenate([s.times for s in test]),
                     np.concatenate([s.values for s in test])) for _, test in splits]
    else:
        mid = KernelSpec(family, bandwidth_mean=float(np.median(candidates)))
        base_mean = smooth_mean(series_set, mid, grid)
        # a fold whose test subjects hold no within-subject pair scores nothing
        splits = [(train, test) for train, test in splits if any(len(s) > 1 for s in test)]
        held_out = [[(s.values - base_mean.at(s.times), *_grid_cells(grid, s.times))
                     for s in test if len(s) > 1] for _, test in splits]

    errors = np.full(len(candidates), np.inf)
    for k, h in enumerate(candidates):
        sse, cnt = 0.0, 0
        try:
            for (train, _), held in zip(splits, held_out):
                if target == "mean":
                    fit = smooth_mean(train, KernelSpec(family, bandwidth_mean=float(h)), grid)
                    resid = held[1] - fit.at(held[0])
                    sse += float(np.dot(resid, resid))
                    cnt += len(resid)
                else:
                    spec = KernelSpec(family, bandwidth_cov=float(h))
                    F = smooth_covariance(train, base_mean, spec, grid).values
                    for r, i, a in held:
                        # the surface at the subject's (t, t') pairs: rows, then columns
                        rows = (1 - a)[:, None] * F[i] + a[:, None] * F[i + 1]
                        resid = np.outer(r, r) - ((1 - a) * rows[:, i] + a * rows[:, i + 1])
                        np.fill_diagonal(resid, 0.0)
                        sse += float(np.vdot(resid, resid))
                        cnt += len(r) * (len(r) - 1)
        except (DegenerateWindow, NonFiniteFit, NoPairs):
            continue
        if cnt:
            errors[k] = sse / cnt
    return candidates, errors


def select_bandwidth(series_set, family: str, grid: EvalGrid, target: str) -> float:
    """5-fold subject-level CV over a log grid of 10 bandwidth candidates.

    Folds split whole subjects so within-subject correlation never leaks
    across the train/validation boundary.  Ties (within 1e-12 relative)
    resolve to the smallest non-degenerate candidate.
    """
    if target not in ("mean", "covariance"):
        raise ValueError(f"unknown target {target!r}")
    candidates, errors = _cv_errors(series_set, family, grid, target)
    finite = np.isfinite(errors)
    if not np.any(finite):
        raise AllCandidatesDegenerate(
            f"no bandwidth candidate in [{candidates[0]:.4g}, {candidates[-1]:.4g}] produced a fit")
    best = float(np.min(errors[finite]))
    ok = errors <= best + 1e-12 * (1.0 + best)
    return float(candidates[np.flatnonzero(ok)[0]])
