"""Kernel smoother tests against direct weighted-least-squares oracles."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from fofr import smoothing, synthgen
from fofr.core import EvalGrid, Interval, ObservationSeries, make_grid
from fofr.errors import AllCandidatesDegenerate, DegenerateWindow, NoPairs, NonFiniteFit
from fofr.smoothing import (
    MASS_FLOOR,
    SITE_BLOCK,
    SUBJECT_BLOCK,
    WEIGHT_FLUSH,
    CovarianceSurface,
    KernelSpec,
    MeanFunction,
    StandardizationParams,
    _cv_errors,
    _intercept,
    _kernel_table,
    _kernel_weights,
    _moment_tables,
    _subject_sums,
    bandwidth_candidates,
    build_standardization,
    destandardize,
    plugin_bandwidth,
    resolve_bandwidths,
    select_bandwidth,
    smooth_covariance,
    smooth_mean,
    standardize,
    variance_floor,
    variance_function,
)


def random_series_set(rng, n_subjects=6, m_lo=5, m_hi=12, fn=None):
    out = []
    for _ in range(n_subjects):
        m = rng.integers(m_lo, m_hi + 1)
        t = np.sort(rng.uniform(0.0, 1.0, size=m))
        t += 1e-9 * np.arange(m)  # avoid exact collisions
        v = fn(t) if fn is not None else rng.standard_normal(m)
        out.append(ObservationSeries(t, v))
    return out


def _raw_pairs(series_set, mean: MeanFunction):
    """Pooled off-diagonal raw covariance products (t1, t2, U)."""
    t1_parts, t2_parts, u_parts = [], [], []
    for s in series_set:
        m = len(s)
        if m < 2:
            continue
        resid = s.values - mean.at(s.times)
        prod = np.outer(resid, resid)
        off = ~np.eye(m, dtype=bool)
        tt1 = np.broadcast_to(s.times[:, None], (m, m))
        tt2 = np.broadcast_to(s.times[None, :], (m, m))
        t1_parts.append(tt1[off])
        t2_parts.append(tt2[off])
        u_parts.append(prod[off])
    if not t1_parts:
        raise NoPairs("no subject has at least 2 observations")
    return (np.concatenate(t1_parts), np.concatenate(t2_parts), np.concatenate(u_parts))


def _interp2(grid: EvalGrid, surface: np.ndarray, t1, t2):
    """Bilinear interpolation of a grid-tabulated surface."""
    p = grid.points
    i = np.clip(np.searchsorted(p, t1) - 1, 0, len(p) - 2)
    j = np.clip(np.searchsorted(p, t2) - 1, 0, len(p) - 2)
    a = (t1 - p[i]) / (p[i + 1] - p[i])
    b = (t2 - p[j]) / (p[j + 1] - p[j])
    return ((1 - a) * (1 - b) * surface[i, j] + a * (1 - b) * surface[i + 1, j]
            + (1 - a) * b * surface[i, j + 1] + a * b * surface[i + 1, j + 1])


def wls_mean_oracle(series_set, kernel, grid):
    """Direct per-point weighted line fit over the raw, uncollapsed pool."""
    t = np.concatenate([s.times for s in series_set])
    y = np.concatenate([s.values for s in series_set])
    h = kernel.bandwidth_mean
    out = np.empty(grid.size)
    for g, t0 in enumerate(grid.points):
        w = np.sqrt(kernel.weights((t - t0) / h))
        X = np.column_stack([np.ones_like(t), t - t0])
        beta, *_ = np.linalg.lstsq(w[:, None] * X, w * y, rcond=None)
        out[g] = beta[0]
    return out


def wls_cov_oracle(series_set, mean, kernel, grid):
    """Direct per-pair weighted plane fit over the raw off-diagonal products."""
    t1, t2, u = _raw_pairs(series_set, mean)
    h = kernel.bandwidth_cov
    G = grid.size
    out = np.empty((G, G))
    for a in range(G):
        for b in range(G):
            ga, gb = grid.points[a], grid.points[b]
            w = np.sqrt(kernel.weights((t1 - ga) / h) * kernel.weights((t2 - gb) / h))
            X = np.column_stack([np.ones_like(t1), t1 - ga, t2 - gb])
            beta, *_ = np.linalg.lstsq(w[:, None] * X, w * u, rcond=None)
            out[a, b] = beta[0]
    return 0.5 * (out + out.T)


def loop_mean_reference(series_set, kernel, grid):
    """The per-grid-point loop that the tabulated mean smoother replaced."""
    times = np.concatenate([s.times for s in series_set])
    values = np.concatenate([s.values for s in series_set])
    h = kernel.bandwidth_mean
    order = np.argsort(times, kind="stable")
    sites, start = np.unique(times[order], return_index=True)
    counts = np.diff(np.append(start, len(times))).astype(float)
    sums = np.add.reduceat(values[order], start)
    total = float(np.sum(counts))
    out = np.empty(grid.size)
    for g, t0 in enumerate(grid.points):
        d = sites - t0
        w = kernel.weights(d / h) * counts
        mass = float(np.sum(w))
        if not mass > MASS_FLOOR * total:
            raise DegenerateWindow(
                f"effective weight mass vanished at t={t0:.6g} (bandwidth {h:.4g} too small)")
        s00, s01, s11 = mass, float(np.dot(w, d)), float(np.dot(w, d * d))
        wy = kernel.weights(d / h) * sums
        r0, r1 = float(np.sum(wy)), float(np.dot(wy, d))
        det = s00 * s11 - s01 * s01
        if det <= 0 or not np.isfinite(det):
            raise DegenerateWindow(
                f"singular local fit at t={t0:.6g} (bandwidth {h:.4g} too small)")
        out[g] = (s11 * r0 - s01 * r1) / det
    return out


def csr_subject_sums(lengths, site_of, resid, W, r_cols):
    """The two sparse (subjects x sites) products that the blocked dense
    subject sums replaced."""
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    shape = (len(lengths), W.shape[0])
    C = sparse.csr_matrix((np.ones(len(site_of)), site_of, indptr), shape=shape) @ W
    R = sparse.csr_matrix((resid, site_of, indptr), shape=shape) @ W[:, :r_cols]
    return C, R


def lu_covariance_reference(series_set, mean, kernel, grid):
    """The covariance smoother that solved every window's (3, 3) plane system
    by LU (``np.linalg.solve``) where the smoother now takes the intercept by
    cofactors; the same moments, the degenerate-window checks left out."""
    h = kernel.bandwidth_cov
    paired = [s for s in series_set if len(s) > 1]
    lengths = np.array([len(s) for s in paired])
    times = np.concatenate([s.times for s in paired])
    resid = np.concatenate([s.values for s in paired]) - mean.at(times)
    sites, site_of = np.unique(times, return_inverse=True)
    G = grid.size
    d = sites[:, None] - grid.points[None, :]
    w0 = kernel.weights(d / h)
    w0[w0 < WEIGHT_FLUSH] = 0.0
    W = np.concatenate([w0, w0 * d, w0 * d * d], axis=1)
    C, R = csr_subject_sums(lengths, site_of, resid, W, 2 * G)
    n = np.bincount(site_of, minlength=len(sites)).astype(float)
    rsq = np.bincount(site_of, weights=resid * resid, minlength=len(sites))
    S = C.T @ C[:, :2 * G] - W.T @ (n[:, None] * W[:, :2 * G])
    U = R.T @ R[:, :G] - W[:, :2 * G].T @ (rsq[:, None] * w0)
    s00, s01, s11, s12 = S[:G, :G], S[G:2 * G, :G], S[2 * G:, :G], S[G:2 * G, G:]
    r0, r1 = U[:G], U[G:]
    lhs = np.empty((G, G, 3, 3))
    lhs[..., 0, 0] = s00
    lhs[..., 0, 1] = lhs[..., 1, 0] = s01
    lhs[..., 0, 2] = lhs[..., 2, 0] = s01.T
    lhs[..., 1, 1] = s11
    lhs[..., 1, 2] = lhs[..., 2, 1] = s12
    lhs[..., 2, 2] = s11.T
    rhs = np.stack([r0, r1, r1.T], axis=-1)[..., None]
    values = np.linalg.solve(lhs, rhs)[..., 0, 0]
    return 0.5 * (values + values.T)


def loop_cov_degenerate_reference(series_set, mean, kernel, grid):
    """Window-by-window check of the covariance fit in row-major order, on
    the raw off-diagonal pairs: the first window without weight mass, or
    with a plane system whose determinant is not positive and finite, is
    named, the mass checked first."""
    t1, t2, _ = _raw_pairs(series_set, mean)
    h = kernel.bandwidth_cov
    for a, ga in enumerate(grid.points):
        for b, gb in enumerate(grid.points):
            w = kernel.weights((t1 - ga) / h) * kernel.weights((t2 - gb) / h)
            where = f"(t, t') = ({ga:.6g}, {gb:.6g}) (bandwidth {h:.4g} too small)"
            if not np.sum(w) > MASS_FLOOR * len(t1):
                raise DegenerateWindow(f"effective weight mass vanished at {where}")
            X = np.column_stack([np.ones_like(t1), t1 - ga, t2 - gb])
            det = np.linalg.det(X.T @ (w[:, None] * X))
            if not (det > 0 and np.isfinite(det)):
                raise DegenerateWindow(f"singular local fit at {where}")


def preset_channels():
    """(name, series, grid) of every channel of the four presets at 250
    subjects and of the irregular design at 120."""
    scenarios = [(p, replace(synthgen.preset_scenario(p), n_subjects=250))
                 for p in ("dense", "quadratic", "rank_11_10", "linear")]
    scenarios.append(("irregular", replace(synthgen.preset_scenario("dense"), n_subjects=120,
                                           sampling=("irregular", 20, 5))))
    out = []
    for name, scenario in scenarios:
        dataset, _ = synthgen.generate(scenario)
        schema = synthgen.dataset_schema(scenario)
        for side, domain, rows in (("x", dataset.covariate_domain, dataset.covariates),
                                   ("y", dataset.response_domain, dataset.responses)):
            grid = make_grid(domain, schema.grid_size)
            out += [(f"{name} {side}{c + 1}", [row[c] for row in rows], grid)
                    for c in range(len(rows[0]))]
    return out


def loop_cv_reference(series_set, family, grid, target):
    """The candidate-by-fold loop that bandwidth CV replaced: it splits the
    folds and forms the validation pairs anew for every candidate.  A
    covariance fold whose test subjects hold no within-subject pair is
    skipped."""
    candidates = bandwidth_candidates(series_set, grid)
    folds = np.arange(len(series_set)) % min(5, len(series_set))
    if target == "covariance":
        mid = KernelSpec(family, bandwidth_mean=float(np.median(candidates)))
        base_mean = smooth_mean(series_set, mid, grid)
    errors = np.full(len(candidates), np.inf)
    for k, h in enumerate(candidates):
        sse, cnt = 0.0, 0
        try:
            for f in range(int(folds.max()) + 1):
                train = [s for s, ff in zip(series_set, folds) if ff != f]
                test = [s for s, ff in zip(series_set, folds) if ff == f]
                if not train or not test:
                    continue
                if target == "covariance" and all(len(s) < 2 for s in test):
                    continue
                if target == "mean":
                    fit = smooth_mean(train, KernelSpec(family, bandwidth_mean=float(h)), grid)
                    for s in test:
                        resid = s.values - fit.at(s.times)
                        sse += float(np.dot(resid, resid))
                        cnt += len(s)
                else:
                    spec = KernelSpec(family, bandwidth_cov=float(h))
                    fit = smooth_covariance(train, base_mean, spec, grid)
                    t1, t2, uu = _raw_pairs(test, base_mean)
                    resid = uu - _interp2(grid, fit.values, t1, t2)
                    sse += float(np.dot(resid, resid))
                    cnt += len(uu)
        except (DegenerateWindow, NonFiniteFit, NoPairs):
            continue
        if cnt:
            errors[k] = sse / cnt
    return candidates, errors


def assert_cv_matches_loop_reference(series_set, grid, target):
    """CV errors match the reference loop's, some candidate scores, and the
    selected bandwidth is the reference's pick."""
    ref_candidates, ref_errors = loop_cv_reference(series_set, "gaussian", grid, target)
    candidates, errors = _cv_errors(series_set, "gaussian", grid, target)
    np.testing.assert_array_equal(candidates, ref_candidates)
    finite = np.isfinite(ref_errors)
    assert np.any(finite)
    np.testing.assert_array_equal(np.isfinite(errors), finite)
    np.testing.assert_allclose(errors[finite], ref_errors[finite], rtol=1e-9)
    best = np.min(ref_errors[finite])
    pick = np.flatnonzero(ref_errors <= best + 1e-12 * (1.0 + best))[0]
    assert select_bandwidth(series_set, "gaussian", grid, target) == ref_candidates[pick]


def cv_design(design):
    """(series, grid) of one design bandwidth CV must match the loop reference
    on: a random ragged one (an integer seed), all subjects at the same
    times, times on both grid ends and on grid points, or every subject at
    exactly two times."""
    grid = make_grid(Interval(0, 1), 15)
    rng = np.random.default_rng(design if isinstance(design, int) else 79)

    def noisy(t):
        t = np.asarray(t, dtype=float)
        return ObservationSeries(t, np.sin(2 * np.pi * t) + rng.standard_normal(len(t)))

    if design == "shared-times":
        return [noisy(np.linspace(0.0, 1.0, 21)) for _ in range(12)], grid
    if design == "grid-times":
        # each subject holds both grid ends, a few inner grid points and a
        # few times between them
        return [noisy(np.unique(np.concatenate([
            grid.points[[0, -1]], rng.choice(grid.points[1:-1], 4, replace=False),
            rng.uniform(0.0, 1.0, 3)]))) for _ in range(11)], grid
    if design == "two-points":
        return [noisy(np.sort(rng.choice(np.linspace(0.0, 1.0, 41), 2, replace=False)))
                for _ in range(40)], grid
    series = random_series_set(rng, n_subjects=11, m_lo=4, m_hi=10,
                               fn=lambda t: np.sin(2 * np.pi * t) + rng.standard_normal(len(t)))
    return series, grid


def assert_matches_cov_oracle(series_set, kernel, grid, rtol=1e-8, atol=1e-10):
    mean = smooth_mean(series_set, kernel, grid)
    fit = smooth_covariance(series_set, mean, kernel, grid)
    oracle = wls_cov_oracle(series_set, mean, kernel, grid)
    np.testing.assert_allclose(fit.values, oracle, rtol=rtol, atol=atol)


class TestMeanSmoother:
    def test_matches_wls_oracle_with_duplicates(self):
        rng = np.random.default_rng(3)
        series = random_series_set(rng)
        # add a subject sharing times with another, to exercise site collapse
        series.append(ObservationSeries(series[0].times, rng.standard_normal(len(series[0]))))
        grid = make_grid(Interval(0, 1), 17)
        kernel = KernelSpec("gaussian", bandwidth_mean=0.15)
        fit = smooth_mean(series, kernel, grid)
        oracle = wls_mean_oracle(series, kernel, grid)
        np.testing.assert_allclose(fit.values, oracle, rtol=1e-9, atol=1e-12)

    def test_exact_on_linear_data(self):
        rng = np.random.default_rng(5)
        series = random_series_set(rng, fn=lambda t: 2.5 * t - 1.0)
        grid = make_grid(Interval(0, 1), 21)
        for h in (0.05, 0.2, 1.0):
            fit = smooth_mean(series, KernelSpec("gaussian", bandwidth_mean=h), grid)
            truth = 2.5 * grid.points - 1.0
            np.testing.assert_allclose(fit.values, truth, rtol=1e-9, atol=1e-9)

    def test_epanechnikov_tiny_bandwidth_degenerates(self):
        rng = np.random.default_rng(7)
        series = random_series_set(rng)
        grid = make_grid(Interval(0, 1), 21)
        with pytest.raises(DegenerateWindow):
            smooth_mean(series, KernelSpec("epanechnikov", bandwidth_mean=1e-6), grid)

    @pytest.mark.parametrize("family,h", [("gaussian", 0.05), ("gaussian", 0.2),
                                          ("epanechnikov", 0.15), ("epanechnikov", 0.4)])
    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_matches_loop_reference_with_duplicate_times(self, family, h, seed):
        rng = np.random.default_rng(seed)
        series = random_series_set(rng, n_subjects=12)
        # shared designs and times on a coarse lattice repeat sites
        series += [ObservationSeries(s.times, rng.standard_normal(len(s))) for s in series[:3]]
        lattice = np.unique(np.round(rng.uniform(0, 1, 30), 2))
        series.append(ObservationSeries(lattice, rng.standard_normal(len(lattice))))
        grid = make_grid(Interval(0, 1), 31)
        kernel = KernelSpec(family, bandwidth_mean=h)
        ref = loop_mean_reference(series, kernel, grid)
        fit = smooth_mean(series, kernel, grid)
        np.testing.assert_allclose(fit.values, ref, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(ref)))

    def test_shared_grid_at_plugin_bandwidth_matches_loop_reference(self):
        rng = np.random.default_rng(19)
        times = np.linspace(0.0, 1.0, 41)
        series = [ObservationSeries(times, rng.standard_normal(41)) for _ in range(10)]
        grid = make_grid(Interval(0, 1), 101)
        kernel = KernelSpec("gaussian", bandwidth_mean=plugin_bandwidth(series, grid))
        ref = loop_mean_reference(series, kernel, grid)
        fit = smooth_mean(series, kernel, grid)
        np.testing.assert_allclose(fit.values, ref, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(ref)))

    def test_degenerate_windows_named_like_loop_reference(self):
        # the first failing grid point is named, the mass check first there
        rng = np.random.default_rng(7)
        tiny = (random_series_set(rng), make_grid(Interval(0, 1), 21), 1e-6)
        # a window on the left half holds one site, on its grid point: mass but
        # no slope; a window on the right half holds no site
        grid = make_grid(Interval(0, 1), 11)
        on_grid = ([ObservationSeries(grid.points[:6], rng.standard_normal(6))
                    for _ in range(3)], grid, 0.05)
        for series, grid, h, problem in (tiny + ("weight mass vanished",),
                                         on_grid + ("singular local fit",)):
            kernel = KernelSpec("epanechnikov", bandwidth_mean=h)
            with pytest.raises(DegenerateWindow) as ref:
                loop_mean_reference(series, kernel, grid)
            with pytest.raises(DegenerateWindow) as new:
                smooth_mean(series, kernel, grid)
            assert type(new.value) is type(ref.value)
            assert str(new.value) == str(ref.value) and problem in str(new.value)


class TestCovarianceSmoother:
    def test_matches_wls_oracle(self):
        rng = np.random.default_rng(11)
        series = random_series_set(rng, n_subjects=5, m_lo=4, m_hi=8)
        grid = make_grid(Interval(0, 1), 9)
        kernel = KernelSpec("gaussian", bandwidth_mean=0.2, bandwidth_cov=0.25)
        assert_matches_cov_oracle(series, kernel, grid)

    def test_site_collapse_is_exact(self):
        # duplicating a subject's design must equal double-counting its pairs,
        # which the WLS oracle on the raw pool realizes directly
        rng = np.random.default_rng(13)
        series = random_series_set(rng, n_subjects=4, m_lo=5, m_hi=7)
        series.append(ObservationSeries(series[1].times,
                                        rng.standard_normal(len(series[1]))))
        grid = make_grid(Interval(0, 1), 7)
        kernel = KernelSpec("gaussian", bandwidth_mean=0.25, bandwidth_cov=0.3)
        assert_matches_cov_oracle(series, kernel, grid)

    def test_symmetry(self):
        rng = np.random.default_rng(17)
        series = random_series_set(rng)
        grid = make_grid(Interval(0, 1), 13)
        kernel = KernelSpec("gaussian", bandwidth_mean=0.2, bandwidth_cov=0.2)
        mean = smooth_mean(series, kernel, grid)
        fit = smooth_covariance(series, mean, kernel, grid)
        np.testing.assert_array_equal(fit.values, fit.values.T)

    def test_shared_grid_at_plugin_bandwidth_matches_wls_oracle(self):
        # every subject on the same times, smoothed at the plug-in bandwidth
        # (half the sampling gap): each window sees few sites, so the subject
        # sums are dominated by their own diagonal terms.  A plane centred at
        # the interval midpoint instead of the grid pair is about 4e-9 off
        # here, so this case holds a tighter tolerance than the others.
        rng = np.random.default_rng(19)
        times = np.linspace(0.0, 1.0, 41)
        series = [ObservationSeries(times, rng.standard_normal(41)) for _ in range(10)]
        grid = make_grid(Interval(0, 1), 21)
        h = plugin_bandwidth(series, grid)
        kernel = KernelSpec("gaussian", bandwidth_mean=h, bandwidth_cov=h)
        assert_matches_cov_oracle(series, kernel, grid, rtol=1e-10, atol=1e-12)

    def test_epanechnikov_matches_wls_oracle(self):
        rng = np.random.default_rng(43)
        series = random_series_set(rng, n_subjects=8, m_lo=6, m_hi=10)
        grid = make_grid(Interval(0, 1), 9)
        kernel = KernelSpec("epanechnikov", bandwidth_mean=0.3, bandwidth_cov=0.4)
        assert_matches_cov_oracle(series, kernel, grid)

    def test_single_observation_subjects_are_ignored(self):
        rng = np.random.default_rng(47)
        series = random_series_set(rng, n_subjects=5, m_lo=4, m_hi=8)
        singles = [ObservationSeries([t], [v])
                   for t, v in zip(rng.uniform(0, 1, 4), 10.0 * rng.standard_normal(4))]
        mixed = series[:2] + singles[:2] + series[2:] + singles[2:]
        grid = make_grid(Interval(0, 1), 9)
        kernel = KernelSpec("gaussian", bandwidth_mean=0.2, bandwidth_cov=0.25)
        assert_matches_cov_oracle(mixed, kernel, grid)

    def test_epanechnikov_tiny_bandwidth_degenerates(self):
        # windows holding no pair keep a mass of exactly zero after the
        # diagonal term is taken off the subject sums
        rng = np.random.default_rng(53)
        series = random_series_set(rng)
        grid = make_grid(Interval(0, 1), 21)
        kernel = KernelSpec("epanechnikov", bandwidth_mean=0.2, bandwidth_cov=1e-6)
        mean = smooth_mean(series, kernel, grid)
        with pytest.raises(DegenerateWindow, match="weight mass vanished"):
            smooth_covariance(series, mean, kernel, grid)

    def test_matches_lu_reference_on_preset_channels(self):
        channels = preset_channels()
        assert len(channels) == 18
        for name, series, grid in channels:
            kernel = resolve_bandwidths(series, KernelSpec(), grid)
            mean = smooth_mean(series, kernel, grid)
            ref = lu_covariance_reference(series, mean, kernel, grid)
            fit = smooth_covariance(series, mean, kernel, grid)
            np.testing.assert_allclose(fit.values, ref, rtol=0,
                                       atol=1e-12 * np.max(np.abs(ref)), err_msg=name)

    def test_degenerate_windows_named_like_loop_reference(self):
        # the first failing window in row-major order is named, the mass
        # check first there
        rng = np.random.default_rng(7)
        series = random_series_set(rng)
        tiny = (series, make_grid(Interval(0, 1), 21), 1e-6)
        # every subject on the grid's spacing over [0, 0.5] and once more at
        # the grid point 0.6: the windows (0, g) up to g = 0.5 hold a plane's
        # worth of sites, (0, 0.6) holds mass on one t' only, so no slope
        grid = make_grid(Interval(0, 1), 11)
        times = np.append(np.linspace(0.0, 0.5, 26), grid.points[6])
        on_grid = ([ObservationSeries(times, rng.standard_normal(27)) for _ in range(3)],
                   grid, 0.05)
        for series, grid, h, problem in (tiny + ("weight mass vanished",),
                                         on_grid + ("singular local fit at (t, t') = (0, 0.6)",)):
            mean = smooth_mean(series, KernelSpec(bandwidth_mean=0.2), grid)
            kernel = KernelSpec("epanechnikov", bandwidth_cov=h)
            with pytest.raises(DegenerateWindow) as ref:
                loop_cov_degenerate_reference(series, mean, kernel, grid)
            with pytest.raises(DegenerateWindow) as new:
                smooth_covariance(series, mean, kernel, grid)
            assert type(new.value) is type(ref.value)
            assert str(new.value) == str(ref.value) and problem in str(new.value)

    def test_no_pairs(self):
        grid = make_grid(Interval(0, 1), 5)
        mean = MeanFunction(grid, np.zeros(5))
        singles = [ObservationSeries([0.3], [1.0]), ObservationSeries([0.6], [2.0])]
        kernel = KernelSpec("gaussian", bandwidth_mean=0.2, bandwidth_cov=0.2)
        with pytest.raises(NoPairs):
            smooth_covariance(singles, mean, kernel, grid)


def synth_channel(n_subjects, sampling):
    """First covariate channel and grid of the dense preset's structure."""
    scenario = replace(synthgen.preset_scenario("dense"), n_subjects=n_subjects,
                       sampling=sampling)
    dataset, _ = synthgen.generate(scenario)
    grid = make_grid(dataset.covariate_domain, synthgen.dataset_schema(scenario).grid_size)
    return [row[0] for row in dataset.covariates], grid


SUBJECT_SUM_DESIGNS = ("ragged", "singletons", "partial block", "dense", "irregular")


def subject_sum_design(name):
    """(series, grid) of one design the blocked subject sums must match the
    sparse products on."""
    rng = np.random.default_rng(11)
    grid = make_grid(Interval(0, 1), 31)
    if name == "ragged":
        return random_series_set(rng, n_subjects=4 * SUBJECT_BLOCK, m_lo=2, m_hi=15), grid
    if name == "singletons":  # about a third of the subjects have one observation
        return random_series_set(rng, n_subjects=40, m_lo=1, m_hi=3), grid
    if name == "partial block":
        return random_series_set(rng, n_subjects=3 * SUBJECT_BLOCK + 5), grid
    if name == "dense":
        return synth_channel(3 * SUBJECT_BLOCK + 1, ("dense", 61))
    return synth_channel(5 * SUBJECT_BLOCK - 3, ("irregular", 20, 5))


class TestSubjectSums:
    """The per-subject kernel sums of ``smooth_covariance``, one dense product
    per block of subjects, against the sparse products they replaced and the
    sums over one full kernel table that they replace."""

    @pytest.mark.parametrize("name", SUBJECT_SUM_DESIGNS)
    def test_blocks_match_sparse_products(self, name, monkeypatch):
        series, grid = subject_sum_design(name)
        kernel = resolve_bandwidths(series, KernelSpec(), grid)
        mean = smooth_mean(series, kernel, grid)
        paired = [s for s in series if len(s) > 1]
        lengths = np.array([len(s) for s in paired])
        times = np.concatenate([s.times for s in paired])
        resid = np.concatenate([s.values for s in paired]) - mean.at(times)
        sites, site_of = np.unique(times, return_inverse=True)
        w0 = _kernel_weights(kernel, kernel.bandwidth_cov, sites, grid)
        W = np.concatenate(_kernel_table(kernel, kernel.bandwidth_cov, sites, grid), axis=1)
        if name == "singletons":
            assert 0 < len(paired) < len(series) - 5
        if name == "dense":
            assert len(sites) == lengths[0]
        if name == "partial block":
            assert len(paired) % SUBJECT_BLOCK
        if name == "irregular":
            block = site_of[:np.sum(lengths[:SUBJECT_BLOCK])]
            assert len(np.unique(block)) > 2 * SUBJECT_BLOCK
        tables = []
        monkeypatch.setattr(smoothing, "_moment_tables",
                            lambda *a: tables.append(a) or _moment_tables(*a))
        C, R = _subject_sums(lengths, site_of, resid, w0, sites, grid)
        C_ref, R_ref = csr_subject_sums(lengths, site_of, resid, W, 2 * grid.size)
        assert C.shape == C_ref.shape and R.shape == R_ref.shape
        for got, ref in ((C, C_ref), (R, R_ref)):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))
        # the rows at each block's sites are the full table's rows, bit for bit
        C_one, R_one = one_table_subject_sums(lengths, site_of, resid, W, 2 * grid.size)
        assert C.tobytes() == C_one.tobytes() and R.tobytes() == R_one.tobytes()
        # a dense design meets the same sites in every block and forms its rows once
        n_blocks = -(-len(paired) // SUBJECT_BLOCK)
        assert len(tables) == (1 if name == "dense" else n_blocks)

    def test_surface_with_singletons_matches_lu_reference(self):
        # subjects with one observation hold no pair and are left out
        series, grid = subject_sum_design("singletons")
        kernel = resolve_bandwidths(series, KernelSpec(), grid)
        mean = smooth_mean(series, kernel, grid)
        ref = lu_covariance_reference(series, mean, kernel, grid)
        fit = smooth_covariance(series, mean, kernel, grid)
        np.testing.assert_allclose(fit.values, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def one_table_subject_sums(lengths, site_of, resid, W, r_cols):
    """The blocked subject sums over rows of one full (sites, 3G) table
    ``W``, before they formed each block's rows from W0 alone."""
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    C = np.empty((len(lengths), W.shape[1]))
    R = np.empty((len(lengths), r_cols))
    for lo in range(0, len(lengths), SUBJECT_BLOCK):
        hi = min(lo + SUBJECT_BLOCK, len(lengths))
        b, obs = hi - lo, slice(bounds[lo], bounds[hi])
        local, col = np.unique(site_of[obs], return_inverse=True)
        row = np.repeat(np.arange(b), lengths[lo:hi])
        M = np.zeros((2 * b, len(local)))
        M[row, col] = 1.0
        M[b + row, col] = resid[obs]
        sums = M @ W[local]
        C[lo:hi] = sums[:b]
        R[lo:hi] = sums[b:, :r_cols]
    return C, R


def one_table_mean(series_set, kernel, grid):
    """The mean smoother over one kernel table of every site."""
    times = np.concatenate([s.times for s in series_set])
    values = np.concatenate([s.values for s in series_set])
    h = kernel.bandwidth_mean
    sites, site_of = np.unique(times, return_inverse=True)
    w0, w1, w2 = _kernel_table(kernel, h, sites, grid)
    counts = np.bincount(site_of).astype(float)
    sums = np.stack([counts, np.bincount(site_of, weights=values)])
    (s00, r0), (s01, r1), s11 = sums @ w0, sums @ w1, counts @ w2
    det = s00 * s11 - s01 * s01
    return _intercept(s00, det, s11 * r0 - s01 * r1, len(times), grid, h, "mean")


def one_table_covariance(series_set, mean, kernel, grid):
    """The covariance smoother over one (sites, 3G) kernel table of every
    site, with its six moment blocks and full-size diagonal products."""
    h = kernel.bandwidth_cov
    paired = [s for s in series_set if len(s) > 1]
    lengths = np.array([len(s) for s in paired])
    times = np.concatenate([s.times for s in paired])
    resid = np.concatenate([s.values for s in paired]) - mean.at(times)
    total = float(np.sum(lengths * (lengths - 1)))
    sites, site_of = np.unique(times, return_inverse=True)
    G = grid.size
    w0, w1, w2 = _kernel_table(kernel, h, sites, grid)
    W = np.concatenate([w0, w1, w2], axis=1)
    C, R = one_table_subject_sums(lengths, site_of, resid, W, 2 * G)
    n = np.bincount(site_of, minlength=len(sites)).astype(float)
    rsq = np.bincount(site_of, weights=resid * resid, minlength=len(sites))
    S = C.T @ C[:, :2 * G] - W.T @ (n[:, None] * W[:, :2 * G])
    U = R.T @ R[:, :G] - W[:, :2 * G].T @ (rsq[:, None] * w0)
    s00, s01, s11, s12 = S[:G, :G], S[G:2 * G, :G], S[2 * G:, :G], S[G:2 * G, G:]
    r0, r1 = U[:G], U[G:]
    k0 = s11 * s11.T - s12 * s12
    k1 = s01.T * s12 - s01 * s11.T
    k2 = s01 * s12 - s01.T * s11
    det = s00 * k0 + s01 * k1 + s01.T * k2
    values = _intercept(s00, det, r0 * k0 + r1 * k1 + r1.T * k2, total, grid, h, "covariance")
    return 0.5 * (values + values.T)


def site_count_design(n_sites, singletons, seed=5):
    """Subjects whose pooled times are exactly ``n_sites`` distinct sites,
    each site held by a subject with at least two observations; with
    ``singletons``, one-observation subjects at existing sites are mixed in."""
    rng = np.random.default_rng(seed)
    sites = np.sort(rng.uniform(0.0, 1.0, n_sites))
    sites[0], sites[-1] = 0.0, 1.0
    cuts, lo = [], 0
    while lo < n_sites:
        hi = min(lo + int(rng.integers(2, 13)), n_sites)
        cuts.append((lo, hi) if n_sites - hi != 1 else (lo, n_sites))
        lo = cuts[-1][1]
    order = rng.permutation(n_sites)
    series = [ObservationSeries(np.sort(sites[order[a:b]]), rng.standard_normal(b - a))
              for a, b in cuts]
    if singletons:
        series += [ObservationSeries([sites[i]], [rng.standard_normal()])
                   for i in rng.integers(0, n_sites, len(series) // 3)]
        series = [series[i] for i in rng.permutation(len(series))]
    return series


SITE_COUNTS = (SITE_BLOCK - 1, SITE_BLOCK, SITE_BLOCK + 1, 3 * SITE_BLOCK + 5)


class TestSiteBlocks:
    """Both smoothers tabulate the kernel a block of sites at a time; they
    agree with the one-table smoothers they replace within 1e-13 relative,
    and the mean smoother bit for bit while the sites fit in one block."""

    @pytest.mark.parametrize("singletons", [False, True])
    @pytest.mark.parametrize("family, h", [("gaussian", 0.05), ("epanechnikov", 0.15)])
    @pytest.mark.parametrize("n_sites", SITE_COUNTS)
    def test_match_one_table(self, n_sites, family, h, singletons):
        series = site_count_design(n_sites, singletons)
        times = np.concatenate([s.times for s in series])
        paired = np.concatenate([s.times for s in series if len(s) > 1])
        assert len(np.unique(times)) == len(np.unique(paired)) == n_sites
        assert any(len(s) == 1 for s in series) == singletons
        grid = make_grid(Interval(0, 1), 31)
        kernel = KernelSpec(family, bandwidth_mean=h, bandwidth_cov=h)

        mean = smooth_mean(series, kernel, grid)
        ref = one_table_mean(series, kernel, grid)
        np.testing.assert_allclose(mean.values, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))
        if n_sites <= SITE_BLOCK:
            assert mean.values.tobytes() == ref.tobytes()

        fit = smooth_covariance(series, mean, kernel, grid)
        ref = one_table_covariance(series, mean, kernel, grid)
        np.testing.assert_allclose(fit.values, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("site_block", [1, 7])
    @pytest.mark.parametrize("family, h", [("gaussian", 0.02), ("epanechnikov", 0.04)])
    def test_narrow_windows_match_one_table(self, site_block, family, h, monkeypatch):
        # many small blocks whose weights vanish on part of the grid, a few
        # of them on all of it (sites more than h from every grid point)
        monkeypatch.setattr(smoothing, "SITE_BLOCK", site_block)
        series = random_series_set(np.random.default_rng(17), n_subjects=200, m_lo=8, m_hi=16)
        grid = make_grid(Interval(0, 1), 11)
        kernel = KernelSpec(family, bandwidth_mean=h, bandwidth_cov=h)
        sites = np.unique(np.concatenate([s.times for s in series]))
        w0 = _kernel_weights(kernel, h, sites, grid)
        vanish = [not np.any(w0[lo:lo + site_block])
                  for lo in range(0, len(sites), site_block)]
        assert any(vanish) == (family == "epanechnikov")
        assert not np.all(w0 > 0)

        mean = smooth_mean(series, kernel, grid)
        ref = one_table_mean(series, kernel, grid)
        np.testing.assert_allclose(mean.values, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))
        fit = smooth_covariance(series, mean, kernel, grid)
        ref = one_table_covariance(series, mean, kernel, grid)
        np.testing.assert_allclose(fit.values, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))

    def test_covariance_memory_follows_one_table(self):
        # 1000 subjects at about 20 irregular times each: some 20,000 sites,
        # whose W0 table alone takes 16 MB at G = 101
        series, grid = synth_channel(1000, ("irregular", 20, 5))
        kernel = resolve_bandwidths(series, KernelSpec(), grid)
        mean = smooth_mean(series, kernel, grid)
        tracemalloc.start()
        try:
            smooth_covariance(series, mean, kernel, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6


class TestStandardization:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        grid = make_grid(Interval(0, 1), 21)
        params = StandardizationParams(grid, rng.standard_normal(21),
                                       np.abs(rng.standard_normal(21)) + 0.1)
        m = int(rng.integers(2, 15))
        series = ObservationSeries(np.sort(rng.uniform(0, 1, m) + 1e-9 * np.arange(m)),
                                   rng.standard_normal(m))
        back = destandardize(standardize(series, params), params)
        np.testing.assert_allclose(back.values, series.values, rtol=1e-12, atol=1e-12)

    def test_variance_clipping(self):
        grid = make_grid(Interval(0, 1), 5)
        vals = np.diag([1.0, 0.5, -0.001, 0.25, 2.0]).astype(float)
        surface = CovarianceSurface(grid, vals)
        v = variance_function(surface)
        assert v[2] == variance_floor(np.diag(vals))
        assert np.all(v > 0)

    def test_build_standardization_uses_diag(self):
        grid = make_grid(Interval(0, 1), 4)
        mean = MeanFunction(grid, np.arange(4.0))
        surface = CovarianceSurface(grid, np.diag([4.0, 1.0, 0.25, 9.0]))
        params = build_standardization(mean, surface)
        np.testing.assert_array_equal(params.var_values, [4.0, 1.0, 0.25, 9.0])


class TestBandwidths:
    def test_plugin_positive_and_reasonable(self):
        rng = np.random.default_rng(23)
        series = random_series_set(rng)
        grid = make_grid(Interval(0, 1), 21)
        h = plugin_bandwidth(series, grid)
        assert 0 < h < 1.0

    def test_plugin_without_pairs_falls_back_to_the_interval(self):
        series = [ObservationSeries([t], [1.0]) for t in np.linspace(0.0, 1.0, 12)]
        grid = make_grid(Interval(0, 2), 21)
        assert plugin_bandwidth(series, grid) == 1.0

    def test_resolve_passthrough(self):
        rng = np.random.default_rng(29)
        series = random_series_set(rng)
        grid = make_grid(Interval(0, 1), 21)
        spec = KernelSpec("gaussian", bandwidth_mean=0.33, bandwidth_cov=0.44)
        out = resolve_bandwidths(series, spec, grid)
        assert out.bandwidth_mean == 0.33 and out.bandwidth_cov == 0.44

    def test_resolve_plugin(self):
        rng = np.random.default_rng(31)
        series = random_series_set(rng)
        grid = make_grid(Interval(0, 1), 21)
        out = resolve_bandwidths(series, KernelSpec(), grid)
        assert isinstance(out.bandwidth_mean, float) and out.bandwidth_mean > 0
        assert out.bandwidth_mean == out.bandwidth_cov == plugin_bandwidth(series, grid)

    def test_cv_selection_returns_candidate(self):
        rng = np.random.default_rng(37)
        series = random_series_set(rng, n_subjects=10, m_lo=8, m_hi=14,
                                   fn=lambda t: np.sin(2 * np.pi * t))
        grid = make_grid(Interval(0, 1), 21)
        h = select_bandwidth(series, "gaussian", grid, "mean")
        assert 0 < h <= 0.5

    def test_cv_selection_deterministic(self):
        rng = np.random.default_rng(41)
        series = random_series_set(rng, n_subjects=8)
        grid = make_grid(Interval(0, 1), 15)
        a = select_bandwidth(series, "gaussian", grid, "mean")
        b = select_bandwidth(series, "gaussian", grid, "mean")
        assert a == b

    def test_cv_selection_covariance_target(self):
        rng = np.random.default_rng(59)
        series = random_series_set(rng, n_subjects=10, m_lo=6, m_hi=10)
        grid = make_grid(Interval(0, 1), 15)
        a = select_bandwidth(series, "gaussian", grid, "covariance")
        b = select_bandwidth(series, "gaussian", grid, "covariance")
        assert a in bandwidth_candidates(series, grid)
        assert a == b

    @pytest.mark.parametrize("target", ["mean", "covariance"])
    @pytest.mark.parametrize("design", [71, 72, "shared-times", "grid-times", "two-points"])
    def test_cv_matches_loop_reference(self, target, design):
        assert_cv_matches_loop_reference(*cv_design(design), target)

    def test_covariance_cv_memory_stays_below_the_pooled_pairs(self):
        # a dense channel: 100 subjects at 61 shared times hold 366,000
        # within-subject pairs, which as pooled (t, t', U) arrays take 8.8 MB
        series, grid = synth_channel(100, ("dense", 61))
        pooled = 3 * 8 * sum(len(s) * (len(s) - 1) for s in series)
        tracemalloc.start()
        try:
            _cv_errors(series, "gaussian", grid, "covariance")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pooled

    def test_cv_fold_without_validation_pairs(self):
        # the fifth fold tests one single-observation subject, so it scores no
        # covariance candidate; the other four folds pick the bandwidth
        rng = np.random.default_rng(73)
        series = random_series_set(rng, n_subjects=4)
        series.append(ObservationSeries([0.5], [1.0]))
        assert_cv_matches_loop_reference(series, make_grid(Interval(0, 1), 11), "covariance")

    def test_cv_without_any_validation_pair(self):
        series = [ObservationSeries([t], [1.0]) for t in np.linspace(0.0, 1.0, 12)]
        grid = make_grid(Interval(0, 1), 11)
        with pytest.raises(AllCandidatesDegenerate):
            select_bandwidth(series, "gaussian", grid, "covariance")

    def test_kernel_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("triangular")
        with pytest.raises(ValueError):
            KernelSpec("gaussian", bandwidth_mean=-0.1)
        with pytest.raises(ValueError):
            KernelSpec("gaussian", bandwidth_cov="magic")
