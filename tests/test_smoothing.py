"""Kernel smoother tests against direct weighted-least-squares oracles."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from fofr import synthgen
from fofr.core import Interval, ObservationSeries, make_grid
from fofr.errors import AllCandidatesDegenerate, DegenerateWindow, NoPairs, NonFiniteFit
from fofr.smoothing import (
    MASS_FLOOR,
    WEIGHT_FLUSH,
    CovarianceSurface,
    KernelSpec,
    MeanFunction,
    StandardizationParams,
    _cv_errors,
    _interp2,
    _raw_pairs,
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
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    shape = (len(paired), len(sites))
    C = sparse.csr_matrix((np.ones(len(times)), site_of, indptr), shape=shape) @ W
    R = sparse.csr_matrix((resid, site_of, indptr), shape=shape) @ W[:, :2 * G]
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
        with pytest.raises(NoPairs):
            _raw_pairs(singles, mean)


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
    @pytest.mark.parametrize("seed", [71, 72])
    def test_cv_matches_loop_reference(self, target, seed):
        rng = np.random.default_rng(seed)
        series = random_series_set(rng, n_subjects=11, m_lo=4, m_hi=10,
                                   fn=lambda t: np.sin(2 * np.pi * t) + rng.standard_normal(len(t)))
        assert_cv_matches_loop_reference(series, make_grid(Interval(0, 1), 15), target)

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
