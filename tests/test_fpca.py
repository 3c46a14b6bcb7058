"""FPCA tests against analytically known spectra."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from fofr import synthgen
from fofr.core import Interval, make_grid
from fofr.errors import (
    BlockMismatch,
    ChannelCountMismatch,
    EmptySpectrum,
    LengthMismatch,
    TooFewSubjects,
)
from fofr.fpca import (
    EIGENVALUE_FLOOR_REL,
    TruncationRule,
    cumulative_fve,
    multivariate_fpca,
    project_multivariate,
    project_univariate,
    reconstruct,
    score_covariance,
    select_truncation,
    univariate_fpca,
)
from fofr.smoothing import (
    CovarianceSurface,
    KernelSpec,
    resolve_bandwidths,
    smooth_covariance,
    smooth_mean,
)
from fofr.synthgen import PlantedBasis


def planted_surface(grid, lam, order=3, channels=1, channel=0):
    """G(s,t) = sum_k lam_k psi_k(s) psi_k(t) from an orthonormal Fourier system."""
    basis = PlantedBasis(Interval(grid.points[0], grid.points[-1]), channels,
                         order, len(lam), None)
    tab = basis.eval(grid.points)[:, channel, :]  # (K, G)
    return CovarianceSurface(grid, np.einsum("k,kg,kh->gh", np.asarray(lam), tab, tab)), tab


class TestSelectTruncation:
    def test_exact_cutoff(self):
        # shares 0.6, 0.3, 0.1: cutoff 0.9 is reached at component 2
        assert select_truncation(np.array([0.6, 0.3, 0.1]), TruncationRule(0.9)) == 2

    def test_just_below_cutoff_needs_one_more(self):
        assert select_truncation(np.array([0.89, 0.11]), TruncationRule(0.9)) == 2

    def test_cap(self):
        lam = np.array([0.4, 0.3, 0.2, 0.1])
        assert select_truncation(lam, TruncationRule(0.999, max_components=2)) == 2

    def test_keeps_the_first_component_whose_reported_fve_reaches_the_cutoff(self):
        lam = np.array([5.0, 2.5, 1.5, 0.7, 0.3])
        fve = cumulative_fve(lam)
        np.testing.assert_array_equal(fve, np.cumsum(lam) / np.sum(lam))
        for k, share in enumerate(fve, start=1):
            assert select_truncation(lam, TruncationRule(float(share))) == k
        assert cumulative_fve(np.zeros(0)).tolist() == []

    def test_empty(self):
        with pytest.raises(EmptySpectrum):
            select_truncation(np.array([]), TruncationRule())
        with pytest.raises(EmptySpectrum):
            select_truncation(np.array([0.0, -1.0]), TruncationRule())

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            TruncationRule(0.0)
        with pytest.raises(ValueError):
            TruncationRule(0.99, max_components=0)


def smoothed_surfaces(sampling, n_subjects=120):
    """(name, surface) of every channel of the dense preset's structure
    under ``sampling``, smoothed as the pipeline does."""
    scenario = replace(synthgen.preset_scenario("dense"), n_subjects=n_subjects,
                       sampling=sampling)
    dataset, _ = synthgen.generate(scenario)
    grid_size = synthgen.dataset_schema(scenario).grid_size
    out = []
    for side, domain, rows in (("x", dataset.covariate_domain, dataset.covariates),
                               ("y", dataset.response_domain, dataset.responses)):
        grid = make_grid(domain, grid_size)
        for c in range(len(rows[0])):
            series = [row[c] for row in rows]
            kernel = resolve_bandwidths(series, KernelSpec(), grid)
            mean = smooth_mean(series, kernel, grid)
            out.append((f"{side}{c + 1}", smooth_covariance(series, mean, kernel, grid)))
    return out


def scipy_univariate_reference(surface, rule):
    """Eigenvalues and sign-fixed eigenfunctions of the weighted operator
    from ``scipy.linalg.eigh``, which ``univariate_fpca`` called before."""
    sw = np.sqrt(surface.grid.quad_weights)
    A = sw[:, None] * surface.values * sw[None, :]
    lam, vec = scipy.linalg.eigh(0.5 * (A + A.T))
    lam, vec = lam[::-1], vec[:, ::-1]
    keep = lam >= EIGENVALUE_FLOOR_REL * lam[0]
    lam, vec = lam[keep], vec[:, keep]
    p = select_truncation(lam, rule)
    funcs = (vec[:, :p] / sw[:, None]).T
    peaks = funcs[np.arange(p), np.argmax(np.abs(funcs), axis=1)]
    return lam[:p], funcs * np.sign(peaks)[:, None]


class TestUnivariateFpca:
    @pytest.mark.parametrize("sampling", [("dense", 61), ("irregular", 20, 5)],
                             ids=["dense", "irregular"])
    def test_matches_scipy_eigh(self, sampling):
        surfaces = smoothed_surfaces(sampling)
        assert len(surfaces) == 4
        for name, surface in surfaces:
            rule = TruncationRule()
            lam, funcs = scipy_univariate_reference(surface, rule)
            system = univariate_fpca(surface, rule, name)
            assert system.n_components == len(lam), name
            np.testing.assert_allclose(system.eigenvalues, lam, rtol=1e-12, err_msg=name)
            np.testing.assert_allclose(system.eigenfunctions, funcs, rtol=0, atol=1e-10,
                                       err_msg=name)

    def test_recovers_planted_spectrum(self):
        grid = make_grid(Interval(0, 1), 201)
        lam = [1.0, 0.5, 0.25]
        surface, tab = planted_surface(grid, lam)
        system = univariate_fpca(surface, TruncationRule(0.999))
        assert system.n_components == 3
        np.testing.assert_allclose(system.eigenvalues, lam, rtol=1e-4)
        for k in range(3):
            est = system.eigenfunctions[k]
            true = tab[k]
            sign = np.sign(np.dot(est, true))
            np.testing.assert_allclose(sign * est, true, atol=2e-3)

    def test_orthonormality(self):
        grid = make_grid(Interval(0, 2), 151)
        surface, _ = planted_surface(grid, [2.0, 1.0, 0.5, 0.1])
        system = univariate_fpca(surface, TruncationRule(1.0))
        gram = np.einsum("pg,qg,g->pq", system.eigenfunctions, system.eigenfunctions,
                         grid.quad_weights)
        np.testing.assert_allclose(gram, np.eye(system.n_components), atol=1e-10)

    def test_sign_convention(self):
        grid = make_grid(Interval(0, 1), 101)
        surface, _ = planted_surface(grid, [1.0, 0.5])
        system = univariate_fpca(surface, TruncationRule(1.0))
        for row in system.eigenfunctions:
            assert row[np.argmax(np.abs(row))] > 0

    def test_negative_definite_raises(self):
        grid = make_grid(Interval(0, 1), 31)
        surface = CovarianceSurface(grid, -np.eye(31))
        with pytest.raises(EmptySpectrum):
            univariate_fpca(surface, TruncationRule())

    def test_negative_eigenvalues_clipped(self):
        grid = make_grid(Interval(0, 1), 51)
        surface, tab = planted_surface(grid, [1.0])
        # perturb to introduce small negative eigenvalues
        rng = np.random.default_rng(0)
        noise = 1e-6 * rng.standard_normal((51, 51))
        surface = CovarianceSurface(grid, surface.values + noise + noise.T)
        system = univariate_fpca(surface, TruncationRule(1.0))
        assert np.all(system.eigenvalues > 0)


class TestProjection:
    def test_project_then_reconstruct(self):
        grid = make_grid(Interval(0, 1), 201)
        lam = [1.0, 0.5]
        surface, tab = planted_surface(grid, lam)
        system = univariate_fpca(surface, TruncationRule(0.999))
        truth_scores = np.array([[0.8, -1.3], [0.0, 0.4], [-2.1, 0.3]])
        curves = truth_scores @ tab
        est = project_univariate(curves, system)
        assert est.shape == (3, system.n_components)
        # signs of the estimated basis may differ; compare reconstructions
        recon = est @ system.eigenfunctions
        np.testing.assert_allclose(recon, curves, atol=1e-3)

    def test_batch_rows_equal_single_subject_products(self):
        grid = make_grid(Interval(0, 1), 101)
        surface, _ = planted_surface(grid, [1.0, 0.5, 0.25])
        system = univariate_fpca(surface, TruncationRule(1.0))
        curves = np.random.default_rng(4).standard_normal((7, grid.size))
        batch = project_univariate(curves, system)
        for i, y in enumerate(curves):
            np.testing.assert_array_equal(
                batch[i], system.eigenfunctions @ (grid.quad_weights * y))


class TestScoreCovariance:
    def test_matches_numpy_cov(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal((40, 5))
        xi = score_covariance(scores)
        np.testing.assert_allclose(xi, np.cov(scores, rowvar=False), rtol=1e-12)

    def test_too_few(self):
        with pytest.raises(TooFewSubjects):
            score_covariance(np.ones((1, 3)))


class TestMultivariateFpca:
    def _two_channel_setup(self, correlated=True, n=400, seed=2):
        rng = np.random.default_rng(seed)
        grid = make_grid(Interval(0, 1), 101)
        s1, tab1 = planted_surface(grid, [1.0, 0.5])
        s2, tab2 = planted_surface(grid, [0.8, 0.4])
        sys1 = univariate_fpca(s1, TruncationRule(1.0), "a")
        sys2 = univariate_fpca(s2, TruncationRule(1.0), "b")
        k1, k2 = sys1.n_components, sys2.n_components
        if correlated:
            z = rng.standard_normal((n, k1))
            scores = np.hstack([z, z[:, :k2] + 0.1 * rng.standard_normal((n, k2))])
        else:
            scores = rng.standard_normal((n, k1 + k2))
        xi = score_covariance(scores)
        return grid, [sys1, sys2], xi

    def test_orthonormality(self):
        grid, systems, xi = self._two_channel_setup()
        multi = multivariate_fpca(systems, xi, TruncationRule(1.0))
        gram = np.einsum("pdg,qdg,g->pq", multi.eigenfunctions, multi.eigenfunctions,
                         grid.quad_weights)
        np.testing.assert_allclose(gram, np.eye(multi.n_components), atol=1e-8)

    def test_independent_channels_decouple(self):
        # block-diagonal score covariance: each multivariate eigenfunction
        # lives (numerically) in a single channel
        grid = make_grid(Interval(0, 1), 101)
        s1, _ = planted_surface(grid, [1.0, 0.5])
        s2, _ = planted_surface(grid, [0.8, 0.4])
        sys1 = univariate_fpca(s1, TruncationRule(1.0), "a")
        sys2 = univariate_fpca(s2, TruncationRule(1.0), "b")
        widths = (sys1.n_components, sys2.n_components)
        xi = np.diag(np.concatenate([sys1.eigenvalues, sys2.eigenvalues]))
        multi = multivariate_fpca([sys1, sys2], xi, TruncationRule(1.0))
        for p in range(multi.n_components):
            sup = [np.max(np.abs(multi.eigenfunctions[p, d])) for d in range(2)]
            assert min(sup) <= 1e-2, f"component {p} mixes channels: {sup}"

    def test_project_reconstruct_round_trip(self):
        grid, systems, xi = self._two_channel_setup()
        multi = multivariate_fpca(systems, xi, TruncationRule(1.0))
        # samples inside the span of the retained components
        scores = np.random.default_rng(5).standard_normal((6, multi.n_components))
        curves = reconstruct(scores, multi)
        assert curves.shape == (6, 2, grid.size)
        back = project_multivariate(curves, multi)
        np.testing.assert_allclose(back, scores, atol=1e-6)

    def test_no_systems_is_an_empty_spectrum(self):
        with pytest.raises(EmptySpectrum, match="no positive eigenvalues"):
            multivariate_fpca([], np.zeros((0, 0)), TruncationRule())

    def test_block_mismatch(self):
        _, systems, xi = self._two_channel_setup()
        with pytest.raises(BlockMismatch):
            multivariate_fpca(systems, xi[:-1, :-1], TruncationRule(1.0))

    def test_channel_count_mismatch(self):
        grid, systems, xi = self._two_channel_setup()
        multi = multivariate_fpca(systems, xi, TruncationRule(1.0))
        for shape in ((3, 1, grid.size), (3, 3, grid.size), (3, 2, grid.size - 1),
                      (2, grid.size)):
            with pytest.raises(ChannelCountMismatch):
                project_multivariate(np.zeros(shape), multi)

    def test_reconstruct_length_mismatch(self):
        _, systems, xi = self._two_channel_setup()
        multi = multivariate_fpca(systems, xi, TruncationRule(1.0))
        for shape in ((3, multi.n_components + 1), (multi.n_components,)):
            with pytest.raises(LengthMismatch):
                reconstruct(np.zeros(shape), multi)
