"""Univariate and multivariate functional PCA on a quadrature grid.

The univariate step eigendecomposes the weighted discretization of each
channel's covariance operator; the multivariate step recombines the
univariate eigenfunctions through the eigenvectors of the score covariance
matrix, following the score-space construction for multivariate
eigenfunctions.  Projection and reconstruction take all N subjects at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fofr.core import EvalGrid, _check_ints
from fofr.errors import (
    BlockMismatch,
    ChannelCountMismatch,
    EigenFailure,
    EmptySpectrum,
    LengthMismatch,
    TooFewSubjects,
)
from fofr.smoothing import CovarianceSurface

#: negative-eigenvalue clipping floor, relative to the largest eigenvalue
EIGENVALUE_FLOOR_REL = 1e-10


@dataclass(frozen=True)
class TruncationRule:
    """Keep the smallest leading set of components reaching the FVE cutoff."""

    fve_cutoff: float = 0.99
    max_components: int | None = None

    def __post_init__(self):
        if not 0.0 < self.fve_cutoff <= 1.0:
            raise ValueError(f"fve_cutoff must lie in (0, 1], got {self.fve_cutoff}")
        _check_ints(self, optional=("max_components",))
        if self.max_components is not None and self.max_components < 1:
            raise ValueError("max_components must be >= 1")


@dataclass(frozen=True)
class UnivariateEigenSystem:
    grid: EvalGrid
    eigenvalues: np.ndarray       # (P,), non-increasing, > 0
    eigenfunctions: np.ndarray    # (P, G), quadrature-orthonormal rows
    channel: str = ""

    @property
    def n_components(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class MultivariateEigenSystem:
    grid: EvalGrid
    eigenvalues: np.ndarray       # (P,)
    eigenfunctions: np.ndarray    # (P, D, G)
    block_vectors: np.ndarray     # (P, P_plus) eigenvectors of the score covariance
    block_widths: tuple           # per-channel univariate component counts

    @property
    def n_components(self) -> int:
        return len(self.eigenvalues)

    @property
    def n_channels(self) -> int:
        return self.eigenfunctions.shape[1]


def cumulative_fve(eigenvalues: np.ndarray) -> np.ndarray:
    """Cumulative fraction of variance explained by the leading k components,
    k = 1..P: the share that truncation compares with the FVE cutoff."""
    lam = np.asarray(eigenvalues, dtype=float)
    return np.cumsum(lam) / np.sum(lam)


def select_truncation(eigenvalues: np.ndarray, rule: TruncationRule) -> int:
    """Smallest k whose cumulative eigenvalue share reaches the cutoff."""
    lam = np.asarray(eigenvalues, dtype=float)
    if len(lam) == 0 or not np.any(lam > 0):
        raise EmptySpectrum("no positive eigenvalues")
    k = int(np.searchsorted(cumulative_fve(lam), rule.fve_cutoff - 1e-12) + 1)
    k = min(k, len(lam))
    if rule.max_components is not None:
        k = min(k, rule.max_components)
    return k


def _fix_signs(functions: np.ndarray, companions: list) -> None:
    """Flip each component so its largest-|.| entry is positive (in place).

    ``companions`` are arrays whose rows must flip together with the rows of
    ``functions`` (e.g. score-space eigenvectors).
    """
    flat = functions.reshape(functions.shape[0], -1)
    for p in range(flat.shape[0]):
        peak = flat[p, int(np.argmax(np.abs(flat[p])))]
        if peak < 0:
            functions[p] = -functions[p]
            for arr in companions:
                arr[p] = -arr[p]


def _leading_eigen(A: np.ndarray, rule: TruncationRule, failed: str, empty: str):
    """Eigenpairs of the symmetric ``A`` in descending order, down to
    EIGENVALUE_FLOOR_REL of the largest, truncated by ``rule``; ``failed`` and
    ``empty`` are the messages of EigenFailure and EmptySpectrum."""
    try:
        lam, vec = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(failed) from exc
    lam = lam[::-1]
    vec = vec[:, ::-1]
    if not len(lam) or lam[0] <= 0:
        raise EmptySpectrum(empty)
    keep = lam >= EIGENVALUE_FLOOR_REL * lam[0]
    lam, vec = lam[keep], vec[:, keep]
    p = select_truncation(lam, rule)
    return lam[:p], vec[:, :p]


def univariate_fpca(surface: CovarianceSurface, rule: TruncationRule,
                    channel: str = "") -> UnivariateEigenSystem:
    """Eigendecompose the quadrature-weighted covariance operator of one channel."""
    grid = surface.grid
    w = grid.quad_weights
    sw = np.sqrt(w)
    A = sw[:, None] * surface.values * sw[None, :]
    A = 0.5 * (A + A.T)
    lam, vec = _leading_eigen(
        A, rule, f"channel {channel!r}: eigendecomposition failed",
        f"channel {channel!r}: covariance operator has no positive eigenvalues")
    funcs = (vec / sw[:, None]).T
    _fix_signs(funcs, [])
    return UnivariateEigenSystem(grid, lam, funcs, channel)


def project_univariate(curves: np.ndarray, eig: UnivariateEigenSystem) -> np.ndarray:
    """Quadrature scores, (N, P), of (N, G) standardized grid curves against a
    univariate basis."""
    # one matrix-vector product per subject, not one (N, G) x (G, P) product:
    # each score then sums in the same order whatever N is
    weighted = eig.grid.quad_weights * curves
    return np.matmul(eig.eigenfunctions, weighted[..., None])[..., 0]


def score_covariance(scores: np.ndarray) -> np.ndarray:
    """Sample covariance of the stacked univariate scores (divisor N - 1)."""
    scores = np.asarray(scores, dtype=float)
    n = scores.shape[0]
    if n < 2:
        raise TooFewSubjects(f"score covariance needs N >= 2 subjects, got {n}")
    centered = scores - scores.mean(axis=0)
    xi = centered.T @ centered / (n - 1)
    return 0.5 * (xi + xi.T)


def multivariate_fpca(univariate_systems, xi: np.ndarray,
                      rule: TruncationRule) -> MultivariateEigenSystem:
    """Recombine univariate bases through the score-covariance eigenvectors."""
    systems = list(univariate_systems)
    widths = tuple(s.n_components for s in systems)
    p_plus = sum(widths)
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (p_plus, p_plus):
        raise BlockMismatch(
            f"score covariance is {xi.shape}, expected ({p_plus}, {p_plus}) "
            f"from block widths {widths}")
    grid = systems[0].grid if systems else None
    for s in systems:
        if s.grid.size != grid.size or not np.array_equal(s.grid.points, grid.points):
            raise BlockMismatch("univariate systems live on different grids")
    lam, vec = _leading_eigen(0.5 * (xi + xi.T), rule,
                              "eigendecomposition of the score covariance failed",
                              "score covariance has no positive eigenvalues")
    p = len(lam)
    cvecs = vec.T.copy()  # (P, P_plus), unit Euclidean norm rows

    d = len(systems)
    g = grid.size
    funcs = np.zeros((p, d, g))
    offsets = np.cumsum((0,) + widths)
    for pi in range(p):
        for di, s in enumerate(systems):
            block = cvecs[pi, offsets[di]:offsets[di + 1]]
            if s.n_components:
                funcs[pi, di] = block @ s.eigenfunctions
    _fix_signs(funcs, [cvecs])

    gram = np.einsum("pdg,qdg,g->pq", funcs, funcs, grid.quad_weights)
    if np.max(np.abs(gram - np.eye(p))) > 1e-6:
        raise EigenFailure(
            f"multivariate eigenfunctions lost orthonormality "
            f"(max deviation {np.max(np.abs(gram - np.eye(p))):.3g})")
    return MultivariateEigenSystem(grid, lam, funcs, cvecs, widths)


def project_multivariate(curves: np.ndarray, eig: MultivariateEigenSystem) -> np.ndarray:
    """Multivariate quadrature scores, (N, L), of (N, D, G) standardized grid curves."""
    curves = np.asarray(curves, dtype=float)
    if curves.shape[1:] != eig.eigenfunctions.shape[1:]:
        raise ChannelCountMismatch(f"curves have shape {curves.shape}, eigen system "
                                   f"expects (N, {eig.n_channels}, {eig.grid.size})")
    return np.einsum("pdg,ndg,g->np", eig.eigenfunctions, curves, eig.grid.quad_weights)


def reconstruct(scores: np.ndarray, eig: MultivariateEigenSystem) -> np.ndarray:
    """Per-channel functions on the grid, (N, D, G), from (N, P) truncated scores."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[1] != eig.n_components:
        raise LengthMismatch(
            f"scores have shape {scores.shape}, expected (N, {eig.n_components})")
    return np.einsum("np,pdg->ndg", scores, eig.eigenfunctions)
