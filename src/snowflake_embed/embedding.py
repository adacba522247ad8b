"""Spectral isometric embedding of negative-type metrics into Euclidean space.

Classical double centering: B = -1/2 P D P is the Gram matrix of the
embedded points about their centroid, so the coordinates are eigenvectors
scaled by square roots of eigenvalues.  A point cloud gets them from the thin
SVD of its centred points (``negative_type.spectral_decision``), on principal
axes like those of a distance matrix.  For a snowflaked metric d**alpha
with alpha in (0, 1) of a negative-type input the embedding is certified
to have full rank n-1: the embedded points are always in general position,
and a rank deficit is reported as an error rather than silently accepted.
There B restricted to the sum-zero subspace is positive definite, so its
Cholesky factor, a cheaper square root than the eigenpairs, gives the
coordinates whenever the eigenvalues show it strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NotEmbeddable, TheoremViolation
from .metric import FiniteMetricSpace, exponent_value, verified_distances
from .negative_type import (DEFAULT_TOL, snowflake_decision, spectral_decision, strict_factor,
                            sumzero_columns)

#: Largest admissible relative distance-reconstruction error.
RESIDUAL_LIMIT = 1e-8

#: Cap on point count, bounding the O(n^2) memory and O(n^3) time of the dense
#: eigenvalues, factor and residual of a snowflake.
MAX_POINTS = 4096


@dataclass(frozen=True)
class EmbeddingResult:
    """Embedded coordinates plus the data certifying the embedding.

    ``eigenvalues`` is the full nonincreasing spectrum (length n-1) of the
    centered Gram form on the sum-zero subspace; those of a point cloud beyond
    its first min(n-1, m) are exact zeros.  ``rank`` counts the kept
    eigenpairs; ``residual`` is the max relative distance-reconstruction
    error.  Coordinates are centered at the centroid and unique only up to
    rigid motion.
    """

    coordinates: np.ndarray
    eigenvalues: np.ndarray
    rank: int
    residual: float


def check_point_count(n: int) -> None:
    """Raise DomainError when n points exceed MAX_POINTS."""
    if n > MAX_POINTS:
        raise DomainError(f"point count {n} exceeds the configured cap {MAX_POINTS}")


def embed(X: FiniteMetricSpace, tol: float = DEFAULT_TOL) -> EmbeddingResult:
    """Isometrically embed X into Euclidean space, if possible.

    ``spectral_decision`` decides: a metric not of negative type raises
    NotEmbeddable with the eigenvector of the most negative eigenvalue as
    the violating weight vector, and the eigenpairs it keeps give the
    coordinates: those of the thin SVD of the centred points when X has
    ``points``.  The reconstruction residual is verified against
    RESIDUAL_LIMIT.
    """
    check_point_count(X.n)
    return _coordinates(X, spectral_decision(X, tol))


def _coordinates(X: FiniteMetricSpace, decision) -> EmbeddingResult:
    """The embedding of X that its ``spectral_decision`` gives, residual verified."""
    report, mu, U, keep = decision
    if not report.is_negative_type:
        raise NotEmbeddable(report.min_eigenvalue, report.threshold, witness=report.witness)
    mu, U, keep = mu[::-1], U[:, ::-1], keep[::-1]
    roots = np.sqrt(mu[keep])
    if not np.isfinite(roots).all():
        # a cloud's rank is decided on scaled values, and an eigenvalue past
        # the double range, inf, has no root to give coordinates
        raise NotEmbeddable(report.min_eigenvalue, report.threshold,
                            reason="the largest eigenvalue overflows the double range")
    # C-contiguous, which the JSON writer serialises without tolist(); the
    # eigenvalues a cloud's decision leaves out are exact zeros
    coords = np.multiply(U[:, keep], roots, order="C")
    eigenvalues = np.zeros(max(X.n - 1, 0))
    eigenvalues[:mu.size] = mu
    result = _result(X, coords, eigenvalues, int(keep.sum()))
    if not result.residual <= RESIDUAL_LIMIT:
        # happens only for extreme dynamic range: pair distances so far
        # below the configuration scale that double precision cannot
        # certify them to the relative limit
        raise _residual_failure(report.min_eigenvalue, result.residual)
    return result


def _residual_failure(eigenvalue: float, residual: float) -> NotEmbeddable:
    return NotEmbeddable(eigenvalue, RESIDUAL_LIMIT, reason=(
        f"reconstruction residual {residual:.3e} exceeds {RESIDUAL_LIMIT:.0e}"))


def _result(X: FiniteMetricSpace, coords: np.ndarray, eigenvalues: np.ndarray,
            rank: int) -> EmbeddingResult:
    """The read-only result of coordinates of X, with their residual."""
    coords.flags.writeable = False
    eigenvalues.flags.writeable = False
    return EmbeddingResult(coords, eigenvalues, rank, embedding_residual(coords, X))


def snowflake_embed(
    X: FiniteMetricSpace,
    a: float,
    tol: float = DEFAULT_TOL,
) -> EmbeddingResult:
    """Embed the snowflake X**alpha and certify that its rank is exactly n-1.

    Requires alpha in (0, 1) and X itself of negative type (the hypothesis
    is verified unless X carries its ``points``; a failing X raises
    NotEmbeddable with the violating weight vector).  Under those hypotheses
    the embedded points span dimension n-1 with the smallest eigenvalue
    strictly positive - its value, ``eigenvalues[rank - 1]``, is the
    reported margin.

    When X**alpha has its ``strict_factor`` (eigenvalues above the spectral
    threshold, and a Cholesky factor L of the restricted form), the
    coordinates are H[:, 1:] L, in that factor's frame rather than on
    principal axes, and ``eigenvalues`` are the values by ``eigvalsh``.  When
    their residual exceeds RESIDUAL_LIMIT, the eigenpairs' coordinates are
    tried, and kept when they are of rank n-1 and within the limit; else the
    factor's residual is the failure.  Without a factor, the eigenpairs
    decide as in ``embed``, and a rank below n-1 is a numerical breakdown that
    raises TheoremViolation.
    """
    check_point_count(X.n)
    alpha = exponent_value(a)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"snowflake embedding needs alpha in (0, 1), got {alpha!r}")
    Y = snowflake_decision(X, alpha, tol, NotEmbeddable)
    lam, L, w, c = strict_factor(Y, tol)
    residual = None
    if L is not None:
        coords = sumzero_columns(L, w, c)
        del L  # before the residual: the coordinates are the one n x n array held
        result = _result(Y, coords, lam[::-1].copy(), X.n - 1)
        if result.residual <= RESIDUAL_LIMIT:
            return result
        residual = result.residual
        del result, coords
    decision = spectral_decision(Y, tol)
    if residual is not None and not decision[0].is_strict:
        raise _residual_failure(lam[0], residual)
    result = _coordinates(Y, decision)
    # rank n-1 is the strictness verdict of the spectral decision of X**alpha
    if result.rank < X.n - 1:
        raise TheoremViolation(result.rank, X.n - 1, result.eigenvalues)
    return result


def embedding_residual(coords, X: FiniteMetricSpace) -> float:
    """Max over pairs of | ||p_i - p_j|| - d_ij | / d_ij, from ``verified_distances`` at the
    limit RESIDUAL_LIMIT * d_ij: ``residual <= RESIDUAL_LIMIT`` is the verdict that
    coordinate differences give, in O(n^2) memory whatever the coordinate dimension.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if coords.shape[0] != X.n:
        raise DimensionMismatch(
            f"{coords.shape[0]} coordinate rows for {X.n} points"
        )
    if X.n < 2:
        return 0.0
    pairs = np.triu_indices(X.n, k=1)
    target = X.d[pairs]
    distances = verified_distances(coords, coords[:, None], pairs, target, RESIDUAL_LIMIT * target)
    residual = np.abs(distances - target)
    residual /= target
    return float(residual.max())
