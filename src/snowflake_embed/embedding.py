"""Spectral isometric embedding of negative-type metrics into Euclidean space.

Classical double centering: B = -1/2 P D P is the Gram matrix of the
embedded points about their centroid, so the coordinates are eigenvectors
scaled by square roots of eigenvalues.  For a snowflaked metric d**alpha
with alpha in (0, 1) of a negative-type input the embedding is certified
to have full rank n-1: the embedded points are always in general position,
and a rank deficit is reported as an error rather than silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import DimensionMismatch, DomainError, NotEmbeddable, TheoremViolation
from .metric import FiniteMetricSpace, SnowflakeExponent, exponent_value
from .negative_type import DEFAULT_TOL, snowflake_decision, spectral_decision

#: Largest admissible relative distance-reconstruction error.
RESIDUAL_LIMIT = 1e-8

#: Cap on point count, bounding the dense O(n^3) eigendecomposition.
MAX_POINTS = 4096


@dataclass(frozen=True)
class EmbeddingResult:
    """Embedded coordinates plus the data certifying the embedding.

    ``eigenvalues`` is the full nonincreasing spectrum (length n-1) of the
    centered Gram form on the sum-zero subspace; ``rank`` counts the kept
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
    coordinates.  The reconstruction residual is verified against
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
    coords = U[:, keep] * np.sqrt(mu[keep])
    coords.flags.writeable = False
    mu.flags.writeable = False
    result = EmbeddingResult(
        coordinates=coords,
        eigenvalues=mu,
        rank=int(keep.sum()),
        residual=embedding_residual(coords, X),
    )
    if not result.residual <= RESIDUAL_LIMIT:
        # happens only for extreme dynamic range: pair distances so far
        # below the configuration scale that double precision cannot
        # certify them to the relative limit
        raise NotEmbeddable(report.min_eigenvalue, RESIDUAL_LIMIT, reason=(
            f"reconstruction residual {result.residual:.3e} exceeds {RESIDUAL_LIMIT:.0e}"))
    return result


def snowflake_embed(
    X: FiniteMetricSpace,
    a: SnowflakeExponent | float,
    tol: float = DEFAULT_TOL,
) -> EmbeddingResult:
    """Embed the snowflake X**alpha and certify that its rank is exactly n-1.

    Requires alpha in (0, 1) and X itself of negative type (the hypothesis
    is verified; a failing X raises NotEmbeddable with the violating weight
    vector).  Under those hypotheses the embedded points span dimension
    n-1 with the smallest kept eigenvalue strictly positive - its value,
    ``eigenvalues[rank - 1]``, is the reported margin.  A smaller rank is a
    numerical breakdown and raises TheoremViolation.
    """
    check_point_count(X.n)
    alpha = exponent_value(a)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"snowflake embedding needs alpha in (0, 1), got {alpha!r}")
    result = _coordinates(*snowflake_decision(X, alpha, tol, NotEmbeddable))
    # rank n-1 is the strictness verdict of the spectral decision of X**alpha
    if result.rank < X.n - 1:
        raise TheoremViolation(result.rank, X.n - 1, result.eigenvalues)
    return result


def embedding_residual(coords, X: FiniteMetricSpace) -> float:
    """Max over pairs of | ||p_i - p_j|| - d_ij | / d_ij.

    Both sides are compared in condensed (upper-triangle) form, so the
    memory stays O(n^2) whatever the coordinate dimension.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if coords.shape[0] != X.n:
        raise DimensionMismatch(
            f"{coords.shape[0]} coordinate rows for {X.n} points"
        )
    if X.n < 2:
        return 0.0
    target = squareform(X.d, checks=False)
    return float(np.max(np.abs(pdist(coords) - target) / target))
