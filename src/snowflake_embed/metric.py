"""Finite metric spaces: validation, the snowflake transform, derived matrices.

All types are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    DuplicatePoints,
    MetricValidationError,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    NotSymmetric,
    TriangleViolation,
)

#: The relative tolerance of every verdict: triangle slack as a fraction of the
#: largest distance, spectral threshold as one of the spectral radius.
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class FiniteMetricSpace:
    """An n-point metric space stored as a symmetric distance matrix."""

    n: int
    d: np.ndarray


@dataclass(frozen=True)
class SnowflakeExponent:
    """Exponent for the snowflake transform d -> d**alpha, in [0, 1]."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"snowflake exponent must lie in [0, 1], got {self.alpha!r}")


@dataclass(frozen=True)
class PointCloud:
    """n points in Euclidean m-space, one point per row of ``coordinates``."""

    n: int
    m: int
    coordinates: np.ndarray


def exponent_value(a: SnowflakeExponent | float) -> float:
    """Coerce a snowflake exponent (or plain float) to a validated float."""
    if isinstance(a, SnowflakeExponent):
        return a.alpha
    return SnowflakeExponent(float(a)).alpha


def point_cloud(points) -> PointCloud:
    """Build a PointCloud from an (n, m) array of row vectors."""
    coords = np.atleast_2d(np.asarray(points, dtype=float))
    if coords.ndim != 2:
        raise DimensionMismatch(f"points must form a 2-d array, got shape {coords.shape}")
    if not np.isfinite(coords).all():
        raise MetricValidationError("coordinates must be finite")
    coords = coords.copy()
    coords.flags.writeable = False
    return PointCloud(n=coords.shape[0], m=coords.shape[1], coordinates=coords)


def as_point_cloud(P) -> PointCloud:
    if isinstance(P, PointCloud):
        return P
    return point_cloud(P)


def _frozen_metric(d: np.ndarray) -> FiniteMetricSpace:
    # internal constructor for matrices already known to be metrics
    d = np.asarray(d, dtype=float).copy()
    d.flags.writeable = False
    return FiniteMetricSpace(n=d.shape[0], d=d)


def validate_metric(matrix, tol: float = DEFAULT_TOL) -> FiniteMetricSpace:
    """Check the metric axioms and return the validated space.

    Symmetry and the zero diagonal must hold exactly as stored; the triangle
    inequality is allowed an additive slack of ``tol * max(d)`` because
    round-off grows with the distance scale.
    """
    d = np.asarray(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DimensionMismatch(f"distance matrix must be square, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise MetricValidationError("distances must be finite")
    n = d.shape[0]

    asym = d != d.T
    if asym.any():
        i, j = np.argwhere(asym)[0]
        raise NotSymmetric(i, j)
    diag = np.diagonal(d)
    if (diag != 0.0).any():
        i = int(np.argwhere(diag != 0.0)[0][0])
        raise NonzeroDiagonal(i, diag[i])
    off = ~np.eye(n, dtype=bool)
    bad = off & (d <= 0.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NonpositiveOffDiagonal(i, j, d[i, j])

    # scipy only here, so that point-cloud commands start without importing it
    from scipy.sparse.csgraph import shortest_path

    slack = tol * d.max() if n > 1 else 0.0
    # Pass test in compiled code: Floyd-Warshall keeps minima of computed
    # sums, and rounding is monotone, so sp[i, j] <= fl(d[i, k] + d[k, j])
    # for every k and d <= sp + slack implies the loop below finds nothing.
    # When the test fails, the loop decides and names the first violation
    # (or none: a path of three or more hops can undercut every two-hop
    # path by more than the slack).
    if (d <= shortest_path(d, method="FW", directed=False) + slack).all():
        return _frozen_metric(d)
    for k in range(n):
        via = d[:, [k]] + d[[k], :]
        viol = d > via + slack
        if viol.any():
            i, j = np.argwhere(viol)[0]
            raise TriangleViolation(i, j, k, d[i, j], via[i, j])

    return _frozen_metric(d)


def snowflake(X: FiniteMetricSpace, a: SnowflakeExponent | float) -> FiniteMetricSpace:
    """Raise every distance to the power alpha.

    For alpha in (0, 1] the result is again a metric because t -> t**alpha
    is subadditive; alpha = 0 yields the uniform metric with all
    off-diagonal distances 1 (the pointwise limit for distinct points).
    """
    alpha = exponent_value(a)
    if alpha == 1.0:
        return _frozen_metric(X.d)
    if alpha == 0.0:
        out = np.ones_like(X.d) - np.eye(X.n)
        return _frozen_metric(out)
    return _frozen_metric(X.d ** alpha)


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of row vectors; exactly symmetric, zero diagonal.

    The squared coordinate differences are summed one coordinate at a time,
    in pdist's order, so d[i, j] and d[j, i] are the same sums; a sum that
    overflows is inf.
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    sq = np.zeros((n, n))
    diff = np.empty((n, n))
    with np.errstate(over="ignore"):
        for column in coords.T:
            np.subtract.outer(column, column, out=diff)
            sq += np.square(diff, out=diff)
    return np.sqrt(sq, out=sq)


def euclidean_metric(P) -> FiniteMetricSpace:
    """Distance matrix of a point cloud with pairwise-distinct rows.

    The result is a metric by construction, so it needs no triangle scan.
    """
    cloud = as_point_cloud(P)
    d = pairwise_distances(cloud.coordinates)
    if not np.isfinite(d).all():
        raise MetricValidationError("distances must be finite")
    off = ~np.eye(cloud.n, dtype=bool)
    dup = off & (d == 0.0)
    if dup.any():
        pairs = [(i, j) for i, j in np.argwhere(dup) if i < j]
        raise DuplicatePoints(pairs)
    return _frozen_metric(d)


def squared_distance_matrix(X: FiniteMetricSpace) -> np.ndarray:
    """Entrywise square of the distance matrix."""
    return X.d ** 2
