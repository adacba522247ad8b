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

#: Unit roundoff of a double, 2**-53.
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


@dataclass(frozen=True)
class FiniteMetricSpace:
    """An n-point metric space stored as a symmetric distance matrix."""

    n: int
    d: np.ndarray


def exponent_value(a: float) -> float:
    """A snowflake exponent as a float in [0, 1], else DomainError."""
    alpha = float(a)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"snowflake exponent must lie in [0, 1], got {alpha!r}")
    return alpha


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

    slack = tol * d.max() if n > 1 else 0.0
    for k in range(n):
        via = d[:, [k]] + d[[k], :]
        viol = d > via + slack
        if viol.any():
            i, j = np.argwhere(viol)[0]
            raise TriangleViolation(i, j, k, d[i, j], via[i, j])
        if k == 0:
            # Once no violation runs through point 0, the pass test in compiled
            # code: Floyd-Warshall keeps minima of computed sums, and rounding
            # is monotone, so sp[i, j] <= fl(d[i, k] + d[k, j]) for every k and
            # d <= sp + slack implies the rest of the loop finds nothing.  When
            # the test fails, the loop decides and names the first violation
            # (or none: a path of three or more hops can undercut every two-hop
            # path by more than the slack).  scipy only here, so that
            # point-cloud commands start without importing it.
            from scipy.sparse.csgraph import shortest_path

            if (d <= shortest_path(d, method="FW", directed=False) + slack).all():
                break

    return _frozen_metric(d)


def snowflake(X: FiniteMetricSpace, a: float) -> FiniteMetricSpace:
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


def orbit_distances(x: np.ndarray, images: np.ndarray) -> np.ndarray:
    """F[k, l, g] = ||images[l, g] - x_k|| for the rows x_k of ``x``, the squared differences
    summed one coordinate at a time in pdist's order; a sum that overflows is inf."""
    sq = np.zeros((len(x), *images.shape[:2]))
    diff = np.empty_like(sq)
    with np.errstate(over="ignore"):
        for c in range(x.shape[1]):
            np.subtract(images[None, :, :, c], x[:, None, None, c], out=diff)
            sq += np.square(diff, out=diff)
    return np.sqrt(sq, out=sq)


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of row vectors: ``orbit_distances`` with each point its
    one image, the floats of ``squareform(pdist)``, exactly symmetric with zero diagonal."""
    coords = np.asarray(coords, dtype=float)
    return orbit_distances(coords, coords[:, None])[:, :, 0]


def verified_distances(x: np.ndarray, images: np.ndarray, pairs: tuple, target: np.ndarray,
                       limit: np.ndarray | float) -> np.ndarray:
    """min over g of ||x_i - images[j, g]|| for the index arrays ``(i, j) = pairs``, with
    the verdict ``|distance - target| <= limit`` (per pair, or one number) that
    coordinate differences give.  ``x`` is n x m; ``images[l]`` (n x |G| x m) holds x_l
    and otherwise images of it that the arithmetic leaves isometric, such as coordinate
    permutations (``x[:, None]`` for plain pairwise distances).

    The squares come from the Gram form ||x_i||^2 + ||x_j||^2 - 2 max_g x_i . images[j, g]
    of one gemm, ||x_i||^2 being the largest product of x_i with its images (Cauchy-Schwarz).
    Its error, and that of a square summed from differences, is at most beta_ij =
    gamma_(m+4) (||x_i|| + ||x_j||)^2, gamma_k = k u / (1 - k u), u the unit roundoff.
    A pair whose interval, the Gram estimate +- 2 beta_ij, lies on one side of the limit
    keeps that estimate; the few left undecided (close pairs against the configuration
    scale) are recomputed from differences, in O(n |G| m) memory.
    """
    n, m = x.shape
    iu, ju = pairs
    k = m + 4
    gamma = k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)
    # coordinates near the top of the double range give inf or nan bounds,
    # which decide nothing: those pairs are recomputed
    with np.errstate(over="ignore", invalid="ignore"):
        gram = (x @ images.reshape(images.shape[0] * images.shape[1], m).T).reshape(n, n, -1)
        sq_norms = gram[np.arange(n), np.arange(n)].max(axis=1)
        # fl(a - 2 b) falls as b grows, so the largest product gives the least sum
        sq = sq_norms[iu] + sq_norms[ju] - 2.0 * gram[iu, ju].max(axis=1)
        del gram
        norms = np.sqrt(sq_norms, out=sq_norms)
        slack = norms[iu] + norms[ju]
        slack *= slack
        slack *= 2.0 * gamma
        low = np.sqrt(np.maximum(sq - slack, 0.0)) - target
        high = np.sqrt(sq + slack) - target
        # decided: the whole interval [low, high] lies on one side of the limit
        decided = np.maximum(high, -low) <= limit
        decided |= np.maximum(low, -high) > limit
        distances = np.sqrt(np.maximum(sq, 0.0))
        undecided = np.flatnonzero(~decided)
        for start in range(0, undecided.size, n):  # O(n |G| m) memory per block
            pick = undecided[start:start + n]
            diff = (x[iu[pick], None] - images[ju[pick]]).reshape(-1, m)
            direct = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            distances[pick] = direct.reshape(len(pick), -1).min(axis=1)
    return distances


def euclidean_metric(P) -> FiniteMetricSpace:
    """Distance matrix of the points, the rows of an (n, m) array, which must be finite
    and pairwise distinct.

    The result is a metric by construction, so it needs no triangle scan.
    """
    coords = np.atleast_2d(np.asarray(P, dtype=float))
    if coords.ndim != 2:
        raise DimensionMismatch(f"points must form a 2-d array, got shape {coords.shape}")
    if not np.isfinite(coords).all():
        raise MetricValidationError("coordinates must be finite")
    d = pairwise_distances(coords)
    if not np.isfinite(d).all():
        raise MetricValidationError("distances must be finite")
    dup = np.triu(d == 0.0, k=1)
    if dup.any():
        raise DuplicatePoints(np.argwhere(dup))
    return _frozen_metric(d)
