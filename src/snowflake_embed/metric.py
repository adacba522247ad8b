"""Finite metric spaces: validation, the snowflake transform, derived matrices.

All types are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
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
    """An n-point metric space stored as a symmetric distance matrix.

    ``points``, when present, are read-only coordinates whose Euclidean
    distances are ``d``: the space is Euclidean by construction.  Only
    ``euclidean_metric`` sets them, and only ``snowflake`` at alpha = 1 keeps
    them.
    """

    n: int
    d: np.ndarray
    points: np.ndarray | None = None


def exponent_value(a: float) -> float:
    """A snowflake exponent as a float in [0, 1], else DomainError."""
    alpha = float(a)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"snowflake exponent must lie in [0, 1], got {alpha!r}")
    return alpha


def _frozen_metric(d: np.ndarray, points: np.ndarray | None = None) -> FiniteMetricSpace:
    # internal constructor for float arrays already known to be a metric and its
    # points; it makes them read-only and owns them, so no caller may keep them
    d.flags.writeable = False
    if points is not None:
        points.flags.writeable = False
    return FiniteMetricSpace(n=d.shape[0], d=d, points=points)


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

    asym = np.argwhere(d != d.T)
    if len(asym):
        raise NotSymmetric(*asym[0])
    diag = np.diagonal(d)
    if (diag != 0.0).any():
        i = int(np.argwhere(diag != 0.0)[0][0])
        raise NonzeroDiagonal(i, diag[i])
    bad = np.argwhere(d <= 0.0)
    bad = bad[bad[:, 0] != bad[:, 1]]
    if len(bad):
        i, j = bad[0]
        raise NonpositiveOffDiagonal(i, j, d[i, j])

    slack = tol * d.max() if n > 1 else 0.0
    for k in range(n):
        _check_paths_through(d, k, slack)
        # Once no violation runs through point 0, a verified Euclidean witness
        # proves that the rest of the loop finds nothing.  Else the pass test
        # in compiled code: Floyd-Warshall keeps minima of computed sums, and
        # rounding is monotone, so sp[i, j] <= fl(d[i, k] + d[k, j]) for every
        # k and d <= sp + slack implies the same.  When the test fails, the
        # loop decides and names the first violation (or none: a path of three
        # or more hops can undercut every two-hop path by more than the slack).
        # Two points need neither: the loop's second step is the last.
        if k == 0 and n > 2 and (_euclidean_witness(d, slack) or _shortest_paths_pass(d, slack)):
            break

    return _frozen_metric(d.copy())  # d may be the caller's array


def _check_paths_through(d: np.ndarray, k: int, slack: float) -> None:
    """Raise TriangleViolation at the first (i, j), in row-major order, with
    d[i, j] > fl(fl(d[i, k] + d[k, j]) + slack)."""
    via = d[:, [k]] + d[[k], :]
    viol = d > via + slack
    if viol.any():
        i, j = np.argwhere(viol)[0]
        raise TriangleViolation(i, j, k, d[i, j], via[i, j])


def _shortest_paths_pass(d: np.ndarray, slack: float) -> bool:
    """Whether d <= sp + slack, sp the Floyd-Warshall shortest paths: O(n^3) in
    compiled code.  scipy only here, so that Euclidean inputs start without it."""
    from scipy.sparse.csgraph import shortest_path

    return bool((d <= shortest_path(d, method="FW", directed=False) + slack).all())


def gram_from_distances(D) -> np.ndarray:
    """Double centering: B = -1/2 P D P with P = I - ones/n.

    B is symmetric and annihilates the all-ones vector.
    """
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise DimensionMismatch(f"squared-distance matrix must be square, got {D.shape}")
    if (D != D.T).any():
        raise ValueError("squared-distance matrix must be symmetric")
    if (np.diagonal(D) != 0.0).any():
        raise ValueError("squared-distance matrix must have zero diagonal")
    r = D.mean(axis=1)
    B = -0.5 * (D - r[:, None] - r[None, :] + r.mean())
    return 0.5 * (B + B.T)


def _euclidean_witness(d: np.ndarray, slack: float) -> bool:
    """Whether verified coordinates prove that no triple has
    d[i, j] > fl(fl(d[i, k] + d[k, j]) + slack), the test of ``validate_metric``'s loop.

    Points x_p with | ||x_p - x_q|| - d_pq | <= e_pq for every pair give
    d_ij <= d_ik + d_kj + e_ij + e_ik + e_kj, because exact Euclidean distances obey the
    triangle inequality.  Rounding to nearest gives fl(fl(a + b) + s) >= (a + b)(1 - 2u) +
    s (1 - u) for a, b, s >= 0 and u the unit roundoff, so e_pq = s (1 - u)/3 - 2u d_pq
    suffices: three such limits add up to at most s (1 - u) - 2u (d_ik + d_kj).  The
    coordinates are known through computed distances, within gamma ||x_p - x_q|| of the
    exact ones (gamma = gamma_(r+4) for r coordinates, as in ``verified_distances``, whose
    Gram estimates give the verdict of such a distance), so the verdict
    |computed - d_pq| <= lam_pq bounds the exact error by
    (1 + 2u)(1 + 2 gamma) lam_pq + 2 gamma d_pq.  The per-pair limit
    lam_pq = (1 - 6 gamma) s/3 - 4 gamma d_pq keeps that below e_pq, with room for the
    rounding of lam_pq itself, as gamma >= 5u.

    The coordinates are the ``_pivoted_cholesky`` rows of the Gram matrix -1/2 P (d o d) P,
    at most ceil(sqrt(n)) of them, so that a failed attempt costs O(n^2) after the
    centring.  d is first scaled by a power of two, which is exact and scales every bound
    above alike (a slack that it takes below the normal range gives negative limits); a
    distance below 2**-400 of the largest gives up, so that underflow moves no computed
    square distance by more than 2**-270 of itself.
    """
    n = d.shape[0]
    if not slack > 0.0:
        return False
    e = -int(np.frexp(d.max())[1])
    D = np.ldexp(d, e)
    np.fill_diagonal(D, 1.0)
    if D.min() < 2.0 ** -400:
        return False
    np.fill_diagonal(D, 0.0)
    rows = _pivoted_cholesky(gram_from_distances(np.square(D, out=D)), math.isqrt(n - 1) + 1)
    del D  # before the pairwise verification, the peak of memory
    if rows is None:
        return False
    x = np.ascontiguousarray(rows.T)
    pairs = np.triu_indices(n, k=1)
    target = np.ldexp(d[pairs], e)
    gamma = _gamma(len(rows) + 4)
    limit = (1.0 - 6.0 * gamma) * np.ldexp(slack, e) / 3.0 - 4.0 * gamma * target
    distances = verified_distances(x, x[:, None], pairs, target, limit)
    return bool((np.abs(distances - target) <= limit).all())


def _pivoted_cholesky(G: np.ndarray, cap: int) -> np.ndarray | None:
    """Rows R (r x n, r <= cap) with R^T R = G up to the rounding level of G, 8 n u times
    its largest diagonal: a diagonally pivoted Cholesky (N. J. Higham, 1990) in O(n r^2)
    time, which stops when the largest remaining diagonal falls to that level.  None at
    the first clearly negative remaining diagonal (G is indefinite) or when r would pass
    ``cap``."""
    n = G.shape[0]
    diag = np.diagonal(G).copy()
    level = 8 * n * _UNIT_ROUNDOFF * diag.max()
    rows = np.empty((cap, n))
    for r in range(cap + 1):
        if diag.min() < -level:
            return None
        p = int(diag.argmax())
        if diag[p] <= level:
            return rows[:r]
        if r == cap:
            return None
        row = np.subtract(G[p], rows[:r, p] @ rows[:r], out=rows[r])
        row /= math.sqrt(diag[p])
        diag -= row * row


def snowflake(X: FiniteMetricSpace, a: float) -> FiniteMetricSpace:
    """Raise every distance to the power alpha.

    For alpha in (0, 1] the result is again a metric because t -> t**alpha
    is subadditive; alpha = 0 yields the uniform metric with all
    off-diagonal distances 1 (the pointwise limit for distinct points).
    Only alpha = 1 keeps the ``points`` of X, whose distances d**alpha are then d:
    it returns X itself, which is immutable.
    """
    alpha = exponent_value(a)
    if alpha == 1.0:
        return X
    if alpha == 0.0:
        out = np.ones_like(X.d)
        np.fill_diagonal(out, 0.0)
        return _frozen_metric(out)
    return _frozen_metric(X.d ** alpha)


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the relative error bound of k roundings."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


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
    gamma = _gamma(m + 4)
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
    and pairwise distinct; a read-only copy of the points is its ``points``.

    The result is a Euclidean metric by construction, so it needs no triangle scan,
    and the theorem's hypothesis on it needs no spectral test.
    """
    coords = np.atleast_2d(np.array(P, dtype=float))  # P may be the caller's array
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
    return _frozen_metric(d, coords)
