"""Quadratic forms of negative type and the one spectral decision.

A finite metric is of negative type when L D L^T <= 0 for every weight
vector L with zero sum, D being the squared-distance matrix; by Schoenberg's
criterion this is equivalent to isometric embeddability into Hilbert space.
The decision here is spectral: the condition holds iff -1/2 P D P
(P the centering projector) is positive semidefinite on the sum-zero
subspace, so we diagonalize that restriction instead of searching over L.
On a distance matrix, eigenvalues come first: eigenvectors are computed only
where a verdict needs a witness, and a strict verdict is proved by a Cholesky
factor instead.  A point cloud is decided from its own coordinates: the thin
SVD of its centred points gives the eigenpairs of the restricted form, of
which at most m (the coordinate dimension) are not exactly zero, in
O(n m^2) time, with no n x n matrix formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NotStrict
from .metric import (DEFAULT_TOL, FiniteMetricSpace, exponent_value, gram_from_distances,
                     snowflake)

#: The reason of a failed hypothesis of the theorem: X itself is not of negative type.
HYPOTHESIS_FAILS = "input metric is not of negative type"


@dataclass(frozen=True)
class NegativeTypeReport:
    """Outcome of the spectral negative-type test.

    ``min_eigenvalue`` is the smallest eigenvalue of -1/2 P D P restricted
    to the sum-zero subspace (the trivial zero along the all-ones direction
    is excluded).  ``witness``, when present, is a sum-zero weight vector
    reproducing the violation or degeneracy through ``quadratic_form``.
    ``threshold`` decided both verdicts: negative type when min_eigenvalue
    >= -threshold, strict when min_eigenvalue > threshold.
    """

    is_negative_type: bool
    is_strict: bool
    min_eigenvalue: float
    witness: np.ndarray | None
    threshold: float

    @property
    def embeddable(self) -> bool:
        """Alias: negative type is equivalent to Hilbert-space embeddability."""
        return self.is_negative_type


def _reflector(n: int) -> tuple[np.ndarray, float]:
    """``(w, c)`` of the Householder reflection H = I - c w w^T that sends
    ones/sqrt(n) to -e_0: its columns 1..n-1 are an orthonormal basis of the
    sum-zero subspace."""
    w = np.full(n, 1.0 / np.sqrt(n))
    w[0] += 1.0
    return w, 2.0 / (w @ w)


def restricted_form(B: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The symmetric form B on the sum-zero subspace, in the basis of columns
    1..n-1 of the Householder reflection H = I - c w w^T sending ones/sqrt(n)
    to -e_0: ``(M, w, c)`` with M = (H B H)[1:, 1:] of size n-1.

    H B H = B - w y^T - y w^T is a rank-2 update of B, and w[1:] is constant,
    so M is B[1:, 1:] less one row vector and one column vector, formed in
    one (n-1) x (n-1) buffer: no n x n basis or outer product is formed.
    """
    w, c = _reflector(B.shape[0])
    Bw = B @ w
    y = c * Bw - 0.5 * c * c * (w @ Bw) * w
    u = w[1:] * y[1:]  # row i of the outer product w[1:] y[1:]^T, the same for every i
    M = np.add(u[None, :], u[:, None])
    return np.subtract(B[1:, 1:], M, out=M), w, c


def sumzero_columns(W: np.ndarray, w: np.ndarray, c: float) -> np.ndarray:
    """H[:, 1:] W for the reflection H = I - c w w^T of ``restricted_form``: the
    (n, k) matrix with sum-zero columns [0; W] - c w (w[1:]^T W), a rank-1
    update of the (n-1, k) matrix W."""
    return np.vstack([np.zeros((1, W.shape[1])), W]) - c * np.outer(w, w[1:] @ W)


def centered_spectrum(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum of the symmetric form B on the sum-zero subspace.

    Returns ascending eigenvalues (length n-1) and the corresponding
    sum-zero eigenvectors as orthonormal columns of an (n, n-1) matrix:
    ``eigh`` of the ``restricted_form`` M, its eigenvectors taken back by
    ``sumzero_columns``.
    """
    n = B.shape[0]
    if n < 2:
        return np.zeros(0), np.zeros((n, 0))
    M, w, c = restricted_form(B)
    evals, W = np.linalg.eigh(M)
    return evals, sumzero_columns(W, w, c)


def restricted_values(X: FiniteMetricSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``(evals, M, w, c)``: the ascending eigenvalues of -1/2 P D P on the
    sum-zero subspace, by ``eigvalsh`` (no eigenvectors), and its
    ``restricted_form`` (M, w, c).  The n x n Gram matrix is freed before the
    eigenvalues are computed."""
    M, w, c = restricted_form(gram_from_distances(X.d ** 2))
    return np.linalg.eigvalsh(M), M, w, c


def strict_factor(X: FiniteMetricSpace, tol: float = DEFAULT_TOL):
    """``(evals, L, w, c)``: the ``restricted_values`` of X and the Cholesky
    factor L of the restricted form, which exists exactly when that form is
    numerically positive definite.  L is None unless every eigenvalue lies
    above the ``spectral_threshold`` and the factor exists: the strict verdict
    of the values, proved by a factor.  The form is freed on return."""
    evals, M, w, c = restricted_values(X)
    L = None
    if spectral_report(evals, tol).is_strict:
        try:
            L = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            pass
    return evals, L, w, c


def quadratic_form(D, lam) -> float:
    """Evaluate L D L^T without forming any matrix larger than D."""
    D = np.asarray(D, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1] or lam.shape != (D.shape[0],):
        raise DimensionMismatch(
            f"incompatible shapes: D {D.shape}, weights {lam.shape}"
        )
    return float(lam @ D @ lam)


def spectral_threshold(evals, tol: float = DEFAULT_TOL) -> float:
    """``tol`` times the spectral radius: the one threshold of every spectral
    verdict.  An eigenvalue above it is positive, one below its negative is
    negative, and one in between counts as zero."""
    if not 0.0 <= tol < 1.0:
        raise DomainError(f"spectral tolerance must lie in [0, 1), got {tol!r}")
    return tol * float(np.abs(evals).max(initial=0.0))


def spectral_report(evals: np.ndarray, tol: float, vecs: np.ndarray | None = None
                    ) -> NegativeTypeReport:
    """The one spectral rule on the ascending eigenvalues ``evals`` of a
    restricted form: negative type when none lies below minus
    ``spectral_threshold``, strictly so when all lie above it.  Unless strict,
    the witness is the eigenvector of the smallest eigenvalue, the first column
    of ``vecs``, or None without them."""
    threshold = spectral_threshold(evals, tol)
    min_eig = float(evals.min(initial=np.inf))
    strict = min_eig > threshold
    witness = None if strict or vecs is None else vecs[:, 0]
    return NegativeTypeReport(min_eig >= -threshold, strict, min_eig, witness, threshold)


def spectral_decision(X: FiniteMetricSpace, tol: float = DEFAULT_TOL):
    """The one spectral decision on X, from -1/2 P D P on the sum-zero subspace.

    ``spectral_report`` of the eigenpairs, and the eigenpairs above its
    threshold are kept.  Returns the report, the ascending eigenvalues, their
    sum-zero eigenvectors as the columns of an (n, k) matrix and the kept mask.
    A distance matrix gives all k = n-1 eigenpairs, by ``centered_spectrum``;
    X with ``points`` and n > 1 gives the k = min(n-1, m) of ``_point_decision``,
    the other n-1-k eigenvalues being exactly zero.
    """
    if X.points is not None and X.n > 1:
        return _point_decision(X.points, tol)
    evals, vecs = centered_spectrum(gram_from_distances(X.d ** 2))
    report = spectral_report(evals, tol, vecs)
    return report, evals, vecs, evals > report.threshold


def _point_decision(points: np.ndarray, tol: float):
    """``spectral_decision`` of the Euclidean metric of the rows of ``points``
    (n x m, n > 1), from the points alone.

    The centred points x, scaled by the power of two 2**e that brings their
    largest entry into [1/2, 1), give A = (H x)[1:] (H the ``_reflector``), the
    coordinates of the points in the basis H[:, 1:] of the sum-zero subspace,
    and A A^T is the restricted form times 4**e.  The thin SVD A = U S V^T gives
    its k = min(n-1, m) eigenpairs (s**2, H[:, 1:] U); the other n-1-k
    eigenvalues are exactly zero.  The one spectral rule decides on the scaled
    values, which can neither overflow nor be NaN; the values reported are
    scaled back by 4**-e, so that they overflow to inf only beyond the double
    range.  Unless strict, the witness is the eigenvector of the smallest
    eigenvalue: the last singular vector when k = n-1, else a unit vector of the
    exact kernel, orthogonal to every column of U.  Costs O(n m^2).
    """
    n = points.shape[0]
    x = points - points[0]  # finite wherever the distances are, however far the cloud lies
    x -= x.mean(axis=0)
    e = -int(np.frexp(np.abs(x).max())[1])
    np.ldexp(x, e, out=x)
    w, c = _reflector(n)
    U, s, _ = np.linalg.svd(x[1:] - c * np.outer(w[1:], w @ x), full_matrices=False)
    U, scaled = U[:, ::-1], np.square(s[::-1])  # ascending
    kernel = n - 1 - scaled.size
    decided = spectral_report(np.concatenate([np.zeros(kernel), scaled]), tol)
    vecs = sumzero_columns(U, w, c)
    if decided.is_strict:
        witness = None
    elif kernel:
        witness = sumzero_columns(_kernel_vector(U)[:, None], w, c)[:, 0]
    else:
        witness = vecs[:, 0]
    with np.errstate(over="ignore"):  # inf beyond the double range
        evals = np.ldexp(scaled, -2 * e)
        min_eig, threshold = np.ldexp([decided.min_eigenvalue, decided.threshold], -2 * e)
    report = NegativeTypeReport(decided.is_negative_type, decided.is_strict, float(min_eig),
                                witness, float(threshold))
    return report, evals, vecs, scaled > decided.threshold


def _kernel_vector(U: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to the orthonormal columns of U ((n-1) x k,
    k < n-1): e_j with the columns projected out twice, j the row of least
    leverage, whose norm after one projection is at least (1 - k/(n-1))**0.5."""
    j = int(np.einsum("ij,ij->i", U, U).argmin())
    v = -(U @ U[j])
    v[j] += 1.0
    v -= U @ (U.T @ v)
    return v / np.linalg.norm(v)


def check_negative_type(X: FiniteMetricSpace, tol: float = DEFAULT_TOL) -> NegativeTypeReport:
    """Whether X is of negative type (equivalently, embeddable), with witness."""
    return spectral_decision(X, tol)[0]


def snowflake_decision(X: FiniteMetricSpace, alpha: float, tol: float, failure
                       ) -> FiniteMetricSpace:
    """The theorem's hypothesis on X, then X**alpha.

    X with ``points`` is Euclidean by construction, so the hypothesis holds.
    Otherwise the eigenvalues of X decide it when they show negative type, and
    ``check_negative_type`` when they do not: if X is not of negative type,
    raises ``failure`` (NotStrict or NotEmbeddable) with the eigenvalue,
    threshold and witness of X and the reason HYPOTHESIS_FAILS.  Returns
    X**alpha.
    """
    if X.points is None and not spectral_report(restricted_values(X)[0], tol).is_negative_type:
        hypothesis = check_negative_type(X, tol)
        if not hypothesis.is_negative_type:
            raise failure(hypothesis.min_eigenvalue, hypothesis.threshold,
                          witness=hypothesis.witness, reason=HYPOTHESIS_FAILS)
    return snowflake(X, alpha)


def check_strict_negative_type(
    X: FiniteMetricSpace,
    a: float,
    tol: float = DEFAULT_TOL,
) -> NegativeTypeReport:
    """Assert the snowflaked metric is of *strict* negative type.

    For Euclidean-embeddable X with distinct points and alpha in (0, 1)
    strictness is guaranteed; alpha = 1 is accepted as a contrast case but
    carries no guarantee (degenerate configurations then fail).  Raises
    NotStrict either when X itself is not of negative type (the hypothesis)
    or when the strictness margin is not met.  The snowflake is strict when its
    ``strict_factor`` exists, as in ``snowflake_embed``, and the report then
    comes from the eigenvalues, with no witness; otherwise the eigenpairs
    decide, so that a failure carries the eigenvector of the smallest
    eigenvalue.  X**1 with ``points`` (a point cloud at alpha = 1) is decided
    by its ``spectral_decision`` alone, from its coordinates, with no factor.
    """
    alpha = exponent_value(a)
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"strict negative type needs alpha in (0, 1], got {alpha!r}")
    Y = snowflake_decision(X, alpha, tol, NotStrict)
    if Y.points is None:
        evals, L, _, _ = strict_factor(Y, tol)
        if L is not None:
            return spectral_report(evals, tol)
    report = spectral_decision(Y, tol)[0]
    if not report.is_strict:
        raise NotStrict(report.min_eigenvalue, report.threshold, witness=report.witness,
                        reason="strictness margin not met")
    return report
