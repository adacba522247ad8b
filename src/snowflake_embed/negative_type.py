"""Quadratic forms of negative type and the one spectral decision.

A finite metric is of negative type when L D L^T <= 0 for every weight
vector L with zero sum, D being the squared-distance matrix; by Schoenberg's
criterion this is equivalent to isometric embeddability into Hilbert space.
The decision here is spectral: the condition holds iff -1/2 P D P
(P the centering projector) is positive semidefinite on the sum-zero
subspace, so we diagonalize that restriction instead of searching over L.
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


def centered_spectrum(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum of the symmetric form B on the sum-zero subspace.

    Returns ascending eigenvalues (length n-1) and the corresponding
    sum-zero eigenvectors as orthonormal columns of an (n, n-1) matrix.
    The basis is columns 1..n-1 of the Householder reflection
    H = I - c w w^T sending ones/sqrt(n) to -e_0; H B H is applied as a
    rank-2 update of B and H to the eigenvectors as a rank-1 update, so
    no n x n basis is formed.
    """
    n = B.shape[0]
    if n < 2:
        return np.zeros(0), np.zeros((n, 0))
    w = np.full(n, 1.0 / np.sqrt(n))
    w[0] += 1.0
    c = 2.0 / (w @ w)
    Bw = B @ w
    # H B H = B - w y^T - y w^T
    y = c * Bw - 0.5 * c * c * (w @ Bw) * w
    w1, y1 = w[1:], y[1:]
    M = B[1:, 1:] - (np.outer(w1, y1) + np.outer(y1, w1))
    evals, W = np.linalg.eigh(M)
    vecs = np.vstack([np.zeros((1, n - 1)), W]) - c * np.outer(w, w1 @ W)
    return evals, vecs


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


def spectral_decision(X: FiniteMetricSpace, tol: float = DEFAULT_TOL):
    """The one spectral decision on X, from -1/2 P D P on the sum-zero subspace.

    X is of negative type when no eigenvalue lies below minus
    ``spectral_threshold``, strictly so when all lie above it, and the
    eigenpairs above it are kept.  Unless strict, the witness is the
    eigenvector of the smallest eigenvalue.  Returns the report, the ascending
    eigenvalues, the (n, n-1) sum-zero eigenvectors and the kept mask.
    """
    evals, vecs = centered_spectrum(gram_from_distances(X.d ** 2))
    threshold = spectral_threshold(evals, tol)
    min_eig = float(evals.min(initial=np.inf))
    strict = min_eig > threshold
    report = NegativeTypeReport(min_eig >= -threshold, strict, min_eig,
                                None if strict else vecs[:, 0], threshold)
    return report, evals, vecs, evals > threshold


def check_negative_type(X: FiniteMetricSpace, tol: float = DEFAULT_TOL) -> NegativeTypeReport:
    """Whether X is of negative type (equivalently, embeddable), with witness."""
    return spectral_decision(X, tol)[0]


def snowflake_decision(X: FiniteMetricSpace, alpha: float, tol: float, failure):
    """The theorem's test: decide X (the hypothesis), then X**alpha.

    When X is not of negative type, raises ``failure`` (NotStrict or
    NotEmbeddable) with the eigenvalue, threshold and witness of X and the
    reason HYPOTHESIS_FAILS.  Otherwise returns X**alpha and its
    ``spectral_decision``.
    """
    hypothesis = check_negative_type(X, tol)
    if not hypothesis.is_negative_type:
        raise failure(hypothesis.min_eigenvalue, hypothesis.threshold,
                      witness=hypothesis.witness, reason=HYPOTHESIS_FAILS)
    Y = snowflake(X, alpha)
    return Y, spectral_decision(Y, tol)


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
    or when the strictness margin is not met.
    """
    alpha = exponent_value(a)
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"strict negative type needs alpha in (0, 1], got {alpha!r}")
    _, (report, *_) = snowflake_decision(X, alpha, tol, NotStrict)
    if not report.is_strict:
        raise NotStrict(report.min_eigenvalue, report.threshold, witness=report.witness,
                        reason="strictness margin not met")
    return report
