"""Oracles of the paper's identities, written from their statements.

The library decides negative type, strictness and full rank spectrally; these
functions evaluate the identities behind those decisions directly, so that the
tests can check the decisions and the identities against each other.
"""

from dataclasses import replace

import numpy as np

from snowflake_embed import check_negative_type, euclidean_metric
from snowflake_embed.metric import pairwise_distances
from snowflake_embed.schoenberg import power_kernel_integral, schoenberg_constant


def geometric_form_check(P, lam):
    """Both sides of the centroid identity L D L^T = -2 |x+ - x-|^2.

    The weights split into a nonnegative part summing to +1 and a nonpositive
    part summing to -1; x+ and x- are the convex combinations of the points
    with weights lam_i and |lam_i| of those parts.  Coincident points are allowed.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    lam = np.asarray(lam, dtype=float)
    pos, neg = lam > 0.0, lam < 0.0
    assert abs(lam[pos].sum() - 1.0) <= 1e-12 and abs(lam[neg].sum() + 1.0) <= 1e-12
    lhs = float(lam @ pairwise_distances(P) ** 2 @ lam)
    gap = lam[pos] @ P[pos] - (-lam[neg]) @ P[neg]
    return lhs, -2.0 * float(gap @ gap)


def general_position_certificate(P, tol=1e-9):
    """The negative-type report of the points' Euclidean metric: the points are
    affinely independent iff it is strict, and otherwise its witness is a
    sum-zero affine dependence.  A Euclidean metric is of negative type."""
    return replace(check_negative_type(euclidean_metric(P), tol), is_negative_type=True)


def gaussian_kernel_matrix(P, lam):
    """S[i][j] = exp(-lam^2 ||p_i - p_j||^2)."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    return np.exp(-(lam * lam) * pairwise_distances(P) ** 2)


def check_kernel_psd(S, tol=1e-10):
    """(smallest eigenvalue >= -tol, smallest eigenvalue) over all weight
    vectors, not just sum-zero ones."""
    min_eig = float(np.linalg.eigvalsh(S)[0])
    return min_eig >= -tol, min_eig


def strict_decomposition_check(P, a, lam):
    """Both sides of the kernel decomposition of the snowflaked form.

    For sum-zero weights L over distinct points, L D^a L^T (D^a the squared
    snowflaked distances) equals c(a) times the integral of L (-S(lam)) L^T
    lam^(-1-2a), S the Gaussian kernel matrix; the constant-one kernel terms
    cancel because L sums to zero.  Returns (form, integral); for nonzero L
    the form is strictly negative.
    """
    lam = np.asarray(lam, dtype=float)
    d = euclidean_metric(P).d
    form = float(lam @ (d ** (2.0 * a)) @ lam)
    iu, ju = np.triu_indices(len(lam), k=1)
    terms = [(2.0 * lam[i] * lam[j], d[i, j]) for i, j in zip(iu, ju)]
    return form, schoenberg_constant(a) * power_kernel_integral(terms, a)
