"""Quotient metrics of finite orthogonal actions and equivariant snowflake
embeddings into the canonical quotient target.

Given representatives of n free orbits under a finite orthogonal group G,
the orbit-lifted configuration Y (|Y| = n |G|) induces, through its
snowflaked squared distances, a G-invariant scalar product B on the
sum-zero subspace of R^(n|G|).  The symmetric square root T of B is an
explicit equivariant isometry onto the standard structure: placing point k
at ones/N + T e_(k, identity) inside the coordinate-sum-one hyperplane
realizes every snowflaked quotient distance as a minimum over the regular
permutation action.  The verification of that statement ships with the
embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    InvarianceViolation,
    MetricValidationError,
    NonFreeOrbit,
    OrbitCollision,
    VerificationFailure,
)
from .groups import OrthogonalAction
from .metric import SnowflakeExponent, exponent_value, pairwise_distances
from .negative_type import DEFAULT_TOL, centered_spectrum, gram_from_distances, spectral_threshold

SCALE_NOTE = (
    "distances are measured in the Euclidean structure induced on the "
    "coordinate-sum-one hyperplane by the snowflaked configuration; at "
    "alpha = 0 the embedded simplex has edge length 1, not the sqrt(2) of "
    "the raw coordinate simplex (a global scale choice)"
)


@dataclass(frozen=True)
class QuotientConfiguration:
    """Orbit-lifted point set with block indexing by (orbit, group element).

    ``lifted`` row k * |G| + h holds h . representatives[k]; the permutation
    for g sends that index to k * |G| + (g h), the left regular action on
    each block.
    """

    representatives: np.ndarray
    lifted: np.ndarray
    action_permutations: np.ndarray
    action: OrthogonalAction

    @property
    def n_orbits(self) -> int:
        return self.representatives.shape[0]

    @property
    def group_order(self) -> int:
        return self.action.group.order

    @property
    def size(self) -> int:
        return self.lifted.shape[0]


@dataclass(frozen=True)
class PairCheck:
    """One row of the verification report."""

    i: int
    j: int
    target: float
    achieved: float
    abs_error: float

    def to_dict(self) -> dict:
        return {"i": self.i, "j": self.j, "target": self.target,
                "achieved": self.achieved, "abs_error": self.abs_error}


@dataclass(frozen=True)
class QngEmbedding:
    """n points in the coordinate-sum-one hyperplane of R^(n|G|), verified.

    ``points`` rows sum to 1; ``gram_root`` is the equivariant symmetric
    square root T (annihilates the all-ones vector and commutes with every
    regular permutation); ``spectrum`` is the nonincreasing spectrum of the
    induced form, which has exactly one zero eigenvalue for free
    configurations and alpha < 1.  That trivial eigenvalue, along the
    all-ones vector, is reported as exactly 0.0; ``zero_eigenvalues`` counts
    those at most ``spectral_threshold(spectrum, tol)``.  ``equivariance_defect``
    (of T) was judged against ``equivariance_tol`` = (N tol (1 + max |B|))**0.5,
    and ``max_abs_error`` against ``verification_tol`` = tol * (1 +
    largest target).
    """

    points: np.ndarray
    gram_root: np.ndarray
    report: list[PairCheck]
    spectrum: np.ndarray
    zero_eigenvalues: int
    equivariance_defect: float
    equivariance_tol: float
    max_abs_error: float
    verification_tol: float
    scale_note: str = SCALE_NOTE


def quotient_distance(x, y, action: OrthogonalAction) -> float:
    """min over g of ||x - g . y||: the quotient metric between orbits."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape != (action.dim,) or y.shape != (action.dim,):
        raise DimensionMismatch(
            f"points of dimension {x.shape} / {y.shape} under an action on E^{action.dim}"
        )
    images = action.matrices @ y
    return float(np.linalg.norm(images - x[None, :], axis=1).min())


def lift_orbits(reps, action: OrthogonalAction, tol: float = DEFAULT_TOL) -> QuotientConfiguration:
    """Lift orbit representatives to the full configuration Y.

    Every orbit must be free and orbits must be disjoint: all n |G| lifted
    points pairwise separated by more than tol times the configuration
    scale, which must be finite.  Degenerate inputs are hard errors, not limits.
    """
    reps = np.atleast_2d(np.asarray(reps, dtype=float))
    if reps.shape[1] != action.dim:
        raise DimensionMismatch(
            f"representatives in E^{reps.shape[1]} under an action on E^{action.dim}"
        )
    if not np.isfinite(reps).all():
        raise MetricValidationError("coordinates must be finite")
    n = reps.shape[0]
    order = action.group.order
    size = n * order

    # lifted[k * order + h] = matrices[h] @ reps[k]
    lifted = np.einsum("hij,kj->khi", action.matrices, reps).reshape(size, action.dim)

    dists = pairwise_distances(lifted)
    scale = float(dists.max())
    if not np.isfinite(scale):  # distances overflow beyond about 1e154
        raise MetricValidationError("distances must be finite")
    close = np.triu(dists <= tol * scale, k=1)
    if close.any():
        p, q = divmod(int(close.argmax()), size)
        kp, hp = divmod(p, order)
        kq, hq = divmod(q, order)
        if kp == kq:
            raise NonFreeOrbit(kp, [hp, hq])
        raise OrbitCollision(kp, kq)

    # perms[g, k * order + h] = k * order + table[g, h]
    perms = (np.arange(n)[None, :, None] * order
             + action.group.table[:, None, :]).reshape(order, size)
    perms.flags.writeable = False
    lifted = lifted.copy()
    lifted.flags.writeable = False
    reps = reps.copy()
    reps.flags.writeable = False
    return QuotientConfiguration(
        representatives=reps,
        lifted=lifted,
        action_permutations=perms,
        action=action,
    )


def equivariance_defect(T, perms) -> float:
    """Largest entry of |T[ix_(s, s)] - T| over the rows s of ``perms``, which must be
    every element of a permutation group, such as ``QuotientConfiguration.action_permutations``:
    the entries of T pi - pi T, rearranged, for the permutation matrix pi with pi e_j = e_(s[j]).
    Exact, in one gather of N^2 entries: T's spread over orbits of pairs (i least in its orbit, j).
    """
    T = np.asarray(T, dtype=float)
    perms = np.asarray(perms)
    if perms.ndim != 2 or T.shape != (perms.shape[1],) * 2:
        raise DimensionMismatch(f"permutations of shape {perms.shape} against matrix {T.shape}")
    if not len(perms):
        return 0.0
    reps = np.flatnonzero(perms.min(axis=0) == np.arange(perms.shape[1]))
    return float(np.ptp(T[perms[:, reps, None], perms[:, None, :]], axis=0).max())


def _min_norm(diffs: np.ndarray) -> np.ndarray:
    """min over axis 1 of the Euclidean norms along axis 2, as np.linalg.norm
    takes them (the square root of a sum of squares), squaring in place."""
    np.multiply(diffs, diffs, out=diffs)
    return np.sqrt(np.add.reduce(diffs, axis=2)).min(axis=1)


def _judge_equivariance(M: np.ndarray, perms, limit: float) -> float:
    """The equivariance defect of M; InvarianceViolation when it exceeds ``limit``."""
    defect = equivariance_defect(M, perms)
    if not defect <= limit:
        raise InvarianceViolation(defect, limit)
    return defect


def qng_embed(
    Q: QuotientConfiguration,
    a: SnowflakeExponent | float,
    tol: float = DEFAULT_TOL,
) -> QngEmbedding:
    """Embed the snowflaked orbit space into the canonical quotient target.

    Pipeline: squared snowflaked distances of the lifted points; the induced
    form B = -1/2 P D P and its symmetric square root T, each checked to
    commute with every regular permutation; points ones/N + T e_(k, identity).
    The achieved quotient distances (minima over the permutation action) are
    verified against the snowflaked geometric quotient distances pair by
    pair.  Monotonicity of t -> t**alpha makes the minimizing group element
    agree with the geometric minimizer.

    Requires 0 <= alpha < 1; the alpha = 1 endpoint is excluded because the
    construction relies on the strict positivity of B on the sum-zero
    subspace, which can fail there.
    """
    alpha = exponent_value(a)
    if alpha >= 1.0:
        raise DomainError(f"quotient embedding needs alpha in [0, 1), got {alpha!r}")
    order = Q.group_order
    n = Q.n_orbits
    size = Q.size
    e_idx = Q.action.group.identity_index

    # at alpha = 0 the power is 1 everywhere, diagonal included
    D = pairwise_distances(Q.lifted) ** (2.0 * alpha)
    np.fill_diagonal(D, 0.0)
    B = gram_from_distances(D)

    form_tol = tol * (1.0 + float(np.abs(B).max()))
    _judge_equivariance(B, Q.action_permutations, form_tol)

    # The square root is taken on the sum-zero restriction so that T
    # annihilates the all-ones vector exactly; otherwise the trivial
    # eigenvalue of B (zero only up to round-off) leaks a sqrt(eps)-sized
    # component into every embedded point.
    mu, U = centered_spectrum(B)
    T = (U * np.sqrt(np.clip(mu, 0.0, None))) @ U.T
    T = 0.5 * (T + T.T)
    # T = sqrt(B), and ||sqrt(A) - sqrt(C)||_2 <= ||A - C||_2**0.5 for A, C >= 0 bounds
    # T's defect by B's limit; one linear in tol fails where B nears singularity
    root_tol = (size * form_tol) ** 0.5
    defect_T = _judge_equivariance(T, Q.action_permutations, root_tol)

    base = np.full(size, 1.0 / size)
    points = base[None, :] + T[:, np.arange(n) * order + e_idx].T

    # orbit i against every j > i at once: |x_i - g x_j| over all g, and
    # |p_i - pi p_j| over the regular permutations, in (n - i - 1, |G|, .)
    # blocks; the same operations as quotient_distance and a pair-by-pair
    # loop, so the same floats
    images = np.stack([Q.action.matrices @ x for x in Q.representatives])
    report = []
    for i in range(n - 1):
        targets = _min_norm(images[i + 1:] - Q.representatives[i])
        # take, unlike fancy indexing, lays the gather out C-contiguous, so
        # each norm sums one contiguous row as it does on a single pair
        permuted = np.take(points[i + 1:], Q.action_permutations, axis=1)
        np.subtract(permuted, points[i], out=permuted)
        achieved = _min_norm(permuted)
        for j, dist, a in zip(range(i + 1, n), targets.tolist(), achieved.tolist()):
            target = dist ** alpha
            report.append(PairCheck(i, j, target, a, abs(a - target)))

    # np.max, unlike max, keeps a nan, which then fails the verification
    max_err = float(np.max([row.abs_error for row in report], initial=0.0))
    verify_tol = tol * (1.0 + float(np.max([row.target for row in report], initial=0.0)))
    if not max_err <= verify_tol:
        raise VerificationFailure(max_err, verify_tol, report=report)

    # B is the restricted form plus the exact zero along the all-ones vector
    spectrum = np.sort(np.append(mu, 0.0))[::-1]
    for arr in (points, T, spectrum):
        arr.flags.writeable = False
    return QngEmbedding(
        points=points,
        gram_root=T,
        report=report,
        spectrum=spectrum,
        zero_eigenvalues=int(np.sum(spectrum <= spectral_threshold(spectrum, tol))),
        equivariance_defect=defect_T,
        equivariance_tol=root_tol,
        max_abs_error=max_err,
        verification_tol=verify_tol,
    )
