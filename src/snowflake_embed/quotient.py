"""Quotient metrics of finite orthogonal actions and equivariant snowflake
embeddings into the canonical quotient target.

Given representatives of n free orbits under a finite orthogonal group G,
the orbit-lifted configuration Y (|Y| = n |G|) induces, through its
snowflaked squared distances, a G-invariant scalar product B on the
sum-zero subspace of R^(n|G|).  G acts by isometries, so those distances are
gathered from the n x n x |G| orbit distances, and B is invariant by
construction.  The symmetric square root T of B is an explicit
equivariant isometry onto the standard structure: placing point k
at ones/N + T e_(k, identity) inside the coordinate-sum-one hyperplane
realizes every snowflaked quotient distance as a minimum over the regular
permutation action.  The verification of that statement ships with the
embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
from .groups import FiniteGroup, OrthogonalAction
from .embedding import check_point_count
from .metric import exponent_value, orbit_distances, verified_distances
from .negative_type import DEFAULT_TOL, centered_spectrum, gram_from_distances, spectral_threshold

SCALE_NOTE = (
    "distances are measured in the Euclidean structure induced on the "
    "coordinate-sum-one hyperplane by the snowflaked configuration; at "
    "alpha = 0 the embedded simplex has edge length 1, not the sqrt(2) of "
    "the raw coordinate simplex (a global scale choice)"
)


@dataclass(frozen=True)
class QuotientConfiguration:
    """Free, disjoint orbits with block indexing by (orbit, group element).

    Lifted index k * |G| + h stands for h . representatives[k]; the permutation
    for g sends that index to k * |G| + (g h), the left regular action on
    each block.  ``distances`` is the read-only orbit-distance array
    F[k, l, g] = ||g . x_l - x_k|| on which ``lift_orbits`` judged the orbits.
    """

    representatives: np.ndarray
    action: OrthogonalAction
    distances: np.ndarray

    @property
    def n_orbits(self) -> int:
        return self.representatives.shape[0]

    @property
    def group_order(self) -> int:
        return self.action.group.order

    @property
    def size(self) -> int:
        return self.n_orbits * self.group_order

    @cached_property
    def action_permutations(self) -> np.ndarray:
        """perms[g, k * |G| + h] = k * |G| + table[g, h], one row per group element."""
        order = self.group_order
        perms = (np.arange(self.n_orbits)[None, :, None] * order
                 + self.action.group.table[:, None, :]).reshape(order, self.size)
        perms.flags.writeable = False
        return perms


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
    (of T) was judged against ``equivariance_tol`` = (N tol (1 + max |B|))**0.5, the
    square root's bound on the round-off of B's centring, and ``max_abs_error``
    against ``verification_tol`` = tol * (1 + largest target).  ``report`` is the
    verification, one record per pair of orbits i < j in row-major order, with
    fields ``i, j, target, achieved, abs_error``.  ``achieved``, min over the regular
    permutations pi of |p_i - pi p_j|, is ``verified_distances``' Gram estimate within
    its stated bound, or for the pairs that bound leaves undecided the direct value.
    """

    points: np.ndarray
    gram_root: np.ndarray
    report: np.recarray
    spectrum: np.ndarray
    zero_eigenvalues: int
    equivariance_defect: float
    equivariance_tol: float
    max_abs_error: float
    verification_tol: float
    scale_note: str = SCALE_NOTE


def _orbit_images(reps: np.ndarray, action: OrthogonalAction) -> np.ndarray:
    """images[l, g] = g . x_l.  With F = orbit_distances(reps, images), the lifted distance
    ||h . x_k - h' . x_l|| is F[k, l, h^-1 h'], and orbits k, l are min over g of F apart."""
    return np.stack([action.matrices @ x for x in reps])


def quotient_distance(x, y, action: OrthogonalAction) -> float:
    """min over g of ||x - g . y||: the quotient metric between orbits."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape != (action.dim,) or y.shape != (action.dim,):
        raise DimensionMismatch(
            f"points of dimension {x.shape} / {y.shape} under an action on E^{action.dim}"
        )
    return float(orbit_distances(x[None], _orbit_images(y[None], action)).min())


def lift_orbits(reps, action: OrthogonalAction, tol: float = DEFAULT_TOL) -> QuotientConfiguration:
    """Check that the representatives' orbits lift to a free configuration Y.

    Y has n |G| <= MAX_POINTS points (else DomainError, before any orbit distance is
    formed).  Every orbit must be free and orbits must be disjoint: all lifted points
    pairwise separated by more than tol times the configuration scale, which must be
    finite, judged on the orbit distances; the first close pair in row-major lifted
    order names the failure.  Degenerate inputs are hard errors.
    """
    reps = np.atleast_2d(np.asarray(reps, dtype=float))
    if not reps.size:
        raise DimensionMismatch("no representatives: the quotient needs at least one orbit")
    if reps.shape[1] != action.dim:
        raise DimensionMismatch(f"representatives in E^{reps.shape[1]} under an action on "
                                f"E^{action.dim}")
    if not np.isfinite(reps).all():
        raise MetricValidationError("coordinates must be finite")
    n = reps.shape[0]
    group = action.group
    order = group.order
    check_point_count(n * order)

    F = orbit_distances(reps, _orbit_images(reps, action))
    scale = float(F.max())
    if not np.isfinite(scale):  # distances overflow beyond about 1e154
        raise MetricValidationError("distances must be finite")
    close = F <= tol * scale
    close[np.arange(n), np.arange(n), group.identity_index] = False
    if close.any():
        # (k, l, g) and (l, k, g^-1) are one pair, which round-off may judge apart; the
        # lifted pair ((k, h), (l, h')) is (k, l, h^-1 h')
        close |= close.transpose(1, 0, 2)[:, :, group.inverse]
        size = n * order
        lifted = close[:, :, group.table[group.inverse]].transpose(0, 2, 1, 3).reshape(size, size)
        p, q = divmod(int(np.triu(lifted, k=1).argmax()), size)
        kp, hp = divmod(p, order)
        kq, hq = divmod(q, order)
        if kp == kq:
            raise NonFreeOrbit(kp, [hp, hq])
        raise OrbitCollision(kp, kq)

    reps = reps.copy()
    reps.flags.writeable = False
    F.flags.writeable = False
    return QuotientConfiguration(representatives=reps, action=action, distances=F)


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


def _largest_cycle(group: FiniteGroup) -> np.ndarray:
    """The powers g^0, ..., g^(r - 1) of the first element g of largest order r in the table."""
    rng = np.arange(group.order)
    powers = [np.full(group.order, group.identity_index), rng]  # powers[k][h] = h^k
    orders = np.zeros(group.order, dtype=int)
    while not orders.all():
        orders[(powers[-1] == group.identity_index) & (orders == 0)] = len(powers) - 1
        powers.append(group.table[powers[-1], rng])
    g = int(np.argmax(orders))
    return np.array([power[g] for power in powers[:orders[g]]])


def _root(lam: np.ndarray, V: np.ndarray) -> np.ndarray:
    """V diag(sqrt(lam)) V^H for (stacks of) eigenpairs, negative round-off in lam clipped."""
    return (V * np.sqrt(np.clip(lam, 0.0, None))[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)


def _cyclic_root(B: np.ndarray, cycles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonincreasing spectrum of B, with the exact 0.0 along the all-ones vector, and
    its symmetric square root T, for B invariant under a permutation g whose
    M = N / r cycles of length r are the columns of ``cycles``, each from its least index.

    Along the cycles, (a, s) -> g^s . start_a, B is block-circulant with M x M
    blocks F_s = B[(a, 0), (b, s)].  Their discrete Fourier transform splits B
    into the r // 2 + 1 Hermitian blocks of its rfft; block k with 0 < k < r/2
    stands for its conjugate r - k as well, so its eigenvalues count twice.  Block 0
    holds the all-ones vector and is restricted to the sum-zero subspace as B was,
    so that T annihilates that vector exactly; otherwise the trivial eigenvalue (zero
    only up to round-off) leaks a sqrt(eps)-sized component into every embedded
    point.  T is the inverse transform of the blockwise roots, so it commutes with g
    exactly; its other invariances are left to the caller to check.
    """
    r, size = cycles.shape[0], cycles.size
    blocks = np.fft.rfft(B[cycles[0][None, :, None], cycles[:, None, :]], axis=0)
    half = (r + 1) // 2  # blocks 1 .. half - 1 are complex; block half is real when r is even
    mu, U = centered_spectrum(np.ascontiguousarray(blocks[0].real))
    lam, V = np.linalg.eigh(blocks[1:half])
    nyq, W = np.linalg.eigh(blocks[half:].real)
    roots = np.empty_like(blocks)
    roots[0], roots[1:half], roots[half:] = _root(mu, U), _root(lam, V), _root(nyq, W)
    G = np.fft.irfft(roots, n=r, axis=0)
    # T[cycles[s, a], cycles[t, b]] = G[t - s mod r, a, b]: built at row s M + a and
    # column t M + b, then gathered back to the lifted order
    shift = (np.arange(r)[None, :] - np.arange(r)[:, None]) % r
    T = G[shift].transpose(0, 2, 1, 3).reshape(size, size)
    at = np.empty(size, dtype=int)
    at[cycles.ravel()] = np.arange(size)
    T = T[at[:, None], at[None, :]]
    spectrum = np.concatenate([mu, [0.0], lam.ravel(), lam.ravel(), nyq.ravel()])
    return np.sort(spectrum)[::-1], 0.5 * (T + T.T)


def qng_embed(
    Q: QuotientConfiguration,
    a: float,
    tol: float = DEFAULT_TOL,
) -> QngEmbedding:
    """Embed the snowflaked orbit space into the canonical quotient target.

    Pipeline: squared snowflaked distances of the lifted points, gathered from the
    orbit distances F = ``Q.distances`` symmetrised as min(F[k, l, g], F[l, k, g^-1])
    and so exactly symmetric and invariant; the induced form B = -1/2 P D P and its symmetric
    square root T, checked to commute with every regular permutation; points
    ones/N + T e_(k, identity).  Spectrum and root are taken blockwise over the
    cycles of the first element of largest order (``_cyclic_root``), in r-fold
    smaller eigenproblems.  The achieved quotient distances (minima over the
    permutation action, by ``verified_distances``) are verified against the snowflaked
    geometric quotient distances, min over g of F, pair by pair.  Monotonicity of
    t -> t**alpha makes the minimizing group element agree with the geometric minimizer.

    Requires 0 <= alpha < 1; the alpha = 1 endpoint is excluded because the
    construction relies on the strict positivity of B on the sum-zero
    subspace, which can fail there.
    """
    alpha = exponent_value(a)
    if alpha >= 1.0:
        raise DomainError(f"quotient embedding needs alpha in [0, 1), got {alpha!r}")
    group = Q.action.group
    order = Q.group_order
    n = Q.n_orbits
    size = Q.size
    e_idx = group.identity_index

    F = Q.distances
    power = np.minimum(F, F.transpose(1, 0, 2)[:, :, group.inverse]) ** (2.0 * alpha)
    # D[(k, h), (l, h')] = power[k, l, h^-1 h']; at alpha = 0 the power is 1
    # everywhere, the lifted diagonal included
    power[np.arange(n), np.arange(n), e_idx] = 0.0
    D = power[:, :, group.table[group.inverse]].transpose(0, 2, 1, 3).reshape(size, size)
    B = gram_from_distances(D)

    cycles = Q.action_permutations[_largest_cycle(group)]
    spectrum, T = _cyclic_root(B, cycles[:, cycles.min(axis=0) == cycles[0]])
    # B is invariant up to its centring's round-off, within tol (1 + max |B|), which
    # ||sqrt(A) - sqrt(C)||_2 <= ||A - C||_2**0.5 for A, C >= 0 turns into T's limit
    root_tol = (size * (tol * (1.0 + float(np.abs(B).max())))) ** 0.5
    del D, B  # N x N each, freed before the N x N gather and images below
    defect_T = equivariance_defect(T, Q.action_permutations)
    if not defect_T <= root_tol:
        raise InvarianceViolation(defect_T, root_tol)

    base = np.full(size, 1.0 / size)
    points = base[None, :] + T[:, np.arange(n) * order + e_idx].T

    # targets, min over g of |x_i - g x_j|, are quotient_distance's floats
    pairs = np.triu_indices(n, k=1)
    target = F.min(axis=2)[pairs] ** alpha
    verify_tol = tol * (1.0 + float(np.max(target, initial=0.0)))
    achieved = verified_distances(points, points[:, Q.action_permutations], pairs, target,
                                  verify_tol)
    report = np.rec.fromarrays([*pairs, target, achieved, np.abs(achieved - target)],
                               names="i,j,target,achieved,abs_error")
    # np.max, unlike max, keeps a nan, which then fails the verification
    max_err = float(np.max(report.abs_error, initial=0.0))
    if not max_err <= verify_tol:
        raise VerificationFailure(max_err, verify_tol, report=report)

    for arr in (points, T, spectrum, report):
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
