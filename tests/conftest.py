import numpy as np
import pytest

from snowflake_embed.errors import (DimensionMismatch, DomainError, MetricValidationError,
                                    NonFreeOrbit, NotOrthogonal, NumericalAmbiguity,
                                    OrbitCollision, OrderExceeded)
from snowflake_embed.groups import HOMOMORPHISM_TOL, FiniteGroup, OrthogonalAction
from snowflake_embed.metric import pairwise_distances


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def make_cloud(rng):
    """Random point cloud with a guaranteed minimum pairwise separation."""

    def _make(n, m, scale=1.0, min_sep=1e-2):
        for _ in range(200):
            pts = rng.normal(size=(n, m)) * scale
            if n < 2:
                return pts
            diff = pts[:, None, :] - pts[None, :, :]
            d = np.sqrt((diff ** 2).sum(axis=-1))
            if d[~np.eye(n, dtype=bool)].min() > min_sep:
                return pts
        raise AssertionError("could not draw a separated cloud")

    return _make


@pytest.fixture
def make_metric(rng):
    """Random (generically non-Euclidean) metric: shortest-path completion
    of random positive edge weights.  Two passes so the triangle inequality
    holds to the last ulp."""

    def _make(n):
        w = rng.uniform(0.5, 2.0, size=(n, n))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        for _ in range(2):
            for k in range(n):
                w = np.minimum(w, w[:, [k]] + w[[k], :])
        return w

    return _make


@pytest.fixture
def claw_matrix():
    """The 4-point metric d(A,B) = 2, all other distances 1: the standard
    example of a metric that is not of negative type."""
    return np.array([
        [0.0, 2.0, 1.0, 1.0],
        [2.0, 0.0, 1.0, 1.0],
        [1.0, 1.0, 0.0, 1.0],
        [1.0, 1.0, 1.0, 0.0],
    ])


@pytest.fixture(scope="session")
def dense_permutations():
    """Reference permutation matrices of a quotient configuration: the
    matrix for row s of ``action_permutations`` sends e_j to e_(s[j])."""

    def _dense(config):
        eye = np.eye(config.size)
        return [eye[:, s] for s in config.action_permutations]

    return _dense


def _lifted_points(config):
    """Row k * |G| + h holds h . representatives[k]."""
    return np.einsum("hij,kj->khi", config.action.matrices,
                     config.representatives).reshape(config.size, config.action.dim)


@pytest.fixture(scope="session")
def lifted_points():
    """The orbit-lifted points of a quotient configuration, in its block order."""
    return _lifted_points


def _reference_lift_orbits(reps, action, tol=1e-9):
    """Freeness and disjointness judged on the Euclidean distances of all
    n |G| lifted points: the first close pair in row-major order names the
    failure; otherwise the regular permutations."""
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
    lifted = np.einsum("hij,kj->khi", action.matrices, reps).reshape(size, action.dim)
    dists = pairwise_distances(lifted)
    scale = float(dists.max())
    if not np.isfinite(scale):
        raise MetricValidationError("distances must be finite")
    close = np.triu(dists <= tol * scale, k=1)
    if close.any():
        p, q = divmod(int(close.argmax()), size)
        kp, hp = divmod(p, order)
        kq, hq = divmod(q, order)
        if kp == kq:
            raise NonFreeOrbit(kp, [hp, hq])
        raise OrbitCollision(kp, kq)
    return (np.arange(n)[None, :, None] * order
            + action.group.table[:, None, :]).reshape(order, size)


@pytest.fixture(scope="session")
def reference_lift_orbits():
    """The freeness scan over the pairwise distances of the lifted points, as it
    was before the orbit distances: ``lift_orbits`` must raise the same
    exceptions with the same fields, and otherwise give these permutations."""
    return _reference_lift_orbits


def _reference_identify(stack, candidates, tol):
    dist = np.zeros((len(candidates), len(stack)))
    for c, s in zip(candidates.reshape(len(candidates), -1).T, stack.reshape(len(stack), -1).T):
        np.maximum(dist, np.abs(c[:, None] - s[None]), out=dist)
    best = dist.min(axis=1)
    new = best > tol
    if new.any() and best[new.argmax()] <= 10.0 * tol:
        raise NumericalAmbiguity(best[new.argmax()], tol)
    return np.where(new, -1, dist.argmin(axis=1))


def _reference_close_group(generators, tol=1e-8, max_order=1024):
    """Group closure one product at a time, each identified against the whole
    stack, and the table by nearest-matrix search over all elements."""
    if not 0.0 <= tol < 1.0:
        raise DomainError(f"identification tolerance must lie in [0, 1), got {tol!r}")
    gens = [np.asarray(g, dtype=float) for g in generators]
    if not gens:
        raise ValueError("need at least one generator; use trivial_action for the trivial group")
    shape = gens[0].shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatch(f"generator 0 has shape {shape}, expected a square matrix")
    m = shape[0]
    for idx, g in enumerate(gens):
        if g.shape != (m, m):
            raise DimensionMismatch(f"generator {idx} has shape {g.shape}, expected ({m}, {m})")
        defect = np.abs(g.T @ g - np.eye(m)).max()
        if not defect <= tol:
            raise NotOrthogonal(idx, defect)
        u, _, vt = np.linalg.svd(g)
        gens[idx] = u @ vt

    stack = np.empty((max(max_order, 1), m, m))
    stack[0] = np.eye(m)
    order = 1
    i = 0
    while i < order:
        for g in gens:
            prod = stack[i] @ g
            if _reference_identify(stack[:order], prod[None], tol)[0] < 0:
                if order >= max_order:
                    raise OrderExceeded(max_order)
                stack[order] = prod
                order += 1
        i += 1

    stack = stack[:order]
    gap = max(np.abs(stack - g).max(axis=(1, 2)).min() for g in gens)
    if gap > HOMOMORPHISM_TOL:
        raise NumericalAmbiguity(gap, tol)
    table = np.empty((order, order), dtype=int)
    for i in range(order):
        table[i] = _reference_identify(stack, stack[i] @ stack, tol)
        if table[i].min() < 0:
            raise NumericalAmbiguity(np.inf, tol)
    try:
        return OrthogonalAction(group=FiniteGroup.from_table(table), dim=m, matrices=stack)
    except ValueError as exc:
        worst = max(np.abs(stack[table[i]] - stack[i] @ stack).max() for i in range(order))
        raise NumericalAmbiguity(worst, tol) from exc


@pytest.fixture(scope="session")
def reference_close_group():
    """The closure as it was before the batched search: the oracle that
    ``close_group`` must match bit for bit, exceptions included."""
    return _reference_close_group
