"""Finite groups of orthogonal matrices: closure from generators, validation.

Actions are linear orthogonal (origin-fixing).  General isometric actions
reduce to this case: a finite isometry group fixes the barycenter of any
orbit, so conjugating by a translation makes it linear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, DomainError, NotOrthogonal, NumericalAmbiguity,
                     OrderExceeded)

#: Entrywise tolerance for identifying two matrices as the same group element.
IDENTIFICATION_TOL = 1e-8

#: Invariant bounds for a validated action.
ORTHOGONALITY_TOL = 1e-10
HOMOMORPHISM_TOL = 1e-9

DEFAULT_MAX_ORDER = 1024


def _generating_set(table: np.ndarray, identity: int) -> list[int]:
    """Generators of a Latin square with identity, read greedily off the table:
    each element outside the closure of those before it, a closure that holds
    the identity.  A proper closure is at most half the next, so they are few."""
    reached = np.arange(len(table)) == identity
    gens = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        reached[gens[-1]] = True
        while not reached[products := table[np.ix_(reached, reached)]].all():
            reached[products] = True
    return gens


@dataclass(frozen=True)
class FiniteGroup:
    """Abstract finite group: multiplication table over element indices."""

    order: int
    table: np.ndarray
    identity_index: int
    inverse: np.ndarray

    @classmethod
    def from_table(cls, table) -> "FiniteGroup":
        """Validate a multiplication table and derive identity and inverses."""
        table = np.asarray(table, dtype=int)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise DimensionMismatch(f"multiplication table must be square, got {table.shape}")
        order = table.shape[0]
        rng = np.arange(order)
        if table.min(initial=0) < 0 or table.max(initial=-1) >= order:
            raise ValueError("table entries must be element indices")
        # seen[0, g, x]: x occurs in row g; seen[1, x, h]: x occurs in column h
        seen = np.zeros((2, order, order), dtype=bool)
        seen[0, rng[:, None], table] = seen[1, table, rng] = True
        latin = seen[0].all(axis=1) & seen[1].all(axis=0)
        if not latin.all():
            raise ValueError(f"table is not a Latin square at row/column {np.argmin(latin)}")

        is_identity = (table == rng).all(axis=1) & (table == rng[:, None]).all(axis=0)
        if not is_identity.any():
            raise ValueError("table has no identity element")
        identity = int(np.argmax(is_identity))

        # rows are permutations, so each holds the identity exactly once
        inverse = np.argmax(table == identity, axis=1)
        two_sided = table[inverse, rng] == identity
        if not two_sided.all():
            raise ValueError(f"element {np.argmin(two_sided)} has no two-sided inverse")

        # Light's test: a magma generated by S is associative iff (x s) y = x (s y)
        # for all x, y and every s in S (Clifford & Preston, vol. I, 1961, sec. 1.2)
        for s in _generating_set(table, identity):
            left, right = table[table[:, s]], table[:, table[s]]
            if not np.array_equal(left, right):
                a, c = np.argwhere(left != right)[0]
                raise ValueError(f"table is not associative at ({a}, {s}, {c})")

        table = table.copy()
        table.flags.writeable = False
        inverse.flags.writeable = False
        return cls(order=order, table=table, identity_index=int(identity), inverse=inverse)


@dataclass(frozen=True)
class OrthogonalAction:
    """A finite group realized by orthogonal matrices on E^m."""

    group: FiniteGroup
    dim: int
    matrices: np.ndarray

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        if mats.shape != (self.group.order, self.dim, self.dim):
            raise DimensionMismatch(
                f"expected {self.group.order} matrices of size {self.dim}, got {mats.shape}"
            )
        # each gate reads "not defect <= limit", so a nan defect fails it
        eye = np.eye(self.dim)
        defects = np.abs(mats.transpose(0, 2, 1) @ mats - eye).max(axis=(1, 2))
        g = int(np.argmin(defects <= ORTHOGONALITY_TOL))
        if not defects[g] <= ORTHOGONALITY_TOL:
            raise NotOrthogonal(g, defects[g])
        if not np.abs(mats[self.group.identity_index] - eye).max() <= ORTHOGONALITY_TOL:
            raise ValueError("identity element is not realized by the identity matrix")

        # one row of the table at a time keeps the temporaries at order m^2
        for g, row in enumerate(self.group.table):
            defects = np.abs(mats[row] - mats[g] @ mats)
            if not defects.max() <= HOMOMORPHISM_TOL:  # one flat reduction per row that holds
                defects = defects.max(axis=(1, 2))
                h = int(np.argmin(defects <= HOMOMORPHISM_TOL))
                raise ValueError(f"matrices do not respect the table at ({g}, {h}): "
                                 f"defect {defects[h]!r}")
        mats = mats.copy()
        mats.flags.writeable = False
        object.__setattr__(self, "matrices", mats)


def _distances(candidates: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Entrywise max distance of each candidate to each element, shape
    (candidates, elements); entry by entry, so temporaries stay that size."""
    dist = np.zeros((len(candidates), len(elements)))
    for c, s in zip(candidates.reshape(len(candidates), -1).T,
                    elements.reshape(len(elements), -1).T):
        np.maximum(dist, np.abs(c[:, None] - s[None]), out=dist)
    return dist


def close_group(
    generators,
    tol: float = IDENTIFICATION_TOL,
    max_order: int = DEFAULT_MAX_ORDER,
) -> OrthogonalAction:
    """Close a set of orthogonal generators under multiplication.

    Generators are projected to the nearest exactly-orthogonal matrix (polar
    factor) after the orthogonality gate, so long products do not drift.
    Element identification is entrywise within ``tol``, which lies in [0, 1);
    products landing in the band (tol, 10 tol] raise NumericalAmbiguity, as
    does a generator that ``tol`` merges into an element it does not equal.
    So the elements lie more than 10 tol apart.

    The breadth-first search admits each element as an earlier one times a
    generator, so the multiplication table follows from its search tree by
    integer lookups.  Every product stack[g] @ stack[h] is then compared
    with its entry: within tol, the entry is its unique nearest element.  A
    product that misses its entry takes the element within tol of it; the
    first in row-major order without one raises NumericalAmbiguity with its
    nearest distance if that lies in (tol, 10 tol], else with inf.  The cost
    is about order^2 (k m^2 + m^3) for k generators on E^m.
    """
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
        if not defect <= tol:  # also catches nan
            raise NotOrthogonal(idx, defect)
        u, _, vt = np.linalg.svd(g)
        gens[idx] = u @ vt
    gens = np.stack(gens)

    # breadth-first: stack[i] is expanded once every element before it has
    # been, by all generators at once; each product is identified against
    # stack[:order], including the products of its batch admitted before it.
    # right[i, s] is the element identified with stack[i] @ gens[s], and
    # element j was admitted as stack[parent[j]] @ gens[via[j]]
    stack = np.empty((max(max_order, 1), m, m))
    stack[0] = np.eye(m)
    right = np.empty((len(stack), len(gens)), dtype=int)
    parent, via = np.zeros(len(stack), dtype=int), np.zeros(len(stack), dtype=int)
    order = 1
    i = 0
    while i < order:
        prods = stack[i] @ gens
        dist = _distances(prods, stack[:order])
        best, right[i] = dist.min(axis=1), dist.argmin(axis=1)
        batch = order
        # a product within tol of an earlier element stays within tol of it
        for s in np.flatnonzero(best > tol):
            near = np.abs(stack[batch:order] - prods[s]).max(axis=(1, 2))
            nearest = near.min(initial=best[s])
            if nearest <= tol:
                right[i, s] = batch + near.argmin()
                continue
            if nearest <= 10.0 * tol:
                raise NumericalAmbiguity(nearest, tol)
            if order >= max_order:
                raise OrderExceeded(max_order)
            stack[order], right[i, s], parent[order], via[order] = prods[s], order, i, s
            order += 1
        i += 1

    stack = stack[:order]
    gap = _distances(gens, stack).min(axis=1).max()
    if gap > HOMOMORPHISM_TOL:
        raise NumericalAmbiguity(gap, tol)
    # g stack[j] = (g stack[parent[j]]) gens[via[j]], column by column
    table = np.empty((order, order), dtype=int)
    table[:, 0] = np.arange(order)
    for j in range(1, order):
        table[:, j] = right[table[:, parent[j]], via[j]]
    for g in range(order):
        prods = stack[g] @ stack
        for h in np.flatnonzero(np.abs(prods - stack[table[g]]).max(axis=(1, 2)) > tol):
            dist = np.abs(stack - prods[h]).max(axis=(1, 2))
            nearest = dist.min()
            if nearest > tol:
                raise NumericalAmbiguity(nearest if nearest <= 10.0 * tol else np.inf, tol)
            table[g, h] = dist.argmin()
    try:
        return OrthogonalAction(group=FiniteGroup.from_table(table), dim=m, matrices=stack)
    except ValueError as exc:
        # a tol looser than HOMOMORPHISM_TOL can match a product to an element it
        # does not equal, so the table is no group or the matrices break it
        worst = max(np.abs(stack[table[i]] - stack[i] @ stack).max() for i in range(order))
        raise NumericalAmbiguity(worst, tol) from exc


def trivial_action(dim: int) -> OrthogonalAction:
    """The one-element group acting on E^dim."""
    group = FiniteGroup.from_table(np.zeros((1, 1), dtype=int))
    return OrthogonalAction(group=group, dim=dim, matrices=np.eye(dim)[None])


def reflection_action() -> OrthogonalAction:
    """C_2 acting on E^1 by sign flip."""
    return close_group([np.array([[-1.0]])])


def rotation_action(k: int) -> OrthogonalAction:
    """Cyclic C_k acting on E^2 by rotations through 2 pi / k."""
    theta = 2.0 * np.pi / k
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return close_group([rot])


def dihedral_action(k: int) -> OrthogonalAction:
    """Dihedral group of order 2k on E^2: rotation plus a mirror."""
    theta = 2.0 * np.pi / k
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    mirror = np.diag([1.0, -1.0])
    return close_group([rot, mirror])
