"""Finite groups of orthogonal matrices: closure from generators, validation.

Actions are linear orthogonal (origin-fixing).  General isometric actions
reduce to this case: a finite isometry group fixes the barycenter of any
orbit, so conjugating by a translation makes it linear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotOrthogonal,
    NumericalAmbiguity,
    OrderExceeded,
)

#: Entrywise tolerance for identifying two matrices as the same group element.
IDENTIFICATION_TOL = 1e-8

#: Invariant bounds for a validated action.
ORTHOGONALITY_TOL = 1e-10
HOMOMORPHISM_TOL = 1e-9

#: Associativity is checked exhaustively up to this order, sampled above.
_EXHAUSTIVE_ORDER = 64

DEFAULT_MAX_ORDER = 1024


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
        for g in range(order):
            if sorted(table[g]) != list(rng) or sorted(table[:, g]) != list(rng):
                raise ValueError(f"table is not a Latin square at row/column {g}")

        identity = None
        for g in range(order):
            if np.array_equal(table[g], rng) and np.array_equal(table[:, g], rng):
                identity = g
                break
        if identity is None:
            raise ValueError("table has no identity element")

        inverse = np.empty(order, dtype=int)
        for g in range(order):
            hits = np.flatnonzero(table[g] == identity)
            if hits.size != 1 or table[hits[0], g] != identity:
                raise ValueError(f"element {g} has no two-sided inverse")
            inverse[g] = hits[0]

        if order <= _EXHAUSTIVE_ORDER:
            left = table[table]          # left[a, b, c]  = (ab)c
            right = table[:, table]      # right[a, b, c] = a(bc)
            if not np.array_equal(left, right):
                a, b, c = np.argwhere(left != right)[0]
                raise ValueError(f"table is not associative at ({a}, {b}, {c})")
        else:
            sampler = np.random.default_rng(0)
            triples = sampler.integers(0, order, size=(20000, 3))
            for a, b, c in triples:
                if table[table[a, b], c] != table[a, table[b, c]]:
                    raise ValueError(f"table is not associative at ({a}, {b}, {c})")

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
        eye = np.eye(self.dim)
        for g in range(self.group.order):
            defect = np.abs(mats[g].T @ mats[g] - eye).max()
            if defect > ORTHOGONALITY_TOL:
                raise NotOrthogonal(g, defect)
        if np.abs(mats[self.group.identity_index] - eye).max() > ORTHOGONALITY_TOL:
            raise ValueError("identity element is not realized by the identity matrix")

        order = self.group.order
        if order <= 128:
            pairs = [(g, h) for g in range(order) for h in range(order)]
        else:
            sampler = np.random.default_rng(0)
            pairs = sampler.integers(0, order, size=(10000, 2)).tolist()
        for g, h in pairs:
            prod = mats[g] @ mats[h]
            defect = np.abs(mats[self.group.table[g, h]] - prod).max()
            if defect > HOMOMORPHISM_TOL:
                raise ValueError(
                    f"matrices do not respect the table at ({g}, {h}): defect {defect!r}"
                )
        mats = mats.copy()
        mats.flags.writeable = False
        object.__setattr__(self, "matrices", mats)


def _identify(stack: np.ndarray, candidates: np.ndarray, tol: float) -> np.ndarray:
    """Index in ``stack`` of each candidate, -1 if new, ambiguity if unclear.

    Candidates are judged in order: the first one that is not within ``tol``
    of its nearest element raises NumericalAmbiguity if it lies in the band
    (tol, 10 tol].
    """
    # entry by entry, so temporaries stay (candidates, stack) in size
    dist = np.zeros((len(candidates), len(stack)))
    for c, s in zip(candidates.reshape(len(candidates), -1).T, stack.reshape(len(stack), -1).T):
        np.maximum(dist, np.abs(c[:, None] - s[None]), out=dist)
    best = dist.min(axis=1)
    new = best > tol
    if new.any() and best[new.argmax()] <= 10.0 * tol:
        raise NumericalAmbiguity(best[new.argmax()], tol)
    return np.where(new, -1, dist.argmin(axis=1))


def close_group(
    generators,
    tol: float = IDENTIFICATION_TOL,
    max_order: int = DEFAULT_MAX_ORDER,
) -> OrthogonalAction:
    """Close a set of orthogonal generators under multiplication.

    Generators are projected to the nearest exactly-orthogonal matrix (polar
    factor) after the orthogonality gate, so long products do not drift.
    Element identification is entrywise within ``tol``; products landing in
    the band (tol, 10 tol] raise NumericalAmbiguity.
    """
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
        if defect > tol:
            raise NotOrthogonal(idx, defect)
        u, _, vt = np.linalg.svd(g)
        gens[idx] = u @ vt

    # breadth-first: stack[i] is expanded once every element before it has
    # been; stack[:order] is what each new product is identified against
    stack = np.empty((max(max_order, 1), m, m))
    stack[0] = np.eye(m)
    order = 1
    i = 0
    while i < order:
        for g in gens:
            prod = stack[i] @ g
            if _identify(stack[:order], prod[None], tol)[0] < 0:
                if order >= max_order:
                    raise OrderExceeded(max_order)
                stack[order] = prod
                order += 1
        i += 1

    stack = stack[:order]
    table = np.empty((order, order), dtype=int)
    for i in range(order):
        table[i] = _identify(stack, stack[i] @ stack, tol)
        if table[i].min() < 0:
            raise NumericalAmbiguity(np.inf, tol)
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
