"""Exception types shared across the library.

Every error carries the data needed to reproduce the failure (offending
indices, eigenvalues, witness vectors) as attributes, so callers such as
the CLI can serialize them.
"""

from __future__ import annotations


class SnowflakeError(Exception):
    """Base class for all errors raised by this library."""


class DimensionMismatch(SnowflakeError):
    """Operands have incompatible shapes."""


class DomainError(SnowflakeError, ValueError):
    """A scalar parameter lies outside the operation's domain."""


# ---------------------------------------------------------------------------
# metric validation

class MetricValidationError(SnowflakeError):
    """A candidate distance matrix violates the metric axioms."""


class NotSymmetric(MetricValidationError):
    def __init__(self, i: int, j: int):
        self.i, self.j = int(i), int(j)
        super().__init__(f"matrix is not symmetric at ({self.i}, {self.j})")


class NonzeroDiagonal(MetricValidationError):
    def __init__(self, i: int, value: float):
        self.i, self.value = int(i), float(value)
        super().__init__(f"diagonal entry ({self.i}, {self.i}) is {self.value!r}, expected 0")


class NonpositiveOffDiagonal(MetricValidationError):
    def __init__(self, i: int, j: int, value: float):
        self.i, self.j, self.value = int(i), int(j), float(value)
        super().__init__(f"off-diagonal entry ({self.i}, {self.j}) is {self.value!r}, expected > 0")


class TriangleViolation(MetricValidationError):
    def __init__(self, i: int, j: int, k: int, direct: float, via: float):
        self.i, self.j, self.k = int(i), int(j), int(k)
        self.direct, self.via = float(direct), float(via)
        super().__init__(
            f"triangle inequality fails at ({self.i}, {self.j}) via {self.k}: "
            f"{self.direct!r} > {self.via!r}"
        )


class DuplicatePoints(SnowflakeError):
    def __init__(self, pairs):
        self.pairs = [(int(i), int(j)) for i, j in pairs]
        super().__init__(f"coincident points at index pairs {self.pairs}")


# ---------------------------------------------------------------------------
# negative type and embedding

class NotStrict(SnowflakeError):
    """The strict negative-type margin was not met at spectral threshold ``threshold``."""

    def __init__(self, min_eigenvalue: float, threshold: float, witness=None, reason: str = ""):
        self.min_eigenvalue = float(min_eigenvalue)
        self.threshold = float(threshold)
        self.witness = witness
        self.reason = reason
        msg = f"strict negative type fails: min eigenvalue {self.min_eigenvalue!r}"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)


class BadPartition(SnowflakeError):
    """Weights do not split into a +1-sum nonnegative and a -1-sum nonpositive part."""

    def __init__(self, positive_sum: float, negative_sum: float):
        self.positive_sum = float(positive_sum)
        self.negative_sum = float(negative_sum)
        super().__init__(
            f"weights must have positive part summing to 1 and negative part to -1; "
            f"got {self.positive_sum!r} and {self.negative_sum!r}"
        )


class BadWeights(SnowflakeError):
    """A weight vector required to sum to zero does not."""

    def __init__(self, total: float):
        self.total = float(total)
        super().__init__(f"weights must sum to 0, got {self.total!r}")


class NotEmbeddable(SnowflakeError):
    """The metric admits no isometric Euclidean embedding at the given tolerance;
    ``threshold`` decided it: the spectral threshold of ``eigenvalue``, or the
    residual limit when ``reason`` names the reconstruction residual."""

    def __init__(self, eigenvalue: float, threshold: float, witness=None, reason: str = ""):
        self.eigenvalue = float(eigenvalue)
        self.threshold = float(threshold)
        self.witness = witness
        self.reason = reason
        if reason:
            msg = f"metric is not embeddable at this tolerance: {reason}"
        else:
            msg = f"metric is not embeddable: offending eigenvalue {self.eigenvalue!r}"
        super().__init__(msg)


class TheoremViolation(SnowflakeError):
    """A snowflake embedding came out rank-deficient, which indicates numerical
    breakdown rather than mathematics: the full-rank guarantee is unconditional
    for negative-type inputs and exponents in (0, 1)."""

    def __init__(self, rank: int, expected_rank: int, spectrum):
        self.rank = int(rank)
        self.expected_rank = int(expected_rank)
        self.spectrum = spectrum
        super().__init__(
            f"snowflake embedding has rank {self.rank}, expected {self.expected_rank}"
        )


# ---------------------------------------------------------------------------
# quadrature

class QuadratureNonconvergence(SnowflakeError):
    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"quadrature did not converge: {detail}")


# ---------------------------------------------------------------------------
# groups and quotients

class NotOrthogonal(SnowflakeError):
    def __init__(self, index: int, defect: float):
        self.index, self.defect = int(index), float(defect)
        super().__init__(f"generator {self.index} is not orthogonal: defect {self.defect!r}")


class OrderExceeded(SnowflakeError):
    def __init__(self, max_order: int):
        self.max_order = int(max_order)
        super().__init__(f"group closure exceeded max order {self.max_order}")


class NumericalAmbiguity(SnowflakeError):
    """Two group elements are too close to distinguish at the working tolerance."""

    def __init__(self, distance: float, tol: float):
        self.distance, self.tol = float(distance), float(tol)
        super().__init__(
            f"matrices at distance {self.distance!r} cannot be classified with "
            f"identification tolerance {self.tol!r}"
        )


class NonFreeOrbit(SnowflakeError):
    def __init__(self, orbit: int, elements):
        self.orbit = int(orbit)
        self.elements = [int(e) for e in elements]
        super().__init__(
            f"orbit {self.orbit} is not free: group elements {self.elements} collide"
        )


class OrbitCollision(SnowflakeError):
    def __init__(self, first: int, second: int):
        self.first, self.second = int(first), int(second)
        super().__init__(
            f"representatives {self.first} and {self.second} lie in the same orbit"
        )


class InvarianceViolation(SnowflakeError):
    def __init__(self, defect: float, tol: float):
        self.defect, self.tol = float(defect), float(tol)
        super().__init__(
            f"square root of the induced form does not commute with the group action: "
            f"defect {self.defect!r} exceeds {self.tol!r}"
        )


class VerificationFailure(SnowflakeError):
    def __init__(self, max_abs_error: float, tol: float, report=None):
        self.max_abs_error = float(max_abs_error)
        self.tol = float(tol)
        self.report = report
        super().__init__(
            f"quotient distance verification failed: max abs error "
            f"{self.max_abs_error!r} exceeds {self.tol!r}"
        )
