"""Integral representation of fractional powers and Gaussian kernel positivity.

For 0 < a < 1 and t > 0,

    t**(2a) = c(a) * integral_0^inf (1 - exp(-lam^2 t^2)) * lam^(-1-2a) dlam

with c(a) = 2a / Gamma(1 - a).  The closed form for c is treated as derived
rather than given: this module evaluates the improper integral by adaptive
quadrature so the closed form can be cross-validated, and replays the same
integral against weighted sums of Gaussian kernels, which is what makes
snowflaked negative-type forms strictly negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma

from .errors import (
    BadWeights,
    DimensionMismatch,
    DomainError,
    QuadratureNonconvergence,
)
from .metric import as_point_cloud, euclidean_metric, pairwise_distances
from .negative_type import WEIGHT_SUM_TOL, as_weights

#: Beyond exp(-_TAIL_EXPONENT) every kernel term is below 1e-18 and the
#: remaining tail integrates in closed form.
_TAIL_EXPONENT = 41.5


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for the adaptive quadrature."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")


DEFAULT_QUADRATURE = QuadratureSpec()


def _check_exponent(a: float) -> float:
    a = float(a)
    if not 0.0 < a < 1.0:
        raise DomainError(f"exponent parameter must lie in (0, 1), got {a!r}")
    return a


def _quad_piece(func, lo, hi, spec: QuadratureSpec, **kwargs) -> float:
    # the weighted rule needs at least two subintervals
    try:
        out = quad(func, lo, hi, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                   limit=max(2, spec.max_subdivisions), full_output=1, **kwargs)
    except OverflowError as exc:  # an integrand value beyond double range
        raise QuadratureNonconvergence(f"integrand overflow: {exc}") from None
    if len(out) > 3:
        raise QuadratureNonconvergence(str(out[3]).strip())
    return float(out[0])


def power_kernel_integral(terms, a: float, spec: QuadratureSpec | None = None) -> float:
    """integral_0^inf sum_k c_k (1 - exp(-lam^2 t_k^2)) lam^(-1-2a) dlam.

    ``terms`` is a sequence of (coefficient, t) pairs with t > 0 and t**2 a
    positive finite double; other t raise DomainError.  The integral is
    split at lam_0 = 1/max(t_max, 1): the singular head uses the
    substitution u = lam^2, after which the lam^(-1-2a) singularity becomes
    an algebraic u^(-a) endpoint weight handled natively by the quadrature
    rule; the tail truncates once every exponential is below machine noise
    and finishes in closed form.  Node placement is deterministic, so equal
    inputs give bit-equal results.
    """
    if spec is None:
        spec = DEFAULT_QUADRATURE
    a = _check_exponent(a)
    coef = np.asarray([c for c, _ in terms], dtype=float)
    ts = np.asarray([t for _, t in terms], dtype=float)
    if coef.size == 0:
        return 0.0
    with np.errstate(over="ignore"):
        tsq = ts * ts
    bad = ~((ts > 0.0) & (tsq > 0.0) & np.isfinite(tsq))
    if bad.any():
        raise DomainError(f"kernel scale t = {float(ts[bad][0])!r} is outside the domain: "
                          "t must be positive with t**2 a positive finite double")
    lam0 = 1.0 / max(float(ts.max()), 1.0)
    u0 = lam0 * lam0

    def head(u):
        # (1 - exp(-u t^2)) / u, extended by continuity at u = 0
        if u <= 0.0:
            return float(coef @ tsq)
        return float(coef @ (-np.expm1(-u * tsq))) / u

    head_val = 0.5 * _quad_piece(head, 0.0, u0, spec, weight="alg", wvar=(-a, 0.0))

    lam_cut = np.sqrt(_TAIL_EXPONENT) / float(ts.min())

    def middle(lam):
        return float(coef @ (-np.expm1(-(lam * ts) ** 2))) * lam ** (-1.0 - 2.0 * a)

    # each kernel term transitions around lam = 1/t; giving those scales to
    # the integrator as breakpoints keeps widely mixed t values convergent
    knees = np.unique(1.0 / ts)
    knees = knees[(knees > lam0) & (knees < lam_cut)]
    middle_val = _quad_piece(
        middle, lam0, lam_cut, spec, points=knees.tolist() or None
    )
    tail_val = float(coef.sum()) * lam_cut ** (-2.0 * a) / (2.0 * a)
    return head_val + middle_val + tail_val


def schoenberg_constant(a: float) -> float:
    """Normalizing constant c(a) = 2a / Gamma(1 - a), for a in (0, 1).

    Closed form; ``schoenberg_constant_quadrature`` recomputes it from the
    defining integral so the two can be checked against each other.
    """
    a = _check_exponent(a)
    return 2.0 * a / float(gamma(1.0 - a))


def schoenberg_constant_quadrature(a: float, spec: QuadratureSpec | None = None) -> float:
    """c(a) evaluated as 1 over the defining integral at t = 1."""
    return 1.0 / power_kernel_integral([(1.0, 1.0)], a, spec)


def verify_power_identity(
    t: float, a: float, spec: QuadratureSpec | None = None
) -> tuple[float, float, float]:
    """Compare t**(2a) against its integral representation.

    Returns (lhs, rhs, rel_err) with rhs computed by adaptive quadrature.
    ``power_kernel_integral`` rejects t outside its domain before t**(2a) is formed.
    """
    t = float(t)
    a = _check_exponent(a)
    rhs = schoenberg_constant(a) * power_kernel_integral([(1.0, t)], a, spec)
    lhs = t ** (2.0 * a)
    return lhs, rhs, abs(lhs - rhs) / lhs


def gaussian_kernel_matrix(P, lam: float) -> np.ndarray:
    """S[i][j] = exp(-lam^2 ||p_i - p_j||^2); symmetric with unit diagonal."""
    lam = float(lam)
    if lam <= 0.0:
        raise DomainError(f"kernel scale must be positive, got {lam!r}")
    cloud = as_point_cloud(P)
    sq = pairwise_distances(cloud.coordinates) ** 2
    return np.exp(-(lam * lam) * sq)


def check_kernel_psd(S, tol: float = 1e-10) -> tuple[bool, float]:
    """Full-spectrum positive-semidefiniteness test (all weight vectors, not
    just sum-zero ones)."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DomainError(f"kernel matrix must be square, got {S.shape}")
    if (S != S.T).any():
        raise ValueError("kernel matrix must be symmetric")
    min_eig = float(np.linalg.eigvalsh(S)[0])
    return min_eig >= -tol, min_eig


def strict_decomposition_check(
    P,
    a: float,
    lam,
    grid: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """Replay the kernel decomposition of the snowflaked form.

    For sum-zero weights L over distinct points, L D^a L^T (on squared
    snowflaked distances) equals c(a) times the integral of L (-S(lam)) L^T
    lam^(-1-2a), S the Gaussian kernel matrix; the constant-one kernel
    terms cancel exactly because L sums to zero.  Returns
    (form_value, integral_value); for nonzero L the form value is strictly
    negative.
    """
    a = _check_exponent(a)
    lam = as_weights(lam)
    total = float(lam.sum())
    if abs(total) > WEIGHT_SUM_TOL * max(1.0, float(np.abs(lam).max(initial=0.0))):
        raise BadWeights(total)
    cloud = as_point_cloud(P)
    if lam.shape != (cloud.n,):
        raise DimensionMismatch(
            f"weights shape {lam.shape} does not match {cloud.n} points"
        )
    d = euclidean_metric(cloud).d

    form_value = float(lam @ (d ** (2.0 * a)) @ lam)
    iu, ju = np.triu_indices(cloud.n, k=1)
    terms = [(2.0 * lam[i] * lam[j], d[i, j]) for i, j in zip(iu, ju)]
    integral_value = schoenberg_constant(a) * power_kernel_integral(terms, a, grid)
    return form_value, integral_value
