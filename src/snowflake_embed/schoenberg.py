"""Integral representation of fractional powers.

For 0 < a < 1 and t > 0,

    t**(2a) = c(a) * integral_0^inf (1 - exp(-lam^2 t^2)) * lam^(-1-2a) dlam

with c(a) = 2a / Gamma(1 - a).  The closed form for c is treated as derived
rather than given: this module evaluates the improper integral with numpy
alone, as a series head, adaptive Gauss-Legendre panels in ln lam and a
closed-form tail, so the closed form can be cross-validated.  It takes weighted
sums of such terms, the form in which the integral makes snowflaked
negative-type forms strictly negative.  Every split point scales with the
largest t, so the relative accuracy of a single term is the same for every t
in the domain.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureNonconvergence

#: Beyond exp(-_TAIL_EXPONENT) every kernel term is below 1e-18 and the
#: remaining tail integrates in closed form.
_TAIL_EXPONENT = 41.5

#: Terms of the head's alternating series; for x <= 1 the first term left
#: out, 1 / (21! (21 - a)), is below 1e-21.
_SERIES_TERMS = 20


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of the adaptive quadrature, and its budget of panel bisections."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")


DEFAULT_QUADRATURE = QuadratureSpec()


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], from
    the eigenpairs of the Jacobi matrix (Golub-Welsch)."""
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vectors[0] ** 2


_NODES10, _WEIGHTS10 = _gauss_legendre(10)
_NODES20, _WEIGHTS20 = _gauss_legendre(20)
#: Both rules' nodes, so that one integrand call evaluates a panel.
_NODES = np.concatenate([_NODES10, _NODES20])


def _check_exponent(a: float) -> float:
    a = float(a)
    if not 0.0 < a < 1.0:
        raise DomainError(f"exponent parameter must lie in (0, 1), got {a!r}")
    return a


def quad(func, lo: float, hi: float, spec: QuadratureSpec, full_output: bool = False):
    """integral_lo^hi func by adaptive composite Gauss-Legendre quadrature.

    ``func`` maps an array of nodes to the array of integrand values.  The
    interval starts as equal panels of length at most 1; a panel's error is
    estimated by the gap between its 10-point and 20-point rules, and the
    panel with the largest estimate is bisected until the estimates add up
    to at most max(abs_tol, rel_tol * |integral|).  The 20-point sums are
    returned, so the estimate is pessimistic.  Needing more than
    ``spec.max_subdivisions`` bisections raises QuadratureNonconvergence.
    With ``full_output`` the result is (integral, error estimate,
    {"neval": integrand evaluations}).
    """
    neval = 0

    def panel(left, right):
        nonlocal neval
        half = 0.5 * (right - left)
        values = func(0.5 * (left + right) + half * _NODES)
        neval += _NODES.size
        fine = half * float(values[_NODES10.size:] @ _WEIGHTS20)
        coarse = half * float(values[:_NODES10.size] @ _WEIGHTS10)
        return -abs(fine - coarse), left, right, fine

    edges = np.linspace(lo, hi, max(1, math.ceil(hi - lo)) + 1).tolist()
    panels = [panel(left, right) for left, right in zip(edges[:-1], edges[1:])]
    heapq.heapify(panels)  # the largest error estimate first
    for bisections in range(spec.max_subdivisions + 1):
        total = math.fsum(p[3] for p in panels)
        error = -math.fsum(p[0] for p in panels)
        if error <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            break
        if bisections == spec.max_subdivisions:
            raise QuadratureNonconvergence(
                f"error estimate {error:.3g} still exceeds the tolerance after "
                f"{bisections} bisections (the budget)")
        _, left, right, _ = heapq.heappop(panels)
        mid = 0.5 * (left + right)
        heapq.heappush(panels, panel(left, mid))
        heapq.heappush(panels, panel(mid, right))
    if full_output:
        return total, error, {"neval": neval}
    return total


def power_kernel_integral(terms, a: float, spec: QuadratureSpec | None = None) -> float:
    """integral_0^inf sum_k c_k (1 - exp(-lam^2 t_k^2)) lam^(-1-2a) dlam.

    ``terms`` is a sequence of (coefficient, t) pairs with t > 0 and t**2 a
    positive finite double; other t raise DomainError.  With
    lam_0 = 1/t_max, the head [0, lam_0] is the alternating series
    1/2 lam_0^(-2a) sum_k c_k sum_m (-1)^(m+1) x_k^m / (m! (m - a)) in
    x_k = (t_k / t_max)^2 <= 1; the middle runs from lam_0 to
    lam_cut = sqrt(41.5) / t_min by ``quad`` in s = ln(lam t_max), on
    panels of unit length that need no per-term breakpoints; past lam_cut
    every exponential is below machine noise and the tail finishes in
    closed form.  Memory is linear in the number of terms, and node
    placement is deterministic, so equal inputs give bit-equal results.
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
    t_max = float(ts.max())
    scale = t_max ** (2.0 * a)  # lam_0^(-2a)

    x = np.square(ts / t_max)
    series = np.zeros_like(x)
    for m in range(_SERIES_TERMS, 0, -1):  # Horner, smallest term first
        series = 1.0 / (math.factorial(m) * (m - a)) - x * series
    head_val = 0.5 * scale * float(coef @ (x * series))

    log_x = 2.0 * (np.log(ts) - math.log(t_max))[:, None]
    s_cut = 0.5 * math.log(_TAIL_EXPONENT) + math.log(t_max) - math.log(float(ts.min()))

    def middle(s):
        # (lam t_k)^2 = x_k e^(2s); beyond e^700 the exponential is 0 anyway
        arg = np.exp(np.minimum(log_x + 2.0 * s, 700.0))
        return scale * (coef @ -np.expm1(-arg)) * np.exp(-2.0 * a * s)

    # full_output, so that a wrapper of ``quad`` can count the evaluations
    middle_val = quad(middle, 0.0, s_cut, spec, full_output=True)[0]
    tail_val = float(coef.sum()) * scale * math.exp(-2.0 * a * s_cut) / (2.0 * a)
    return head_val + middle_val + tail_val


def schoenberg_constant(a: float) -> float:
    """Normalizing constant c(a) = 2a / Gamma(1 - a), for a in (0, 1).

    Closed form; ``schoenberg_constant_quadrature`` recomputes it from the
    defining integral so the two can be checked against each other.
    """
    a = _check_exponent(a)
    return 2.0 * a / math.gamma(1.0 - a)


def schoenberg_constant_quadrature(a: float, spec: QuadratureSpec | None = None) -> float:
    """c(a) evaluated as 1 over the defining integral at t = 1."""
    return 1.0 / power_kernel_integral([(1.0, 1.0)], a, spec)


def verify_power_identity(
    t: float, a: float, spec: QuadratureSpec | None = None
) -> tuple[float, float, float]:
    """Compare t**(2a) against its integral representation.

    Returns (lhs, rhs, rel_err) with rhs computed by ``power_kernel_integral``.
    ``power_kernel_integral`` rejects t outside its domain before t**(2a) is formed.
    """
    t = float(t)
    a = _check_exponent(a)
    rhs = schoenberg_constant(a) * power_kernel_integral([(1.0, t)], a, spec)
    lhs = t ** (2.0 * a)
    return lhs, rhs, abs(lhs - rhs) / lhs
