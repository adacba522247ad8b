import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snowflake_embed import (
    schoenberg_constant,
    schoenberg_constant_quadrature,
    verify_power_identity,
)
from snowflake_embed.errors import (
    DomainError,
    DuplicatePoints,
    QuadratureNonconvergence,
)
from snowflake_embed.schoenberg import QuadratureSpec, power_kernel_integral

from oracles import check_kernel_psd, gaussian_kernel_matrix, strict_decomposition_check

# Frozen with 40-digit tanh-sinh quadrature of the regularized integrand
# (integration by parts removes the endpoint singularity).
SQRT_PI = 1.772453850905516
INV_SQRT_PI = 0.5641895835477563
C_QUARTER = 0.40802446954913146  # 0.5 / Gamma(0.75)
FROZEN_INTEGRALS = {
    (1.0, 0.5): 1.772453850905516,
    (2.0, 0.5): 3.544907701811032,
    (0.1, 0.3): 0.5434279295710092,
    (10.0, 0.9): 333.47875253133446,
    (0.5, 0.1): 4.651476592921898,
}


def log_uniform(lo, hi):
    """Floats whose base-10 logarithm is uniform on [log10(lo), log10(hi)]."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


class TestQuadratureSpec:
    def test_defaults_valid(self):
        spec = QuadratureSpec()
        assert spec.max_subdivisions >= 1

    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=-1e-3)
        with pytest.raises(DomainError):
            QuadratureSpec(max_subdivisions=0)


class TestPowerKernelIntegral:
    @pytest.mark.parametrize("key", sorted(FROZEN_INTEGRALS))
    def test_against_frozen_oracle(self, key):
        t, a = key
        val = power_kernel_integral([(1.0, t)], a)
        # the oracle itself is good to ~1e-9 at the singular end a = 0.9
        tol = 5e-9 if a >= 0.9 else 1e-12
        assert val == pytest.approx(FROZEN_INTEGRALS[key], rel=tol)

    def test_linearity(self):
        one = power_kernel_integral([(1.0, 2.0)], 0.4)
        two = power_kernel_integral([(0.5, 2.0), (0.5, 2.0)], 0.4)
        assert two == pytest.approx(one, rel=1e-12)

    def test_budget_exhaustion(self):
        # a relative tolerance below double precision: the 10- and 20-point
        # rules keep disagreeing by rounding noise, so no bisection budget
        # is enough, and the rule gives up after spending it
        spec = QuadratureSpec(rel_tol=1e-17, abs_tol=1e-300, max_subdivisions=2)
        with pytest.raises(QuadratureNonconvergence):
            power_kernel_integral([(1.0, 1.0)], 0.9, spec)

    @given(terms=st.lists(st.tuples(st.floats(1e-3, 1e3), log_uniform(1e-150, 1e150)),
                          min_size=1, max_size=6),
           a=st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_positive_terms_against_closed_form(self, terms, a):
        # the split points scale with t_max, so one term has the same relative
        # error at every t, and positive terms add without cancellation
        exact = math.fsum(c * t ** (2.0 * a) for c, t in terms) * math.gamma(1.0 - a) / (2.0 * a)
        assert power_kernel_integral(terms, a) == pytest.approx(exact, rel=1e-12)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(DomainError):
            power_kernel_integral([(1.0, 0.0)], 0.5)

    def test_deterministic(self):
        # fixed node placement: identical inputs give bit-equal results
        first = power_kernel_integral([(1.0, 2.0), (-0.5, 0.3)], 0.37)
        second = power_kernel_integral([(1.0, 2.0), (-0.5, 0.3)], 0.37)
        assert first == second


class TestSchoenbergConstant:
    def test_half_is_inverse_sqrt_pi(self):
        assert schoenberg_constant(0.5) == pytest.approx(INV_SQRT_PI, rel=1e-14)
        assert power_kernel_integral([(1.0, 1.0)], 0.5) == pytest.approx(
            SQRT_PI, rel=1e-12
        )

    def test_quarter(self):
        assert schoenberg_constant(0.25) == pytest.approx(C_QUARTER, rel=1e-14)
        quad = schoenberg_constant_quadrature(0.25)
        assert abs(schoenberg_constant(0.25) - quad) / C_QUARTER <= 1e-6

    @pytest.mark.parametrize("a", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_closed_form_matches_quadrature(self, a):
        closed = schoenberg_constant(a)
        quad = schoenberg_constant_quadrature(a)
        assert abs(closed - quad) / closed <= 1e-6

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                schoenberg_constant(bad)


class TestVerifyPowerIdentity:
    @pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_normalization_at_one(self, a):
        lhs, rhs, rel = verify_power_identity(1.0, a)
        assert lhs == 1.0
        assert rel <= 1e-10

    def test_t_two(self):
        lhs, rhs, rel = verify_power_identity(2.0, 0.5)
        assert lhs == 2.0
        assert rel <= 1e-6

    def test_small_t(self):
        lhs, rhs, rel = verify_power_identity(0.1, 0.3)
        assert lhs == pytest.approx(0.1 ** 0.6, rel=1e-15)
        assert rel <= 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            verify_power_identity(-1.0, 0.5)
        with pytest.raises(DomainError):
            verify_power_identity(1.0, 1.5)


class TestGaussianKernel:
    def test_single_point(self):
        assert np.array_equal(gaussian_kernel_matrix([[0.0]], 1.0), [[1.0]])

    def test_two_points(self):
        S = gaussian_kernel_matrix([[0.0], [1.0]], 1.0)
        assert np.array_equal(np.diagonal(S), [1.0, 1.0])
        assert S[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_large_scale_flushes_to_identity(self):
        S = gaussian_kernel_matrix([[0.0], [1.0], [2.5]], 1e3)
        off = S[~np.eye(3, dtype=bool)]
        assert np.array_equal(off, np.zeros(6))

    def test_symmetric(self, make_cloud):
        S = gaussian_kernel_matrix(make_cloud(8, 3), 0.7)
        assert np.array_equal(S, S.T)


class TestKernelPsd:
    def test_identity(self):
        is_psd, min_eig = check_kernel_psd(np.eye(4))
        assert is_psd and min_eig == pytest.approx(1.0)

    def test_two_by_two_closed_form(self):
        S = gaussian_kernel_matrix([[0.0], [1.0]], 1.0)
        is_psd, min_eig = check_kernel_psd(S)
        assert is_psd
        assert min_eig == pytest.approx(1.0 - np.exp(-1.0), rel=1e-12)

    def test_gaussian_sweep(self, rng, make_cloud):
        for lam in (0.1, 1.0, 10.0):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(1, 6))
            S = gaussian_kernel_matrix(make_cloud(n, m), lam)
            is_psd, min_eig = check_kernel_psd(S, tol=1e-10)
            assert is_psd, f"min eigenvalue {min_eig}"


class TestStrictDecomposition:
    def test_two_points(self):
        form, integral = strict_decomposition_check([[0.0], [1.0]], 0.5, [1.0, -1.0])
        assert form == -2.0
        assert abs(form - integral) <= 1e-6 * (1 + abs(form))

    def test_zero_weights(self):
        form, integral = strict_decomposition_check([[0.0], [1.0]], 0.5, [0.0, 0.0])
        assert form == 0.0
        assert integral == pytest.approx(0.0, abs=1e-12)

    def test_random_agreement(self, rng):
        for _ in range(5):
            pts = rng.normal(size=(5, 2))
            lam = rng.normal(size=5)
            lam -= lam.mean()
            form, integral = strict_decomposition_check(pts, 0.3, lam)
            assert abs(form - integral) <= 1e-6 * (1 + abs(form))
            assert form < 0

    def test_strict_negativity_margin(self, rng, make_cloud):
        for a in (0.2, 0.5, 0.8):
            pts = make_cloud(6, 3)
            lam = rng.normal(size=6)
            lam -= lam.mean()
            form, _ = strict_decomposition_check(pts, a, lam)
            assert form < 0

    def test_widely_mixed_scales(self):
        # kernel scales spanning twelve decades: the per-term breakpoints
        # keep the middle piece convergent within the default budget
        pts = [[0.0], [1e-6], [1.0], [1e6]]
        form, integral = strict_decomposition_check(pts, 0.5, [1.0, -0.5, -0.5, 0.0])
        assert abs(form - integral) <= 1e-6 * (1 + abs(form))

    def test_many_points_in_general_position(self):
        # 60 points give 1770 distinct kernel scales; no per-term breakpoints,
        # so the panel count does not grow with them
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((60, 2))
        lam = rng.standard_normal(60)
        lam -= lam.mean()
        form, integral = strict_decomposition_check(pts, 0.4, lam)
        assert form < 0
        assert integral == pytest.approx(form, rel=1e-12)

    def test_duplicate_points_rejected(self):
        with pytest.raises(DuplicatePoints):
            strict_decomposition_check([[0.0], [0.0]], 0.5, [1.0, -1.0])


class TestSimplexLimit:
    def test_alpha_to_zero_bound(self, make_metric):
        # |d**a - 1| <= a |log d| max(1, d): the snowflaked matrix tends
        # entrywise to the uniform simplex matrix
        a = 1e-3
        for n in (4, 7):
            d = make_metric(n)
            off = d[~np.eye(n, dtype=bool)]
            gap = np.abs(off ** a - 1.0)
            bound = a * np.abs(np.log(off)) * np.maximum(1.0, off)
            assert np.all(gap <= bound + 1e-15)
