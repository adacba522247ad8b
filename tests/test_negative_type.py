import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from snowflake_embed import (
    FiniteMetricSpace,
    check_negative_type,
    check_strict_negative_type,
    embed,
    euclidean_metric,
    gram_from_distances,
    quadratic_form,
    snowflake,
    snowflake_embed,
    validate_metric,
)
from snowflake_embed.errors import (
    DimensionMismatch,
    DomainError,
    DuplicatePoints,
    NotEmbeddable,
    NotStrict,
    TheoremViolation,
)
from snowflake_embed.embedding import RESIDUAL_LIMIT
from snowflake_embed.negative_type import (centered_spectrum, restricted_form, restricted_values,
                                           spectral_decision, sumzero_columns)

from oracles import general_position_certificate, geometric_form_check


def brute_force_form(D, lam):
    """Independent oracle: the literal double sum over index pairs."""
    total = 0.0
    n = len(lam)
    for i in range(n):
        for j in range(n):
            total += lam[i] * lam[j] * D[i][j]
    return total


def full_spectrum_oracle(D):
    """Independent oracle: eigenvalues of -1/2 P D P from the explicit
    projector, with the trivial zero along the ones direction removed."""
    n = D.shape[0]
    P = np.eye(n) - np.ones((n, n)) / n
    B = -0.5 * P @ D @ P
    evals, vecs = np.linalg.eigh(B)
    ones = np.ones(n) / np.sqrt(n)
    align = np.abs(vecs.T @ ones)
    return np.delete(evals, np.argmax(align))


class TestQuadraticForm:
    def test_two_point(self):
        assert quadratic_form([[0, 1], [1, 0]], [1, -1]) == -2.0

    def test_zero_weights(self):
        assert quadratic_form([[0, 7], [7, 0]], [0, 0]) == 0.0

    def test_claw_positive_value(self, claw_matrix):
        # frozen from expanding the six cross terms by hand: 2*(4-1-1-1-1+1)
        D = claw_matrix ** 2
        lam = [1, 1, -1, -1]
        assert quadratic_form(D, lam) == 2.0
        assert brute_force_form(D.tolist(), lam) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quadratic_form([[0, 1], [1, 0]], [1, -1, 0])

    def test_matches_centered_form(self, rng, make_cloud):
        # L D L^T = -2 L B L^T on sum-zero weights, B the centered form
        for _ in range(25):
            n = int(rng.integers(2, 12))
            D = euclidean_metric(make_cloud(n, 3)).d ** 2
            P = np.eye(n) - np.ones((n, n)) / n
            B = -0.5 * P @ D @ P
            lam = rng.normal(size=n)
            lam -= lam.mean()
            lhs = quadratic_form(D, lam)
            rhs = -2.0 * lam @ B @ lam
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestCenteredSpectrum:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
    def test_orthonormal_and_sum_zero(self, n, make_cloud):
        D = euclidean_metric(make_cloud(n, 3)).d ** 2
        B = gram_from_distances(D)
        evals, V = centered_spectrum(B)
        assert evals.shape == (n - 1,)
        assert V.shape == (n, n - 1)
        assert np.all(np.diff(evals) >= 0)
        assert np.allclose(V.T @ V, np.eye(n - 1), atol=1e-14)
        if n > 1:
            scale = np.abs(evals).max()
            assert np.abs(V.sum(axis=0)).max() < 1e-13
            assert np.abs(B @ V - V * evals).max() <= 1e-12 * scale
            assert np.allclose(evals, np.sort(full_spectrum_oracle(D)), rtol=0, atol=1e-12 * scale)

    def test_claw_matches_oracle(self, claw_matrix):
        D = claw_matrix ** 2
        B = gram_from_distances(D)
        evals, V = centered_spectrum(B)
        # frozen from the hand eigendecomposition: restricted spectrum {2, 1/2, -1/4}
        assert np.allclose(evals, [-0.25, 0.5, 2.0], rtol=0, atol=1e-12)
        assert np.allclose(evals, np.sort(full_spectrum_oracle(D)), rtol=0, atol=1e-12)
        assert np.abs(B @ V - V * evals).max() <= 1e-12 * 2.0
        assert np.abs(V.sum(axis=0)).max() < 1e-13


class TestRestrictedForm:
    @pytest.mark.parametrize("n", [1, 2, 3, 20])
    def test_is_the_reflected_form(self, n, make_cloud):
        B = gram_from_distances(euclidean_metric(make_cloud(n, 3)).d ** 2)
        M, w, c = restricted_form(B)
        H = np.eye(n) - c * np.outer(w, w)
        assert np.allclose(H @ np.ones(n), -np.sqrt(n) * np.eye(n)[0], rtol=0, atol=1e-14 * n)
        assert np.allclose(M, (H @ B @ H)[1:, 1:], rtol=0, atol=1e-13 * max(np.abs(B).max(), 1))
        # the row and column vectors of the broadcast give the outer products' floats
        Bw = B @ w
        w1, y1 = w[1:], (c * Bw - 0.5 * c * c * (w @ Bw) * w)[1:]
        assert M.tobytes() == (B[1:, 1:] - (np.outer(w1, y1) + np.outer(y1, w1))).tobytes()
        W = np.random.default_rng(n).standard_normal((n - 1, 4))
        assert np.allclose(sumzero_columns(W, w, c), H[:, 1:] @ W, rtol=0, atol=1e-14 * n)

    def test_values_are_the_spectrum(self, make_cloud):
        X = snowflake(euclidean_metric(make_cloud(25, 2)), 0.5)
        evals, M, _, _ = restricted_values(X)
        expected = centered_spectrum(gram_from_distances(X.d ** 2))[0]
        assert M.shape == (24, 24)
        assert np.allclose(evals, expected, rtol=0, atol=1e-13 * np.abs(expected).max())


class TestCheckNegativeType:
    def test_two_point_always_holds(self, rng):
        for _ in range(10):
            d = float(rng.uniform(0.1, 10))
            rep = check_negative_type(validate_metric([[0, d], [d, 0]]))
            assert rep.is_negative_type and rep.is_strict
            assert rep.min_eigenvalue == pytest.approx(d * d / 2, rel=1e-12)

    def test_claw_rejected_with_witness(self, claw_matrix):
        X = validate_metric(claw_matrix)
        rep = check_negative_type(X)
        assert not rep.is_negative_type
        assert not rep.embeddable
        # frozen from the hand eigendecomposition: restricted spectrum {2, 1/2, -1/4}
        assert rep.min_eigenvalue == pytest.approx(-0.25, abs=1e-12)
        D = X.d ** 2
        w = rep.witness
        assert abs(w.sum()) < 1e-9
        scaled = w / np.abs(w).max()
        assert quadratic_form(D, scaled) == pytest.approx(2.0, abs=1e-9)
        oracle = full_spectrum_oracle(D)
        assert rep.min_eigenvalue == pytest.approx(oracle.min(), abs=1e-12)

    def test_equilateral_triangle_strict(self):
        X = validate_metric(np.ones((3, 3)) - np.eye(3))
        rep = check_negative_type(X)
        assert rep.is_negative_type and rep.is_strict
        # centered form is P/2: both nontrivial eigenvalues are 1/2
        assert rep.min_eigenvalue == pytest.approx(0.5, abs=1e-12)
        assert rep.witness is None

    def test_euclidean_clouds_always_accepted(self, rng, make_cloud):
        for _ in range(20):
            n = int(rng.integers(2, 15))
            m = int(rng.integers(1, 6))
            X = euclidean_metric(make_cloud(n, m))
            assert check_negative_type(X).is_negative_type

    def test_single_point(self):
        rep = check_negative_type(validate_metric([[0.0]]))
        assert rep.is_negative_type and rep.is_strict


class TestCheckStrictNegativeType:
    def test_collinear_snowflake_is_strict(self):
        X = euclidean_metric([[0.0], [1.0], [2.0]])
        rep = check_strict_negative_type(X, 0.5)
        assert rep.is_strict and rep.min_eigenvalue > 0
        oracle = full_spectrum_oracle(snowflake(X, 0.5).d ** 2)
        assert rep.min_eigenvalue == pytest.approx(oracle.min(), rel=1e-10)

    def test_collinear_alpha_one_fails(self):
        # contrast case showing the exponent must stay below 1:
        # frozen expansion 2*(-2*1 + 1*4 - 2*1) = 0 for weights (1, -2, 1)
        X = euclidean_metric([[0.0], [1.0], [2.0]])
        D = X.d ** 2
        assert quadratic_form(D, [1, -2, 1]) == 0.0
        with pytest.raises(NotStrict) as exc:
            check_strict_negative_type(X, 1.0)
        assert exc.value.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
        w = exc.value.witness
        assert quadratic_form(D, w) == pytest.approx(0.0, abs=1e-9)

    def test_unit_square_strict(self):
        s = np.sqrt(2)
        X = euclidean_metric([[0, 0], [1, 0], [1, 1], [0, 1]])
        rep = check_strict_negative_type(X, 0.5)
        assert rep.is_strict
        oracle = full_spectrum_oracle(snowflake(X, 0.5).d ** 2)
        assert rep.min_eigenvalue == pytest.approx(oracle.min(), rel=1e-10)
        assert X.d[0, 2] == pytest.approx(s)

    def test_hypothesis_violation_raises(self, claw_matrix):
        X = validate_metric(claw_matrix)
        with pytest.raises(NotStrict) as exc:
            check_strict_negative_type(X, 0.5)
        assert exc.value.reason == "input metric is not of negative type"
        assert exc.value.min_eigenvalue < 0

    def test_exponent_domain(self):
        X = euclidean_metric([[0.0], [1.0]])
        for bad in (0.0, 1.5, -0.2):
            with pytest.raises(DomainError):
                check_strict_negative_type(X, bad)

    def test_euclidean_sweep(self, rng, make_cloud):
        for a in (0.1, 0.3, 0.5, 0.7, 0.9):
            n = int(rng.integers(3, 10))
            X = euclidean_metric(make_cloud(n, 3))
            rep = check_strict_negative_type(X, a)
            assert rep.is_strict and rep.min_eigenvalue > 0


class TestGeometricFormCheck:
    def test_two_points(self):
        lhs, rhs = geometric_form_check([[0.0], [1.0]], [1, -1])
        assert lhs == -2.0
        assert rhs == -2.0

    def test_midpoint_coincidence(self):
        lhs, rhs = geometric_form_check([[0.0], [2.0], [1.0]], [0.5, 0.5, -1])
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_repeated_points_allowed(self):
        lhs, rhs = geometric_form_check([[0.0], [0.0], [1.0]], [0.5, 0.5, -1])
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_random_agreement(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 13))
            m = int(rng.integers(1, 9))
            pts = rng.normal(size=(n, m)) * rng.uniform(0.5, 3)
            k = int(rng.integers(1, n))
            plus = rng.dirichlet(np.ones(k))
            minus = -rng.dirichlet(np.ones(n - k))
            lam = np.concatenate([plus, minus])
            perm = rng.permutation(n)
            lhs, rhs = geometric_form_check(pts, lam[perm])
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


class TestGeneralPosition:
    def test_collinear_witness(self):
        rep = general_position_certificate([[0, 0], [1, 0], [2, 0]])
        assert not rep.is_strict
        w = rep.witness
        direction = np.array([1.0, -2.0, 1.0]) / np.sqrt(6)
        assert abs(abs(w @ direction) - np.linalg.norm(w)) < 1e-9
        D = euclidean_metric([[0, 0], [1, 0], [2, 0]]).d ** 2
        assert quadratic_form(D, w) == pytest.approx(0.0, abs=1e-9)

    def test_equilateral_triangle_general(self):
        pts = [[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]]
        rep = general_position_certificate(pts)
        assert rep.is_strict
        oracle = full_spectrum_oracle(euclidean_metric(pts).d ** 2)
        assert rep.min_eigenvalue == pytest.approx(oracle.min(), rel=1e-9)

    def test_two_distinct_points(self):
        rep = general_position_certificate([[0.0, 0.0], [0.0, 1.0]])
        assert rep.is_strict

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePoints):
            general_position_certificate([[1.0], [1.0]])

    def test_pigeonhole_degeneracy(self, rng, make_cloud):
        # more than m+1 points in E^m are never in general position
        for _ in range(10):
            m = int(rng.integers(1, 5))
            n = m + 2 + int(rng.integers(0, 3))
            rep = general_position_certificate(make_cloud(n, m))
            assert not rep.is_strict
            assert rep.witness is not None


HYPOTHESIS_FAILS = "input metric is not of negative type"


def agreement_input(kind, seed, n, m):
    """A metric space for the agreement test, and its points if it has any:
    a Gaussian cloud, a collinear grid, a grid with noise of 1e-8 to 1e-2, a
    shortest-path metric of random edge weights, or the claw."""
    rng = np.random.default_rng(seed)
    if kind == "claw":
        claw = np.ones((4, 4)) - np.eye(4)
        claw[0, 1] = claw[1, 0] = 2.0
        return validate_metric(claw), None
    if kind == "graph":
        w = np.triu(rng.uniform(0.5, 2.0, size=(n, n)), 1)
        d = shortest_path(w + w.T, method="FW", directed=False)
        return validate_metric(np.minimum(d, d.T)), None
    if kind == "cloud":
        pts = rng.normal(size=(n, m))
    else:
        pts = np.zeros((n, m))
        pts[:, 0] = np.arange(n)
        if kind == "near":
            pts += rng.normal(scale=10.0 ** -rng.integers(2, 9), size=(n, m))
    return euclidean_metric(pts), pts


def assert_embed_agrees(Y, tol):
    """embed fails spectrally exactly when the report says "not of negative
    type", with its eigenvalue and witness, and has rank n-1 exactly when the
    report is strict."""
    report = check_negative_type(Y, tol)
    try:
        result = embed(Y, tol)
    except NotEmbeddable as exc:
        if exc.reason:
            # the residual limit, judged only after a negative-type verdict
            assert report.is_negative_type and "residual" in exc.reason
            return
        assert not report.is_negative_type
        assert exc.eigenvalue == report.min_eigenvalue
        assert np.array_equal(exc.witness, report.witness)
        return
    assert report.is_negative_type
    assert (result.rank == Y.n - 1) == report.is_strict


class TestOneSpectralDecision:
    """Every eigenvalue verdict comes from one decision, so the functions
    built on it agree on every input and tolerance."""

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9, 1.0])
    def test_tolerance_outside_unit_interval_rejected(self, tol):
        for X in (validate_metric([[0.0]]), euclidean_metric([[0.0], [1.0], [3.0]])):
            with pytest.raises(DomainError):
                check_negative_type(X, tol)
            with pytest.raises(DomainError):
                embed(X, tol)

    @given(
        kind=st.sampled_from(["cloud", "grid", "near", "graph", "claw"]),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        m=st.integers(1, 4),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
    )
    # eigvalsh shows the margin (1.1e-16 > 0), eigh does not (-9.3e-16), and
    # the factor does not exist: the strict check and the embedding both fail
    @example(kind="near", seed=76, n=4, m=1, alpha=0.9999999999999999, tol=0.0)
    @settings(max_examples=80, deadline=None)
    def test_verdicts_agree(self, kind, seed, n, m, alpha, tol):
        X, pts = agreement_input(kind, seed, n, m)
        assert_embed_agrees(X, tol)
        assert_embed_agrees(snowflake(X, alpha), tol)

        try:
            check_strict_negative_type(X, alpha, tol)
            strict = None
        except NotStrict as exc:
            strict = exc
        try:
            snowflake_embed(X, alpha, tol)
            failure = None
        except (NotEmbeddable, TheoremViolation) as exc:
            failure = exc
        if strict is None:
            # a strict snowflake may still miss the residual limit when its
            # closest pair is below what double precision resolves at the
            # configuration scale (ROADMAP item 4); no verdict of the
            # spectral decision rejects it
            assert failure is None or "residual" in getattr(failure, "reason", "")
        elif strict.reason == HYPOTHESIS_FAILS:
            assert isinstance(failure, NotEmbeddable) and failure.reason == HYPOTHESIS_FAILS
            assert failure.eigenvalue == strict.min_eigenvalue
            assert np.array_equal(failure.witness, strict.witness)
        else:
            assert failure is not None

        if pts is not None:
            certificate = general_position_certificate(pts, tol)
            report = check_negative_type(X, tol)
            assert certificate.is_negative_type
            assert certificate.is_strict == report.is_strict
            assert certificate.min_eigenvalue == report.min_eigenvalue
            assert np.array_equal(certificate.witness, report.witness)


def radius_oracle(X):
    """Largest |eigenvalue| of -1/2 J D J by a full numpy eigendecomposition;
    the trivial zero along the all-ones vector does not change it."""
    n = X.n
    J = np.eye(n) - np.ones((n, n)) / n
    return np.abs(np.linalg.eigvalsh(-0.5 * J @ X.d ** 2 @ J)).max()


class TestThresholdCarried:
    """Every verdict carries the threshold that decided it: tol times the
    spectral radius of the restricted form."""

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
    def test_report_threshold_decides_both_verdicts(self, tol, claw_matrix, make_cloud):
        for X in (validate_metric(claw_matrix), euclidean_metric([[0.0], [1.0], [2.0]]),
                  euclidean_metric(make_cloud(9, 2))):
            report = check_negative_type(X, tol)
            assert report.threshold == pytest.approx(tol * radius_oracle(X), rel=1e-12, abs=0)
            assert report.is_negative_type == (report.min_eigenvalue >= -report.threshold)
            assert report.is_strict == (report.min_eigenvalue > report.threshold)

    def test_hypothesis_reason_is_one_constant(self, claw_matrix):
        from snowflake_embed import negative_type

        assert negative_type.HYPOTHESIS_FAILS == HYPOTHESIS_FAILS
        X = validate_metric(claw_matrix)
        with pytest.raises(NotStrict) as exc:
            check_strict_negative_type(X, 0.5)
        assert exc.value.reason == negative_type.HYPOTHESIS_FAILS
        # the hypothesis fails: the threshold is that of X
        assert exc.value.threshold == check_negative_type(X).threshold
        assert exc.value.threshold == pytest.approx(2e-9, rel=1e-12)

    def test_margin_failure_carries_threshold_of_snowflake(self):
        X = euclidean_metric([[0.0], [1.0], [2.0]])
        with pytest.raises(NotStrict) as exc:
            check_strict_negative_type(X, 1.0)
        assert exc.value.reason == "strictness margin not met"
        report = check_negative_type(snowflake(X, 1.0))
        assert exc.value.threshold == report.threshold
        assert exc.value.min_eigenvalue == report.min_eigenvalue
        assert abs(exc.value.min_eigenvalue) <= exc.value.threshold


#: Unit roundoff of a double, 2**-53.
UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


@st.composite
def lifted_clouds(draw):
    """1-20 points: a generic cloud in E^m (m = 1-5), or a collinear or coplanar
    one lifted into E^m (m = 3-5) along a random line or plane, with a random
    offset, scaled by 2**-200, 1 or 2**200."""
    kind = draw(st.sampled_from(["generic", "collinear", "coplanar"]))
    m = draw(st.integers(1, 5) if kind == "generic" else st.integers(3, 5))
    n = draw(st.integers(1, 20))
    scale = 2.0 ** draw(st.sampled_from([-200, 0, 200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = {"generic": m, "collinear": 1, "coplanar": 2}[kind]
    points = rng.standard_normal((n, r)) @ rng.standard_normal((r, m)) + rng.standard_normal(m)
    return points * scale


class TestPointDecision:
    """A cloud's decision, from the SVD of its centred points, against the same
    metric without its points, decided by the eigenpairs of its Gram form."""

    @given(points=lifted_clouds())
    @example(points=np.array([[1.0, 2.0]]))
    @example(points=np.zeros((1, 0)))
    @example(points=np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]]))
    @example(points=np.eye(5)[:4] * 2.0 ** 200)
    @example(points=np.arange(12.0).reshape(4, 3) * 2.0 ** -200)
    @example(points=np.array([[1.7e308, 0.0], [1.7e308, 1.0], [1.7e308, 3.0]]))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_eigenpairs(self, points):
        X = euclidean_metric(points)
        oracle, expected, _, expected_keep = spectral_decision(FiniteMetricSpace(X.n, X.d))
        report, evals, vecs, keep = spectral_decision(X)
        assert X.n - 1 - evals.size == max(X.n - 1 - points.shape[1], 0)
        assert (report.is_negative_type, report.is_strict) == (oracle.is_negative_type,
                                                                oracle.is_strict)
        assert keep.sum() == expected_keep.sum()
        assert vecs.shape == (X.n, evals.size)
        # the eigenvalues the SVD leaves out are exact zeros
        padded = np.concatenate([np.zeros(X.n - 1 - evals.size), evals])
        radius = np.abs(expected).max(initial=0.0)
        assert np.abs(padded - expected).max(initial=0.0) <= 16 * X.n * UNIT_ROUNDOFF * radius
        assert report.threshold == pytest.approx(oracle.threshold, rel=1e-12, abs=0.0)
        assert embed(X).residual <= RESIDUAL_LIMIT
        if report.is_strict:
            assert report.witness is None
        else:
            D = X.d ** 2
            witness = report.witness
            assert abs(witness.sum()) <= 8 * X.n * UNIT_ROUNDOFF
            assert np.linalg.norm(witness) == pytest.approx(1.0, rel=1e-12)
            assert abs(quadratic_form(D, witness)) <= 8 * X.n * UNIT_ROUNDOFF * np.abs(D).max()

    def test_memory_is_linear(self, rng):
        # no Gram matrix, restricted form or (n, n-1) eigenvectors: O(n m)
        # memory, a witness of the kernel included
        n = 400
        X = euclidean_metric(rng.standard_normal((n, 3)))
        tracemalloc.start()
        try:
            report = spectral_decision(X)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.witness is not None
        assert peak <= 0.1 * n * n * 8  # bytes
