import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

import snowflake_embed.embedding as embedding_module
from snowflake_embed import (
    embed,
    embedding_residual,
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
    TheoremViolation,
)
from snowflake_embed.metric import pairwise_distances
from snowflake_embed.negative_type import spectral_decision

from oracles import general_position_certificate


class TestGramFromDistances:
    def test_two_point_centering(self):
        assert np.array_equal(gram_from_distances([[0, 4], [4, 0]]), [[1, -1], [-1, 1]])

    def test_zero(self):
        assert np.array_equal(gram_from_distances(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_equilateral(self):
        D = np.ones((3, 3)) - np.eye(3)
        P = np.eye(3) - np.ones((3, 3)) / 3
        assert np.allclose(gram_from_distances(D), 0.5 * P, atol=1e-15)

    def test_annihilates_ones(self, rng, make_cloud):
        D = euclidean_metric(make_cloud(7, 3)).d ** 2
        B = gram_from_distances(D)
        assert np.array_equal(B, B.T)
        assert np.abs(B @ np.ones(7)).max() < 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gram_from_distances([[0, 1], [2, 0]])
        with pytest.raises(ValueError):
            gram_from_distances([[1, 0], [0, 1]])
        with pytest.raises(DimensionMismatch):
            gram_from_distances([[0, 1, 1], [1, 0, 1]])


class TestEmbed:
    def test_two_point_space(self):
        X = validate_metric([[0, 5], [5, 0]])
        res = embed(X)
        assert res.rank == 1
        assert res.coordinates.shape == (2, 1)
        # centered at the centroid, distance reproduced
        assert abs(res.coordinates.sum()) < 1e-12
        assert np.abs(res.coordinates).max() == pytest.approx(2.5, rel=1e-12)
        assert res.residual < 1e-12

    def test_claw_not_embeddable(self, claw_matrix):
        X = validate_metric(claw_matrix)
        with pytest.raises(NotEmbeddable) as exc:
            embed(X)
        assert exc.value.eigenvalue == pytest.approx(-0.25, abs=1e-12)
        w = exc.value.witness
        assert abs(w.sum()) < 1e-9
        assert quadratic_form(X.d ** 2, w) > 0

    def test_equilateral_triangle(self):
        X = validate_metric(np.ones((3, 3)) - np.eye(3))
        res = embed(X)
        assert res.rank == 2
        d = pairwise_distances(res.coordinates)
        assert np.allclose(d + np.eye(3), np.ones((3, 3)), atol=1e-12)

    def test_spectrum_shape_and_order(self, make_cloud):
        X = euclidean_metric(make_cloud(6, 2))
        res = embed(X)
        assert res.eigenvalues.shape == (5,)
        assert np.all(np.diff(res.eigenvalues) <= 0)
        assert res.rank == 2

    def test_single_point(self):
        res = embed(validate_metric([[0.0]]))
        assert res.rank == 0
        assert res.coordinates.shape == (1, 0)
        assert res.residual == 0.0

    def test_point_cap(self, monkeypatch):
        monkeypatch.setattr(embedding_module, "MAX_POINTS", 3)
        X = euclidean_metric([[0.0], [1.0], [2.5], [4.0]])
        with pytest.raises(ValueError):
            embed(X)

    def test_recovers_cloud_distances(self, rng, make_cloud):
        for _ in range(10):
            n = int(rng.integers(3, 50))
            m = int(rng.integers(1, 10))
            X = euclidean_metric(make_cloud(n, m))
            res = embed(X)
            assert res.rank <= min(m, n - 1)
            assert res.residual <= 1e-9


class TestSnowflakeEmbed:
    def test_collinear_becomes_full_rank(self):
        X = euclidean_metric([[0.0], [1.0], [2.0]])
        assert embed(X).rank == 1
        res = snowflake_embed(X, 0.5)
        assert res.rank == 2
        d = np.sort(pairwise_distances(res.coordinates)[np.triu_indices(3, k=1)])
        assert np.allclose(d, [1.0, 1.0, np.sqrt(2)], atol=1e-12)

    def test_arrays_are_c_contiguous(self, make_cloud):
        # what the JSON writer hands to orjson without a tolist() copy
        res = snowflake_embed(euclidean_metric(make_cloud(12, 3)), 0.5)
        assert res.coordinates.shape == (12, 11)
        assert res.coordinates.flags.c_contiguous
        assert res.eigenvalues.flags.c_contiguous
        assert not res.coordinates.flags.writeable and not res.eigenvalues.flags.writeable

    def test_two_points(self):
        X = euclidean_metric([[0.0], [7.0]])
        assert snowflake_embed(X, 0.3).rank == 1

    def test_unit_square(self):
        X = euclidean_metric([[0, 0], [1, 0], [1, 1], [0, 1]])
        res = snowflake_embed(X, 0.5)
        assert res.rank == 3
        assert res.residual <= 1e-10

    def test_margin_is_reported(self, make_cloud):
        X = euclidean_metric(make_cloud(6, 2))
        res = snowflake_embed(X, 0.5)
        assert res.eigenvalues[res.rank - 1] > 0

    def test_point_cap_checked_first(self, monkeypatch, make_cloud):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh ran before the point cap was checked")

        monkeypatch.setattr(embedding_module, "MAX_POINTS", 40)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        X = euclidean_metric(make_cloud(60, 3))
        with pytest.raises(DomainError, match="exceeds the configured cap 40"):
            snowflake_embed(X, 0.5)

    def test_large_cloud_full_rank(self, rng):
        # the residual check of an (n, n-1) embedding at n = 1200 needs
        # O(n^2) memory; a broadcast difference tensor alone would take 13 GiB
        X = euclidean_metric(rng.standard_normal((1200, 3)))
        res = snowflake_embed(X, 0.5)
        assert res.rank == 1199
        assert res.residual <= embedding_module.RESIDUAL_LIMIT

    def test_exponent_domain(self):
        X = euclidean_metric([[0.0], [1.0]])
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                snowflake_embed(X, bad)

    def test_hypothesis_checked(self, claw_matrix):
        X = validate_metric(claw_matrix)
        with pytest.raises(NotEmbeddable) as exc:
            snowflake_embed(X, 0.5)
        assert exc.value.reason == "input metric is not of negative type"

    def test_full_rank_sweep(self, rng, make_cloud):
        for a in (0.1, 0.5, 0.9):
            n = int(rng.integers(3, 20))
            m = int(rng.integers(1, 5))
            X = euclidean_metric(make_cloud(n, m))
            res = snowflake_embed(X, a)
            assert res.rank == n - 1
            assert res.residual <= 1e-8

    def test_coordinates_are_in_general_position(self, rng, make_cloud):
        # full rank n-1 says exactly that the embedded snowflake points are
        # affinely independent; the independent certificate must agree
        for _ in range(5):
            n = int(rng.integers(3, 12))
            X = euclidean_metric(make_cloud(n, 2))
            res = snowflake_embed(X, 0.6)
            assert general_position_certificate(res.coordinates).is_strict

    def test_degradation_towards_alpha_one(self):
        # smallest kept eigenvalue of the snowflaked collinear form shrinks
        # monotonically as the exponent approaches 1
        X = euclidean_metric([[0.0], [1.0], [2.0], [3.5]])
        margins = []
        for a in (0.5, 0.9, 0.99):
            res = snowflake_embed(X, a)
            margins.append(res.eigenvalues[res.rank - 1])
        assert margins[0] > margins[1] > margins[2] > 0

    def test_theorem_violation_carries_spectrum(self):
        # the error type itself; unreachable through honest inputs, so raise directly
        exc = TheoremViolation(1, 2, np.array([1.0, 0.0]))
        assert exc.rank == 1 and exc.expected_rank == 2

    def test_compound_degeneracy_refused(self):
        # a near-duplicate pair on a collinear cloud with alpha close to 1:
        # the true margin falls below the rank cutoff and the tiny distance
        # cannot be reconstructed at the residual limit, so the embedding is
        # refused rather than silently degraded
        X = euclidean_metric([[0.0], [1.0], [2.0], [2.0001]])
        with pytest.raises(NotEmbeddable):
            snowflake_embed(X, 0.999)
        # away from the compound degeneracy the same shape is fine
        Y = euclidean_metric([[0.0], [1.0], [2.0], [2.01]])
        res = snowflake_embed(Y, 0.9)
        assert res.rank == 3
        assert res.residual <= 1e-8


def eigenpair_embedding(X, alpha):
    """The embedding of X**alpha that its eigenpairs give, rank n-1 required, or
    None where they reject it."""
    Y = snowflake(X, alpha)
    try:
        result = embedding_module._coordinates(Y, spectral_decision(Y, 1e-9))
    except NotEmbeddable:
        return None
    return result if result.rank == X.n - 1 else None


@st.composite
def near_collision_clouds(draw):
    """2-40 points in 1-4 dimensions at a random scale, with one point moved
    next to another in about half of the draws."""
    n, m = draw(st.integers(2, 40)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.standard_normal((n, m)) * 10.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):
        gap = 10.0 ** draw(st.integers(-9, -2))
        points[1] = points[0] + gap * np.abs(points[0]).max() * rng.standard_normal(m)
    return points


class TestFactorPath:
    """``snowflake_embed`` from the eigenvalues and a Cholesky factor."""

    def test_coordinates_reproduce_the_gram_matrix(self, make_cloud):
        X = euclidean_metric(make_cloud(30, 3))
        res = snowflake_embed(X, 0.5)
        C = res.coordinates
        assert C.shape == (30, 29) and res.rank == 29
        assert C.flags.c_contiguous and not C.flags.writeable
        assert not res.eigenvalues.flags.writeable
        assert np.all(np.diff(res.eigenvalues) <= 0.0)
        B = gram_from_distances(snowflake(X, 0.5).d ** 2)
        assert np.abs(C @ C.T - B).max() <= 1e-13 * np.abs(B).max()
        # the same distances as the eigenpairs' coordinates, in another frame
        reference = eigenpair_embedding(X, 0.5)
        assert np.allclose(pdist(C), pdist(reference.coordinates), rtol=1e-12, atol=0.0)
        assert np.allclose(res.eigenvalues, reference.eigenvalues,
                           rtol=0.0, atol=1e-12 * res.eigenvalues[0])

    @given(points=near_collision_clouds(), alpha=st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_accepts_what_the_eigenpairs_accept(self, points, alpha):
        try:
            X = euclidean_metric(points)
        except DuplicatePoints:
            assume(False)
        reference = eigenpair_embedding(X, alpha)
        try:
            res = snowflake_embed(X, alpha)
        except NotEmbeddable:
            event("rejected")
            assert reference is None
            return
        event("accepted" if reference is not None else "accepted, eigenpairs reject")
        n = X.n
        C = res.coordinates
        assert C.shape == (n, n - 1) and res.rank == n - 1
        eps = np.finfo(float).eps
        assert np.abs(C.sum(axis=0)).max() <= 4.0 * n * eps * np.abs(C).max()
        assert res.residual <= embedding_module.RESIDUAL_LIMIT
        assert embedding_residual(C, snowflake(X, alpha)) == res.residual

    def test_memory_peak(self, rng):
        # the snowflake, its factor or coordinates, and the residual's pair
        # arrays; the input's own distances are held before the call
        n = 400
        X = euclidean_metric(rng.standard_normal((n, 3)))
        tracemalloc.start()
        try:
            snowflake_embed(X, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8.1 * n * n * 8  # bytes

    def test_residual_over_the_limit_tries_the_eigenpairs(self, make_cloud, monkeypatch):
        X = euclidean_metric(make_cloud(12, 2))
        reference = eigenpair_embedding(X, 0.5)
        residual = embedding_module.embedding_residual
        calls = []

        def factor_fails(coords, Y):
            calls.append(coords.shape)
            return 1.0 if len(calls) == 1 else residual(coords, Y)

        monkeypatch.setattr(embedding_module, "embedding_residual", factor_fails)
        res = snowflake_embed(X, 0.5)
        assert len(calls) == 2
        assert res.coordinates.tobytes() == reference.coordinates.tobytes()
        assert res.eigenvalues.tobytes() == reference.eigenvalues.tobytes()

    def test_factor_residual_is_the_failure_the_eigenpairs_cannot_mend(self, make_cloud,
                                                                       monkeypatch):
        # eigenpairs that miss rank n-1 after the factor proved the margin leave
        # the factor's residual as the verdict, as the strict check agrees
        X = euclidean_metric(make_cloud(12, 2))
        monkeypatch.setattr(embedding_module, "embedding_residual", lambda coords, Y: 1.0)
        monkeypatch.setattr(embedding_module, "spectral_decision",
                            lambda Y, tol: spectral_decision(Y, 0.5))
        with pytest.raises(NotEmbeddable) as exc:
            snowflake_embed(X, 0.5)
        assert exc.value.reason == "reconstruction residual 1.000e+00 exceeds 1e-08"
        assert exc.value.threshold == embedding_module.RESIDUAL_LIMIT

    def test_provenance_skips_the_hypothesis(self):
        # 30 collinear points at --tol 0: the eigenvalues of X itself include
        # round-off below zero, but X is Euclidean by construction
        X = euclidean_metric(np.arange(30.0)[:, None])
        assert not spectral_decision(validate_metric(X.d), 0.0)[0].is_negative_type
        res = snowflake_embed(X, 0.5, tol=0.0)
        assert res.rank == 29


class TestEmbeddingResidual:
    def test_exact_embedding(self):
        X = validate_metric([[0, 5], [5, 0]])
        res = embed(X)
        assert embedding_residual(res.coordinates, X) < 1e-15

    def test_scaled_coordinates(self):
        X = validate_metric([[0, 1], [1, 0]])
        coords = np.array([[0.0], [2.0]])
        assert embedding_residual(coords, X) == 1.0

    def test_dimension_mismatch(self):
        X = validate_metric([[0, 1], [1, 0]])
        with pytest.raises(DimensionMismatch):
            embedding_residual(np.zeros((3, 1)), X)

    def test_zero_dimensional_coordinates(self):
        # every reconstructed distance is 0, one full target away
        X = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert embedding_residual(np.zeros((3, 0)), X) == 1.0

    @pytest.mark.parametrize("points, alpha, accepted, embeds", [
        (np.random.default_rng(1).standard_normal((40, 3)), 0.5, True, True),
        (np.random.default_rng(2).standard_normal((60, 3)), 0.9, True, True),
        (np.random.default_rng(3).standard_normal((30, 3)), None, True, None),
        (np.arange(50.0)[:, None], 0.5, True, True),
        # the residual limit rejects the eigenpairs' coordinates of these two
        # (ROADMAP item 1); the Cholesky coordinates of the tight pair pass it
        (np.arange(200.0)[:, None], 0.999, False, False),
        (np.array([[0.0], [1e-5], [0.5], [1.0]]), 0.8, False, True),
    ], ids=["cloud40-a0.5", "cloud60-a0.9", "cloud30", "grid50-a0.5", "grid200-a0.999",
            "tight-a0.8"])
    def test_decision_and_value_match_differences(self, points, alpha, accepted, embeds):
        X = euclidean_metric(points)
        Y = X if alpha is None else snowflake(X, alpha)
        _, mu, U, keep = spectral_decision(Y, 1e-9)
        coords = U[:, keep] * np.sqrt(mu[keep])
        target = squareform(Y.d, checks=False)
        direct = pdist(coords)
        by_differences = float(np.max(np.abs(direct - target) / target))
        value = embedding_residual(coords, Y)
        limit = embedding_module.RESIDUAL_LIMIT
        assert (value <= limit) == (by_differences <= limit) == accepted
        # each pair's squared distance is within 2 gamma_(m+4) (|p_i| + |p_j|)^2 of
        # the pdist one, so its residual within that over (distance * target)
        norms = np.linalg.norm(coords, axis=1)
        k = coords.shape[1] + 4
        gamma = k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)
        radius = squareform(norms[:, None] + norms[None, :], checks=False)
        assert abs(value - by_differences) <= np.max(2.0 * gamma * radius ** 2 / (direct * target))
        if embeds:
            res = snowflake_embed(X, alpha)
            assert res.rank == X.n - 1 and res.residual <= limit
        elif embeds is not None:
            with pytest.raises(NotEmbeddable):
                snowflake_embed(X, alpha)

    def test_close_pair_far_from_origin_is_recomputed(self):
        # against norms of 1e4 the Gram form keeps about 1e-8 of a squared
        # distance of 1e-6: the bound leaves the close pair undecided, and its
        # coordinate differences reproduce it
        coords = np.array([[1e4, 0.0], [1e4 + 1e-3, 0.0], [1e4, 1.0]])
        X = euclidean_metric(coords)
        gram = coords @ coords.T
        estimate = np.sqrt(gram[0, 0] + gram[1, 1] - 2.0 * gram[0, 1])
        assert abs(estimate - X.d[0, 1]) / X.d[0, 1] > embedding_module.RESIDUAL_LIMIT
        assert embedding_residual(coords, X) <= 1e-15

    def test_memory_is_quadratic(self, rng):
        n = 400
        coords = rng.standard_normal((n, n - 1))
        X = euclidean_metric(coords)
        tracemalloc.start()
        try:
            embedding_residual(coords, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n * 8  # bytes: eight n x n float64 matrices

    def test_random_snowflakes_tight(self, rng, make_cloud):
        for _ in range(5):
            X = euclidean_metric(make_cloud(8, 3))
            a = float(rng.uniform(0.1, 0.9))
            res = snowflake_embed(X, a)
            Y = snowflake(X, a)
            assert embedding_residual(res.coordinates, Y) <= 1e-8


class TestThresholdCarried:
    def test_spectral_failure_carries_threshold(self, claw_matrix):
        from snowflake_embed import check_negative_type
        from snowflake_embed.negative_type import HYPOTHESIS_FAILS

        X = validate_metric(claw_matrix)
        report = check_negative_type(X)
        for run in (lambda: embed(X), lambda: snowflake_embed(X, 0.5)):
            with pytest.raises(NotEmbeddable) as exc:
                run()
            assert exc.value.eigenvalue == report.min_eigenvalue
            assert exc.value.threshold == report.threshold
            assert exc.value.eigenvalue < -exc.value.threshold
        assert exc.value.reason == HYPOTHESIS_FAILS

    def test_residual_failure_carries_residual_limit(self):
        # at alpha = 0.999 the grid's smallest eigenvalue is below the spectral
        # threshold, so the eigenpairs decide, and their coordinates miss the
        # residual limit (ROADMAP item 1)
        X = euclidean_metric(np.arange(200.0)[:, None])
        with pytest.raises(NotEmbeddable) as exc:
            snowflake_embed(X, 0.999)
        assert "residual" in exc.value.reason
        assert exc.value.threshold == embedding_module.RESIDUAL_LIMIT

    def test_eigenvalues_and_one_factor(self, make_cloud, monkeypatch):
        # a cloud is Euclidean by construction: the eigenvalues of X**alpha,
        # then its factor; a distance matrix adds the eigenvalues of X
        calls = {"eigh": 0, "eigvalsh": 0, "cholesky": 0}

        def counting(name):
            kernel = getattr(np.linalg, name)

            def count(a, *args, **kwargs):
                calls[name] += 1
                return kernel(a, *args, **kwargs)
            return count

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name))
        X = euclidean_metric(make_cloud(10, 2))
        snowflake_embed(X, 0.5)
        assert calls == {"eigh": 0, "eigvalsh": 1, "cholesky": 1}
        calls.update(eigh=0, eigvalsh=0, cholesky=0)
        snowflake_embed(validate_metric(X.d), 0.5)
        assert calls == {"eigh": 0, "eigvalsh": 2, "cholesky": 1}
