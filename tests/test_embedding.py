import tracemalloc

import numpy as np
import pytest
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

    @pytest.mark.parametrize("points, alpha, accepted", [
        (np.random.default_rng(1).standard_normal((40, 3)), 0.5, True),
        (np.random.default_rng(2).standard_normal((60, 3)), 0.9, True),
        (np.random.default_rng(3).standard_normal((30, 3)), None, True),
        (np.arange(50.0)[:, None], 0.5, True),
        # the residual limit rejects these two (ROADMAP item 1)
        (np.arange(200.0)[:, None], 0.999, False),
        (np.array([[0.0], [1e-5], [0.5], [1.0]]), 0.8, False),
    ], ids=["cloud40-a0.5", "cloud60-a0.9", "cloud30", "grid50-a0.5", "grid200-a0.999",
            "tight-a0.8"])
    def test_decision_and_value_match_differences(self, points, alpha, accepted):
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
        if alpha is not None and not accepted:
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
        # strict at alpha = 0.8, but the closest pair is below what the
        # residual limit can certify at this configuration scale
        X = euclidean_metric([[0.0], [1e-5], [0.5], [1.0]])
        with pytest.raises(NotEmbeddable) as exc:
            snowflake_embed(X, 0.8)
        assert "residual" in exc.value.reason
        assert exc.value.threshold == embedding_module.RESIDUAL_LIMIT

    def test_two_eigendecompositions(self, make_cloud, monkeypatch):
        # the hypothesis on X, then the decision on X**alpha that also
        # gives the coordinates
        eigh = np.linalg.eigh
        calls = []

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        snowflake_embed(euclidean_metric(make_cloud(10, 2)), 0.5)
        assert len(calls) == 2
