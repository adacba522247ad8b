import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist, pdist, squareform

from snowflake_embed import (
    close_group,
    dihedral_action,
    euclidean_metric,
    snowflake,
    validate_metric,
)
from snowflake_embed.errors import (
    DimensionMismatch,
    DomainError,
    DuplicatePoints,
    MetricValidationError,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    NotSymmetric,
    TriangleViolation,
)
from snowflake_embed import metric, negative_type
from snowflake_embed.metric import exponent_value, orbit_distances, pairwise_distances
from snowflake_embed.negative_type import spectral_decision

#: Unit roundoff of a double, 2**-53.
UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def reference_triangle_scan(d, tol):
    """The O(n^3) loop over intermediate points that decided validate_metric
    before its Floyd-Warshall pass test: None when the triangle inequality
    holds up to ``tol * max(d)``, else the first (i, j, k, direct, via)."""
    slack = tol * d.max() if d.shape[0] > 1 else 0.0
    for k in range(d.shape[0]):
        via = d[:, [k]] + d[[k], :]
        viol = d > via + slack
        if viol.any():
            i, j = np.argwhere(viol)[0]
            return int(i), int(j), k, float(d[i, j]), float(via[i, j])
    return None


def refuse(*args, **kwargs):
    raise AssertionError("called although the input needs no such proof")


def perturbed_metric(rng, n, kind, bumps, scale):
    """A metric with many tight triangles, then ``bumps`` symmetric entries
    scaled by a relative amount up to ``scale``."""
    if kind == "line":  # distinct integers: d_ij = d_ik + d_kj exactly
        d = pairwise_distances(rng.permutation(3 * n)[:n, None].astype(float))
    elif kind == "cloud":
        d = pairwise_distances(rng.standard_normal((n, 2)))
    else:  # shortest-path completion: tight along many multi-hop paths
        d = rng.uniform(0.5, 2.0, size=(n, n))
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
        for _ in range(2):
            for k in range(n):
                d = np.minimum(d, d[:, [k]] + d[[k], :])
    for _ in range(bumps):
        i, j = rng.choice(n, size=2, replace=False)
        d[i, j] = d[j, i] = d[i, j] * (1.0 + rng.uniform(-1.0, 1.0) * scale)
    return d


class TestValidateMetric:
    def test_smallest_space(self):
        X = validate_metric([[0, 1], [1, 0]], tol=1e-12)
        assert X.n == 2
        assert X.d[0, 1] == 1.0

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric) as exc:
            validate_metric([[0, 1], [2, 0]])
        assert (exc.value.i, exc.value.j) == (0, 1)

    def test_triangle_violation_names_triple(self):
        with pytest.raises(TriangleViolation) as exc:
            validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]], tol=1e-12)
        assert (exc.value.i, exc.value.j, exc.value.k) == (0, 2, 1)
        assert exc.value.direct == 3.0
        assert exc.value.via == 2.0

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal) as exc:
            validate_metric([[0, 1], [1, 0.5]])
        assert exc.value.i == 1

    def test_nonpositive_off_diagonal(self):
        with pytest.raises(NonpositiveOffDiagonal):
            validate_metric([[0, 0], [0, 0]])
        with pytest.raises(NonpositiveOffDiagonal):
            validate_metric([[0, -1], [-1, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            validate_metric([[0, 1, 2], [1, 0, 1]])

    def test_rejects_nan(self):
        with pytest.raises(MetricValidationError):
            validate_metric([[0, np.nan], [np.nan, 0]])

    def test_triangle_slack_scales_with_magnitude(self):
        # 2e9 > 1e9 + 1e9 by 1 ulp-ish perturbation is forgiven at tol=1e-9
        big = 1e9
        d = np.array([[0, big, 2 * big + 0.5], [big, 0, big], [2 * big + 0.5, big, 0]])
        validate_metric(d, tol=1e-9)
        with pytest.raises(TriangleViolation):
            validate_metric(d, tol=1e-12)

    def test_multi_hop_slack_accepted(self):
        # every two-hop path is within the slack, but the three-hop path
        # 0-1-2-3 undercuts d[0, 3] by 2s > slack: the compiled pass test
        # rejects and the loop over intermediate points must still accept
        tol = 1e-3
        s = 0.75 * tol * 3.0
        d = np.array([
            [0, 1, 2 + s, 3 + 2 * s],
            [1, 0, 1, 2 + s],
            [2 + s, 1, 0, 1],
            [3 + 2 * s, 2 + s, 1, 0],
        ])
        assert reference_triangle_scan(d, tol) is None
        assert d[0, 3] > 3.0 + tol * d.max()
        validate_metric(d, tol=tol)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 12),
        kind=st.sampled_from(["line", "cloud", "paths"]),
        bumps=st.integers(0, 3),
        scale=st.sampled_from([1e-13, 1e-11, 1e-9, 1e-6, 0.1]),
        tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
    )
    @settings(max_examples=300, deadline=None)
    def test_triangle_verdict_matches_reference(self, seed, n, kind, bumps, scale, tol):
        d = perturbed_metric(np.random.default_rng(seed), n, kind, bumps, scale)
        expected = reference_triangle_scan(d, tol)
        if expected is None:
            assert np.array_equal(validate_metric(d, tol=tol).d, d)
        else:
            with pytest.raises(TriangleViolation) as exc:
                validate_metric(d, tol=tol)
            v = exc.value
            assert (v.i, v.j, v.k, v.direct, v.via) == expected

    def test_violation_through_point_zero_named_before_pass_test(self, rng, monkeypatch):
        # an entry inflated past its path through point 0 is named by the
        # loop's k = 0 step, before the O(n^3) Floyd-Warshall pass test
        import scipy.sparse.csgraph

        def no_pass_test(*args, **kwargs):
            raise AssertionError("the pass test ran before the k = 0 step")

        monkeypatch.setattr(scipy.sparse.csgraph, "shortest_path", no_pass_test)
        d = pairwise_distances(rng.standard_normal((60, 3)))
        d[7, 23] = d[23, 7] = 2.0 * (d[7, 0] + d[0, 23])
        expected = reference_triangle_scan(d, 1e-9)
        assert expected is not None and expected[2] == 0
        with pytest.raises(TriangleViolation) as exc:
            validate_metric(d)
        v = exc.value
        assert (v.i, v.j, v.k, v.direct, v.via) == expected

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        kind=st.sampled_from(["cloud", "line"]),
        bumps=st.integers(0, 3),
        amount=st.sampled_from([1.0 / 3.0, 1.0 - 4.0 * UNIT_ROUNDOFF, 1.0 + 4.0 * UNIT_ROUNDOFF]),
        tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
    )
    @settings(max_examples=300, deadline=None)
    def test_euclidean_witness_verdict_matches_reference(self, seed, n, kind, bumps, amount,
                                                         tol):
        # Euclidean inputs, which the witness may decide, with entries moved by
        # a third of the slack or by the slack itself to within a few roundings
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        if kind == "cloud":
            d = pairwise_distances(rng.standard_normal((n, 3)) * scale)
        else:  # a collinear grid: d_ij = d_ik + d_kj exactly for k between i and j
            d = pairwise_distances(rng.permutation(3 * n)[:n, None] * scale)
        slack = tol * d.max()
        for _ in range(bumps):
            i, j = rng.choice(n, size=2, replace=False)
            d[i, j] = d[j, i] = d[i, j] + rng.choice([-1.0, 1.0]) * amount * slack
        expected = reference_triangle_scan(d, tol)
        if metric._euclidean_witness(d, slack):
            assert expected is None
        if expected is None:
            assert np.array_equal(validate_metric(d, tol=tol).d, d)
        else:
            with pytest.raises(TriangleViolation) as exc:
                validate_metric(d, tol=tol)
            v = exc.value
            assert (v.i, v.j, v.k, v.direct, v.via) == expected

    @pytest.mark.parametrize("share", [0.33, 0.34])
    def test_witness_limit_is_a_third_of_the_slack(self, share, monkeypatch):
        # the points 0, 1/4, 1/2 of a line, every distance off by t in the
        # direction that opens the triangle (0, 2) via 1 by 3t: the witness
        # accepts these coordinates while 3t is within the slack, and must
        # refuse them beyond it, where the input violates the inequality
        monkeypatch.setattr(metric, "_pivoted_cholesky",
                            lambda G, cap: np.array([[0.0, 0.25, 0.5]]))
        tol = 1e-9
        t = share * tol * 0.5
        d = np.array([[0.0, 0.25 - t, 0.5 + t], [0.25 - t, 0.0, 0.25 - t],
                      [0.5 + t, 0.25 - t, 0.0]])
        holds = reference_triangle_scan(d, tol) is None
        assert holds == (share < 1.0 / 3.0)
        assert metric._euclidean_witness(d, tol * d.max()) == holds

    @staticmethod
    def shortest_path_calls(monkeypatch, forbid=False):
        """The calls of validate_metric's Floyd-Warshall pass test, which raise if
        ``forbid``."""
        import scipy.sparse.csgraph

        calls, shortest_path = [], scipy.sparse.csgraph.shortest_path

        def recorded(*args, **kwargs):
            if forbid:
                raise AssertionError("a Euclidean input reached the Floyd-Warshall pass test")
            calls.append(args[0].shape)
            return shortest_path(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.csgraph, "shortest_path", recorded)
        return calls

    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    @pytest.mark.parametrize("n", [1, 2])
    def test_one_or_two_points_skip_both_proofs(self, n, tol, monkeypatch):
        # no triangle has three distinct points: the loop alone decides
        self.shortest_path_calls(monkeypatch, forbid=True)
        monkeypatch.setattr(metric, "_euclidean_witness", refuse)
        d = pairwise_distances(np.arange(float(n))[:, None])
        assert np.array_equal(validate_metric(d, tol=tol).d, d)

    @pytest.mark.parametrize("points", [
        np.random.default_rng(1).standard_normal((5, 3)),
        np.random.default_rng(2).standard_normal((60, 3)),
        np.random.default_rng(3).standard_normal((300, 3)) * 1e4,
        np.arange(450.0)[:, None],
        np.stack(np.meshgrid(np.arange(12.0), np.arange(9.0)), axis=-1).reshape(-1, 2),
    ], ids=["cloud5", "cloud60", "cloud300", "line450", "grid12x9"])
    def test_euclidean_inputs_skip_floyd_warshall(self, points, monkeypatch):
        self.shortest_path_calls(monkeypatch, forbid=True)
        d = pairwise_distances(points)
        assert np.array_equal(validate_metric(d, tol=1e-9).d, d)

    @pytest.mark.parametrize("case", ["claw", "paths", "cloud450x30", "tol0", "range"])
    def test_other_inputs_reach_floyd_warshall(self, case, claw_matrix, monkeypatch):
        rng = np.random.default_rng(4)
        tol = 1e-9
        if case == "claw":  # not of negative type, so not Euclidean
            d = claw_matrix
        elif case == "paths":
            d = perturbed_metric(rng, 40, "paths", 0, 0.0)
        elif case == "cloud450x30":  # rank 30, above the witness's cap of ceil(sqrt(450))
            d = pairwise_distances(rng.standard_normal((450, 30)))
        elif case == "tol0":  # no slack to verify against
            d, tol = pairwise_distances(rng.standard_normal((20, 3))), 0.0
        else:  # a dynamic range past 2**400, where squares would underflow
            d = pairwise_distances(np.array([[0.0], [2.0 ** -420], [1.0], [3.0]]))
        assert reference_triangle_scan(d, tol) is None
        calls = self.shortest_path_calls(monkeypatch)
        validate_metric(d, tol=tol)
        assert calls == [d.shape]

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_extreme_scales_keep_their_verdicts(self, scale, monkeypatch):
        # d o d overflows or underflows at these scales unless the witness
        # rescales; a RuntimeWarning would fail the test
        self.shortest_path_calls(monkeypatch, forbid=True)
        rng = np.random.default_rng(5)
        d = pairwise_distances(rng.standard_normal((40, 3))) * scale
        assert np.array_equal(validate_metric(d).d, d)
        d[3, 17] = d[17, 3] = 3.0 * (d[3, 0] + d[0, 17])
        expected = reference_triangle_scan(d, 1e-9)
        with pytest.raises(TriangleViolation) as exc:
            validate_metric(d)
        v = exc.value
        assert (v.i, v.j, v.k, v.direct, v.via) == expected

    def test_witness_peak_within_spectral_decision(self, rng):
        # the witness stays below the memory of the spectral decision that
        # negtype and embed run next, so their process peak cannot rise
        d = pairwise_distances(rng.standard_normal((450, 3)))
        X = validate_metric(d)

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: validate_metric(d)) <= peak(lambda: spectral_decision(X))

    def test_result_is_readonly(self):
        X = validate_metric([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            X.d[0, 1] = 5.0


class TestPivotedCholesky:
    def test_factors_a_low_rank_gram_matrix(self, rng):
        x = rng.standard_normal((30, 3))
        x -= x.mean(axis=0)
        G = x @ x.T
        rows = metric._pivoted_cholesky(G, 30)
        assert rows.shape == (3, 30)
        assert np.allclose(rows.T @ rows, G, rtol=0, atol=1e-12 * np.abs(G).max())

    def test_gives_up_on_an_indefinite_form(self, claw_matrix):
        # the claw is not of negative type: its centred form has a negative eigenvalue
        G = metric.gram_from_distances(claw_matrix ** 2)
        assert np.linalg.eigvalsh(G)[0] < 0.0
        assert metric._pivoted_cholesky(G, 4) is None

    def test_gives_up_past_the_cap(self, rng):
        x = rng.standard_normal((30, 6))
        assert metric._pivoted_cholesky(x @ x.T, 5) is None
        assert len(metric._pivoted_cholesky(x @ x.T, 6)) == 6


class TestSnowflake:
    def test_square_root_example(self):
        X = validate_metric([[0, 4], [4, 0]])
        assert np.array_equal(snowflake(X, 0.5).d, [[0, 2], [2, 0]])

    def test_identity_exponent(self):
        X = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert np.array_equal(snowflake(X, 1.0).d, X.d)

    def test_perfect_squares(self):
        X = validate_metric([[0, 9, 16], [9, 0, 25], [16, 25, 0]])
        expected = [[0, 3, 4], [3, 0, 5], [4, 5, 0]]
        assert np.allclose(snowflake(X, 0.5).d, expected, rtol=0, atol=1e-12)

    def test_alpha_zero_is_uniform(self):
        X = validate_metric([[0, 9, 16], [9, 0, 25], [16, 25, 0]])
        out = snowflake(X, 0.0)
        assert np.array_equal(out.d, np.ones((3, 3)) - np.eye(3))

    def test_exponent_domain(self):
        X = validate_metric([[0, 1], [1, 0]])
        for bad in (-0.1, 1.5):
            with pytest.raises(DomainError):
                snowflake(X, bad)
        with pytest.raises(DomainError, match=r"snowflake exponent must lie in \[0, 1\], got 2\.0"):
            exponent_value(2)

    @given(
        points=st.lists(st.integers(0, 40), min_size=2, max_size=8, unique=True),
        a=st.floats(0.05, 1.0),
        b=st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_composition(self, points, a, b):
        X = euclidean_metric(np.asarray(points, dtype=float)[:, None])
        twice = snowflake(snowflake(X, a), b)
        once = snowflake(X, a * b)
        assert np.allclose(twice.d, once.d, rtol=1e-13, atol=1e-13)

    @given(
        points=st.lists(st.integers(0, 40), min_size=2, max_size=8, unique=True),
        a=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_snowflake_preserves_metric_axioms(self, points, a):
        X = euclidean_metric(np.asarray(points, dtype=float)[:, None])
        validate_metric(snowflake(X, a).d, tol=1e-12)

    def test_snowflake_of_generic_metric_is_metric(self, make_metric):
        for n in (3, 5, 8):
            w = make_metric(n)
            X = validate_metric(w, tol=1e-12)
            for a in (0.0, 0.1, 0.5, 0.9, 1.0):
                validate_metric(snowflake(X, a).d, tol=1e-12)


class TestEuclideanMetric:
    def test_line_segment(self):
        X = euclidean_metric([[0.0], [3.0]])
        assert np.array_equal(X.d, [[0, 3], [3, 0]])

    def test_right_triangle(self):
        X = euclidean_metric([[0, 0], [1, 0], [0, 1]])
        assert X.d[0, 1] == 1.0
        assert X.d[0, 2] == 1.0
        assert X.d[1, 2] == pytest.approx(np.sqrt(2), rel=1e-15)

    def test_duplicate_points(self):
        with pytest.raises(DuplicatePoints) as exc:
            euclidean_metric([[0.0], [0.0]])
        assert exc.value.pairs == [(0, 1)]

    def test_random_clouds_validate(self, rng, make_cloud):
        for _ in range(20):
            n = int(rng.integers(2, 20))
            m = int(rng.integers(1, 6))
            X = euclidean_metric(make_cloud(n, m))
            validate_metric(X.d, tol=1e-9)

    def test_rejects_nonfinite(self):
        with pytest.raises(MetricValidationError, match="coordinates must be finite"):
            euclidean_metric([[np.inf, 0.0]])
        # finite coordinates whose distance overflows
        with pytest.raises(MetricValidationError):
            euclidean_metric([[0.0], [1e200]])

    def test_rejects_points_not_rows_of_a_matrix(self):
        with pytest.raises(DimensionMismatch):
            euclidean_metric(np.zeros((2, 2, 2)))

    def test_duplicate_pairs_in_row_major_order(self):
        with pytest.raises(DuplicatePoints) as exc:
            euclidean_metric([[1.0], [0.0], [1.0], [0.0], [2.0]])
        assert exc.value.pairs == [(0, 2), (1, 3)]

    def test_overflow_raises_without_warning(self):
        # the squared difference 1e400 overflows: a verdict, not a RuntimeWarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(MetricValidationError):
                euclidean_metric([[0.0], [1e200]])
        assert caught == []


class TestPairwiseDistances:
    @pytest.mark.parametrize("n, m", [(1, 3), (2, 1), (40, 3), (60, 7), (50, 49)])
    def test_symmetric_and_matches_broadcast(self, rng, n, m):
        coords = rng.standard_normal((n, m))
        d = pairwise_distances(coords)
        assert d.shape == (n, n)
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diagonal(d), np.zeros(n))
        diff = coords[:, None, :] - coords[None, :, :]
        reference = np.sqrt((diff * diff).sum(axis=-1))
        assert (np.abs(d - reference) <= 1e-15 * reference).all()

    @given(coords=arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 5)),
                         elements=st.floats(-1e100, 1e100)))
    @settings(max_examples=100, deadline=None)
    def test_within_one_ulp_of_pdist(self, coords):
        d = pairwise_distances(coords)
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diagonal(d), np.zeros(len(coords)))
        assert np.array_equal(d, squareform(pdist(coords)))


#: signed permutations of E^3, the hyperoctahedral group B3 of order 48
B3_GENERATORS = [np.eye(3)[[1, 0, 2]], np.eye(3)[[1, 2, 0]], np.diag([-1.0, 1.0, 1.0])]


class TestOrbitDistances:
    @pytest.mark.parametrize("action", [dihedral_action(8), close_group(B3_GENERATORS)],
                             ids=["d8", "b3"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e5])
    def test_equals_cdist(self, rng, action, scale):
        reps = rng.standard_normal((7, action.dim)) * scale
        images = np.stack([action.matrices @ x for x in reps])
        F = orbit_distances(reps, images)
        assert F.shape == (7, 7, action.group.order)
        assert np.array_equal(F.reshape(7, -1), cdist(reps, images.reshape(-1, action.dim)))


class TestSquaredDistanceMatrix:
    """The entrywise squares X.d ** 2 that ``spectral_decision`` centres."""

    @staticmethod
    def centred(X, monkeypatch):
        seen = []
        gram_from_distances = negative_type.gram_from_distances
        monkeypatch.setattr(negative_type, "gram_from_distances",
                            lambda D: seen.append(D) or gram_from_distances(D))
        negative_type.check_negative_type(X)
        return seen[0]

    def test_simple(self, monkeypatch):
        X = validate_metric([[0, 2], [2, 0]])
        assert np.array_equal(self.centred(X, monkeypatch), [[0, 4], [4, 0]])

    def test_zero_diagonal(self, monkeypatch):
        X = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert np.array_equal(np.diagonal(self.centred(X, monkeypatch)), np.zeros(3))

    def test_three_points(self, monkeypatch):
        X = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert np.array_equal(self.centred(X, monkeypatch), [[0, 1, 4], [1, 0, 1], [4, 1, 0]])
