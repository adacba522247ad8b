from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import event, given, reject, settings
from hypothesis import strategies as st

from snowflake_embed import (
    close_group,
    dihedral_action,
    equivariance_defect,
    euclidean_metric,
    lift_orbits,
    qng_embed,
    quotient_distance,
    reflection_action,
    rotation_action,
    snowflake_embed,
    trivial_action,
)
from snowflake_embed import quotient as quotient_module
from snowflake_embed.errors import (
    DimensionMismatch,
    DomainError,
    InvarianceViolation,
    MetricValidationError,
    NonFreeOrbit,
    OrbitCollision,
    SnowflakeError,
    VerificationFailure,
)
from snowflake_embed.groups import FiniteGroup, OrthogonalAction
from snowflake_embed.metric import pairwise_distances
from snowflake_embed.negative_type import centered_spectrum, gram_from_distances, spectral_threshold
from snowflake_embed.quotient import PairCheck

#: signed permutations of E^3, the hyperoctahedral group B3 of order 48
B3_GENERATORS = [np.eye(3)[[1, 0, 2]], np.eye(3)[[1, 2, 0]], np.diag([-1.0, 1.0, 1.0])]
#: the Klein four group of the two coordinate mirrors of E^2
KLEIN_GENERATORS = [np.diag([-1.0, 1.0]), np.diag([1.0, -1.0])]
#: C9 shifting the coordinates of E^9, where norms of 9 terms are summed pairwise
C9_SHIFT = [np.eye(9)[np.roll(np.arange(9), 1)]]


def reindexed(action, order):
    """The same action with its elements listed in ``order``."""
    order = np.asarray(order)
    position = np.argsort(order)
    table = position[action.group.table[order[:, None], order[None, :]]]
    return OrthogonalAction(group=FiniteGroup.from_table(table), dim=action.dim,
                            matrices=action.matrices[order])


def free_reps(rng, action, n, low=0.5, high=2.5):
    """Random representatives whose orbits are free and disjoint."""
    for _ in range(500):
        reps = rng.uniform(low, high, size=(n, action.dim)) * rng.choice(
            [-1.0, 1.0], size=(n, action.dim)
        )
        try:
            return lift_orbits(reps, action, tol=1e-6)
        except (NonFreeOrbit, OrbitCollision):
            continue
    raise AssertionError("could not sample a free configuration")


class TestQuotientDistance:
    def test_reflection_line(self):
        action = reflection_action()
        assert quotient_distance([1.0], [2.0], action) == 1.0
        assert quotient_distance([1.0], [-2.0], action) == 1.0

    def test_same_orbit_is_zero(self):
        action = rotation_action(4)
        assert quotient_distance([1.0, 0.0], [0.0, 1.0], action) == pytest.approx(0.0, abs=1e-15)

    def test_identical_points(self, rng):
        action = dihedral_action(3)
        for _ in range(5):
            x = rng.normal(size=2)
            assert quotient_distance(x, x, action) == 0.0

    def test_dimension_mismatch(self):
        from snowflake_embed.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            quotient_distance([1.0, 2.0], [1.0, 2.0], reflection_action())

    def test_pseudometric_properties(self, rng):
        action = dihedral_action(3)
        for _ in range(30):
            x, y, z = rng.normal(size=(3, 2)) * 2.0
            dxy = quotient_distance(x, y, action)
            dyx = quotient_distance(y, x, action)
            assert dxy == pytest.approx(dyx, abs=1e-12)
            dxz = quotient_distance(x, z, action)
            dyz = quotient_distance(y, z, action)
            assert dxz <= dxy + dyz + 1e-12


class TestLiftOrbits:
    def test_reflection_two_orbits(self, lifted_points):
        config = lift_orbits([[1.0], [2.0]], reflection_action())
        assert config.size == 4
        assert np.array_equal(lifted_points(config).ravel(), [1.0, -1.0, 2.0, -2.0])

    def test_fixed_point_is_non_free(self):
        with pytest.raises(NonFreeOrbit) as exc:
            lift_orbits([[0.0]], reflection_action())
        assert exc.value.orbit == 0
        # the first close pair in row-major order: orbit 1's elements 0 and 1
        with pytest.raises(NonFreeOrbit) as exc:
            lift_orbits([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], rotation_action(4))
        assert (exc.value.orbit, exc.value.elements) == (1, [0, 1])

    def test_rotation_blocks(self, lifted_points):
        config = lift_orbits([[1.0, 0.0], [2.0, 0.0]], rotation_action(4))
        assert config.size == 8
        # block k occupies rows 4k..4k+3 and is one full orbit
        first = lifted_points(config)[:4]
        assert sorted(np.round(np.linalg.norm(first, axis=1), 12)) == [1.0] * 4

    @pytest.mark.parametrize("reps", [np.empty((0, 2)), np.empty((0, 2)).tolist()])
    def test_no_representatives(self, reps):
        with pytest.raises(DimensionMismatch, match="at least one orbit"):
            lift_orbits(reps, rotation_action(4))

    def test_colliding_representatives(self):
        with pytest.raises(OrbitCollision) as exc:
            lift_orbits([[1.0], [-1.0]], reflection_action())
        assert (exc.value.first, exc.value.second) == (0, 1)

    def test_collision_seen_one_way_round(self):
        # at tol = 0, y is the image of x under a fifth of a turn to the bit, while
        # turning y back can miss x by round-off: the pair must still collide
        action = rotation_action(5)
        x = np.array([0.1257302210933933, -0.1321048632913019])
        with pytest.raises(OrbitCollision) as exc:
            lift_orbits([x, (action.matrices @ x)[1]], action, tol=0.0)
        assert (exc.value.first, exc.value.second) == (0, 1)

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "coordinates must be finite"),
        (np.inf, "coordinates must be finite"),
        # finite, but the lifted distances overflow: no scale to judge freeness by
        (1e200, "distances must be finite"),
        (1e160, "distances must be finite"),
    ])
    def test_non_finite_representatives_rejected(self, bad, message):
        with pytest.raises(MetricValidationError, match=message):
            lift_orbits([[1.0, 0.5], [bad, 2.0]], rotation_action(4))

    def test_regular_permutation_structure(self):
        config = lift_orbits([[1.0], [2.0]], reflection_action())
        table = config.action.group.table
        order = config.group_order
        for g in range(order):
            for k in range(config.n_orbits):
                for h in range(order):
                    assert config.action_permutations[g][k * order + h] == (
                        k * order + table[g, h]
                    )


#: actions whose mirror axes and origin meet the half-integer grid; the last
#: lists D4's elements from its quarter turn on, so that the identity is the last
LIFT_ACTIONS = [reflection_action(), rotation_action(4), dihedral_action(4), dihedral_action(3),
                close_group(KLEIN_GENERATORS), close_group(B3_GENERATORS),
                reindexed(dihedral_action(4), np.roll(np.arange(8), -1))]


@st.composite
def orbit_representatives(draw):
    """An action and representatives on the half-integer grid (origin and mirror
    axes included), some of them images of others under a group element."""
    action = draw(st.sampled_from(LIFT_ACTIONS))
    coord = st.integers(-4, 4).map(lambda v: v / 2.0)
    reps = [np.array(p) for p in draw(st.lists(st.tuples(*[coord] * action.dim),
                                               min_size=1, max_size=4))]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(reps) - 1))
        g = draw(st.integers(0, action.group.order - 1))
        reps.insert(draw(st.integers(0, len(reps))), action.matrices[g] @ reps[k])
    return action, np.array(reps)


def lifted_permutations(reps, action):
    return lift_orbits(reps, action).action_permutations


def lift_outcome(lift, reps, action):
    """The permutations, or the exception raised with its fields."""
    try:
        return "ok", np.asarray(lift(reps, action)).tolist()
    except SnowflakeError as exc:
        return type(exc).__name__, str(exc), vars(exc)


class TestLiftOrbitsReference:
    """Freeness judged on the orbit distances against the scan over all lifted pairs."""

    @given(case=orbit_representatives())
    @settings(max_examples=150, deadline=None)
    def test_matches_lifted_scan(self, case, reference_lift_orbits):
        action, reps = case
        outcome = lift_outcome(lifted_permutations, reps, action)
        event(outcome[0])
        assert outcome == lift_outcome(reference_lift_orbits, reps, action)

    @pytest.mark.parametrize("reps", [
        [[0.0, 0.0]],
        [[1.0, 1.0], [2.0, 0.0]],
        [[2.0, 1.0], [1.0, 2.0]],
        [[2.0, 1.0], [0.5, 0.0], [-1.0, 2.0]],
        [[2.0, 1.0], [1.5, 0.5], [2.0, 1.0]],
    ])
    @pytest.mark.parametrize("action", [LIFT_ACTIONS[2], LIFT_ACTIONS[-1]],
                             ids=["d4", "d4-identity-last"])
    def test_fixed_cases(self, action, reps, reference_lift_orbits):
        outcome = lift_outcome(lifted_permutations, reps, action)
        assert outcome == lift_outcome(reference_lift_orbits, reps, action)
        assert outcome[0] in ("NonFreeOrbit", "OrbitCollision")


class TestRegularPermutations:
    def test_identity_element(self):
        config = lift_orbits([[1.0], [2.0]], reflection_action())
        perms = config.action_permutations
        assert np.array_equal(perms[config.action.group.identity_index], np.arange(4))

    def test_single_orbit_c2_is_swap(self):
        config = lift_orbits([[1.5]], reflection_action())
        assert np.array_equal(config.action_permutations[1], [1, 0])

    def test_inverse_composition(self):
        config = lift_orbits([[1.0, 0.2], [2.0, 0.4]], rotation_action(4))
        perms = config.action_permutations
        inv = config.action.group.inverse
        for g, sigma in enumerate(perms):
            assert np.array_equal(sigma[perms[inv[g]]], np.arange(config.size))

    def test_homomorphism_exact(self):
        config = lift_orbits([[1.0, 0.2]], dihedral_action(3))
        perms = config.action_permutations
        table = config.action.group.table
        for g in range(6):
            for h in range(6):
                assert np.array_equal(perms[g][perms[h]], perms[table[g, h]])

    def test_permutations_match_geometry(self, lifted_points):
        # applying the group element to all lifted points permutes them
        # exactly as the regular permutation claims
        config = lift_orbits([[1.0, 0.3], [2.2, -0.5]], rotation_action(3))
        lifted = lifted_points(config)
        for g in range(3):
            moved = lifted @ config.action.matrices[g].T
            assert np.allclose(moved, lifted[config.action_permutations[g]], atol=1e-12)


def dense_defect(T, mats):
    """The defect by its definition, max |T P - P T| over permutation matrices."""
    return max(float(np.abs(T @ P - P @ T).max()) for P in mats)


class TestEquivarianceDefect:
    def test_identity_matrix(self):
        config = lift_orbits([[1.0]], reflection_action())
        assert equivariance_defect(np.eye(2), config.action_permutations) == 0.0
        assert equivariance_defect(np.eye(2), np.zeros((0, 2), dtype=int)) == 0.0

    def test_abelian_permutation(self, dense_permutations):
        config = lift_orbits([[1.0, 0.0]], rotation_action(4))
        mats = dense_permutations(config)
        assert equivariance_defect(mats[1], config.action_permutations) == 0.0

    def test_pipeline_root(self):
        config = lift_orbits([[1.0], [2.0]], reflection_action())
        result = qng_embed(config, 0.5)
        assert equivariance_defect(result.gram_root, config.action_permutations) <= 1e-10

    def test_matches_dense_reference(self, rng, dense_permutations):
        # the hyperoctahedral group of order 48: signed permutations of E^3
        b3 = close_group(B3_GENERATORS)
        for action in (dihedral_action(4), rotation_action(5), b3):
            config = free_reps(rng, action, 3)
            perms = config.action_permutations
            mats = dense_permutations(config)
            A = rng.normal(size=(config.size, config.size))
            generic = A + A.T
            assert equivariance_defect(generic, perms) > 0.0
            for T in (generic, qng_embed(config, 0.5).gram_root):
                assert equivariance_defect(T, perms) == dense_defect(T, mats)
        # a group whose action on the indices is not free: 2 and 3 are fixed
        perms = np.array([[0, 1, 2, 3], [1, 0, 2, 3]])
        A = rng.normal(size=(4, 4))
        assert equivariance_defect(A, perms) == dense_defect(A, [np.eye(4)[:, s] for s in perms])

    def test_dimension_mismatch(self):
        config = lift_orbits([[1.0], [2.0]], reflection_action())
        with pytest.raises(DimensionMismatch):
            equivariance_defect(np.eye(3), config.action_permutations)


class TestQngEmbed:
    def test_reflection_example(self, dense_permutations):
        config = lift_orbits([[1.0], [2.0]], reflection_action())
        result = qng_embed(config, 0.5)
        assert result.points.shape == (2, 4)
        # oracle: minimum over the two permuted copies of the second point
        mats = dense_permutations(config)
        p0, p1 = result.points
        achieved = min(np.linalg.norm(p0 - P @ p1) for P in mats)
        assert achieved == pytest.approx(min(1.0, 3.0) ** 0.5, abs=1e-9)
        assert result.report[0].achieved == pytest.approx(achieved, abs=1e-12)
        assert result.max_abs_error <= 1e-9

    def test_points_live_in_the_hyperplane(self):
        config = lift_orbits([[1.0, 0.1], [2.0, -0.3]], rotation_action(3))
        result = qng_embed(config, 0.25)
        assert np.abs(result.points.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(result.gram_root @ np.ones(config.size)).max() <= 1e-12

    def test_alpha_zero_gives_unit_simplex(self):
        config = lift_orbits([[1.0], [2.0], [3.0]], reflection_action())
        result = qng_embed(config, 0.0)
        for row in result.report:
            assert row.target == 1.0
            assert row.achieved == pytest.approx(1.0, abs=1e-9)

    def test_spectrum_has_single_zero(self, rng):
        for action in (reflection_action(), rotation_action(3), dihedral_action(3)):
            config = free_reps(rng, action, 2)
            result = qng_embed(config, 0.5)
            top = float(result.spectrum[0])
            zeros = int(np.sum(result.spectrum <= 1e-9 * top))
            assert zeros == 1
            assert result.zero_eigenvalues == 1

    def test_equivariant_placement(self, dense_permutations):
        # the lift of (orbit k, element h) is pi(h) applied to point k
        config = lift_orbits([[1.0], [2.0]], reflection_action())
        result = qng_embed(config, 0.5)
        mats = dense_permutations(config)
        base = np.full(config.size, 1.0 / config.size)
        order = config.group_order
        for k in range(config.n_orbits):
            for h in range(order):
                via_perm = mats[h] @ result.points[k]
                direct = base + result.gram_root[:, k * order + h]
                assert np.allclose(via_perm, direct, atol=1e-12)

    @pytest.mark.parametrize("action", [reflection_action(), rotation_action(16),
                                        dihedral_action(8)], ids=["c2", "c16", "d8"])
    def test_report_matches_pair_by_pair(self, action, rng):
        # the vectorised report gives the floats of one pair at a time
        config = free_reps(rng, action, 9)
        result = qng_embed(config, 0.5)
        perms = config.action_permutations
        expected = []
        for i in range(config.n_orbits):
            for j in range(i + 1, config.n_orbits):
                reps = config.representatives
                target = quotient_distance(reps[i], reps[j], action) ** 0.5
                permuted = result.points[j][perms]
                achieved = float(np.linalg.norm(permuted - result.points[i][None, :], axis=1).min())
                expected.append(PairCheck(i, j, target, achieved, abs(achieved - target)))
        assert result.report == expected
        assert [row.to_dict() for row in result.report] == [asdict(row) for row in expected]

    def test_gram_root_is_psd(self):
        config = lift_orbits([[1.0, 0.4], [2.0, 1.0]], rotation_action(4))
        result = qng_embed(config, 0.75)
        assert np.linalg.eigvalsh(result.gram_root).min() >= -1e-12

    def test_minimizer_matches_geometric_argmin(self, rng, dense_permutations):
        action = rotation_action(4)
        config = free_reps(rng, action, 3)
        result = qng_embed(config, 0.5)
        mats = dense_permutations(config)
        for i in range(3):
            for j in range(i + 1, 3):
                geo = np.array([
                    np.linalg.norm(config.representatives[i] - M @ config.representatives[j])
                    for M in action.matrices
                ])
                emb = np.array([
                    np.linalg.norm(result.points[i] - P @ result.points[j])
                    for P in mats
                ])
                order = np.sort(geo)
                if order[1] - order[0] > 1e-6:  # skip ties
                    assert int(geo.argmin()) == int(emb.argmin())

    def test_trivial_group_matches_snowflake_embed(self, rng, make_cloud):
        pts = make_cloud(5, 3)
        config = lift_orbits(pts, trivial_action(3))
        result = qng_embed(config, 0.5)
        reference = snowflake_embed(euclidean_metric(pts), 0.5)
        dq = pairwise_distances(result.points)
        de = pairwise_distances(reference.coordinates)
        assert np.abs(dq - de).max() <= 1e-9

    def test_exponent_domain(self):
        config = lift_orbits([[1.0], [2.0]], reflection_action())
        for bad in (1.0, 1.2, -0.1):
            with pytest.raises(DomainError):
                qng_embed(config, bad)

    def test_verification_gate(self, monkeypatch):
        # a root scaled by 1.01 still commutes with the action, but every
        # achieved distance misses its target by about 1%
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kwargs: 1.01 * irfft(*args, **kwargs))
        config = lift_orbits([[1.0], [-1.5], [3.0]], reflection_action())
        with pytest.raises(VerificationFailure) as exc:
            qng_embed(config, 0.5)
        report = exc.value.report
        assert [(row.i, row.j) for row in report] == [(0, 1), (0, 2), (1, 2)]
        assert all(row.abs_error > 1e-3 for row in report)
        assert exc.value.max_abs_error == max(row.abs_error for row in report)

    def test_single_orbit_trivial_group(self):
        config = lift_orbits([[2.0]], trivial_action(1))
        result = qng_embed(config, 0.5)
        assert result.points.shape == (1, 1)
        assert result.report == []

    @pytest.mark.parametrize("seed", range(6))
    def test_root_defect_judged_at_its_scale(self, seed, lifted_points):
        # D4 on E^2, representatives scaled by 1e7: the rotations leave T exactly
        # invariant, and the mirrors' defect exceeds the bare tol but not the
        # bound that B's centring round-off puts on it
        reps = np.random.default_rng(seed).standard_normal((6, 2)) * 1e7
        config = lift_orbits(reps, dihedral_action(4))
        result = qng_embed(config, 0.9)
        D = pairwise_distances(lifted_points(config)) ** 1.8
        J = np.eye(config.size) - 1.0 / config.size
        B = -0.5 * J @ D @ J
        limit = (config.size * 1e-9 * (1.0 + np.abs(B).max())) ** 0.5
        assert result.equivariance_tol == pytest.approx(limit, rel=1e-9)
        assert 1e-9 < result.equivariance_defect <= result.equivariance_tol

    def test_root_defect_near_singular_form(self):
        # at alpha = 1 - 2**-53 these collinear orbits give a nearly singular
        # form; the root's defect (~6e-9) exceeds tol * (1 + max |T|) but
        # not the square-root bound
        config = lift_orbits([[1.0, 0.0], [0.5, 0.0]], rotation_action(2))
        result = qng_embed(config, 0.9999999999999999)
        assert result.equivariance_defect <= result.equivariance_tol

    def test_root_invariance_gate(self, monkeypatch):
        # unequal roots on two turned eigenvectors of the first conjugate-pair
        # block break the mirrors' commutation with T while B still commutes;
        # the rotations, which the blocks diagonalise, still commute exactly
        eigh = np.linalg.eigh

        def turned(H):
            lam, V = eigh(H)
            if H.ndim == 3:  # the stacked blocks, not block 0's restriction
                V = V.copy()
                a, b = V[0, :, 0].copy(), V[0, :, 1].copy()
                V[0, :, 0], V[0, :, 1] = (a + b) / np.sqrt(2.0), (a - b) / np.sqrt(2.0)
            return lam, V

        monkeypatch.setattr(np.linalg, "eigh", turned)
        config = lift_orbits([[1.0, 0.3], [0.2, 2.0]], dihedral_action(4))
        with pytest.raises(InvarianceViolation):
            qng_embed(config, 0.5)


def dense_spectrum_and_root(lifted, alpha):
    """The dense reference: centered_spectrum of the whole form B of the lifted
    points, and (U sqrt(mu)) U^T."""
    D = pairwise_distances(lifted) ** (2.0 * alpha)
    np.fill_diagonal(D, 0.0)
    mu, U = centered_spectrum(gram_from_distances(D))
    T = (U * np.sqrt(np.clip(mu, 0.0, None))) @ U.T
    return np.sort(np.append(mu, 0.0))[::-1], 0.5 * (T + T.T)


class TestCyclicBlocks:
    """Spectrum and root taken blockwise over the cycles of an element of largest order."""

    @pytest.mark.parametrize("action", [
        rotation_action(5),  # odd r: no real Nyquist block
        reflection_action(),  # r = 2: block 0 and the Nyquist block only
        close_group([np.diag([-1.0, 1.0]), np.diag([1.0, -1.0])]),  # Klein four, r = 2
        dihedral_action(4),
        dihedral_action(8),
        close_group(B3_GENERATORS),  # r = 6
    ], ids=["c5", "c2", "klein", "d4", "d8", "b3"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
    def test_matches_dense_reference(self, action, alpha, rng, lifted_points):
        config = free_reps(rng, action, 3 if action.group.order > 10 else 5)
        result = qng_embed(config, alpha)
        spectrum, T = dense_spectrum_and_root(lifted_points(config), alpha)
        radius = np.abs(spectrum).max()
        assert np.abs(result.spectrum - spectrum).max() <= 1e-13 * radius
        assert result.zero_eigenvalues == np.sum(spectrum <= spectral_threshold(spectrum))
        assert np.abs(result.gram_root - T).max() <= 1e-10 * np.abs(T).max()

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
    def test_trivial_group_is_the_dense_path(self, alpha, rng, lifted_points):
        config = lift_orbits(rng.standard_normal((12, 3)), trivial_action(3))
        result = qng_embed(config, alpha)
        spectrum, T = dense_spectrum_and_root(lifted_points(config), alpha)
        assert np.array_equal(result.spectrum, spectrum)
        assert np.array_equal(result.gram_root, T)

    def test_cyclic_root_is_exactly_invariant(self, rng):
        for action in (rotation_action(7), rotation_action(16)):
            assert qng_embed(free_reps(rng, action, 4), 0.5).equivariance_defect == 0.0


class TestLiftedForm:
    """The squared lifted distances D that qng_embed centres, gathered from the orbit distances."""

    @pytest.mark.parametrize("generators", [
        [np.array([[np.cos(2 * np.pi / 5), -np.sin(2 * np.pi / 5)],
                   [np.sin(2 * np.pi / 5), np.cos(2 * np.pi / 5)]])],
        [np.array([[-1.0]])],
        KLEIN_GENERATORS,
        [np.array([[0.0, -1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])],
        [np.array([[np.cos(np.pi / 4), -np.sin(np.pi / 4)],
                   [np.sin(np.pi / 4), np.cos(np.pi / 4)]]), np.diag([1.0, -1.0])],
        B3_GENERATORS,
        C9_SHIFT,
    ], ids=["c5", "c2", "klein", "d4", "d8", "b3", "c9-shift"])
    @pytest.mark.parametrize("alpha", [0.3, 0.9])
    def test_exactly_symmetric_and_invariant(self, generators, alpha, rng, monkeypatch):
        captured = []

        def capture(D):
            captured.append(D)
            return gram_from_distances(D)

        monkeypatch.setattr(quotient_module, "gram_from_distances", capture)
        action = close_group(generators)
        config = free_reps(rng, action, 4)
        result = qng_embed(config, alpha)
        (D,) = captured
        assert np.array_equal(D, D.T)
        assert equivariance_defect(D, config.action_permutations) == 0.0
        # the targets are quotient_distance's floats, in every dimension
        reps = config.representatives
        assert [row.target for row in result.report] == [
            quotient_distance(reps[i], reps[j], action) ** alpha
            for i in range(4) for j in range(i + 1, 4)
        ]


class TestQuotientProperties:
    @given(
        dihedral=st.booleans(),
        k=st.integers(2, 8),
        reps=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                      min_size=1, max_size=4),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=25, deadline=None)
    def test_pipeline(self, dense_permutations, dihedral, k, reps, alpha):
        action = dihedral_action(k) if dihedral else rotation_action(k)
        try:
            config = lift_orbits(reps, action, tol=1e-6)
        except (NonFreeOrbit, OrbitCollision):
            reject()
        result = qng_embed(config, alpha)
        assert result.max_abs_error <= 1e-9 * (1.0 + max(
            (row.target for row in result.report), default=0.0))
        assert result.equivariance_defect == dense_defect(
            result.gram_root, dense_permutations(config))
        perms = config.action_permutations
        table = config.action.group.table
        for g in range(config.group_order):
            for h in range(config.group_order):
                assert np.array_equal(perms[g][perms[h]], perms[table[g, h]])
