import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from snowflake_embed import (
    close_group,
    dihedral_action,
    reflection_action,
    rotation_action,
    trivial_action,
)
from snowflake_embed.errors import (
    DomainError,
    NotOrthogonal,
    NumericalAmbiguity,
    OrderExceeded,
    SnowflakeError,
)
from snowflake_embed.groups import FiniteGroup, OrthogonalAction


def rot2(theta):
    return np.array([
        [np.cos(theta), -np.sin(theta)],
        [np.sin(theta), np.cos(theta)],
    ])


def mirror2(theta):
    """Reflection of E^2 across the line at angle theta."""
    return np.array([
        [np.cos(2 * theta), np.sin(2 * theta)],
        [np.sin(2 * theta), -np.cos(2 * theta)],
    ])


def cyclic_table(n):
    i, j = np.meshgrid(range(n), range(n), indexing="ij")
    return (i + j) % n


def swap_intercalate(table, rows, cols):
    """Swap the two columns of the 2 x 2 Latin subsquare at ``rows`` x ``cols``."""
    table[np.ix_(rows, cols)] = table[np.ix_(rows, cols[::-1])]


@st.composite
def small_tables(draw):
    """Tables of order 1-6: random entries, relabelled cyclic groups, and
    relabelled cyclic groups with one intercalate swapped (Latin loops)."""
    kind = draw(st.sampled_from(["random", "cyclic", "intercalate"]))
    # cyclic tables have intercalates at even orders only
    n = draw(st.sampled_from([2, 4, 6]) if kind == "intercalate" else st.integers(1, 6))
    if kind == "random":
        entries = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
        return np.array(entries).reshape(n, n)
    table = cyclic_table(n)
    if kind == "intercalate":
        a, b, h = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), n // 2
        swap_intercalate(table, [a, (a + h) % n], [b, (b + h) % n])
    relabel = np.array(draw(st.permutations(range(n))))
    back = np.argsort(relabel)
    return relabel[table[np.ix_(back, back)]]


def table_oracle(table):
    """The group axioms by brute force, in the order from_table checks them:
    ("fails", message) with message None for associativity, else ("group",
    identity, inverse)."""
    n = len(table)
    for g in range(n):
        if sorted(table[g]) != list(range(n)) or sorted(table[:, g]) != list(range(n)):
            return "fails", f"table is not a Latin square at row/column {g}"
    ids = [e for e in range(n) if all(table[e, x] == x == table[x, e] for x in range(n))]
    if not ids:
        return "fails", "table has no identity element"
    e = ids[0]
    inverse = []
    for g in range(n):
        hits = [h for h in range(n) if table[g, h] == e == table[h, g]]
        if not hits:
            return "fails", f"element {g} has no two-sided inverse"
        inverse.append(hits[0])
    if not np.array_equal(table[table], table[:, table]):
        return "fails", None
    return "group", e, inverse


def closure_size_oracle(generators, depth=8):
    """Independent enumeration: all words up to the given depth, deduplicated
    by rounding (+0.0 normalizes signed zeros)."""

    def key(p):
        return (p.round(9) + 0.0).tobytes()

    eye = np.eye(generators[0].shape[0])
    seen = {key(eye): eye}
    frontier = [eye]
    for _ in range(depth):
        new = []
        for e in frontier:
            for g in generators:
                p = e @ g
                if key(p) not in seen:
                    seen[key(p)] = p
                    new.append(p)
        frontier = new
    return len(seen)


B3_GENERATORS = [np.eye(3)[[1, 0, 2]], np.eye(3)[[1, 2, 0]], np.diag([-1.0, 1.0, 1.0])]


def b3_elements():
    """The 48 signed permutation matrices of E^3."""
    perms = [np.eye(3)[list(p)] for p in
             ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))]
    return [np.diag([a, b, c]) @ p for p in perms
            for a in (1.0, -1.0) for b in (1.0, -1.0) for c in (1.0, -1.0)]


@st.composite
def closure_inputs(draw):
    """Generators of C_k, D_k (k <= 40) or B3, conjugated by a random
    orthogonal matrix, in one of several list styles, with a tolerance and a
    max_order; some carry a generator turned by a few tolerances.  The loose
    kind is D_k (k <= 12) from a rotation off by up to 3 tol / k and one or
    two mirrors turned by up to 6 tol: its products can miss the elements
    the search tree assigns them, and its table can fail to be a group."""
    kind = draw(st.sampled_from(["cyclic", "dihedral", "b3", "loose"]))
    tol = draw(st.sampled_from([1e-8, 1e-6, 1e-3]))
    if kind == "b3":
        gens, elements = B3_GENERATORS, b3_elements()
    else:
        k = draw(st.integers(1, 12 if kind == "loose" else 40))
        rots = [rot2(2 * np.pi * j / k) for j in range(k)]
        gens, elements = [rot2(2 * np.pi / k)], rots
        if kind == "dihedral":
            gens, elements = gens + [mirror2(0.0)], rots + [r @ mirror2(0.0) for r in rots]
        elif kind == "loose":
            # mirror2 moves its entries by twice the turn of its line
            gens = [rot2(2 * np.pi / k + tol * draw(st.floats(-3.0, 3.0)) / k)]
            gens += [mirror2(np.pi * draw(st.integers(0, k - 1)) / k
                             + tol * draw(st.floats(-3.0, 3.0)))
                     for _ in range(draw(st.integers(1, 2)))]
            elements = rots + [r @ mirror2(0.0) for r in rots]
    m = gens[0].shape[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    styles = ["generators", "shuffled", "duplicated"] + ["matrices"] * (kind != "loose")
    style = draw(st.sampled_from(styles))
    mats = list(elements if style == "matrices" else gens)
    if style == "duplicated":
        mats += [mats[i] for i in draw(st.lists(st.integers(0, len(mats) - 1), min_size=1,
                                                max_size=4))]
    if style in ("shuffled", "matrices"):
        mats = [mats[i] for i in draw(st.permutations(range(len(mats))))]
    max_order = draw(st.sampled_from([1024, draw(st.integers(1, 2 * len(elements)))]))
    if draw(st.booleans()):
        # a copy of one generator turned by 0.5 to 20 tolerances: merged,
        # in the ambiguity band, or a new element of an infinite group
        turn = np.eye(m)
        turn[:2, :2] = rot2(tol * draw(st.floats(0.5, 20.0)))
        mats.append(mats[draw(st.integers(0, len(mats) - 1))] @ turn)
        max_order = min(max_order, 2 * len(elements))
    return [q @ g @ q.T for g in mats], tol, max_order


def closure_outcome(close, gens, tol, max_order):
    """The bytes of the matrices and the table, or the exception's type and args."""
    try:
        action = close(gens, tol=tol, max_order=max_order)
    except SnowflakeError as exc:
        return type(exc), exc.args
    return action.matrices.shape, action.matrices.tobytes(), action.group.table.tobytes()


class TestCloseGroup:
    def test_sign_flip_gives_c2(self):
        action = close_group([np.array([[-1.0]])])
        assert action.group.order == 2
        assert np.array_equal(action.group.table, [[0, 1], [1, 0]])
        assert action.group.identity_index == 0

    def test_quarter_turn_gives_c4(self):
        action = close_group([rot2(np.pi / 2)])
        assert action.group.order == 4
        # breadth-first enumeration orders elements by power of the generator
        i, j = np.meshgrid(range(4), range(4), indexing="ij")
        assert np.array_equal(action.group.table, (i + j) % 4)

    def test_two_mirrors_give_dihedral(self):
        # mirror lines at relative angle pi/3: their product is a rotation
        # of order 3, so the closure is the 6-element dihedral group
        gens = [mirror2(0.0), mirror2(np.pi / 3)]
        assert closure_size_oracle(gens) == 6
        action = close_group(gens)
        assert action.group.order == 6
        t = action.group.table
        assert any(t[g, h] != t[h, g] for g in range(6) for h in range(6))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(NotOrthogonal) as exc:
            close_group([np.array([[1.0, 0.0], [0.0, 2.0]])])
        assert exc.value.index == 0

    def test_order_exceeded(self):
        with pytest.raises(OrderExceeded):
            close_group([rot2(1.0)], max_order=16)

    def test_numerical_ambiguity_band(self):
        # a rotation 3e-8 away from the identity falls in (tol, 10 tol]
        with pytest.raises(NumericalAmbiguity):
            close_group([rot2(3e-8)], tol=1e-8, max_order=8)

    def test_generator_polish(self):
        # a generator that is orthogonal only to within the identification
        # tolerance comes out exactly orthogonal after the polar projection
        g = rot2(2 * np.pi / 5) + 5e-11
        assert np.abs(g.T @ g - np.eye(2)).max() > 1e-10
        action = close_group([g])
        assert action.group.order == 5
        eye = np.eye(2)
        for mat in action.matrices:
            assert np.abs(mat.T @ mat - eye).max() < 1e-14

    def test_loose_tolerance_table_is_ambiguity(self):
        from snowflake_embed.errors import NumericalAmbiguity

        # five rotations through a rounded 2 pi / 5 close within 1e-3, but
        # the products miss the identified matrices by about 2e-4, more than
        # HOMOMORPHISM_TOL allows
        with pytest.raises(NumericalAmbiguity) as exc:
            close_group([rot2(round(2 * np.pi / 5, 4))], tol=1e-3)
        assert 1e-9 < exc.value.distance <= 1e-3

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 1.0, 5.0])
    def test_tolerance_outside_its_domain(self, tol):
        with pytest.raises(DomainError):
            close_group([rot2(np.pi / 2)], tol=tol)

    def test_generator_merged_by_loose_tolerance_is_ambiguity(self):
        # within tolerance 0.5 of the identity, the C16 generator would
        # vanish and leave the trivial group
        with pytest.raises(NumericalAmbiguity) as exc:
            close_group([rot2(2 * np.pi / 16)], tol=0.5)
        assert exc.value.distance == pytest.approx(np.sin(np.pi / 8), rel=1e-12)
        assert exc.value.tol == 0.5

    def test_nan_generator_is_not_orthogonal(self):
        with pytest.raises(NotOrthogonal) as exc:
            close_group([rot2(np.pi / 2), np.array([[np.nan, 0.0], [0.0, 1.0]])])
        assert exc.value.index == 1
        assert np.isnan(exc.value.defect)

    @pytest.mark.parametrize("gens", [[rot2(2 * np.pi / 16)],
                                      [rot2(2 * np.pi / 32), mirror2(0.0)],
                                      B3_GENERATORS, b3_elements()])
    def test_matches_reference_on_fixed_groups(self, gens, reference_close_group):
        assert (closure_outcome(close_group, gens, 1e-8, 1024)
                == closure_outcome(reference_close_group, gens, 1e-8, 1024))

    def test_table_product_in_ambiguity_band(self, reference_close_group):
        # two mirrors turned by a few tolerances: the breadth-first search
        # closes at 14 elements, but a product of two of them that is no
        # generator product lands in the band (tol, 10 tol] of an element
        gens = [rot2(2 * np.pi / 7), mirror2(-2.1e-6), mirror2(np.pi / 7 - 2.5e-6)]
        outcome = closure_outcome(close_group, gens, 1e-6, 1024)
        assert outcome == closure_outcome(reference_close_group, gens, 1e-6, 1024)
        with pytest.raises(NumericalAmbiguity) as exc:
            close_group(gens, tol=1e-6)
        assert 1e-6 < exc.value.distance <= 1e-5

    @given(case=closure_inputs())
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_closure(self, case, reference_close_group):
        # same element order bit for bit, same table, same exception
        outcome = closure_outcome(close_group, *case)
        event(outcome[0].__name__ if isinstance(outcome[0], type) else "closed")
        assert outcome == closure_outcome(reference_close_group, *case)

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            close_group([])

    def test_inconsistent_dimensions_rejected(self):
        from snowflake_embed.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            close_group([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize("generator", [np.array(5.0), np.ones((2, 3))])
    def test_non_square_first_generator_rejected(self, generator):
        from snowflake_embed.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            close_group([generator])


class TestFiniteGroupFromTable:
    def test_cyclic_three(self):
        i, j = np.meshgrid(range(3), range(3), indexing="ij")
        g = FiniteGroup.from_table((i + j) % 3)
        assert g.order == 3
        assert g.identity_index == 0
        assert np.array_equal(g.inverse, [0, 2, 1])

    def test_rejects_non_latin(self):
        with pytest.raises(ValueError, match="Latin"):
            FiniteGroup.from_table([[0, 0], [1, 1]])

    def test_rejects_missing_identity(self):
        # a Latin square (quasigroup) without a two-sided identity
        table = [[1, 0, 2], [2, 1, 0], [0, 2, 1]]
        with pytest.raises(ValueError, match="identity"):
            FiniteGroup.from_table(table)

    def test_rejects_non_associative_loop(self):
        # smallest non-associative loop: Latin, identity 0, two-sided
        # inverses, but (gh)k != g(hk) somewhere
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(ValueError, match="associative"):
            FiniteGroup.from_table(table)

    def test_rejects_non_associative_order_1000(self):
        # C_1000 with one intercalate swapped is Latin, has identity 0 and
        # two-sided inverses, but no sample of a few triples finds the fault
        table = cyclic_table(1000)
        swap_intercalate(table, [7, 507], [11, 511])
        with pytest.raises(ValueError, match="not associative"):
            FiniteGroup.from_table(table)

    @given(small_tables())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_oracle(self, table):
        expected = table_oracle(table)
        try:
            group = FiniteGroup.from_table(table)
        except ValueError as exc:
            assert expected[0] == "fails"
            if expected[1] is None:
                # the triple the message names is one where (ab)c != a(bc)
                a, b, c = (int(v) for v in re.findall(r"\d+", str(exc)))
                assert table[table[a, b], c] != table[a, table[b, c]]
            else:
                assert str(exc) == expected[1]
            return
        assert expected == ("group", group.identity_index, list(group.inverse))


class TestOrthogonalAction:
    def test_homomorphism_invariant(self):
        action = dihedral_action(3)
        g = action.group
        for a in range(g.order):
            for b in range(g.order):
                prod = action.matrices[a] @ action.matrices[b]
                defect = np.abs(action.matrices[g.table[a, b]] - prod).max()
                assert defect <= 1e-9

    def test_orthogonality_invariant(self):
        action = rotation_action(5)
        eye = np.eye(2)
        for mat in action.matrices:
            assert np.abs(mat.T @ mat - eye).max() <= 1e-10

    def test_rejects_inconsistent_matrices(self):
        c2 = close_group([np.array([[-1.0]])])
        swapped = c2.matrices[::-1].copy()
        with pytest.raises(ValueError):
            OrthogonalAction(group=c2.group, dim=1, matrices=swapped)

    def test_rejects_one_turned_matrix_above_order_128(self):
        c130 = rotation_action(130)
        mats = c130.matrices.copy()
        mats[77] = rot2(2e-9) @ mats[77]
        with pytest.raises(ValueError, match="respect the table") as exc:
            OrthogonalAction(group=c130.group, dim=2, matrices=mats)
        g, h = (int(v) for v in re.search(r"\((\d+), (\d+)\)", str(exc.value)).groups())
        assert 77 in (g, h, c130.group.table[g, h])


    def test_rejects_nan_matrix(self):
        with pytest.raises(NotOrthogonal) as exc:
            OrthogonalAction(FiniteGroup.from_table([[0, 1], [1, 0]]), 1, [[[1.0]], [[np.nan]]])
        assert exc.value.index == 1
        assert np.isnan(exc.value.defect)


class TestHelpers:
    def test_reflection(self):
        action = reflection_action()
        assert action.group.order == 2
        assert action.dim == 1

    def test_rotation_orders(self):
        for k in (2, 3, 4, 6):
            assert rotation_action(k).group.order == k

    def test_dihedral(self):
        action = dihedral_action(4)
        assert action.group.order == 8
        t = action.group.table
        assert any(t[g, h] != t[h, g] for g in range(8) for h in range(8))

    def test_rotation_1024_table_is_cyclic(self):
        # breadth-first order lists the powers of the generator
        assert np.array_equal(rotation_action(1024).group.table, cyclic_table(1024))

    def test_trivial(self):
        action = trivial_action(3)
        assert action.group.order == 1
        assert np.array_equal(action.matrices[0], np.eye(3))
