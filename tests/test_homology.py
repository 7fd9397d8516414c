import importlib
import importlib.util
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from finitetopo import (
    HomologyProfile,
    IntegerMatrix,
    Poset,
    SimplicialComplex,
    barycentric_poset,
    chain_complex,
    euler_characteristic,
    face_poset,
    fraction_free_rank,
    homology,
    order_complex,
    same_homology,
    smith_normal_form,
)
from finitetopo import fixtures as fx
from finitetopo.complexes import cellular_chain_complex, chain_tree, chains_of
from finitetopo.cylinder import build_cylinder, source_local_data, target_local_data
from finitetopo.homology import (
    _eliminate_unit_pivots,
    _poset_homology,
    _unit_singletons,
    certified_homology,
    profile_from_chain_complex,
)
from finitetopo.poset import ElementSet, reach_of
from finitetopo.reduction import DEFAULT_BUDGET, _chains_in, triviality_oracle
from tests.reference_rank import from_dense, rank_mod_p, to_dense
from tests.reference_snf import reference_smith_normal_form
from tests.test_complexes import as_cw, complexes, triangle_boundary
from tests.test_poset import posets, posets_and_masks


class TestIntegerMatrix:
    def test_dense_round_trip(self):
        data = [[1, 0, -2], [0, 3, 0]]
        assert to_dense(from_dense(data)) == data

    def test_compose(self):
        a = from_dense([[1, 2], [3, 4]])
        b = from_dense([[0, 1], [1, 0]])
        assert to_dense(a.compose(b)) == [[2, 1], [4, 3]]

    def test_zero(self):
        assert from_entries(2, 3).is_zero()
        assert not from_dense([[0, 1]]).is_zero()

    @pytest.mark.parametrize(
        "bad", [{1: 1, 3: -1}, {-1: 1}, {0: 2, 2: 0}], ids=["row-equal-to-rows", "negative-row", "zero-value"]
    )
    def test_from_columns_names_the_bad_column(self, bad):
        """The constructor checks the rows and values of all columns in one
        pass; the error still names the first bad column."""
        columns = [{0: 1, 2: -1}, {}, {1: 2}, bad, {0: 1}, {5: 0}]
        with pytest.raises(ValueError, match=r"^column 3 has a row outside 0\.\.2 or a zero value$"):
            IntegerMatrix(3, columns)
        assert to_dense(IntegerMatrix(3, columns[:3])) == [[1, 0, 0], [0, 0, 2], [-1, 0, 0]]


class TestSmithNormalForm:
    def test_identity(self):
        m = from_dense([[1, 0], [0, 1]])
        assert smith_normal_form(m) == ((1, 1), 2)

    def test_zero_matrix(self):
        assert smith_normal_form(from_entries(3, 2)) == ((), 0)

    def test_divisibility_chain(self):
        # det = -8, gcd of entries = 2, so invariant factors are 2 | 4
        m = from_dense([[2, 4], [6, 8]])
        factors, rank = smith_normal_form(m)
        assert factors == (2, 4)
        assert rank == 2
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0

    def test_rectangular_with_torsion(self):
        m = from_dense([[2, 0, 0], [0, 3, 0]])
        factors, rank = smith_normal_form(m)
        assert factors == (1, 6)
        assert rank == 2

    def test_negative_entries_normalize_positive(self):
        factors, _ = smith_normal_form(from_dense([[-5]]))
        assert factors == (5,)


class TestRankPaths:
    def test_fraction_free_rank(self):
        assert fraction_free_rank(from_dense([[2, 4], [6, 8]])) == 2
        assert fraction_free_rank(from_dense([[1, 2], [2, 4]])) == 1
        assert fraction_free_rank(from_entries(4, 4)) == 0

    def test_rank_mod_p_detects_torsion(self):
        m = from_dense([[2]])
        assert fraction_free_rank(m) == 1
        assert rank_mod_p(m, 2) == 0
        assert rank_mod_p(m, 3) == 1


class TestEmptyInputs:
    """No faces: no degrees at all, not one degree of rank zero."""

    def test_empty_poset(self):
        assert homology(Poset([])) == HomologyProfile((), ())
        assert homology(Poset([]), reduced=True) == HomologyProfile((), (), reduced=True)
        assert euler_characteristic(Poset([])) == 0

    def test_empty_mask(self):
        p = face_poset(fx.projective_plane())
        assert homology(ElementSet(p, 0), reduced=True) == HomologyProfile((), (), reduced=True)
        assert homology(ElementSet(p, 0)) == HomologyProfile((), ())

    def test_empty_complex(self):
        chain = chain_complex(SimplicialComplex([]))
        assert chain.sizes == () and chain.boundaries == ()
        assert homology(SimplicialComplex([])) == HomologyProfile((), ())
        assert homology(SimplicialComplex([]), reduced=True) == HomologyProfile((), (), reduced=True)


class TestKnownSpaces:
    def test_point(self):
        prof = homology(Poset(["x"]))
        assert prof.betti == (1,)
        assert prof.describe() == "H0=Z"
        assert homology(Poset(["x"]), reduced=True).nonzero_degrees() == ()

    def test_two_points(self):
        assert homology(Poset("ab")).betti == (2,)

    def test_circle_as_complex_and_poset(self):
        assert homology(triangle_boundary()).betti == (1, 1)
        assert homology(fx.six_cycle()).betti == (1, 1)

    def test_sphere(self):
        # boundary of the 3-simplex, the registry's boundary-delta-3 fixture
        prof = homology(fx.REGISTRY["boundary-delta-3"].build())
        assert prof.betti == (1, 0, 1)
        assert prof.torsion == ((), (), ())

    def test_sphere_dimension_parameter(self):
        assert homology(fx.boundary_delta(3)).betti == (1, 0, 0, 1)

    def test_projective_plane(self):
        prof = homology(fx.REGISTRY["projective-plane"].build())
        assert prof.betti == (1, 0, 0)
        assert prof.degree(1) == (0, (2,))
        assert prof.describe() == "H0=Z H1=Z/2 H2=0"

    def test_torus(self):
        prof = homology(fx.REGISTRY["torus"].build())
        assert prof.betti == (1, 2, 1)
        assert prof.torsion == ((), (), ())

    def test_cw_input(self):
        cw = as_cw(triangle_boundary())
        assert homology(cw).betti == (1, 1)

    def test_projective_plane_subdivided_three_times(self):
        p = barycentric_poset(barycentric_poset(face_poset(fx.projective_plane())))
        assert sum(len(top) for _, top in chain_tree(p)) == 6481
        assert homology(p).describe() == "H0=Z H1=Z/2 H2=0"

    def test_grid_torus_subdivided_three_times(self):
        p = barycentric_poset(barycentric_poset(face_poset(grid_torus(3, 4))))
        assert sum(len(top) for _, top in chain_tree(p)) == 15552
        prof = homology(p)
        assert prof.betti == (1, 2, 1)
        assert prof.torsion == ((), (), ())


class TestProfileHelpers:
    def test_degree_out_of_range(self):
        prof = homology(Poset(["x"]))
        assert prof.degree(9) == (0, ())
        assert prof.top_degree() == 0

    def test_same_homology_reports_differences(self):
        a = homology(fx.six_cycle())
        b = homology(Poset(["x"]))
        ok, diffs = same_homology(a, b)
        assert not ok
        assert any("1" in d for d in diffs)

    def test_same_homology_through_degree(self):
        a = homology(fx.six_cycle())
        b = homology(Poset(["x"]))
        ok, _ = same_homology(a, b, through_degree=0)
        assert ok

    def test_same_homology_sees_torsion(self):
        # RP² has the Betti numbers of a point; only its Z/2 in degree 1 differs
        rp2 = homology(fx.projective_plane())
        ok, diffs = same_homology(rp2, homology(Poset(["x"])))
        assert not ok and diffs == ["degree 1: (0, (2,)) vs (0, ())"]
        ok, diffs = same_homology(rp2, homology(triangle_boundary()))
        assert not ok and diffs == ["degree 1: (0, (2,)) vs (1, ())"]

    def test_certified_homology_refuses_a_torsion_mismatch(self):
        with pytest.raises(AssertionError, match="unequal homology"):
            certified_homology("a point is RP²", fx.projective_plane(), Poset(["x"]))

    def test_reduced_vs_unreduced_mismatch_rejected(self):
        a = homology(Poset(["x"]))
        b = homology(Poset(["x"]), reduced=True)
        with pytest.raises(ValueError, match="reduced"):
            same_homology(a, b)


class TestEulerCharacteristic:
    def test_accepts_all_input_kinds(self):
        k = triangle_boundary()
        assert euler_characteristic(k) == 0
        assert euler_characteristic(face_poset(k)) == 0
        assert euler_characteristic(as_cw(k)) == 0

    def test_projective_plane_euler(self):
        assert euler_characteristic(fx.REGISTRY["projective-plane"].build()) == 1

    def test_torus_euler(self):
        assert euler_characteristic(fx.REGISTRY["torus"].build()) == 0

    def test_a_subset_is_not_answered_for_its_parent_poset(self):
        # an ElementSet's .poset is its parent, not the subset itself
        point = fx.six_cycle().subset(["x0"])
        assert homology(point) == homology(point.induced())
        assert homology(point) != homology(fx.six_cycle())
        with pytest.raises(TypeError, match="ElementSet"):
            euler_characteristic(point)
        assert euler_characteristic(point.induced()) == 1


def grid_torus(m: int, n: int) -> SimplicialComplex:
    """The torus as an m x n grid of squares, each cut into two triangles,
    with opposite sides glued."""
    def v(i: int, j: int) -> str:
        return f"t{i % m}.{j % n}"

    return SimplicialComplex(
        [t for i in range(m) for j in range(n)
         for t in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)), (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]
    )


def on_closed_surfaces(test):
    """Adds the face posets of RP², a grid torus and ∂Δ³ as examples: every
    row of a top boundary of their order complexes has two entries, so the
    singleton pass takes nothing there and the sweep does all of phase 1."""
    for p in (face_poset(fx.projective_plane()), face_poset(grid_torus(3, 4)), face_poset(fx.boundary_delta(2))):
        test = example(p)(test)
    return test


# -- cross-checks between the two computation paths ---------------------------


def betti_by_rank(k: SimplicialComplex) -> tuple[int, ...]:
    """Betti numbers from fraction-free ranks only, no Smith normal form."""
    chain = chain_complex(k)
    dims = chain.sizes
    ranks = [fraction_free_rank(m) for m in chain.boundaries]
    out = []
    for i, n in enumerate(dims):
        kernel = n - (ranks[i] if i < len(ranks) else 0)
        image = ranks[i - 1] if i >= 1 else 0
        out.append(kernel - image)
    return tuple(out)


@given(complexes(max_vertices=6))
def test_betti_agree_between_snf_and_rank_paths(k: SimplicialComplex):
    prof = homology(k)
    assert prof.betti == betti_by_rank(k)


@given(complexes(max_vertices=6))
def test_euler_equals_alternating_betti_sum(k: SimplicialComplex):
    prof = homology(k)
    assert euler_characteristic(k) == sum((-1) ** i * b for i, b in enumerate(prof.betti))


@given(posets(max_size=7))
def test_poset_homology_is_order_complex_homology(p: Poset):
    assert same_homology(homology(p), homology(order_complex(p)))[0]


def test_poset_homology_builds_no_order_complex():
    circle = Poset(["probe-a", "probe-b", "probe-c", "probe-d"],
                   [("probe-a", "probe-c"), ("probe-a", "probe-d"), ("probe-b", "probe-c"), ("probe-b", "probe-d")])
    cw = as_cw(SimplicialComplex([("probe-u", "probe-v", "probe-w")]))
    before = order_complex.cache_info()
    assert homology(circle).betti == (1, 1)
    assert homology(cw).betti == (1, 0, 0)
    assert euler_characteristic(circle) == 0
    assert order_complex.cache_info() == before


@given(posets(max_size=7))
def test_homology_invariant_under_opposite(p: Poset):
    assert same_homology(homology(p), homology(p.opposite()))[0]


def test_torsion_visible_in_mod_p_rank_gap():
    # the independent witness for Z/2 in the projective plane: the degree-1
    # boundary matrix loses rank mod 2 but not mod 3
    k = fx.REGISTRY["projective-plane"].build()
    chain = chain_complex(k)
    d2 = chain.boundaries[1]
    assert fraction_free_rank(d2) == rank_mod_p(d2, 3)
    assert rank_mod_p(d2, 2) == fraction_free_rank(d2) - 1


# -- the sparse engine against the reference and the dense product -----------

ENTRIES = st.sampled_from([0, 1, -1, 2, -2, 3, -3, 4, 6])
# no ±1 entry, so phase 1 finds no pivot and phase 2 reduces the whole matrix
NON_UNIT_ENTRIES = st.sampled_from([0, 2, -2, 3, -3, 4, -4, 6, -6])


def dense_matrices(rows: int, cols: int, entries=ENTRIES):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def from_entries(rows: int, cols: int, entries: dict[tuple[int, int], int] | None = None) -> IntegerMatrix:
    """The rows x cols matrix with the given (row, col) entries; zeros are left out."""
    columns: list[dict[int, int]] = [{} for _ in range(cols)]
    for (r, c), v in (entries or {}).items():
        if v:
            columns[c][r] = v
    return IntegerMatrix(rows, columns)


def from_rows(data: list[list[int]], rows: int, cols: int) -> IntegerMatrix:
    # from_dense cannot say how many columns a matrix without rows has
    return from_entries(rows, cols, {(r, c): v for r, row in enumerate(data) for c, v in enumerate(row)})


@st.composite
def integer_matrices(draw, max_side=7, entries=ENTRIES):
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    return from_rows(draw(dense_matrices(rows, cols, entries)), rows, cols)


def assert_matches_reference(m: IntegerMatrix) -> None:
    factors, rank = smith_normal_form(m)
    assert (factors, rank) == reference_smith_normal_form(m)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


@given(integer_matrices())
def test_smith_normal_form_matches_reference(m: IntegerMatrix):
    assert_matches_reference(m)


@given(integer_matrices(max_side=8, entries=NON_UNIT_ENTRIES))
def test_phase_two_alone_matches_reference(m: IntegerMatrix):
    assert_matches_reference(m)


@given(posets(max_size=7))
@on_closed_surfaces
def test_smith_normal_form_matches_reference_on_boundaries(p: Poset):
    for d in chain_complex(order_complex(p)).boundaries:
        assert smith_normal_form(d) == reference_smith_normal_form(d)


def from_columns(data: list[list[int]], rows: int, cols: int) -> IntegerMatrix:
    return IntegerMatrix(rows, [{r: row[c] for r, row in enumerate(data) if row[c]} for c in range(cols)])


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_compose_is_the_dense_product(rows: int, inner: int, cols: int, data):
    """The product of a matrix built from entries and one built by columns
    is the dense product, with no zero stored."""
    a = data.draw(dense_matrices(rows, inner))
    b = data.draw(dense_matrices(inner, cols))
    c = from_rows(a, rows, inner).compose(from_columns(b, inner, cols))
    assert (c.rows, c.cols) == (rows, cols)
    assert to_dense(c) == [[sum(a[r][k] * b[k][j] for k in range(inner)) for j in range(cols)] for r in range(rows)]
    assert all(v for column in c.columns for v in column.values())


def test_compose_keeps_a_row_that_cancels_and_returns():
    """A running sum that passes through zero inside one column is still
    read off at the end, and nothing carries over to the next column."""
    left = from_dense([[1, -1, 1], [2, 0, -2]])
    right = from_dense([[1, 1], [1, 0], [1, 0]])
    product = left.compose(right)
    assert to_dense(product) == [[1, 1], [0, 2]]
    assert product.columns == [{0: 1}, {0: 1, 1: 2}]


@given(integer_matrices(max_side=6))
def test_entries_round_trip_through_the_column_form(m: IntegerMatrix):
    """entries, the dense rows and the columns describe one matrix."""
    dense = to_dense(m)
    assert m.entries == {(r, c): v for r, row in enumerate(dense) for c, v in enumerate(row) if v}
    assert from_entries(m.rows, m.cols, m.entries) == m == from_columns(dense, m.rows, m.cols)
    if m.rows:
        assert from_dense(dense) == m


@pytest.mark.parametrize(
    "rows, columns",
    [(2, [{0: 1}, {2: 1}]), (2, [{-1: 1}]), (3, [{0: 1, 1: 0}]), (0, [{0: 1}])],
    ids=["row-past-the-end", "negative-row", "zero-value", "no-rows"],
)
def test_from_columns_refuses_a_bad_entry(rows: int, columns):
    with pytest.raises(ValueError, match="row outside 0..-?[0-9]+ or a zero value"):
        IntegerMatrix(rows, columns)


def test_constructor_checks_every_index():
    """A row past the end or below zero is refused in any column, not just the first."""
    with pytest.raises(ValueError, match="^column 1 has a row outside 0..1"):
        IntegerMatrix(2, [{}, {2: 1}])
    with pytest.raises(ValueError, match="^column 1 has a row outside 0..1"):
        IntegerMatrix(2, [{0: 1}, {-1: 1}])


@given(integer_matrices(max_side=5), integer_matrices(max_side=5))
def test_compose_rejects_a_shape_mismatch(a: IntegerMatrix, b: IntegerMatrix):
    if a.cols == b.rows:
        b = from_entries(b.rows + 1, b.cols, b.entries)
    with pytest.raises(ValueError, match="shape mismatch"):
        a.compose(b)


# -- the singleton pass of phase 1 ---------------------------------------------


@st.composite
def matrices_with_non_unit_singletons(draw):
    """A random matrix bordered by a column and a row that each hold one
    entry of 2 or 3 (of either sign), placed at a random position."""
    m = draw(integer_matrices(max_side=6))
    dense = to_dense(m)
    rows, cols = m.rows + 1, m.cols + 1
    lone_row = draw(st.integers(0, rows - 1))
    lone_col = draw(st.integers(0, cols - 1))
    values = st.sampled_from([2, -2, 3, -3])
    column_value, row_value = draw(values), draw(values)
    grown = [row[:lone_col] + [0] + row[lone_col:] for row in dense]
    grown.insert(lone_row, [0] * cols)
    grown[lone_row][draw(st.integers(0, cols - 1))] = row_value
    border = draw(st.integers(0, rows - 1))
    if border != lone_row:
        grown[border][lone_col] = column_value
    return from_rows(grown, rows, cols)


@given(matrices_with_non_unit_singletons())
@example(from_dense([[2]]))
@example(from_dense([[3, 0], [1, 1]]))
@example(from_dense([[2, 1, 0], [0, 1, 1], [0, 0, 3]]))
def test_non_unit_singletons_are_left_for_phase_two(m: IntegerMatrix):
    """A singleton row or column holding 2 or 3 is no unit pivot: the
    invariant factors still match the reference."""
    assert_matches_reference(m)


def bidiagonal(n: int, cols: int) -> IntegerMatrix:
    """1 on the diagonal and -1 just right of it, in n rows and n or n + 1 columns."""
    return from_entries(n, cols, {**{(i, i): 1 for i in range(n)}, **{(i, i + 1): -1 for i in range(cols - 1)}})


def test_singleton_pass_cascades():
    """A bidiagonal matrix of ±1 is taken out by singletons alone: each
    deletion leaves the next singleton, so the sweep takes no pivot.  The
    square one starts from a row singleton and cascades through rows; in
    the wide one every row holds two entries, so it starts from its two
    column singletons and cascades through columns.  (The square one's
    transpose is itself with the indices reversed, so it would reach no
    other line.)"""
    n = 6
    for m in (bidiagonal(n, n), bidiagonal(n, n + 1)):
        rows, cols = _rows_and_cols(m)
        assert len(_unit_singletons(rows, cols)) == n
        assert not rows and len(cols) == m.cols - n and not any(cols.values())
        rows, cols = _rows_and_cols(m)
        assert len(_eliminate_unit_pivots(rows, cols)) == n


def _rows_and_cols(m: IntegerMatrix) -> tuple[dict[int, dict[int, int]], dict[int, set[int]]]:
    rows: dict[int, dict[int, int]] = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = v
    return rows, {c: set(column) for c, column in enumerate(m.columns) if column}


# -- the fraction-free cross-check ---------------------------------------------

homology_module = importlib.import_module("finitetopo.homology")
complexes_module = importlib.import_module("finitetopo.complexes")


def assert_rank_matches_reference(m: IntegerMatrix) -> None:
    assert fraction_free_rank(m) == reference_smith_normal_form(m)[1]


@given(integer_matrices())
def test_fraction_free_rank_matches_reference(m: IntegerMatrix):
    assert_rank_matches_reference(m)


@given(integer_matrices(max_side=8, entries=NON_UNIT_ENTRIES))
def test_fraction_free_rank_matches_reference_without_units(m: IntegerMatrix):
    assert_rank_matches_reference(m)


@given(integer_matrices(max_side=12, entries=st.integers(-60, 60)))
def test_fraction_free_rank_matches_reference_on_large_entries(m: IntegerMatrix):
    assert_rank_matches_reference(m)


@given(posets(max_size=7))
def test_fraction_free_rank_matches_reference_on_boundaries(p: Poset):
    for d in chain_complex(order_complex(p)).boundaries:
        assert_rank_matches_reference(d)


def test_fraction_free_rank_divides_out_the_content():
    # column 0 takes its lowest row, 2, as its pivot; column 1 minus column 0
    # is (2, 2, 0), of content 2, and takes row 1; column 2 minus column 0 is
    # (4, 4, 0), of content 4, which the reduced column 1 then empties
    m = from_dense([[2, 4, 6], [6, 8, 10], [4, 4, 4]])
    assert fraction_free_rank(m) == reference_smith_normal_form(m)[1] == 2
    # column 1 plus column 0 is (2, 0), of content 2, and takes row 0
    assert fraction_free_rank(from_dense([[1, 1], [1, -1]])) == 2


@pytest.mark.parametrize("dense, rank", [
    # column 1 meets column 0's pivot 2 at row 1 with 3, so a = 2 and b = 3:
    # 2·col1 − 3·col0 is (−1, 0), which takes row 0
    ([[1, 1], [2, 3]], 2),
    # 2·col1 − 3·col0 is (−1, 0, 0), which takes row 0, and 2·col2 − 3·col0
    # is (1, −4, 0), which takes row 1
    ([[1, 1, 2], [0, 0, -2], [2, 3, 3]], 3),
    # 4 meets 6 at row 1, so a = 2 and b = 3: 2·col1 − 3·col0 is zero
    ([[2, 3], [4, 6]], 1),
], ids=["full-rank", "three-columns", "dependent"])
def test_fraction_free_rank_pivots_on_a_non_unit(dense, rank):
    """A pivot p meeting an entry f with p / gcd(p, f) no unit scales the
    column before the pivot column is taken off."""
    m = from_dense(dense)
    assert fraction_free_rank(m) == reference_smith_normal_form(m)[1] == rank


@pytest.mark.parametrize("dense, rank", [
    # col1 − col0 is (2, 0), of content 2, and takes row 0
    ([[1, 3], [1, 1]], 2),
    # col1 − col0 is (3, 3, 0), of content 3, and col2 − col0 is (6, 6, 0), of
    # content 6: both reduce to (1, 1, 0), and the second then cancels
    ([[1, 4, 7], [2, 5, 8], [1, 1, 1]], 2),
    # after a non-unit pivot: 2·col1 − 3·col0 is (−4, −10, 0), of content 2
    ([[2, 1], [4, 1], [2, 3]], 2),
], ids=["unit-step", "two-contents", "after-a-non-unit"])
def test_fraction_free_rank_divides_a_column_by_its_content(dense, rank):
    """A reduced column whose entries share a factor is divided by it."""
    m = from_dense(dense)
    assert fraction_free_rank(m) == reference_smith_normal_form(m)[1] == rank


@given(integer_matrices(max_side=10, entries=st.integers(-6, 6)))
@example(from_dense([[2, 4, 6], [6, 8, 10], [4, 4, 4]]))
@example(from_dense([[1, 1], [2, 3]]))
def test_fraction_free_rank_leaves_the_columns_unchanged(m: IntegerMatrix):
    """A column is copied when it first changes: every column of m is the
    same dict with the same entries afterwards."""
    columns, entries = list(m.columns), [dict(c) for c in m.columns]
    fraction_free_rank(m)
    assert all(a is b for a, b in zip(m.columns, columns)) and len(m.columns) == len(columns)
    assert [dict(c) for c in m.columns] == entries


def test_the_cross_check_catches_a_lost_phase_one_pivot(monkeypatch):
    phase_one = homology_module._eliminate_unit_pivots
    monkeypatch.setattr(homology_module, "_eliminate_unit_pivots", lambda rows, cols: phase_one(rows, cols)[:-1])
    d2 = chain_complex(fx.projective_plane()).boundaries[1]
    with pytest.raises(AssertionError, match="Smith rank disagrees"):
        smith_normal_form(d2)


def test_the_cross_check_catches_a_lost_factor(monkeypatch):
    phase_two = homology_module._min_entry_factors
    monkeypatch.setattr(homology_module, "_min_entry_factors", lambda rows: phase_two(rows)[:-1])
    d2 = chain_complex(fx.projective_plane()).boundaries[1]
    with pytest.raises(AssertionError, match="Smith rank disagrees"):
        smith_normal_form(d2)


def test_the_cross_check_runs_up_to_50x50(monkeypatch):
    shapes = []
    rank = homology_module.fraction_free_rank
    monkeypatch.setattr(homology_module, "fraction_free_rank", lambda m: shapes.append((m.rows, m.cols)) or rank(m))
    for rows, cols in [(50, 50), (50, 1), (1, 50), (51, 1), (1, 51), (51, 51)]:
        smith_normal_form(from_entries(rows, cols, {(i, i): 1 for i in range(min(rows, cols))}))
    assert shapes == [(50, 50), (50, 1), (1, 50)]


def test_import_as_binds_the_function_named_after_its_module():
    # finitetopo re-exports the function homology under the name of its
    # module, which shadows the submodule as an attribute of the package;
    # nothing is exported as nerve, so that import binds the module
    import finitetopo.homology as h
    import finitetopo.nerve as n

    assert h is homology_module.homology and h is not homology_module
    assert n is importlib.import_module("finitetopo.nerve")


def test_no_other_export_is_named_after_a_submodule():
    import finitetopo

    named_after_modules = [n for n in finitetopo.__all__ if importlib.util.find_spec("finitetopo." + n) is not None]
    assert named_after_modules == ["homology"]


# -- clearing across degrees -------------------------------------------------


def reference_profile(chain) -> HomologyProfile:
    """Betti numbers and torsion degree by degree from the reference Smith
    normal form of every whole boundary matrix, with no clearing."""
    sizes = chain.sizes
    factor_lists = [reference_smith_normal_form(b)[0] for b in chain.boundaries] + [()]
    ranks = [0] + [len(f) for f in factor_lists]
    betti = tuple(n - ranks[k] - ranks[k + 1] for k, n in enumerate(sizes))
    torsion = tuple(tuple(d for d in factor_lists[k] if d > 1) for k in range(len(sizes)))
    return HomologyProfile(betti, torsion)


def projective_planes():
    """RP², the order complex of its face poset and that of its barycentric
    subdivision; the last two have boundary matrices beyond 50x50."""
    k = fx.projective_plane()
    return [k, order_complex(face_poset(k)), order_complex(barycentric_poset(face_poset(k)))]


@given(posets(max_size=7))
def test_cleared_profile_matches_reference(p: Poset):
    chain = chain_complex(order_complex(p))
    assert profile_from_chain_complex(chain) == reference_profile(chain)


@pytest.mark.parametrize("k", projective_planes(), ids=["rp2", "rp2-sd1", "rp2-sd2"])
def test_cleared_profile_matches_reference_with_torsion(k: SimplicialComplex):
    chain = chain_complex(k)
    prof = profile_from_chain_complex(chain)
    assert prof == reference_profile(chain)
    assert prof.describe() == "H0=Z H1=Z/2 H2=0"


def bareiss_determinant(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [row[:] for row in a]
    sign, prev = 1, 1
    for k in range(len(a)):
        pivot = next((r for r in range(k, len(a)) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def test_bareiss_determinant():
    assert bareiss_determinant([]) == 1
    assert bareiss_determinant([[0, 2], [3, 1]]) == -6
    assert bareiss_determinant([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0


@given(posets(max_size=7))
@on_closed_surfaces
def test_unit_pivot_block_is_unimodular(p: Poset):
    """The fact clearing rests on: the rows and columns phase 1 pivots on
    bound a square block of determinant ±1."""
    for m in chain_complex(order_complex(p)).boundaries:
        rows, cols = _rows_and_cols(m)
        pivots = _eliminate_unit_pivots(rows, cols)
        pivot_rows = [r for r, _ in pivots]
        pivot_cols = [c for _, c in pivots]
        assert len(set(pivot_rows)) == len(set(pivot_cols)) == len(pivots)
        block = [[m.columns[c].get(r, 0) for c in pivot_cols] for r in pivot_rows]
        assert abs(bareiss_determinant(block)) == 1


# -- chains straight from the poset --------------------------------------------


@st.composite
def seeded_posets(draw) -> Poset:
    """Random and dismantlable posets, and relation cylinders."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "dismantlable", "cylinder"]))
    if kind == "random":
        return fx.random_poset(rng, draw(st.integers(1, 9)), draw(st.sampled_from([0.2, 0.4, 0.6])))
    if kind == "dismantlable":
        return fx.random_dismantlable_poset(rng, draw(st.integers(1, 9)))
    return build_cylinder(fx.beat_retraction_relation(rng, draw(st.integers(2, 7)))).poset


def assert_no_unit_is_left(m: IntegerMatrix) -> None:
    """After phase 1 no ±1 entry is left, and the row and column views
    still describe the same entries."""
    rows, cols = _rows_and_cols(m)
    _eliminate_unit_pivots(rows, cols)
    assert not any(v in (1, -1) for row in rows.values() for v in row.values())
    assert all(rows.values())
    assert {(r, c) for r, row in rows.items() for c in row} == {(r, c) for c, column in cols.items() for r in column}


@given(st.one_of(integer_matrices(max_side=8), integer_matrices(max_side=8, entries=NON_UNIT_ENTRIES)))
@example(from_dense([[3, 2], [2, 1]]))
def test_phase_one_leaves_no_unit(m: IntegerMatrix):
    assert_no_unit_is_left(m)


@given(seeded_posets())
def test_phase_one_leaves_no_unit_on_boundaries(p: Poset):
    for m in chain_complex(p).boundaries:
        assert_no_unit_is_left(m)


@given(seeded_posets(), st.data())
@example(face_poset(fx.projective_plane()), None)
@example(barycentric_poset(face_poset(fx.projective_plane())), None)
def test_poset_chain_complex_is_the_order_complex_chain_complex(p: Poset, data):
    """The chains, listed once each from bottom to top, are the faces of the
    order complex level by level; the boundary matrices keep their non-zero
    counts, and the profile matches both the order complex's and the one
    built from the reference Smith normal form.  Chains inside a mask are
    those of the induced subposet."""
    k = order_complex(p)
    chain = chain_complex(p)
    chains = [tuple(p.elements[i] for i in c) for c in chains_of(chain_tree(p))]
    levels = [[c for c in chains if len(c) == d] for d in range(1, len(chain.sizes) + 1)]
    assert [{tuple(sorted(c)) for c in level} for level in levels] == [set(row) for row in k.faces_by_dim()]
    assert chain.sizes == tuple(map(len, levels))
    assert all(len(level) == len(set(level)) for level in levels)
    assert all(a != b and p.le(a, b) for level in levels for c in level for a, b in zip(c, c[1:]))
    assert [len(d.entries) for d in chain.boundaries] == [len(d.entries) for d in chain_complex(k).boundaries]
    prof = profile_from_chain_complex(chain)
    assert prof == homology(k) == homology(p) == reference_profile(chain)
    assert euler_characteristic(p) == euler_characteristic(k)
    if data is not None:
        mask = data.draw(st.integers(0, p.full_mask()))
        sub = order_complex(p.induced(p._names(mask))).faces
        assert {tuple(sorted(p.elements[i] for i in c)) for c in chains_of(chain_tree(p, mask))} == sub
        assert set(_chains_in(p, mask)) == {frozenset(p._index[e] for e in f) for f in sub}


# -- the column form end to end ------------------------------------------------


def test_homology_never_reads_entries(monkeypatch):
    """homology() of a poset, a complex and a CW complex, and the oracle on
    the local data of shipped relations, read every boundary matrix by
    column: none of them rebuilds the (row, col) dict."""

    def barred(self):
        raise AssertionError("IntegerMatrix.entries was read")

    homology_module._poset_homology.cache_clear()
    monkeypatch.setattr(IntegerMatrix, "entries", property(barred))
    rp2 = fx.projective_plane()
    assert homology(barycentric_poset(face_poset(rp2))).describe() == "H0=Z H1=Z/2 H2=0"
    assert homology(fx.torus()).betti == (1, 2, 1)
    assert homology(as_cw(rp2)).degree(1) == (0, (2,))
    for name in ("certified-relation", "thm-a-refutation"):
        r = fx.get_fixture(name).build()
        for y in r.target.elements:
            triviality_oracle(source_local_data(r, y), DEFAULT_BUDGET)
        for x in r.source.elements:
            triviality_oracle(target_local_data(r, x), DEFAULT_BUDGET)


# -- the cellular chain complex of a simplicial poset ---------------------------


def is_simplicial_by_definition(p: Poset, mask: int) -> bool:
    """Every principal down-set inside mask is isomorphic, by its vertex
    sets, to the non-empty subsets of its minimal members under inclusion."""
    members = [e for i, e in enumerate(p.elements) if mask >> i & 1]
    minimal = [e for e in members if not any(f != e and p.le(f, e) for f in members)]
    vertices = {e: frozenset(m for m in minimal if p.le(m, e)) for e in members}
    for x in members:
        down = [y for y in members if p.le(y, x)]
        if len({vertices[y] for y in down}) != len(down) or len(down) != 2 ** len(vertices[x]) - 1:
            return False
        if any(p.le(y, z) != (vertices[y] <= vertices[z]) for y in down for z in down):
            return False
    return True


@st.composite
def graded_posets_with_a_mask(draw) -> tuple[Poset, int]:
    """Up to four ranks of a few elements each, every element above a
    random non-empty set of the rank below (sometimes also above one two
    ranks down), with the full mask or a random one."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ranks = [[f"r{k}x{i}" for i in range(rng.randint(1, 4))] for k in range(rng.randint(1, 4))]
    pairs = [(x, y) for below, row in zip(ranks, ranks[1:]) for y in row
             for x in rng.sample(below, rng.randint(1, len(below)))]
    if len(ranks) > 2 and rng.random() < 0.2:
        pairs.append((rng.choice(ranks[0]), rng.choice(ranks[2])))
    p = Poset([e for row in ranks for e in row], pairs)
    return p, draw(st.sampled_from([p.full_mask(), rng.randint(0, p.full_mask())]))


@st.composite
def simplicial_posets_with_a_mask(draw) -> tuple[Poset, int]:
    """The face poset of a random complex or its barycentric poset, with the
    full mask, a random down-closed mask (a subcomplex) or any mask."""
    if draw(st.booleans()):
        p = face_poset(draw(complexes()))
    else:
        p = barycentric_poset(face_poset(draw(complexes(max_vertices=4))))
    mask = draw(st.integers(0, p.full_mask()))
    return p, draw(st.sampled_from([p.full_mask(), reach_of(p._down, mask), mask]))


def two_cells_on_one_boundary() -> Poset:
    """Two 2-cells on the same three edges: a 2-sphere whose every down-set
    is a triangle's face lattice, though no face poset, since both 2-cells
    have the vertex set {a, b, c}."""
    edges = ["ab", "ac", "bc"]
    return Poset(["a", "b", "c", *edges, "t1", "t2"],
                 [(v, e) for e in edges for v in e] + [(e, t) for e in edges for t in ("t1", "t2")])


def count_only_impostor() -> Poset:
    """A cell over {a, b, c} with two edges on {a, b} and none on {a, c}: its
    down-set has the seven elements of a triangle's faces, but two of them
    share a vertex set."""
    edges = {"ab1": "ab", "ab2": "ab", "bc": "bc"}
    return Poset(["a", "b", "c", *edges, "t"],
                 [(v, e) for e, vs in edges.items() for v in vs] + [(e, "t") for e in edges])


@given(graded_posets_with_a_mask())
@example((count_only_impostor(), count_only_impostor().full_mask()))
@example((two_cells_on_one_boundary(), two_cells_on_one_boundary().full_mask()))
def test_the_cellular_path_is_taken_exactly_on_simplicial_posets(case):
    p, mask = case
    assert (cellular_chain_complex(p, mask) is not None) == is_simplicial_by_definition(p, mask)


@given(simplicial_posets_with_a_mask())
@example((face_poset(fx.projective_plane()), face_poset(fx.projective_plane()).full_mask()))
def test_cellular_profile_is_the_order_complex_profile(case):
    """A subcomplex is simplicial; any other mask may fall back.  Either
    way the profile is that of the order complex."""
    p, mask = case
    cellular = cellular_chain_complex(p, mask)
    if mask == reach_of(p._down, mask):
        assert cellular is not None
    expected = profile_from_chain_complex(chain_complex(p, mask))
    if cellular is not None:
        assert sum(cellular.sizes) == mask.bit_count()
        assert profile_from_chain_complex(cellular) == expected
    _poset_homology.cache_clear()
    assert homology(ElementSet(p, mask)) == expected


@given(complexes())
@example(fx.projective_plane())
@example(fx.boundary_delta(3))
def test_cellular_complex_of_a_face_poset_is_the_complex_chain_complex(k: SimplicialComplex):
    """Cells and vertices in index order, facets signed (-1)^i by the vertex
    they lack: the same matrices, entry for entry, as the complex's own."""
    cellular = cellular_chain_complex(face_poset(k))
    chain = chain_complex(k)
    assert cellular.sizes == chain.sizes
    assert [to_dense(d) for d in cellular.boundaries] == [to_dense(d) for d in chain.boundaries]


@pytest.mark.parametrize("p", [
    count_only_impostor(),
    Poset(["a", "b", "c"], [("a", "b"), ("b", "c")]),
    Poset(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]),
    build_cylinder(fx.get_fixture("certified-relation").build()).poset,
], ids=["count-only-impostor", "chain", "diamond", "relation-cylinder"])
def test_a_poset_that_is_not_simplicial_falls_back(monkeypatch, p: Poset):
    built = []
    order_complex_chains = complexes_module.chain_complex
    monkeypatch.setattr(complexes_module, "chain_complex", lambda q, mask=None: built.append(q) or order_complex_chains(q, mask))
    assert cellular_chain_complex(p) is None
    _poset_homology.cache_clear()
    assert homology(p) == profile_from_chain_complex(order_complex_chains(p))
    assert built == [p]


def test_a_simplicial_poset_that_is_no_face_poset_takes_the_cellular_path():
    p = two_cells_on_one_boundary()
    cellular = cellular_chain_complex(p)
    assert cellular.sizes == (3, 3, 2)
    _poset_homology.cache_clear()
    assert homology(p).describe() == profile_from_chain_complex(cellular).describe() == "H0=Z H1=0 H2=Z"
    assert homology(p) == profile_from_chain_complex(chain_complex(p))


def test_every_cellular_pair_and_small_matrix_is_checked(monkeypatch):
    """∂∂=0 on every pair of cellular boundaries, and the fraction-free
    rank on every one up to 50x50 (RP²: 6x15 and 15x10)."""
    products, ranks = [], []
    compose, rank = IntegerMatrix.compose, homology_module.fraction_free_rank
    monkeypatch.setattr(IntegerMatrix, "compose", lambda a, b: products.append((a.rows, b.cols)) or compose(a, b))
    monkeypatch.setattr(homology_module, "fraction_free_rank", lambda m: ranks.append((m.rows, m.cols)) or rank(m))
    _poset_homology.cache_clear()
    assert homology(face_poset(fx.projective_plane())).describe() == "H0=Z H1=Z/2 H2=0"
    assert products == [(6, 10)]
    assert sorted(ranks) == [(6, 15), (15, 10)]
    monkeypatch.setattr(IntegerMatrix, "is_zero", lambda m: False)
    with pytest.raises(AssertionError, match="boundary composition is non-zero"):
        cellular_chain_complex(face_poset(fx.boundary_delta(2)))


# -- one profile per order ---------------------------------------------------


def hand_reduced(plain: HomologyProfile) -> HomologyProfile:
    """b0 − 1 on a non-empty space, no degrees at all on the empty one."""
    if not plain.betti:
        return HomologyProfile((), (), reduced=True)
    return HomologyProfile((plain.betti[0] - 1,) + plain.betti[1:], plain.torsion, reduced=True)


@given(posets_and_masks(count=1))
@example((Poset([]), 0))
@example((Poset(["a"]), 0))
@example((Poset(["a"]), 1))
@example((face_poset(fx.projective_plane()), face_poset(fx.projective_plane()).full_mask()))
def test_reduced_profile_is_the_builder_reduced_profile(case):
    """Read off the unreduced profile, the reduced one is the chain
    complex's profile reduced by hand: b0 − 1 on a non-empty mask, no
    degrees at all on the empty one, torsion unchanged."""
    p, mask = case
    plain = profile_from_chain_complex(cellular_chain_complex(p, mask) or chain_complex(p, mask))
    _poset_homology.cache_clear()
    assert homology(ElementSet(p, mask), reduced=True) == hand_reduced(plain)
    assert homology(ElementSet(p, mask)) == plain


def test_one_chain_complex_per_subspace(monkeypatch):
    """The reduced and the unreduced profile of one subspace read one
    entry, its order's, and reduce its chain complex once, in either order."""
    reduced_calls = []
    profile = homology_module.profile_from_chain_complex
    monkeypatch.setattr(
        homology_module, "profile_from_chain_complex", lambda chain: reduced_calls.append(chain) or profile(chain)
    )
    p = face_poset(fx.projective_plane())
    s = ElementSet(p, p.full_mask())
    for first in (True, False):
        _poset_homology.cache_clear()
        reduced_calls.clear()
        assert homology(s, reduced=first).reduced is first
        assert homology(s, reduced=not first).reduced is not first
        assert len(reduced_calls) == 1


@given(posets_and_masks(count=1), st.booleans())
@example((Poset([]), 0), True)
@example((fx.six_cycle(), 0b11), True)
def test_a_subspace_has_the_homology_of_its_induced_poset(case, reduced):
    """Against the induced poset's own builders: s and s.induced() have one
    order, so through `homology()` both would read the same entry."""
    p, mask = case
    s = ElementSet(p, mask)
    q = s.induced()
    plain = profile_from_chain_complex(cellular_chain_complex(q) or chain_complex(q))
    assert homology(s, reduced=reduced) == (hand_reduced(plain) if reduced else plain)


def brute_force_order(p: Poset, mask: int) -> frozenset:
    """The order a mask spans, as the pairs (a, b) of member positions,
    counted in index order, with the a-th member at most the b-th."""
    members = [e for i, e in enumerate(p.elements) if mask >> i & 1]
    return frozenset((a, b) for a, x in enumerate(members) for b, y in enumerate(members) if p.le(x, y))


@given(posets_and_masks(count=6))
@example((fx.six_cycle(), 0, 0b1, 0b10, 0b11, 0b101, fx.six_cycle().full_mask()))
def test_the_cache_holds_one_entry_per_order(case):
    """Random subspaces, every single element and the empty one: as many
    entries as distinct orders.  A copy under new identifiers in the same
    index order reads the same entries and gives identical profiles."""
    p, *masks = case
    masks += [1 << i for i in range(len(p))] + [0]
    _poset_homology.cache_clear()
    profiles = [homology(ElementSet(p, mask)) for mask in masks]
    assert _poset_homology.cache_info().currsize == len({brute_force_order(p, mask) for mask in masks})
    renamed = Poset(["z" + e for e in p.elements], [("z" + a, "z" + b) for a, b in p.cover_pairs])
    entries, hits = _poset_homology.cache_info().currsize, _poset_homology.cache_info().hits
    assert [homology(ElementSet(renamed, mask)) for mask in masks] == profiles
    assert _poset_homology.cache_info().currsize == entries
    assert _poset_homology.cache_info().hits == hits + len(masks)


@pytest.mark.parametrize("s", [
    face_poset(fx.projective_plane()).down_set("1,2,3"),
    ElementSet(build_cylinder(fx.get_fixture("certified-relation").build()).poset, 0b1011),
], ids=["cellular", "order-complex"])
def test_the_cache_holds_one_entry_per_subspace(monkeypatch, s: ElementSet):
    """The reduced profile and then the unreduced one: one cache entry, for
    the subspace's order, and one chain complex, cellular or of the order
    complex."""
    built = []
    for name in ("cellular_chain_complex", "chain_complex"):
        builder = getattr(complexes_module, name)
        monkeypatch.setattr(complexes_module, name, lambda q, m=None, b=builder: built.append(b(q, m)) or built[-1])
    _poset_homology.cache_clear()
    assert homology(s, reduced=True).reduced and not homology(s).reduced
    assert _poset_homology.cache_info().currsize == 1
    assert len([chain for chain in built if chain is not None]) == 1


@given(posets_and_masks(count=1))
@example((Poset([]), 0))
def test_euler_characteristic_is_the_signed_chain_count(case):
    """The recurrence over a linear extension gives the alternating count
    of all chains, here of the subposet a random mask spans."""
    p, mask = case
    q = ElementSet(p, mask).induced()
    assert euler_characteristic(q) == sum((-1) ** k * len(top) for k, (_, top) in enumerate(chain_tree(q)))


def test_euler_characteristic_of_a_large_face_poset_lists_no_chain(monkeypatch):
    """The face poset of ∂Δ¹⁰ has 2,046 elements and more than 10⁹ chains."""
    monkeypatch.setattr(complexes_module, "chain_tree", None)
    assert euler_characteristic(face_poset(fx.boundary_delta(9))) == 0
    assert euler_characteristic(face_poset(fx.boundary_delta(8))) == 2
