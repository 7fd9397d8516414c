import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from finitetopo import (
    IntegerMatrix,
    InputError,
    Poset,
    RegularCWComplex,
    SimplicialComplex,
    ValidationError,
    barycentric_complex,
    barycentric_poset,
    cell_vertices,
    chain_complex,
    cw_from_face_poset,
    euler_characteristic,
    face_poset,
    homology,
    order_complex,
    same_homology,
)
from finitetopo import fixtures
from finitetopo.complexes import cell_id, chain_tree
from tests.reference_chain_complex import reference_chain_complex
from tests.reference_rank import to_dense
from tests.test_poset import diamond, posets


def triangle_boundary() -> SimplicialComplex:
    return SimplicialComplex([("u", "v"), ("v", "w"), ("u", "w")])


def as_cw(k: SimplicialComplex) -> RegularCWComplex:
    """k as a regular CW complex, through the validating constructor."""
    return cw_from_face_poset(face_poset(k), {cell_id(f): len(f) - 1 for f in k.faces})


class TestSimplicialComplex:
    def test_faces_close_downward(self):
        k = SimplicialComplex([("a", "b", "c")])
        assert ("a",) in k.faces
        assert ("a", "c") in k.faces
        assert len(k.faces) == 7

    def test_vertex_order_inside_simplex_is_normalized(self):
        k = SimplicialComplex([("b", "a")])
        assert ("a", "b") in k.faces
        assert SimplicialComplex([("a", "b")]) == k

    def test_f_vector_and_euler(self):
        k = triangle_boundary()
        assert k.f_vector() == (3, 3)
        assert euler_characteristic(k) == 0
        assert k.dim() == 1

    def test_duplicate_vertex_in_simplex_collapses(self):
        assert SimplicialComplex([("a", "a")]) == SimplicialComplex([("a",)])

    def test_empty_simplex_rejected(self):
        with pytest.raises(InputError):
            SimplicialComplex([()])

    @pytest.mark.parametrize("facet, bad", [((1, "a"), "1"), ((["a"], "b"), r"\['a'\]"), (("a", ""), "''")],
                             ids=["int-and-string", "unhashable", "empty"])
    def test_a_non_string_vertex_is_named_before_sorting(self, facet, bad):
        with pytest.raises(InputError, match=f"^vertex identifiers must be non-empty strings, got {bad}$"):
            SimplicialComplex([facet])

    def test_comma_in_vertex_name_rejected_by_face_poset(self):
        k = SimplicialComplex([("a,b", "c")])
        with pytest.raises(InputError, match=","):
            face_poset(k)

    def test_subcomplex_and_intersection(self):
        k = SimplicialComplex([("a", "b", "c")])
        sub = SimplicialComplex([("a", "b")])
        assert sub.is_subcomplex_of(k)
        assert SimplicialComplex(k.faces & sub.faces) == sub


class TestOrderComplex:
    def test_chains_of_diamond(self):
        k = order_complex(diamond())
        # maximal chains a<b<d and a<c<d
        assert ("a", "b", "d") in k.faces
        assert ("a", "c", "d") in k.faces
        assert ("b", "c") not in k.faces
        assert k.dim() == 2

    def test_opposite_has_same_order_complex(self):
        p = diamond()
        assert order_complex(p) == order_complex(p.opposite())

    def test_antichain_gives_points(self):
        k = order_complex(Poset("xyz"))
        assert k.f_vector() == (3,)


class TestFacePoset:
    def test_inclusion_order(self):
        p = face_poset(triangle_boundary())
        assert p.le("u", "u,v")
        assert not p.le("u,v", "v,w") and not p.le("v,w", "u,v")
        assert len(p) == 6

    def test_cell_vertices_round_trip(self):
        p = face_poset(SimplicialComplex([("a", "b", "c")]))
        top = p.maximal_elements()
        assert len(top) == 1
        assert cell_vertices(top[0]) == ("a", "b", "c")


class TestBarycentric:
    def test_subdivision_of_triangle_boundary(self):
        k = triangle_boundary()
        sd = barycentric_complex(k)
        # each edge splits in two: 6 edges, 6 vertices, still a circle
        assert sd.f_vector() == (6, 6)
        assert same_homology(homology(sd), homology(k))[0]

    def test_complex_subdivides_twice(self):
        from finitetopo.fixtures import torus

        k = torus()
        sd2 = barycentric_complex(barycentric_complex(k))
        assert len(sd2) == 1512
        assert same_homology(homology(sd2), homology(k))[0]
        assert homology(face_poset(barycentric_complex(k))).betti == (1, 2, 1)

    def test_poset_subdivision_matches_chain_count(self):
        p = diamond()
        sd = barycentric_poset(p)
        chains = order_complex(p).faces
        assert len(sd) == len(chains)
        assert same_homology(homology(sd), homology(p))[0]

    def test_poset_subdivision_tolerates_comma_names(self):
        # face posets have cell ids like "u,v"; subdividing them must work
        p = face_poset(triangle_boundary())
        sd = barycentric_poset(p)
        assert len(sd) == len(order_complex(p).faces)
        assert same_homology(homology(sd), homology(p))[0]


@st.composite
def complexes(draw, max_vertices: int = 6) -> SimplicialComplex:
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    verts = [f"v{i}" for i in range(n)]
    facets = draw(
        st.lists(
            st.sets(st.sampled_from(verts), min_size=1, max_size=min(4, n)),
            min_size=1,
            max_size=6,
        )
    )
    return SimplicialComplex([tuple(sorted(f)) for f in facets])


@st.composite
def complexes_with_a_triangle(draw, max_vertices: int = 6) -> SimplicialComplex:
    k = draw(complexes(max_vertices))
    verts = [f"v{i}" for i in range(max_vertices)]
    triangle = draw(st.sets(st.sampled_from(verts), min_size=3, max_size=3))
    return SimplicialComplex([*k.facets, tuple(sorted(triangle))])


class TestChainComplex:
    def test_edge_boundary_signs(self):
        k = SimplicialComplex([("a", "b")])
        chain = chain_complex(k)
        # the vertices a, b hang off the empty face; the edge is a plus its top b
        assert chain_tree(k) == [([0, 0], [0, 1]), ([0], [1])]
        assert chain.sizes == (2, 1)
        assert to_dense(chain.boundaries[0]) == [[-1], [1]]

    def test_bases_match_f_vector(self):
        k = triangle_boundary()
        chain = chain_complex(k)
        assert chain.sizes == k.f_vector()

    @given(st.one_of(complexes_with_a_triangle(), complexes_with_a_triangle().map(face_poset)), st.data())
    def test_composition_check_rejects_bad_matrix(self, k: SimplicialComplex | Poset, data):
        """Flipping the sign of one entry of ∂2 makes ∂1∂2 non-zero in
        exactly that entry's column, and chain_complex refuses the pair,
        for a complex and for a poset (a face poset has a 2-chain)."""
        d1, d2 = chain_complex(k).boundaries[:2]
        key = data.draw(st.sampled_from(sorted(d2.entries)))
        columns = [dict(column) for column in d2.columns]
        columns[key[1]][key[0]] *= -1
        bad = IntegerMatrix(d2.rows, columns)
        assert {c for _, c in d1.compose(bad).entries} == {key[1]}
        compose = IntegerMatrix.compose
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(IntegerMatrix, "compose", lambda a, b: compose(a, bad if b == d2 else b))
            with pytest.raises(ValidationError, match="boundary composition is non-zero"):
                chain_complex(k)


# -- the chain tree against the name-slicing reference ---------------------------


def _in_order(boundaries) -> list:
    """Each matrix with its columns' entries in insertion order, which sets
    the order in which Smith normal form meets them."""
    return [(d.rows, d.cols, [list(column.items()) for column in d.columns]) for d in boundaries]


@st.composite
def posets_with_a_mask(draw) -> tuple[Poset, int | None]:
    p = draw(posets())
    return p, draw(st.one_of(st.none(), st.just(0), st.just(p.full_mask()), st.integers(0, p.full_mask())))


class TestChainTree:
    """Each boundary column is read off its prefix's column, so the
    reference builds every column afresh from name tuples, as chain_complex
    did before the tree: sizes, matrices and the order of every column's
    entries must all agree."""

    @given(posets_with_a_mask())
    @example((Poset([]), None))
    @example((Poset([]), 0))
    @example((face_poset(fixtures.projective_plane()), None))
    @example((face_poset(fixtures.torus()), None))
    @example((face_poset(fixtures.boundary_delta(2)), None))
    def test_poset_matches_the_reference(self, case):
        p, mask = case
        chain = chain_complex(p, mask)
        sizes, boundaries = reference_chain_complex(p, mask)
        assert chain.sizes == sizes
        assert chain.boundaries == boundaries
        assert _in_order(chain.boundaries) == _in_order(boundaries)

    @given(complexes())
    @example(SimplicialComplex([]))
    @example(fixtures.projective_plane())
    @example(fixtures.torus())
    @example(fixtures.boundary_delta(2))
    def test_complex_matches_the_reference(self, k: SimplicialComplex):
        chain = chain_complex(k)
        sizes, boundaries = reference_chain_complex(k)
        assert chain.sizes == sizes == k.f_vector()
        assert chain.boundaries == boundaries
        assert _in_order(chain.boundaries) == _in_order(boundaries)


TRIANGLE = face_poset(SimplicialComplex([("a", "b", "c")]))


class TestRegularCW:
    def test_complex_as_cw_round_trip(self):
        k = triangle_boundary()
        cw = as_cw(k)
        assert cw.f_vector() == (3, 3)
        assert euler_characteristic(cw) == 0
        assert same_homology(homology(cw), homology(k))[0]

    def test_cw_from_face_poset_validates_grading(self):
        # a single covering step that jumps two dimensions is not regular
        p = Poset(["v", "c"], [("v", "c")])
        with pytest.raises(ValidationError):
            cw_from_face_poset(p, {"v": 0, "c": 2})

    @pytest.mark.parametrize("p, dim, message", [
        (Poset(["a", "b", "c", "e"], [("a", "e"), ("b", "e"), ("c", "e")]), {"a": 0, "b": 0, "c": 0, "e": 1},
         "cell 'e' has 4 faces; a simplex on a vertex set of size 3 has 7"),
        (Poset(["x"]), {"x": 1}, "cell 'x' of dimension 1 has 1 vertices below it"),
        (Poset(["a", "b", "c", "ab", "bc", "t"],
               [("a", "ab"), ("b", "ab"), ("b", "bc"), ("c", "bc"), ("ab", "t"), ("bc", "t")]),
         {"a": 0, "b": 0, "c": 0, "ab": 1, "bc": 1, "t": 2},
         "cell 't' has 6 faces; a simplex on a vertex set of size 3 has 7"),
        (Poset(["a", "b", "c", "ab1", "ab2", "bc", "t"],
               [("a", "ab1"), ("b", "ab1"), ("a", "ab2"), ("b", "ab2"), ("b", "bc"), ("c", "bc"),
                ("ab1", "t"), ("ab2", "t"), ("bc", "t")]),
         {"a": 0, "b": 0, "c": 0, "ab1": 1, "ab2": 1, "bc": 1, "t": 2},
         "cell 't': two faces share the same vertex set"),
        (Poset(TRIANGLE.elements, [*TRIANGLE.cover_pairs, ("a", "b,c")]), {c: c.count(",") for c in TRIANGLE},
         "cell 'b,c' has 4 faces; a simplex on a vertex set of size 3 has 7"),
        (Poset(["a", "b", "a,b"], [("a", "a,b"), ("b", "a,b")]), {"a": 0, "b": 0, "a,b": 2},
         "cell 'a,b' of dimension 2 has 2 vertices below it"),
    ], ids=["wrong-vertex-count", "vertices-against-dimension", "wrong-binomial-counts", "shared-vertex-set",
            "order-disagrees-with-inclusion", "cover-not-raising-dimension"])
    def test_cw_from_face_poset_rejects(self, p, dim, message):
        with pytest.raises(ValidationError) as caught:
            cw_from_face_poset(p, dim)
        assert str(caught.value) == message

    def test_order_complex_of_cw_is_subdivision(self):
        k = SimplicialComplex([("a", "b", "c")])
        cw = as_cw(k)
        assert same_homology(homology(order_complex(cw.poset)), homology(k))[0]


# -- randomized structure laws ------------------------------------------------


@given(posets(max_size=6))
def test_order_complex_faces_are_exactly_chains(p: Poset):
    k = order_complex(p)
    for face in k.faces:
        for a, b in zip(face, face[1:]):
            assert a != b and p.le(a, b)
    assert set(k.vertices) == set(p.elements)


@given(posets(max_size=6))
def test_order_complex_opposite_invariance(p: Poset):
    assert order_complex(p) == order_complex(p.opposite())


@given(complexes())
def test_face_poset_euler_matches_complex(k: SimplicialComplex):
    p = face_poset(k)
    assert len(p) == len(k.faces)
    assert euler_characteristic(k) == sum((-1) ** (len(f) - 1) for f in k.faces)


@given(complexes(max_vertices=5))
def test_barycentric_preserves_euler(k: SimplicialComplex):
    assert euler_characteristic(barycentric_complex(k)) == euler_characteristic(k)


@given(complexes(max_vertices=5))
def test_chain_complex_boundaries_compose_to_zero(k: SimplicialComplex):
    chain = chain_complex(k)
    for a, b in zip(chain.boundaries, chain.boundaries[1:]):
        assert a.compose(b).is_zero()


@given(st.lists(st.sets(st.sampled_from("abcdef"), min_size=1, max_size=5), max_size=12))
def test_facets_match_the_brute_force_filter(family):
    simplices = {tuple(sorted(s)) for s in family}
    brute = sorted(t for t in simplices if not any(t != u and set(t) <= set(u) for u in simplices))
    assert list(SimplicialComplex(family).facets) == brute
