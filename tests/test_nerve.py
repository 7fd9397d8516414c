import importlib
import itertools
import random
from collections import Counter
from functools import partial, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitetopo import (
    ComplexCover,
    InputError,
    IntervalCover,
    PosetCover,
    SimplicialComplex,
    Status,
    classify_cover,
    completion_poset,
    homology,
    mapper_completion,
    parse_filter,
    point_subnerve,
    replay_poset_certificate,
    same_homology,
    trivial_subnerve,
    verify_corollary_completion,
    verify_nerve_theorem,
)
from finitetopo import fixtures as fx
from finitetopo import nerve as nerve_module
from finitetopo.nerve import NERVE_VARIANTS, intersecting_families
from finitetopo.reduction import DEFAULT_BUDGET, shared_oracle, triviality_oracle
from tests.test_poset import greatest


def star_cover() -> PosetCover:
    return fx.star_cover_six_cycle()


def two_arc_cover() -> PosetCover:
    return fx.two_arc_cover_six_cycle()


class TestPosetCover:
    def test_parts_must_cover_base(self):
        p = fx.six_cycle()
        with pytest.raises(InputError, match="misses"):
            PosetCover(p, {"A": ["x0", "x2", "y0"]})

    def test_parts_must_be_down_sets(self):
        p = fx.six_cycle()
        with pytest.raises(InputError, match="down-set"):
            PosetCover(p, {"A": ["y0"], "B": list(p.elements)})

    def test_intersections(self):
        cov = star_cover()
        assert set(cov.intersections()["U0,U1"]) == {"x0"}
        assert "U0,U1,U2" not in cov.intersections()

    def test_nerve_of_star_cover_is_circle(self):
        cov = star_cover()
        k = cov.nerve()
        assert k.f_vector() == (3, 3)
        assert homology(k).betti == (1, 1)
        assert len(cov.nerve_poset()) == 6


class TestComplexCover:
    def test_parts_are_subcomplexes(self):
        base = SimplicialComplex([("u", "v"), ("u", "w"), ("v", "w")])
        with pytest.raises(InputError):
            ComplexCover(base, {"A": [("u", "z")], "B": [("u", "v"), ("u", "w"), ("v", "w")]})

    def test_example_cover_nerve_is_a_segment(self):
        cov = fx.example_3_12_cover()
        k = cov.nerve()
        assert k.facets == (("L", "T"),)
        assert homology(k, reduced=True).nonzero_degrees() == ()

    def test_poset_cover_projection(self):
        from finitetopo import face_poset

        cov = fx.example_3_12_cover()
        pc = cov.poset_cover()
        assert set(pc.parts) == {"L", "T"}
        assert pc.base == face_poset(cov.base)


class TestClassifyCover:
    def test_star_cover_is_good(self):
        cls = classify_cover(star_cover(), shared_oracle(DEFAULT_BUDGET))
        assert cls.status == "good"
        assert cls.is_good
        assert cls.failing == []

    def test_two_arc_cover_is_quasi_good_not_good(self):
        cls = classify_cover(two_arc_cover(), shared_oracle(DEFAULT_BUDGET))
        assert cls.status == "quasi-good"
        assert not cls.is_good

    def test_single_part_circle_is_neither(self):
        p = fx.six_cycle()
        cov = PosetCover(p, {"A": list(p.elements)})
        cls = classify_cover(cov, shared_oracle(DEFAULT_BUDGET))
        assert cls.status == "neither"
        # failing is reported per component
        assert cls.failing == ["A|x0"]

    def test_json_shape(self):
        d = classify_cover(star_cover(), shared_oracle(DEFAULT_BUDGET)).to_json_dict()
        assert d["status"] == "good"
        assert set(d["intersections"]) == {"U0", "U1", "U2", "U0,U1", "U0,U2", "U1,U2"}


class TestTrivialSubnerve:
    def test_star_cover_keeps_everything(self):
        cov = star_cover()
        sub = trivial_subnerve(cov, classify_cover(cov, shared_oracle(DEFAULT_BUDGET)))
        assert sub.decided
        assert set(sub.poset.elements) == set(cov.nerve_poset().elements)

    def test_two_arc_cover_drops_the_disconnected_intersection(self):
        cov = two_arc_cover()
        sub = trivial_subnerve(cov, classify_cover(cov, shared_oracle(DEFAULT_BUDGET)))
        assert set(cov.nerve_poset().elements) - set(sub.poset.elements) == {"A,B"}

    def test_point_subnerve_has_maximum_for_good_cover(self):
        cov = star_cover()
        sub = trivial_subnerve(cov, classify_cover(cov, shared_oracle(DEFAULT_BUDGET)))
        for x in cov.base.elements:
            assert greatest(point_subnerve(sub, x)) is not None

    def test_point_subnerve_unknown_element(self):
        cov = star_cover()
        sub = trivial_subnerve(cov, classify_cover(cov, shared_oracle(DEFAULT_BUDGET)))
        with pytest.raises(InputError):
            point_subnerve(sub, "zz")


class TestCompletionPoset:
    def test_two_arc_completion_is_a_circle(self):
        comp = completion_poset(two_arc_cover())
        labels = sorted(comp.poset.elements)
        assert labels == ["A,B|x1", "A,B|x2", "A|x0", "B|x1"]
        assert homology(comp.poset).betti == (1, 1)

    def test_cells_map_back_to_components(self):
        comp = completion_poset(two_arc_cover())
        cell = comp.cells["A,B|x1"]
        assert set(cell) == {"x1"}

    def test_completion_of_good_cover_matches_nerve_poset(self):
        cov = star_cover()
        comp = completion_poset(cov)
        assert same_homology(homology(comp.poset), homology(cov.nerve_poset()))[0]

    def test_completion_is_purely_combinatorial(self):
        # works even when the cover satisfies no nerve hypothesis at all
        p = fx.six_cycle()
        cov = PosetCover(p, {"A": list(p.elements)})
        comp = completion_poset(cov)
        assert len(comp.poset) == 1


class TestCompletionCW:
    def test_example_f_vector(self):
        cw = completion_poset(fx.example_3_12_cover()).as_cw()
        assert cw.f_vector() == (2, 2)
        assert homology(cw).betti == (1, 1)

    def test_cells_graded_by_nerve_dimension(self):
        cw = completion_poset(fx.example_3_12_cover()).as_cw()
        by_dim = cw.cells_by_dim()
        assert len(by_dim[0]) == 2 and len(by_dim[1]) == 2


class TestVerifyNerveTheorem:
    def test_unknown_variant(self):
        with pytest.raises(InputError, match="variant"):
            verify_nerve_theorem(star_cover(), "bogus", shared_oracle(DEFAULT_BUDGET))

    def test_good_poset_variant_certifies_star_cover(self):
        rep = verify_nerve_theorem(star_cover(), "good-poset", shared_oracle(DEFAULT_BUDGET))
        assert rep.status is Status.CERTIFIED
        assert rep.homology_equal is True
        assert rep.base_homology.betti == (1, 1)
        assert rep.nerve_homology.betti == (1, 1)

    def test_x_zero_variant_certifies_star_cover(self):
        rep = verify_nerve_theorem(star_cover(), "x-zero", shared_oracle(DEFAULT_BUDGET))
        assert rep.status is Status.CERTIFIED
        assert rep.homology_equal is True

    def test_quasi_good_variant_certifies_two_arc_cover(self):
        rep = verify_nerve_theorem(two_arc_cover(), "quasi-good", shared_oracle(DEFAULT_BUDGET))
        assert rep.status is Status.CERTIFIED
        assert rep.homology_equal is True

    def test_good_variant_rejects_merely_quasi_good_cover(self):
        rep = verify_nerve_theorem(two_arc_cover(), "good-poset", shared_oracle(DEFAULT_BUDGET))
        assert rep.status is Status.REFUTED
        assert rep.detail["failing"] == ["A,B"]

    def test_refuted_on_cover_that_is_neither(self):
        p = fx.six_cycle()
        cov = PosetCover(p, {"A": list(p.elements)})
        for variant in ("good-poset", "quasi-good"):
            rep = verify_nerve_theorem(cov, variant, shared_oracle(DEFAULT_BUDGET))
            assert rep.status is Status.REFUTED

    def test_certificates_replay_on_membership_cylinder(self):
        rep = verify_nerve_theorem(star_cover(), "good-poset", shared_oracle(DEFAULT_BUDGET))
        eq = rep.equivalence
        cyl = eq.cylinder
        base_final = replay_poset_certificate(cyl.poset, eq.to_source).induced()
        nerve_final = replay_poset_certificate(cyl.poset, eq.to_target).induced()
        assert set(base_final.elements) == set(cyl.source_part)
        assert set(nerve_final.elements) == set(cyl.target_part)

    def test_complex_cover_is_normalized(self):
        rep = verify_nerve_theorem(fx.example_3_12_cover(), "quasi-good", shared_oracle(DEFAULT_BUDGET))
        assert rep.status is Status.CERTIFIED

    def test_json_shape(self):
        d = verify_nerve_theorem(star_cover(), "good-poset", shared_oracle(DEFAULT_BUDGET)).to_json_dict()
        assert d["variant"] == "good-poset"
        assert d["status"] == "Certified"
        assert "equivalence" in d and "classification" in d


class TestVerifyCorollaryCompletion:
    def test_example_3_12(self):
        rep = verify_corollary_completion(fx.example_3_12_cover(), shared_oracle(DEFAULT_BUDGET))
        assert rep.status is Status.CERTIFIED
        assert rep.completion.f_vector() == (2, 2)
        assert rep.base_homology.betti == (1, 1)
        assert rep.completion_homology.betti == (1, 1)
        assert rep.homology_equal is True

    def test_plain_nerve_differs_from_completion_here(self):
        cov = fx.example_3_12_cover()
        assert homology(cov.nerve()).betti == (1, 0)
        assert homology(completion_poset(cov).as_cw()).betti == (1, 1)


# -- randomized cover laws ----------------------------------------------------


def _brute_force_families(named):
    """Each subfamily with a non-empty common value, by size, then
    lexicographically, with that value."""
    names = sorted(named)
    out = {}
    for k in range(1, len(names) + 1):
        for group in itertools.combinations(names, k):
            common = reduce(lambda a, b: a & b, (named[n] for n in group))
            if common:
                out[group] = common
    return out


_NAMES = st.sampled_from(["a", "b", "c", "d", "e", "f"])


@given(st.dictionaries(_NAMES, st.frozensets(st.integers(0, 5), max_size=4), max_size=6))
def test_intersecting_families_of_sets_match_brute_force(named):
    assert list(intersecting_families(named).items()) == list(_brute_force_families(named).items())


@given(st.dictionaries(_NAMES, st.integers(0, 63), max_size=6))
def test_intersecting_families_of_masks_match_brute_force(named):
    assert list(intersecting_families(named).items()) == list(_brute_force_families(named).items())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_random_good_covers_satisfy_both_statements(seed: int):
    cov = fx.random_good_cover(random.Random(seed))
    cls = classify_cover(cov, shared_oracle(DEFAULT_BUDGET))
    assert cls.is_good
    sub = trivial_subnerve(cov, cls)
    assert set(sub.poset.elements) == set(cov.nerve_poset().elements)
    for x in cov.base.elements:
        assert greatest(point_subnerve(sub, x)) is not None
    rep = verify_nerve_theorem(cov, "good-poset", shared_oracle(DEFAULT_BUDGET))
    assert rep.status is Status.CERTIFIED and rep.homology_equal


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_random_quasi_good_covers_match_completion(seed: int):
    cov = fx.random_quasi_good_cover(random.Random(seed))
    rep = verify_nerve_theorem(cov, "quasi-good", shared_oracle(DEFAULT_BUDGET))
    assert rep.status is Status.CERTIFIED and rep.homology_equal


SHIPPED_COVERS = ("star-cover-six-cycle", "two-arc-cover-six-cycle", "x-zero-star-cover", "example-3-12")


@st.composite
def covers(draw):
    """A shipped cover, or a seeded random good or quasi-good one."""
    source = draw(st.sampled_from(["shipped", "good", "quasi-good"]))
    if source == "shipped":
        return fx.get_fixture(draw(st.sampled_from(SHIPPED_COVERS))).build()
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return (fx.random_good_cover if source == "good" else fx.random_quasi_good_cover)(rng)


@given(covers())
@settings(max_examples=40)
def test_completion_poset_matches_its_definition(cov):
    """One cell J|c per component of each non-empty intersection U_J, with
    c the component's first element, of dimension |J|-1; a <= b exactly
    when J_a is in J_b and the component of b is in that of a."""
    comp = completion_poset(cov)
    pc = cov.poset_cover() if isinstance(cov, ComplexCover) else cov
    expected = {}
    for k in range(1, len(pc.parts) + 1):
        for J in itertools.combinations(sorted(pc.parts), k):
            common = reduce(lambda a, b: a & b, (set(pc.parts[n]) for n in J))
            for piece in pc.base.subset(common).components():
                first = next(e for e in pc.base.elements if e in piece)
                expected[",".join(J) + "|" + first] = (set(J), set(piece))
    assert sorted(comp.poset.elements) == sorted(expected)
    for lab, (J, piece) in expected.items():
        assert comp.dim[lab] == len(J) - 1
        assert set(comp.cells[lab]) == piece
    for a, (Ja, piece_a) in expected.items():
        for b, (Jb, piece_b) in expected.items():
            assert comp.poset.le(a, b) == (Ja <= Jb and piece_b <= piece_a), (a, b)


def test_nerve_statements_read_the_table_of_intersections(monkeypatch):
    """Classification, the three nerve statements, the completion, the
    corollary (on the cover of a complex) and the mapper pipeline read the
    cover's table of intersections, which each cover builds once."""
    built = [fx.get_fixture(n).build() for n in SHIPPED_COVERS]
    params = fx.get_fixture("circle-60").params
    cloud = fx.get_fixture("circle-60").build()
    tables = []

    def counted(named):
        tables.append(sorted(named))
        return intersecting_families(named)

    monkeypatch.setattr(nerve_module, "intersecting_families", counted)
    for cov in built:
        classify_cover(cov, shared_oracle(DEFAULT_BUDGET))
        for variant in NERVE_VARIANTS:
            verify_nerve_theorem(cov, variant, shared_oracle(DEFAULT_BUDGET))
        completion_poset(cov)
        if isinstance(cov, ComplexCover):
            assert verify_corollary_completion(cov, shared_oracle(DEFAULT_BUDGET)).status is Status.CERTIFIED
    result = mapper_completion(
        cloud, parse_filter(params["filter"]), IntervalCover(params["intervals"], params["overlap"]), params["epsilon"]
    )
    assert result.completion_homology.betti == (1, 1)
    assert len(tables) == len(built) + 1


def record_oracle_calls(monkeypatch) -> list:
    """Every (poset, mask) the oracle decides, asked through its module-level name."""
    reduction = importlib.import_module("finitetopo.reduction")
    oracle, asked = reduction.triviality_oracle, []
    record = lambda s, budget: asked.append((s.poset, s.mask)) or oracle(s, budget)
    monkeypatch.setattr(reduction, "triviality_oracle", record)
    return asked


def unshared():
    """A table that shares nothing: a statement given it asks the oracle once
    per subspace it meets, repeats included."""
    return lambda s: triviality_oracle(s, DEFAULT_BUDGET)


def test_classification_asks_once_per_distinct_piece(monkeypatch):
    """Of the seven pieces of this cover's intersections, five are distinct
    subspaces: the oracle decides those five, and the report is the one that
    asks once per piece."""
    cover = fx.random_good_cover(random.Random(0), 10)
    pieces = [(piece.poset, piece.mask) for w in cover.intersections().values() for piece in w.components()]
    assert (len(pieces), len(set(pieces))) == (7, 5)
    asked = record_oracle_calls(monkeypatch)
    shared = classify_cover(cover, shared_oracle(DEFAULT_BUDGET))
    assert sorted(mask for _, mask in asked) == sorted({mask for _, mask in pieces})
    assert classify_cover(cover, unshared()).to_json_dict() == shared.to_json_dict()


def test_membership_loop_asks_once_per_distinct_family(monkeypatch):
    """The x-zero statement's ten membership families are five subspaces of
    the trivial subnerve: the oracle decides each once, and the report is the
    one that asks once per element."""
    cover = fx.random_good_cover(random.Random(0), 10)
    sub = trivial_subnerve(cover, classify_cover(cover, shared_oracle(DEFAULT_BUDGET)))
    families = [(f.poset, f.mask) for f in (point_subnerve(sub, x) for x in cover.base.elements)]
    assert (len(families), len(set(families))) == (10, 5)
    asked = record_oracle_calls(monkeypatch)
    shared = verify_nerve_theorem(cover, "x-zero", shared_oracle(DEFAULT_BUDGET))
    assert shared.status is Status.CERTIFIED
    # the cylinder's local data live in the base and in the opposite of the subnerve
    assert sub.poset not in (cover.base, sub.poset.opposite())
    memberships = [key for key in asked if key[0] == sub.poset]
    assert sorted(key[1] for key in memberships) == sorted({mask for _, mask in families})
    assert verify_nerve_theorem(cover, "x-zero", unshared()).to_json_dict() == shared.to_json_dict()


def statements(cover) -> list:
    """(name, check taking a table) for every statement the cover
    can be put to: each nerve variant, and the corollary on a complex cover."""
    checks = [(variant, partial(verify_nerve_theorem, cover, variant)) for variant in NERVE_VARIANTS]
    if isinstance(cover, ComplexCover):
        checks.append(("cor-completion", partial(verify_corollary_completion, cover)))
    return checks


# name -> a builder of the cover, each draw from a fresh seeded rng
COVERS = {
    **{name: partial(lambda n: fx.get_fixture(n).build(), name) for name in SHIPPED_COVERS},
    **{f"{kind}-{seed}": partial(lambda d, s: d(random.Random(s), 10), draw, seed)
       for kind, draw in (("good", fx.random_good_cover), ("quasi-good", fx.random_quasi_good_cover))
       for seed in range(3)},
}


@pytest.mark.parametrize("cover", COVERS.values(), ids=COVERS.keys())
def test_no_statement_decides_a_subspace_twice(monkeypatch, cover):
    """The classification, the membership families and the relation's local
    data of one statement are decided through one table: no (poset, mask)
    reaches the oracle twice, and the report is the one a table that shares
    nothing gives."""
    cover = cover()
    asked = record_oracle_calls(monkeypatch)
    for name, check in statements(cover):
        asked.clear()
        shared = check(shared_oracle(DEFAULT_BUDGET))
        assert [key for key, n in Counter(asked).items() if n > 1] == [], name
        assert check(unshared()).to_json_dict() == shared.to_json_dict(), name
