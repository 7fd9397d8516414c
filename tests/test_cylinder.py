import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitetopo import (
    InputError,
    Poset,
    Relation,
    Status,
    build_cylinder,
    check_source_retraction,
    check_target_retraction,
    collapse_cylinder_to_source,
    collapse_cylinder_to_target,
    homology,
    mapping_cylinder,
    replay_poset_certificate,
    same_homology,
    source_local_data,
    target_local_data,
    verify_equivalence,
    verify_homology_equivalence,
)
from finitetopo import reduction
from finitetopo import fixtures as fx
from finitetopo.certificates import TrivialityVerdict
from finitetopo.cylinder import CylinderPoset, HypothesisReport
from finitetopo.homology import HomologyProfile
from finitetopo.reduction import DEFAULT_BUDGET, shared_oracle, triviality_oracle
from tests import reference_local_data as reference
from tests.test_poset import least, posets, shuffled_posets


def failing(rep: HypothesisReport) -> list[str]:
    """The elements whose local datum is certified non-trivial."""
    return sorted(e for e, v in rep.verdicts.items() if v.is_nontrivial)


def bound_degree_lookups(monkeypatch, limit: int = 1000) -> None:
    """Make HomologyProfile.degree raise after `limit` calls, so a check
    that walks every degree up to a huge bound fails instead of hanging."""
    lookup = HomologyProfile.degree
    calls = [0]

    def counted(self, k):
        calls[0] += 1
        if calls[0] > limit:
            raise AssertionError(f"more than {limit} degree lookups")
        return lookup(self, k)

    monkeypatch.setattr(HomologyProfile, "degree", counted)


def fence_map():
    return fx._fence_map()


def full_relation(src: Poset, tgt: Poset) -> Relation:
    return Relation.of(src, tgt, [(x, y) for x in src.elements for y in tgt.elements])


class TestRelation:
    def test_pairs_must_mention_known_elements(self):
        with pytest.raises(InputError, match="unknown source"):
            Relation.of(Poset("a"), Poset("b"), [("z", "b")])
        with pytest.raises(InputError, match="unknown target"):
            Relation.of(Poset("a"), Poset("b"), [("a", "z")])

    def test_monotone_map_must_cover_source(self):
        with pytest.raises(InputError, match="exactly the source"):
            Relation.from_monotone_map(Poset("ab"), Poset("u"), {"a": "u"})

    def test_non_monotone_map_rejected(self):
        src = Poset("ab", [("a", "b")])
        tgt = Poset("uv", [("u", "v")])
        with pytest.raises(InputError, match="not monotone"):
            Relation.from_monotone_map(src, tgt, {"a": "v", "b": "u"})

    def test_image_preimage(self):
        src, tgt, f = fence_map()
        r = Relation.from_monotone_map(src, tgt, f)
        assert set(reference.image(r, src.subset(["a", "c"]))) == {"u"}
        assert set(reference.preimage(r, tgt.subset(["u"]))) == {"a", "c"}

    def test_image_preimage_take_an_element_set_of_their_factor(self):
        """A set of the other factor is refused, not read as bits of this one;
        a set of an equal poset has the same bits."""
        src, tgt, f = fence_map()
        r = Relation.from_monotone_map(src, tgt, f)
        with pytest.raises(InputError, match="image takes an element set of the relation's source"):
            reference.image(r, tgt.subset(["u", "v"]))
        with pytest.raises(InputError, match="preimage takes an element set of the relation's target"):
            reference.preimage(r, src.subset(["a", "b", "c"]))
        assert set(reference.image(r, Poset(src.elements, src.cover_pairs).subset(["b"]))) == {"v"}


class TestBuildCylinder:
    def test_namespaced_elements(self):
        src, tgt, f = fence_map()
        cyl = build_cylinder(Relation.from_monotone_map(src, tgt, f))
        assert set(cyl.poset.elements) == {"X:a", "X:b", "X:c", "Y:u", "Y:v"}
        assert set(cyl.source_part) == {"X:a", "X:b", "X:c"}
        assert set(cyl.target_part) == {"Y:u", "Y:v"}

    def test_order_embeds_both_factors_below_relation(self):
        src, tgt, f = fence_map()
        cyl = build_cylinder(Relation.from_monotone_map(src, tgt, f))
        p = cyl.poset
        assert p.le("X:a", "X:b")
        assert p.le("Y:u", "Y:v")
        assert p.le("X:a", "Y:u")
        # generated closure: a < b and b relates to v
        assert p.le("X:a", "Y:v")
        assert not p.le("Y:u", "X:a")

    def test_source_part_is_down_set(self):
        r = fx._certified_relation()
        cyl = build_cylinder(r)
        assert cyl.source_part.is_down_set()
        assert reference.closure(cyl.target_part) == cyl.target_part


class TestMappingCylinder:
    def test_retraction_is_decreasing_linear_extension(self):
        src, tgt, f = fence_map()
        cyl = mapping_cylinder(src, tgt, f)
        order = [s.removed[0] for s in cyl.retraction_certificate.steps]
        assert order == ["X:" + x for x in reversed(src.linear_extension())]
        assert {s.kind for s in cyl.retraction_certificate.steps} == {"up-beat"}

    def test_retraction_replays_onto_target_part(self):
        src, tgt, f = fence_map()
        cyl = mapping_cylinder(src, tgt, f)
        final = replay_poset_certificate(cyl.poset, cyl.retraction_certificate).induced()
        assert set(final.elements) == set(cyl.target_part)

    def test_cylinder_has_target_homology(self):
        src, tgt, f = fx._fence_to_point()
        cyl = mapping_cylinder(src, tgt, f)
        assert same_homology(homology(cyl.poset), homology(tgt))[0]


class TestLocalData:
    def test_source_side_is_open_hull_of_preimage(self):
        r = fx._certified_relation()
        for y in r.target.elements:
            hull = source_local_data(r, y)
            assert hull.is_down_set()
            assert set(reference.preimage(r, r.target.down_set(y))) <= set(hull)

    def test_target_side_is_closure_of_image(self):
        r = fx._certified_relation()
        for x in r.source.elements:
            closed = target_local_data(r, x)
            assert reference.closure(closed) == closed

    def test_monotone_map_target_data_has_minimum(self):
        src, tgt, f = fence_map()
        r = Relation.from_monotone_map(src, tgt, f)
        for x in src.elements:
            assert least(target_local_data(r, x)) == f[x]


class TestHypothesisCheckers:
    def test_fence_map_certifies_target_side(self):
        # monotone maps always satisfy the target-side hypothesis
        src, tgt, f = fence_map()
        r = Relation.from_monotone_map(src, tgt, f)
        rep = check_target_retraction(r, shared_oracle(DEFAULT_BUDGET))
        assert rep.status is Status.CERTIFIED
        assert failing(rep) == []

    def test_fence_map_refutes_source_side(self):
        # the fiber over u is the disconnected pair {a, c}
        src, tgt, f = fence_map()
        r = Relation.from_monotone_map(src, tgt, f)
        rep = check_source_retraction(r, shared_oracle(DEFAULT_BUDGET))
        assert rep.status is Status.REFUTED
        assert failing(rep) == ["u"]

    def test_refutation_fixture_fails_target_side(self):
        r = fx._refutation_relation()
        rep = check_target_retraction(r, shared_oracle(DEFAULT_BUDGET))
        assert rep.status is Status.REFUTED
        assert failing(rep) == ["x"]

    def test_json_shape(self):
        r = fx._refutation_relation()
        d = check_target_retraction(r, shared_oracle(DEFAULT_BUDGET)).to_json_dict()
        assert d["side"] == "target"
        assert d["status"] == "Refuted"
        assert set(d["verdicts"]) == set(r.source.elements)

    @pytest.mark.parametrize("relation", [
        fx.get_fixture("thm-a-refutation").build(),
        fx.get_fixture("certified-relation").build(),
        fx.beat_retraction_relation(random.Random(7), 7),
        full_relation(*fence_map()[:2]),
    ], ids=["thm-a-refutation", "certified-relation", "beat-retraction-7", "full-relation"])
    @pytest.mark.parametrize("side", ["source", "target"])
    def test_one_oracle_call_per_distinct_local_datum(self, monkeypatch, relation, side):
        """Elements whose local data are one subspace share one verdict, and
        the report is the one that asks the oracle once per element."""
        check, local_data, elements = {
            "source": (check_source_retraction, source_local_data, relation.target.elements),
            "target": (check_target_retraction, target_local_data, relation.source.elements),
        }[side]
        asked = []
        monkeypatch.setattr(reduction, "triviality_oracle", lambda s, budget: asked.append(s.mask) or triviality_oracle(s, budget))
        report = check(relation, shared_oracle(DEFAULT_BUDGET))
        masks = [local_data(relation, e).mask for e in elements]
        assert sorted(asked) == sorted(set(masks))
        verdicts = {e: triviality_oracle(local_data(relation, e), DEFAULT_BUDGET) for e in elements}
        per_element = HypothesisReport(side, verdicts)
        assert report.to_json_dict() == per_element.to_json_dict()


class TestCollapseCertificates:
    def test_certified_relation_collapses_both_ways(self):
        r = fx._certified_relation()
        cyl = build_cylinder(r)
        to_src = collapse_cylinder_to_source(cyl, check_source_retraction(r, shared_oracle(DEFAULT_BUDGET)))
        to_tgt = collapse_cylinder_to_target(cyl, check_target_retraction(r, shared_oracle(DEFAULT_BUDGET)))
        assert len(to_src.steps) == len(r.target)
        assert len(to_tgt.steps) == len(r.source)
        src_final = replay_poset_certificate(cyl.poset, to_src).induced()
        tgt_final = replay_poset_certificate(cyl.poset, to_tgt).induced()
        assert set(src_final.elements) == set(cyl.source_part)
        assert set(tgt_final.elements) == set(cyl.target_part)

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_a_punctured_set_that_misses_its_local_datum_is_refused(self, side):
        """Dropping one cross cover pair X:x < Y:y from the cylinder leaves the
        layout intact, and the first deleted element whose punctured set then
        misses its local datum is that pair's end on the deleted side."""
        r = fx._certified_relation()
        cyl = build_cylinder(r)
        x, y = min(pair for pair in cyl.poset.cover_pairs if pair[0].startswith("X:") and pair[1].startswith("Y:"))
        broken = CylinderPoset(Poset(cyl.poset.elements, cyl.poset.cover_pairs - {(x, y)}), r)
        collapse, check, name, direction = {
            "source": (collapse_cylinder_to_source, check_source_retraction, y, "down"),
            "target": (collapse_cylinder_to_target, check_target_retraction, x, "up"),
        }[side]
        collapse(cyl, check(r, shared_oracle(DEFAULT_BUDGET)))
        message = f"punctured {direction}-set of {name!r} does not match its local {side} data"
        with pytest.raises(AssertionError, match="^" + re.escape(message) + "$"):
            collapse(broken, check(r, shared_oracle(DEFAULT_BUDGET)))

    def test_uncertified_side_raises(self):
        # the refutation fixture's target side fails at x
        r = fx._refutation_relation()
        with pytest.raises(InputError, match="target retraction is Refuted"):
            collapse_cylinder_to_target(build_cylinder(r), check_target_retraction(r, shared_oracle(DEFAULT_BUDGET)))

    def test_uncertified_source_side_raises(self):
        # the fence map's fibre over u is disconnected
        r = Relation.from_monotone_map(*fence_map())
        with pytest.raises(InputError, match="source retraction is Refuted"):
            collapse_cylinder_to_source(build_cylinder(r), check_source_retraction(r, shared_oracle(DEFAULT_BUDGET)))

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_stale_hypothesis_report_is_revalidated(self, side):
        # a certified report for one relation cannot drive another cylinder;
        # the refusal names the elements that only one of the two decides
        r = fx._certified_relation()
        other = fx._refutation_relation()
        check, collapse, only_one = {
            "source": (check_source_retraction, collapse_cylinder_to_source, ["a", "b"]),
            "target": (check_target_retraction, collapse_cylinder_to_target, ["x", "z"]),
        }[side]
        good = check(r, shared_oracle(DEFAULT_BUDGET))
        assert good.status is Status.CERTIFIED
        stray = sorted(only_one + ["x0", "x1", "x2", "y0", "y1", "y2"])
        message = f"the {side} report is for another relation: it and the collapse differ on {stray}"
        with pytest.raises(InputError, match="^" + re.escape(message) + "$"):
            collapse(build_cylinder(other), report=good)

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_report_of_the_other_side_is_refused(self, side):
        """On the identity relation of the fence a < b > c both sides certify
        and the other side's report names exactly the elements to delete;
        the collapse still refuses it instead of emitting steps that replay
        rejects."""
        fence = Poset(["a", "b", "c"], [("a", "b"), ("c", "b")])
        r = Relation.of(fence, fence, [(x, x) for x in fence.elements])
        collapse, other, wrong = {
            "source": (collapse_cylinder_to_source, "target", check_target_retraction),
            "target": (collapse_cylinder_to_target, "source", check_source_retraction),
        }[side]
        report = wrong(r, shared_oracle(DEFAULT_BUDGET))
        assert report.status is Status.CERTIFIED
        message = f"the collapse onto the {side} takes the {side} report, not the {other} one"
        with pytest.raises(InputError, match="^" + re.escape(message) + "$"):
            collapse(build_cylinder(r), report)

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_trivial_verdict_without_certificate_is_rejected(self, side):
        # a hand-built report that says "trivial" everywhere but carries no
        # evidence: the collapse has nothing to attach to its gamma steps
        r = fx._certified_relation()
        elements = r.target.elements if side == "source" else r.source.elements
        report = HypothesisReport(side, {e: TrivialityVerdict("trivial", "hand-built") for e in elements})
        collapse = collapse_cylinder_to_source if side == "source" else collapse_cylinder_to_target
        with pytest.raises(AssertionError, match="carries no certificate"):
            collapse(build_cylinder(r), report=report)


class TestVerifyEquivalence:
    def test_certified(self):
        rep = verify_equivalence(fx._certified_relation(), shared_oracle(DEFAULT_BUDGET))
        assert rep.status is Status.CERTIFIED
        assert rep.homology_equal is True
        assert rep.to_source is not None and rep.to_target is not None
        assert rep.cylinder is not None

    def test_refuted(self):
        rep = verify_equivalence(fx._refutation_relation(), shared_oracle(DEFAULT_BUDGET))
        assert rep.status is Status.REFUTED
        assert rep.to_source is None
        assert rep.cylinder is None
        assert failing(rep.target_report) == ["x"]

    def test_unknown_on_budget_exhaustion(self):
        # source local data of the only target element is the whole disc
        # poset, which needs a collapse search the tiny budget cannot finish
        disc = fx.REGISTRY["collapsible-noncontractible"].build()
        point = Poset(["w"])
        r = Relation.of(disc, point, [(x, "w") for x in disc.elements])
        rep = verify_equivalence(r, shared_oracle(1))
        assert rep.status is Status.UNKNOWN

    def test_certified_report_replays_on_its_cylinder(self):
        r = fx._certified_relation()
        rep = verify_equivalence(r, shared_oracle(DEFAULT_BUDGET))
        assert rep.cylinder.relation == r
        final = replay_poset_certificate(rep.cylinder.poset, rep.to_source).induced()
        assert set(final.elements) == set(rep.cylinder.source_part)

    def test_certified_report_replays_on_rebuilt_cylinder(self):
        rep = verify_equivalence(fx._certified_relation(), shared_oracle(DEFAULT_BUDGET))
        cyl = build_cylinder(rep.cylinder.relation)
        final = replay_poset_certificate(cyl.poset, rep.to_target).induced()
        assert set(final.elements) == set(cyl.target_part)


class TestVerifyHomologyEquivalence:
    def test_certified_fixture(self):
        r = fx._certified_relation()
        rep = verify_homology_equivalence(r, 1)
        assert rep.status is Status.CERTIFIED
        assert rep.homology_equal is True
        assert rep.through_degree == 1

    def test_huge_degree_bound_reads_only_the_nonzero_degrees(self, monkeypatch):
        bound_degree_lookups(monkeypatch)
        rep = verify_homology_equivalence(fx._certified_relation(), 10**9)
        assert rep.status is Status.CERTIFIED and rep.through_degree == 10**9
        rep = verify_homology_equivalence(fx._refutation_relation(), 10**9)
        assert rep.status is Status.REFUTED and rep.failing == {"target": ["x"]}

    def test_negative_degree_is_input_error(self):
        with pytest.raises(InputError, match="non-negative"):
            verify_homology_equivalence(fx._certified_relation(), -1)

    def test_refuted_names_failing_elements(self):
        r = fx._refutation_relation()
        rep = verify_homology_equivalence(r, 1)
        assert rep.status is Status.REFUTED
        assert rep.failing == {"target": ["x"]}

    def test_empty_local_data_refutes(self):
        # y1 is hit by nothing, so the source-side family has an empty member
        src = Poset(["x"])
        tgt = Poset(["y0", "y1"], [("y0", "y1")])
        r = Relation.of(src, tgt, [("x", "y1")])
        rep = verify_homology_equivalence(r, 0)
        assert rep.status is Status.REFUTED
        assert "y0" in rep.failing["source"]


# -- randomized cylinder laws -------------------------------------------------


@given(posets(max_size=6), posets(max_size=6), st.data())
def test_image_and_preimage_are_the_pair_scan(src: Poset, tgt: Poset, data):
    """The reference image and preimage, which the local-data tables are
    checked against, agree with a scan over every pair, and are element
    sets of the other factor."""
    pairs = data.draw(st.sets(st.tuples(st.sampled_from(src.elements), st.sampled_from(tgt.elements))))
    r = Relation.of(src, tgt, pairs)
    xs = data.draw(st.sets(st.sampled_from(src.elements)))
    ys = data.draw(st.sets(st.sampled_from(tgt.elements)))
    image = {y for x, y in pairs if x in xs}
    preimage = {x for x, y in pairs if y in ys}
    assert set(reference.image(r, src.subset(xs))) == image
    assert set(reference.preimage(r, tgt.subset(ys))) == preimage
    assert reference.image(r, src.subset(xs)).poset is tgt and reference.preimage(r, tgt.subset(ys)).poset is src


@given(st.one_of(posets(max_size=6), shuffled_posets()), st.one_of(posets(max_size=6), shuffled_posets()), st.data())
def test_local_data_tables_are_the_definitions(src: Poset, tgt: Poset, data):
    """Each element's local datum, read from the table its relation fills in
    one pass over each factor, is the reference's, on relations drawn
    from every pair, the empty relation and elements related to nothing
    among them; the factors' orders run with and against identifier order."""
    pairs = data.draw(st.sets(st.tuples(st.sampled_from(src.elements), st.sampled_from(tgt.elements))))
    assert_local_data_are_the_definitions(Relation.of(src, tgt, pairs))


def assert_local_data_are_the_definitions(r: Relation) -> None:
    for y in r.target.elements:
        assert source_local_data(r, y) == reference.source_local_data(r, y)
    for x in r.source.elements:
        assert target_local_data(r, x) == reference.target_local_data(r, x)


def test_local_data_of_the_empty_relation_and_of_unrelated_elements():
    """With no pair every local datum is empty; an element related to
    nothing still gets the data of the elements above (or below) it."""
    src, tgt, _ = fence_map()
    empty = Relation.of(src, tgt, [])
    assert_local_data_are_the_definitions(empty)
    assert {source_local_data(empty, y).mask for y in tgt.elements} == {0}
    assert {target_local_data(empty, x).mask for x in src.elements} == {0}
    # a < b > c and u < v: only b is related, to u, so a and c, related to
    # nothing, see b's closure {u, v}, and v, related to nothing, sees b's hull
    r = Relation.of(src, tgt, [("b", "u")])
    assert_local_data_are_the_definitions(r)
    assert [set(target_local_data(r, x)) for x in "abc"] == [{"u", "v"}] * 3
    assert [set(source_local_data(r, y)) for y in "uv"] == [{"a", "b", "c"}] * 2


@given(posets(max_size=5), posets(max_size=5), st.randoms(use_true_random=False))
@settings(max_examples=30)
def test_full_relation_cylinder_is_join_like(src: Poset, tgt: Poset, rnd):
    # the full relation makes every source element related to every target
    r = full_relation(src, tgt)
    cyl = build_cylinder(r)
    for x in src.elements:
        for y in tgt.elements:
            assert cyl.poset.le("X:" + x, "Y:" + y)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_generated_monotone_maps_always_certify_target_side(seed: int):
    import random

    rng = random.Random(seed)
    src, tgt, f = fx.random_monotone_map(rng, 6, 6)
    r = Relation.from_monotone_map(src, tgt, f)
    rep = check_target_retraction(r, shared_oracle(DEFAULT_BUDGET))
    assert rep.status is Status.CERTIFIED
    cyl = mapping_cylinder(src, tgt, f)
    final = replay_poset_certificate(cyl.poset, cyl.retraction_certificate).induced()
    assert set(final.elements) == set(cyl.target_part)
    assert same_homology(homology(cyl.poset), homology(tgt))[0]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_generated_relations_certify_and_match_homology(seed: int):
    import random

    rng = random.Random(seed)
    r = fx.beat_retraction_relation(rng, 7)
    rep = verify_equivalence(r, shared_oracle(DEFAULT_BUDGET))
    assert rep.status is Status.CERTIFIED
    assert same_homology(homology(r.source), homology(r.target))[0]


# identifiers whose order is not the order of numbers, of case, or of a
# bare prefix: digits, mixed case, and names that start with "X:" or "Y:"
ODD_NAMES = st.text(alphabet="019aAzZXY:", min_size=1, max_size=4) | st.sampled_from(["X:", "X:a", "Y:X:b", "10", "9"])


@st.composite
def posets_with_odd_names(draw, max_size: int = 5) -> Poset:
    names = sorted(draw(st.sets(ODD_NAMES, max_size=max_size)))
    if not names:
        return Poset([])
    pairs = draw(st.sets(st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(lambda ab: ab[0] < ab[1])))
    return Poset(names, pairs)


@given(posets_with_odd_names(), posets_with_odd_names(), st.data())
def test_cylinder_puts_the_factors_side_by_side(src: Poset, tgt: Poset, data):
    """Source element i is bit i of the cylinder and target element j is bit
    |X|+j, whatever the identifiers; the parts and the local data shifted to
    their side's bits are the element sets built from the prefixed names."""
    pairs = ()
    if src and tgt:
        pairs = data.draw(st.sets(st.tuples(st.sampled_from(src.elements), st.sampled_from(tgt.elements))))
    r = Relation.of(src, tgt, pairs)
    cyl = build_cylinder(r)
    p = cyl.poset
    assert p.elements == tuple("X:" + x for x in src.elements) + tuple("Y:" + y for y in tgt.elements)
    assert cyl.source_part == p.subset("X:" + x for x in src.elements)
    assert cyl.target_part == p.subset("Y:" + y for y in tgt.elements)
    for y in tgt.elements:
        assert source_local_data(r, y).mask == p.subset("X:" + x for x in source_local_data(r, y)).mask
    for x in src.elements:
        assert target_local_data(r, x).mask << len(src) == p.subset("Y:" + y for y in target_local_data(r, x)).mask


def test_a_cylinder_must_keep_the_factors_side_by_side():
    r = Relation.from_monotone_map(*fence_map())
    cyl = build_cylinder(r)
    swapped = Poset(["X:u", "X:v", "Y:a", "Y:b", "Y:c"])
    with pytest.raises(AssertionError, match="not the source's then the target's"):
        CylinderPoset(swapped, r)
    with pytest.raises(AssertionError, match="not the source's then the target's"):
        CylinderPoset(cyl.poset, Relation.of(r.target, r.source, ()))
