import itertools
import random
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finitetopo import (
    ElementSet,
    InputError,
    Poset,
    ReductionCertificate,
    ReductionStep,
    Relation,
    ReplayError,
    SimplicialComplex,
    check_source_retraction,
    check_target_retraction,
    classify_cover,
    collapse_search,
    collapse_to_simplicial,
    core,
    face_poset,
    find_beat_points,
    find_gamma_points,
    find_weak_points,
    homology,
    is_collapsible,
    order_complex,
    replay_poset_certificate,
    replay_simplicial_certificate,
    same_homology,
    triviality_oracle,
    verify_dictionary,
    verify_homology_equivalence,
    verify_nerve_theorem,
)
import finitetopo.complexes as complexes_mod
import finitetopo.nerve as nerve_mod
from finitetopo import fixtures as fx
from finitetopo.cylinder import build_cylinder
from finitetopo.homology import _poset_homology
from finitetopo.reduction import DEFAULT_BUDGET, shared_oracle, simplex_token
from tests.test_poset import diamond, greatest, least, posets, punctured_up, shuffled_posets


def chain(n: int) -> Poset:
    names = [f"c{i}" for i in range(n)]
    return Poset(names, list(zip(names, names[1:])))


def weak_not_beat() -> Poset:
    # x sits above a four-element fence: its punctured down-set is
    # dismantlable but has two maximal elements, so x is weak, not beat
    return Poset(
        "abcdx",
        [("a", "b"), ("c", "b"), ("c", "d"), ("a", "x"), ("b", "x"), ("c", "x"), ("d", "x")],
    )


class TestBeatPoints:
    def test_diamond_middles_are_beat(self):
        found = find_beat_points(diamond())
        assert ("b", "up-beat", "d") in found
        assert ("b", "down-beat", "a") in found
        assert not any(e in ("a", "d") for e, _, _ in found)

    def test_circle_model_has_none(self):
        assert find_beat_points(fx.six_cycle()) == []

    def test_witness_bounds_every_comparable_element(self):
        p = weak_not_beat()
        for e, kind, w in find_beat_points(p):
            punct = punctured_up(p, e) if kind == "up-beat" else p.punctured_down(e)
            assert w in punct
            bound = p.up_set(w) if kind == "up-beat" else p.down_set(w)
            assert set(punct) <= set(bound)


class TestCore:
    def test_chain_core_is_point(self):
        q, cert = core(chain(5))
        assert len(q) == 1
        assert len(cert) == 4

    def test_circle_model_is_its_own_core(self):
        p = fx.six_cycle()
        q, cert = core(p)
        assert q == p
        assert len(cert) == 0

    def test_core_certificate_replays_to_core(self):
        p = weak_not_beat()
        q, cert = core(p)
        assert replay_poset_certificate(p, cert).induced() == q

    def test_core_has_no_beat_points(self):
        q, _ = core(fx.REGISTRY["collapsible-noncontractible"].build())
        assert find_beat_points(q) == []


class TestDismantlable:
    def test_chain_is_dismantlable(self):
        # the oracle tries a dismantling before any collapse search
        v = triviality_oracle(chain(4), DEFAULT_BUDGET)
        assert v.is_trivial and v.reason == "dismantling"
        assert v.certificate is not None
        assert v.certificate.is_dismantling()


class TestWeakPoints:
    def test_weak_but_not_beat(self):
        p = weak_not_beat()
        beats = {e for e, _, _ in find_beat_points(p)}
        weaks = dict(find_weak_points(p))
        assert "x" not in beats
        assert weaks.get("x") == "down-weak"


class TestGammaPoints:
    def test_gamma_subsumes_weak(self):
        p = weak_not_beat()
        gammas, unknowns = find_gamma_points(p, shared_oracle(DEFAULT_BUDGET))
        assert ("x", "gamma-down") in gammas
        assert unknowns == []

    def test_circle_model_has_no_gamma_points(self):
        gammas, unknowns = find_gamma_points(fx.six_cycle(), shared_oracle(DEFAULT_BUDGET))
        assert gammas == [] and unknowns == []


class TestCollapseSearch:
    def test_collapse_onto_subposet(self):
        p = chain(4)
        cert, report = collapse_search(p, ["c0"], DEFAULT_BUDGET)
        assert cert is not None
        assert replay_poset_certificate(p, cert).induced().elements == ("c0",)

    def test_unknown_target_element(self):
        with pytest.raises(InputError, match="not in the poset"):
            collapse_search(chain(3), ["z"], DEFAULT_BUDGET)

    def test_budget_exhaustion_is_reported(self):
        p = fx.REGISTRY["collapsible-noncontractible"].build()
        cert, report = collapse_search(p, list(p.elements)[:1], budget=1)
        assert cert is None
        assert report["complete"] is False

    def test_collapse_longer_than_the_recursion_limit(self):
        import sys

        p = chain(1200)
        assert len(p) > sys.getrecursionlimit()
        v = is_collapsible(p, DEFAULT_BUDGET)
        assert v.is_trivial
        assert len(v.certificate.steps) == 1199
        assert len(replay_poset_certificate(p, v.certificate)) == 1
        cert, report = collapse_search(p, ["c0"], DEFAULT_BUDGET)
        assert replay_poset_certificate(p, cert).induced().elements == ("c0",)
        assert report["complete"] is True


class TestTrivialityOracle:
    def test_point(self):
        v = triviality_oracle(Poset(["x"]), DEFAULT_BUDGET)
        assert v.is_trivial

    def test_disconnected(self):
        v = triviality_oracle(Poset("ab"), DEFAULT_BUDGET)
        assert v.is_nontrivial
        assert v.reason == "disconnected"

    def test_homology_obstruction(self):
        v = triviality_oracle(fx.six_cycle(), DEFAULT_BUDGET)
        assert v.is_nontrivial
        assert v.reason == "homology"
        assert v.detail["degree"] == 1

    def test_empty(self):
        assert triviality_oracle(Poset([]), DEFAULT_BUDGET).is_nontrivial


class TestCollapsibleNoncontractibleFixture:
    """A poset that collapses to a point but whose core is not a point."""

    def setup_method(self):
        self.p = fx.REGISTRY["collapsible-noncontractible"].build()

    def test_size_and_core(self):
        assert len(self.p) == 25
        q, cert = core(self.p)
        assert len(q) == 22
        assert len(cert) == 3

    def test_not_dismantlable(self):
        # the oracle tries a dismantling first, so a collapse means there is none
        v = triviality_oracle(self.p, DEFAULT_BUDGET)
        assert v.is_trivial and v.reason == "collapse"
        assert len(core(self.p)[0]) == 22

    def test_collapsible_with_replaying_certificate(self):
        v = is_collapsible(self.p, DEFAULT_BUDGET)
        assert v.is_trivial
        final = replay_poset_certificate(self.p, v.certificate)
        assert len(final) == 1

    def test_homologically_trivial(self):
        assert homology(self.p, reduced=True).nonzero_degrees() == ()


class TestReplayRejection:
    def test_wrong_witness(self):
        p = chain(3)
        bad = ReductionCertificate((ReductionStep("up-beat", ("c0",), witness="c2"),))
        # c1 is the minimum of the punctured up-set, c2 is not
        with pytest.raises(ReplayError, match="witness"):
            replay_poset_certificate(p, bad)

    def test_removing_absent_element_twice(self):
        p = chain(3)
        step = ReductionStep("up-beat", ("c0",), witness="c1")
        with pytest.raises(ReplayError, match="not present"):
            replay_poset_certificate(p, ReductionCertificate((step, step)))

    def test_unknown_element(self):
        bad = ReductionCertificate((ReductionStep("up-beat", ("zz",), witness="c1"),))
        with pytest.raises(ReplayError, match="unknown element"):
            replay_poset_certificate(chain(3), bad)

    def test_weak_step_with_straying_evidence(self):
        p = weak_not_beat()
        evidence = ReductionCertificate((ReductionStep("up-beat", ("a",), witness="b"),))
        bad = ReductionCertificate((ReductionStep("down-weak", ("d",), evidence=evidence),))
        # a is not inside the punctured down-set of d
        with pytest.raises(ReplayError, match="strays"):
            replay_poset_certificate(p, bad)

    def test_weak_step_evidence_must_dismantle_fully(self):
        p = weak_not_beat()
        evidence = ReductionCertificate((ReductionStep("up-beat", ("a",), witness="b"),))
        bad = ReductionCertificate((ReductionStep("down-weak", ("x",), evidence=evidence),))
        with pytest.raises(ReplayError, match="single point"):
            replay_poset_certificate(p, bad)

    @pytest.mark.parametrize("side", ["down", "up"])
    def test_weak_step_evidence_must_not_hold_a_weak_step(self, side):
        # the punctured set of x is a diamond, which collapses to a point by
        # a weak step on y and two beat steps; that is a collapse, not the
        # dismantling a weak step names (the up side is the opposite poset)
        p = Poset("abcxy", [("a", "b"), ("a", "c"), ("b", "y"), ("c", "y"), ("y", "x")])
        if side == "up":
            p = p.opposite()
        link_of_y = ReductionCertificate((
            ReductionStep(side + "-beat", ("b",), witness="a"),
            ReductionStep(side + "-beat", ("c",), witness="a"),
        ))
        collapse = ReductionCertificate((ReductionStep(side + "-weak", ("y",), evidence=link_of_y), *link_of_y.steps))
        assert len(replay_poset_certificate(p.induced("abcy"), collapse)) == 1
        gamma = ReductionCertificate((ReductionStep("gamma-" + side, ("x",), evidence=collapse),))
        assert replay_poset_certificate(p, gamma).induced().elements == ("a", "b", "c", "y")
        bad = ReductionCertificate((ReductionStep(side + "-weak", ("x",), evidence=collapse),))
        with pytest.raises(ReplayError, match="must be a dismantling"):
            replay_poset_certificate(p, bad)

    def test_simplicial_step_rejected_on_posets(self):
        bad = ReductionCertificate((ReductionStep("simplicial-collapse", ("c0", "c1")),))
        with pytest.raises(ReplayError, match="not a poset step"):
            replay_poset_certificate(chain(3), bad)

    def test_gamma_step_requires_collapse_evidence(self):
        p = weak_not_beat()
        fence, dismantling = core(p.induced(["a", "b", "c", "d"]))
        assert len(fence) == 1
        gamma = ReductionCertificate((ReductionStep("gamma-down", ("x",), evidence=dismantling),))
        # dismantlings are collapses, so this replays
        final = replay_poset_certificate(p, gamma).induced()
        assert set(final.elements) == {"a", "b", "c", "d"}


class TestSimplicialCollapse:
    def test_tampered_simplicial_certificate(self):
        p = chain(3)
        cert = collapse_to_simplicial(p, core(p)[1])
        tampered = ReductionCertificate(cert.steps[1:])
        with pytest.raises(ReplayError):
            replay_simplicial_certificate(order_complex(p), tampered)

    @pytest.mark.parametrize("s, t", [("a", "ab"), ("a", "abc"), ("ab", "ac")])
    def test_a_pair_that_is_not_free_is_refused(self, s, t):
        """In the triangle abc the vertex a lies in two edges and the
        triangle, and ac is no coface of ab."""
        with pytest.raises(ReplayError, match="is not free"):
            replay_simplicial_certificate(TRIANGLE, collapses((s, t)))

    def test_a_pair_whose_coface_still_has_a_coface_is_refused(self):
        """(b, ab) is refused while ab lies in abc; after the free pair
        (bc, abc) it replays, and it cannot be removed twice."""
        with pytest.raises(ReplayError, match="is not free"):
            replay_simplicial_certificate(TRIANGLE, collapses(("b", "ab")))
        left = replay_simplicial_certificate(TRIANGLE, collapses(("bc", "abc"), ("b", "ab")))
        assert left == {("a",), ("c",), ("a", "c")}
        with pytest.raises(ReplayError, match="is not present"):
            replay_simplicial_certificate(TRIANGLE, collapses(("bc", "abc"), ("b", "ab"), ("b", "ab")))

    @pytest.mark.slow
    def test_the_boolean_lattice_b6_translates_and_replays_in_seconds(self):
        """All 64 subsets of six points: the core's 63 beat steps become
        9,365 free pairs over the 18,731 chains, each checked in order."""
        subsets = [frozenset(c) for k in range(7) for c in itertools.combinations(range(6), k)]
        name = {s: "s" + "".join(map(str, sorted(s))) for s in subsets}
        p = Poset(name.values(), [(name[s - {j}], name[s]) for s in subsets for j in s])
        start = time.process_time()
        simp = collapse_to_simplicial(p, core(p)[1])
        assert len(simp.steps) == 9365 and len(order_complex(p).faces) == 18731
        assert time.process_time() - start < 5


TRIANGLE = SimplicialComplex([("a", "b", "c")])


def collapses(*pairs: tuple[str, str]) -> ReductionCertificate:
    """Simplicial collapse steps, each face given by its vertex letters."""
    return ReductionCertificate(tuple(
        ReductionStep("simplicial-collapse", (simplex_token(s), simplex_token(t))) for s, t in pairs
    ))


class TestCollapseTranslation:
    def test_core_certificate_translates_to_order_complex(self):
        p = fx.REGISTRY["collapsible-noncontractible"].build()
        q, cert = core(p)
        simp = collapse_to_simplicial(p, cert)
        final = replay_simplicial_certificate(order_complex(p), simp)
        assert final == frozenset(order_complex(q).faces)

    @pytest.mark.parametrize("kind", ["down-weak", "gamma-down"])
    def test_a_weak_or_gamma_step_is_refused(self, kind):
        """Only beat steps translate: the collapse certificate's weak step,
        or the same step as a gamma step, is an input error naming its kind."""
        p = fx.REGISTRY["collapsible-noncontractible"].build()
        cert = is_collapsible(p, DEFAULT_BUDGET).certificate
        assert "down-weak" in {step.kind for step in cert.steps}
        steps = tuple(
            ReductionStep(kind, s.removed, evidence=s.evidence) if s.kind == "down-weak" else s for s in cert.steps
        )
        with pytest.raises(InputError, match=f"^{kind} steps do not translate to simplicial collapses$"):
            collapse_to_simplicial(p, ReductionCertificate(steps))

    def test_each_poset_step_becomes_a_collapse_run(self):
        p = chain(3)
        q, cert = core(p)
        simp = collapse_to_simplicial(p, cert)
        assert {step.kind for step in simp.steps} == {"simplicial-collapse"}


class TestVerifyDictionary:
    def test_poset_subject(self):
        rep = verify_dictionary(fx.six_cycle())
        assert rep.status == "Certified"
        assert rep.checks["barycentric-homology"]
        assert rep.checks["opposite-order-complex"]
        assert rep.checks["core-collapse-translation"]

    def test_complex_subject(self):
        rep = verify_dictionary(fx.REGISTRY["torus"].build())
        assert rep.status == "Certified"
        assert rep.checks["face-poset-homology"]

    def test_rejects_other_inputs(self):
        with pytest.raises(InputError):
            verify_dictionary(42)

    def test_subdivided_and_face_poset_sides_take_the_order_complex(self, monkeypatch):
        """The cellular complex of face_poset(K) is K's own chain complex, so
        each comparison takes one side through its order complex: with a
        cellular builder that raises on every poset but the subject itself,
        both verdicts stay Certified."""
        torus = fx.REGISTRY["torus"].build()
        subject = face_poset(torus)
        cellular = complexes_mod.cellular_chain_complex

        def refused(p, mask=None):
            raise AssertionError("cellular path taken")

        _poset_homology.cache_clear()
        monkeypatch.setattr(complexes_mod, "cellular_chain_complex", refused)
        assert verify_dictionary(torus).status == "Certified"
        monkeypatch.setattr(complexes_mod, "cellular_chain_complex",
                            lambda p, mask=None: cellular(p, mask) if p == subject else refused(p))
        assert verify_dictionary(subject).status == "Certified"

    @pytest.mark.parametrize("name", ["torus", "projective-plane", "boundary-delta-3"])
    def test_a_complex_subject_builds_its_chain_complex_once(self, monkeypatch, name):
        """Both comparisons read the one profile of the subject."""
        k = fx.REGISTRY[name].build()
        original, built = complexes_mod.chain_complex, []

        def counted(obj, mask=None):
            built.append(obj)
            return original(obj, mask)

        for name, module in list(sys.modules.items()):
            if name.startswith("finitetopo") and vars(module).get("chain_complex") is original:
                monkeypatch.setattr(module, "chain_complex", counted)
        assert verify_dictionary(k).status == "Certified"
        assert sum(obj is k for obj in built) == 1


# -- randomized reduction laws ------------------------------------------------


@given(posets(max_size=7))
def test_beat_points_are_weak_points(p: Poset):
    weak = set(find_weak_points(p))
    for e, kind, _ in find_beat_points(p):
        assert (e, kind.replace("beat", "weak")) in weak


@given(shuffled_posets(max_size=7))
def test_beat_points_match_their_definition(p: Poset):
    expected = []
    for e in p.elements:
        up, down = least(punctured_up(p, e)), greatest(p.punctured_down(e))
        expected += [(e, "up-beat", up)] if up is not None else []
        expected += [(e, "down-beat", down)] if down is not None else []
    assert find_beat_points(p) == expected


def dismantlable(p: Poset, members) -> bool:
    """Whether removing beat points of the members, read off le() one at a
    time, leaves a single point.  By Stong's theorem every such sequence
    ends at the core, so the order of removal does not matter."""
    rest = set(members)

    def beat(x) -> bool:
        above = [y for y in rest if y != x and p.le(x, y)]
        below = [y for y in rest if y != x and p.le(y, x)]
        return any(all(p.le(m, y) for y in above) for m in above) or any(
            all(p.le(y, m) for y in below) for m in below)

    while len(rest) > 1:
        x = next((x for x in sorted(rest) if beat(x)), None)
        if x is None:
            return False
        rest.remove(x)
    return len(rest) == 1


@given(shuffled_posets(max_size=6))
@settings(max_examples=60)
def test_weak_points_match_their_definition(p: Poset):
    expected = []
    for e in p.elements:
        for kind, punctured in (("up-weak", punctured_up(p, e)), ("down-weak", p.punctured_down(e))):
            if dismantlable(p, punctured):
                expected.append((e, kind))
    assert find_weak_points(p) == expected


@given(posets(max_size=6))
@settings(max_examples=40)
def test_weak_points_are_gamma_points(p: Poset):
    gammas, unknowns = find_gamma_points(p, shared_oracle(DEFAULT_BUDGET))
    decided = set(gammas) | set(unknowns)
    rename = {"up-weak": "gamma-up", "down-weak": "gamma-down"}
    for e, kind in find_weak_points(p):
        assert (e, rename[kind]) in decided


@given(posets(max_size=7))
def test_core_preserves_homology_and_is_minimal(p: Poset):
    if len(p) == 0:
        return
    q, cert = core(p)
    assert find_beat_points(q) == []
    assert replay_poset_certificate(p, cert).induced() == q
    assert same_homology(homology(p), homology(q))[0]


@given(posets(max_size=7))
@settings(max_examples=40)
def test_oracle_never_trivial_with_nonzero_homology(p: Poset):
    v = triviality_oracle(p, budget=2000)
    if v.is_trivial:
        assert homology(p, reduced=True).nonzero_degrees() == ()
        final = replay_poset_certificate(p, v.certificate)
        assert len(final) == 1


@given(posets(max_size=6))
@settings(max_examples=40)
def test_weak_point_deletion_preserves_homology(p: Poset):
    for e, _ in find_weak_points(p):
        rest = p.induced([x for x in p.elements if x != e])
        assert same_homology(homology(p), homology(rest))[0]
        break  # one deletion per example keeps the sweep fast


# -- the oracle on element sets ------------------------------------------------


def padded(p: Poset) -> tuple[Poset, int]:
    """p under one more element above all of it, and the mask of p in it."""
    top = "zz"
    q = Poset(p.elements + (top,), list(p.cover_pairs) + [(e, top) for e in p.elements])
    return q, q.full_mask() & ~(1 << q._index[top])


@st.composite
def posets_with_masks(draw) -> tuple[Poset, int]:
    """A seeded random poset and a random mask of it; from 11 elements on,
    identifier order (e10 before e2) runs against the generator's order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = fx.random_poset(rng, draw(st.integers(1, 12)), draw(st.sampled_from([0.2, 0.4, 0.6])))
    return p, draw(st.integers(0, p.full_mask()))


@given(posets_with_masks(), st.sampled_from([DEFAULT_BUDGET, 0, 1, 2]))
@example(padded(fx.get_fixture("collapsible-noncontractible").build()), DEFAULT_BUDGET)
@example(padded(fx.get_fixture("collapsible-noncontractible").build()), 1)
@example(padded(fx.get_fixture("collapsible-noncontractible").build()), 0)
@settings(max_examples=150)
def test_oracle_on_an_element_set_is_the_oracle_on_its_induced_poset(case, budget):
    """Verdict, reason, detail and certificate agree, at a budget that
    finishes and at budgets that cut the collapse search; so do the mask's
    homology and that of the induced poset."""
    p, mask = case
    q = p.induced(p._names(mask))
    s = ElementSet(p, mask)
    assert triviality_oracle(s, budget).to_json_dict() == triviality_oracle(q, budget).to_json_dict()
    assert is_collapsible(s, budget).to_json_dict() == is_collapsible(q, budget).to_json_dict()
    for reduced in (False, True):
        assert homology(s, reduced=reduced) == homology(q, reduced=reduced)


def test_no_oracle_path_builds_an_induced_poset(monkeypatch):
    """The local data, cover pieces, membership families and punctured sets
    go to the oracle and the homology screen as element sets."""
    relations = [fx.get_fixture(n).build() for n in ("certified-relation", "homology-relation", "thm-a-refutation")]
    relations += [Relation.from_monotone_map(*fx.get_fixture(n).build())
                  for n in ("contractible-fibres-map", "monotone-map-fence")]
    covers = [nerve_mod._as_poset_cover(fx.get_fixture(n).build())
              for n in ("example-3-12", "star-cover-six-cycle", "two-arc-cover-six-cycle", "x-zero-star-cover")]
    posets = [fx.get_fixture(n).build() for n in ("collapsible-noncontractible", "six-cycle")]
    posets += [build_cylinder(r).poset for r in relations]
    # the x-zero target, the trivial subnerve, is an induced poset of the
    # nerve poset: it is built before induced() is barred
    subnerves = {id(c): nerve_mod.trivial_subnerve(c, classify_cover(c, shared_oracle(DEFAULT_BUDGET))) for c in covers}

    def barred(self, *members):
        raise AssertionError("an induced poset was built")

    monkeypatch.setattr(Poset, "induced", barred)
    monkeypatch.setattr(ElementSet, "induced", barred)
    monkeypatch.setattr(nerve_mod, "trivial_subnerve", lambda c, classification: subnerves[id(c)])
    for r in relations:
        check_source_retraction(r, shared_oracle(DEFAULT_BUDGET))
        check_target_retraction(r, shared_oracle(DEFAULT_BUDGET))
        verify_homology_equivalence(r, 1)
    for c in covers:
        classify_cover(c, shared_oracle(DEFAULT_BUDGET))
        verify_nerve_theorem(c, "x-zero", shared_oracle(DEFAULT_BUDGET))
    for p in posets:
        find_gamma_points(p, shared_oracle(DEFAULT_BUDGET))


def test_oracle_path_never_turns_names_into_masks(monkeypatch):
    """Once the inputs are built, down-sets, punctured sets, cover
    intersections and their components reach the oracle as masks: no
    name is looked up to rebuild a mask on the way."""
    covers = [nerve_mod._as_poset_cover(fx.get_fixture(n).build())
              for n in ("example-3-12", "star-cover-six-cycle", "two-arc-cover-six-cycle", "x-zero-star-cover")]
    posets = [fx.get_fixture(n).build() for n in ("collapsible-noncontractible", "six-cycle")]
    posets += [build_cylinder(fx.get_fixture(n).build()).poset for n in ("certified-relation", "thm-a-refutation")]
    posets += [c.base for c in covers]

    def barred(self, members):
        raise AssertionError("a mask was rebuilt from names")

    monkeypatch.setattr(Poset, "_mask_of", barred)
    for p in posets:
        for e in p.elements:
            for sub in (p.down_set(e), p.up_set(e), p.punctured_down(e), punctured_up(p, e)):
                triviality_oracle(sub, DEFAULT_BUDGET)
        find_gamma_points(p, shared_oracle(DEFAULT_BUDGET))
    for c in covers:
        classify_cover(c, shared_oracle(DEFAULT_BUDGET))
