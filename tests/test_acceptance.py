"""Acceptance suite: one test per advertised guarantee.

Each test prints a single PASS or FAIL line into the terminal summary
(section "acceptance criteria") and enforces its stated wall clock
budget.  Reduction certificates produced along the way are pooled in
LEDGER so the final soundness sweep can replay every elementary step
of every certificate the suite produced.

Run order matters only for the sweep: it is defined last in this file
and pytest executes tests in definition order.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

import finitetopo.fixtures as fx
from finitetopo import (
    IntervalCover,
    Poset,
    ReductionCertificate,
    SimplicialComplex,
    Status,
    build_cylinder,
    chain_complex,
    circle_sample,
    classify_cover,
    collapse_to_simplicial,
    completion_poset,
    core,
    euler_characteristic,
    fraction_free_rank,
    homology,
    is_collapsible,
    mapper_completion,
    mapping_cylinder,
    order_complex,
    parse_filter,
    point_subnerve,
    replay_poset_certificate,
    replay_simplicial_certificate,
    same_homology,
    trivial_subnerve,
    verify_corollary_completion,
    verify_dictionary,
    verify_equivalence,
    verify_nerve_theorem,
)
from finitetopo.reduction import DEFAULT_BUDGET, shared_oracle
from tests.reference_rank import rank_mod_p
from tests.test_homology import betti_by_rank
from tests.test_poset import greatest

# (object the certificate reduces, certificate, label for error messages)
LEDGER: list = []


@contextmanager
def criterion(log: list, n: int, label: str, budget: float = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        log.append(f"criterion {n} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget is not None and elapsed >= budget:
        log.append(
            f"criterion {n} ({label}): FAIL  {elapsed:.2f}s over the {budget:g}s budget"
        )
        raise AssertionError(f"criterion {n} took {elapsed:.2f}s, budget {budget:g}s")
    stamp = f"{elapsed:.2f}s" + (f" < {budget:g}s" if budget is not None else "")
    log.append(f"criterion {n} ({label}): PASS  {stamp}")


def _no_torsion(profile) -> bool:
    return all(t == () for t in profile.torsion)


def test_criterion_1_two_part_cover_of_the_triangle_boundary(acceptance_log):
    with criterion(acceptance_log, 1, "completion of the two part triangle boundary cover", budget=1.0):
        cov = fx.example_3_12_cover()

        # completion: two 0-cells, two 1-cells, homology of a circle
        cw = completion_poset(cov).as_cw()
        assert cw.f_vector() == (2, 2)
        prof = homology(cw)
        assert prof.betti == (1, 1) and _no_torsion(prof)

        # the plain nerve is a single 1-simplex and sees nothing
        k = cov.nerve()
        assert k.facets == (("L", "T"),)
        assert homology(k, reduced=True).nonzero_degrees() == ()

        rep = verify_corollary_completion(cov, shared_oracle(DEFAULT_BUDGET))
        assert rep.status is Status.CERTIFIED
        assert rep.homology_equal is True

        eq = rep.nerve_report.equivalence
        assert eq is not None and eq.status is Status.CERTIFIED
        cylinder = eq.cylinder.poset
        LEDGER.append((cylinder, eq.to_source, "corollary to_source"))
        LEDGER.append((cylinder, eq.to_target, "corollary to_target"))


def test_criterion_2_mapping_cylinders_retract_onto_the_target(acceptance_log):
    with criterion(acceptance_log, 2, "200 random monotone map cylinders", budget=30.0):
        rng = random.Random(20240202)
        for i in range(200):
            src, tgt, f = mapping_data = fx.random_monotone_map(
                rng, rng.randint(1, 8), rng.randint(1, 8)
            )
            assert len(src) <= 8 and len(tgt) <= 8
            cyl = mapping_cylinder(src, tgt, f)
            cert = cyl.retraction_certificate
            assert cert is not None and len(cert.steps) == len(src)

            # up-beat deletions in decreasing linear extension order of the source
            assert all(s.kind == "up-beat" for s in cert.steps)
            expected = ["X:" + x for x in reversed(src.linear_extension())]
            assert [s.removed[0] for s in cert.steps] == expected

            left = replay_poset_certificate(cyl.poset, cert).induced()
            assert set(left.elements) == set(cyl.target_part.members)
            ok, diffs = same_homology(homology(cyl.poset), homology(tgt))
            assert ok, (i, diffs)
            LEDGER.append((cyl.poset, cert, f"mapping cylinder {i}"))


def test_criterion_3_certified_relations_and_the_refutation_fixture(acceptance_log):
    with criterion(acceptance_log, 3, "100 certified relations, refutation stays refuted", budget=60.0):
        rng = random.Random(20240303)
        for i in range(100):
            rel = fx.beat_retraction_relation(rng, rng.randint(2, 8))
            rep = verify_equivalence(rel, shared_oracle(DEFAULT_BUDGET))
            assert rep.status is Status.CERTIFIED, (i, rep.status)
            assert rep.to_source is not None and rep.to_target is not None

            cyl = build_cylinder(rel)
            down = replay_poset_certificate(cyl.poset, rep.to_source).induced()
            assert set(down.elements) == set(cyl.source_part.members)
            up = replay_poset_certificate(cyl.poset, rep.to_target).induced()
            assert set(up.elements) == set(cyl.target_part.members)

            ok, diffs = same_homology(rep.source_homology, rep.target_homology)
            assert ok and rep.homology_equal is True, (i, diffs)
            LEDGER.append((cyl.poset, rep.to_source, f"relation {i} to_source"))
            LEDGER.append((cyl.poset, rep.to_target, f"relation {i} to_target"))

        refuted = verify_equivalence(fx.REGISTRY["thm-a-refutation"].build(), shared_oracle(DEFAULT_BUDGET))
        assert refuted.status is Status.REFUTED
        assert refuted.to_source is None and refuted.to_target is None


def test_criterion_4_nerve_theorems_on_seeded_covers(acceptance_log):
    with criterion(acceptance_log, 4, "100 good and 100 quasi-good covers", budget=60.0):
        rng = random.Random(20240404)
        for i in range(100):
            cov = fx.random_good_cover(rng)
            assert len(cov.base) <= 12
            rep = verify_nerve_theorem(cov, "good-poset", shared_oracle(DEFAULT_BUDGET))
            assert rep.status is Status.CERTIFIED, (i, rep.status)
            assert rep.homology_equal is True

            # recomputed, not read off the report
            ok, diffs = same_homology(homology(cov.base), homology(cov.nerve_poset()))
            assert ok, (i, diffs)

            # trivial subnerve keeps the whole nerve and every membership
            # family has a maximum
            sub = trivial_subnerve(cov, classify_cover(cov, shared_oracle(DEFAULT_BUDGET)))
            assert set(sub.poset.elements) == set(cov.nerve_poset().elements)
            for x in cov.base.elements:
                assert greatest(point_subnerve(sub, x)) is not None, (i, x)

            eq = rep.equivalence
            cylinder = eq.cylinder.poset
            LEDGER.append((cylinder, eq.to_source, f"good cover {i} to_source"))
            LEDGER.append((cylinder, eq.to_target, f"good cover {i} to_target"))

        rng = random.Random(20240414)
        for i in range(100):
            cov = fx.random_quasi_good_cover(rng)
            assert len(cov.base) <= 12
            rep = verify_nerve_theorem(cov, "quasi-good", shared_oracle(DEFAULT_BUDGET))
            assert rep.status is Status.CERTIFIED, (i, rep.status)
            assert rep.homology_equal is True

            ok, diffs = same_homology(
                homology(cov.base), homology(completion_poset(cov).poset)
            )
            assert ok, (i, diffs)

            eq = rep.equivalence
            cylinder = eq.cylinder.poset
            LEDGER.append((cylinder, eq.to_source, f"quasi cover {i} to_source"))
            LEDGER.append((cylinder, eq.to_target, f"quasi cover {i} to_target"))


def _height(p: Poset) -> int:
    depth = {}
    for e in p.linear_extension():
        below = p.punctured_down(e).members
        depth[e] = 1 + max((depth[b] for b in below), default=0)
    return max(depth.values(), default=0)


def _capped(draw, rng, limit=5):
    # barycentric cost grows factorially with chain length, so tall draws
    # get rejected; the fallback never triggers for the seeds used here
    for _ in range(50):
        p = draw(rng)
        if _height(p) <= limit:
            return p
    return fx.random_poset(rng, 4, 0.3)


def test_criterion_5_dictionary_on_seeded_posets_and_complexes(acceptance_log):
    with criterion(acceptance_log, 5, "100 subjects for the order complex dictionary", budget=60.0):
        rng = random.Random(20240505)
        subjects = []
        for _ in range(40):
            subjects.append(
                _capped(lambda r: fx.random_poset(r, r.randint(2, 9), r.uniform(0.15, 0.5)), rng)
            )
        for _ in range(30):
            subjects.append(
                _capped(lambda r: fx.random_dismantlable_poset(r, r.randint(2, 9)), rng)
            )
        for _ in range(30):
            subjects.append(fx.random_complex(rng, 7))
        assert len(subjects) == 100

        for i, subject in enumerate(subjects):
            rep = verify_dictionary(subject)
            assert rep.status == "Certified", (i, rep.status, rep.checks)
            if isinstance(subject, Poset):
                reduced, cert = core(subject)
                if cert.steps:
                    LEDGER.append((subject, cert, f"dictionary core {i}"))
                    translated = collapse_to_simplicial(subject, cert)
                    LEDGER.append(
                        (order_complex(subject), translated, f"dictionary translation {i}")
                    )


def test_criterion_7_oracle_fixture_values_recomputed_by_rank(acceptance_log):
    with criterion(acceptance_log, 7, "frozen homology values against the rank path", budget=10.0):
        # circle model: H0 = Z, H1 = Z
        p = fx.REGISTRY["six-cycle"].build()
        prof = homology(p)
        assert prof.betti == (1, 1) and _no_torsion(prof)
        assert betti_by_rank(order_complex(p)) == (1, 1)

        # 2-sphere: H0 = Z, H1 = 0, H2 = Z
        k = fx.REGISTRY["boundary-delta-3"].build()
        prof = homology(k)
        assert prof.betti == (1, 0, 1) and _no_torsion(prof)
        assert betti_by_rank(k) == (1, 0, 1)

        # projective plane: H1 = Z/2, invisible rationally, visible mod 2
        k = fx.REGISTRY["projective-plane"].build()
        prof = homology(k)
        assert prof.betti == (1, 0, 0)
        assert prof.degree(1) == (0, (2,))
        assert betti_by_rank(k) == (1, 0, 0)
        d2 = chain_complex(k).boundaries[1]
        r = fraction_free_rank(d2)
        assert rank_mod_p(d2, 2) == r - 1
        assert rank_mod_p(d2, 3) == r

        # torus: H1 = Z^2, torsion free in every characteristic
        k = fx.REGISTRY["torus"].build()
        prof = homology(k)
        assert prof.betti == (1, 2, 1) and _no_torsion(prof)
        assert betti_by_rank(k) == (1, 2, 1)
        d2 = chain_complex(k).boundaries[1]
        r = fraction_free_rank(d2)
        assert rank_mod_p(d2, 2) == r and rank_mod_p(d2, 3) == r


def test_criterion_8_mapper_completion_sees_the_circle(acceptance_log):
    with criterion(acceptance_log, 8, "circle cloud mapper demonstration", budget=5.0):
        # the run uses exactly the parameters documented with the shipped
        # fixture: x projection, 4 intervals at 30% overlap, epsilon 0.15
        params = fx.REGISTRY["circle-60"].params
        assert params == {"filter": "x", "intervals": 4, "overlap": 0.3, "epsilon": 0.15}

        def run():
            return mapper_completion(
                circle_sample(60, seed=7),
                parse_filter(params["filter"]),
                IntervalCover(params["intervals"], params["overlap"]),
                params["epsilon"],
            )

        result = run()
        assert result.completion_homology.betti == (1, 1)
        assert result.completion_homology.degree(1) == (1, ())
        assert result.nerve_homology.degree(1) == (0, ())

        # fixed seed means fixed output
        again = run()
        assert again.complex.f_vector() == result.complex.f_vector()
        assert again.parts == result.parts


# defined last so every producing criterion has already filled LEDGER
def test_criterion_6_every_certificate_is_stepwise_sound(acceptance_log):
    if not LEDGER:
        pytest.skip("certificate pool is empty; run the whole acceptance module")
    with criterion(acceptance_log, 6, "stepwise homology and Euler invariance of every certificate", budget=30.0):
        # the shipped disc fixture contributes weak point steps
        disc = fx.REGISTRY["collapsible-noncontractible"].build()
        verdict = is_collapsible(disc, DEFAULT_BUDGET)
        assert verdict.status == "trivial" and verdict.certificate is not None
        LEDGER.append((disc, verdict.certificate, "disc collapse"))

        kinds = Counter()
        steps_checked = 0
        for obj, cert, label in LEDGER:
            kinds.update(s.kind for s in cert.steps)
            for step in cert.steps:
                if step.evidence is not None:
                    kinds.update(s.kind for s in step.evidence.steps)

            base = homology(obj)
            chi = euler_characteristic(obj)
            for i in range(1, len(cert.steps) + 1):
                prefix = ReductionCertificate(cert.steps[:i])
                if isinstance(obj, Poset):
                    stage = replay_poset_certificate(obj, prefix).induced()
                else:
                    stage = SimplicialComplex(replay_simplicial_certificate(obj, prefix))
                ok, diffs = same_homology(homology(stage), base)
                assert ok, (label, i, diffs)
                assert euler_characteristic(stage) == chi, (label, i)
                steps_checked += 1

        assert steps_checked > 0
        # all four families of elementary step must have been exercised
        for family in (
            ("up-beat", "down-beat"),
            ("up-weak", "down-weak"),
            ("gamma-up", "gamma-down"),
            ("simplicial-collapse",),
        ):
            assert any(kinds[k] > 0 for k in family), family
