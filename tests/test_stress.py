"""Long randomized sweeps, excluded from the default run.

Run with `pytest -m slow`.  These repeat the acceptance arguments over
many more seeds and slightly larger instances; the default suite keeps
the advertised counts so it stays fast.
"""

import json
import os
import random

import pytest

import finitetopo.fixtures as fx
from finitetopo import (
    Status,
    build_cylinder,
    homology,
    mapping_cylinder,
    replay_poset_certificate,
    same_homology,
    triviality_oracle,
    verify_dictionary,
    verify_equivalence,
    verify_nerve_theorem,
)
from finitetopo.cli import main
from finitetopo.reduction import DEFAULT_BUDGET, shared_oracle

pytestmark = pytest.mark.slow


def test_mapping_cylinder_sweep():
    rng = random.Random(777001)
    for i in range(1000):
        src, tgt, f = fx.random_monotone_map(rng, rng.randint(1, 10), rng.randint(1, 10))
        cyl = mapping_cylinder(src, tgt, f)
        left = replay_poset_certificate(cyl.poset, cyl.retraction_certificate).induced()
        assert set(left.elements) == set(cyl.target_part.members), i
        assert same_homology(homology(cyl.poset), homology(tgt))[0], i


def test_relation_equivalence_sweep():
    rng = random.Random(777002)
    for i in range(400):
        rel = fx.beat_retraction_relation(rng, rng.randint(2, 10))
        rep = verify_equivalence(rel, shared_oracle(DEFAULT_BUDGET))
        assert rep.status is Status.CERTIFIED, (i, rep.status)
        cyl = build_cylinder(rel)
        down = replay_poset_certificate(cyl.poset, rep.to_source).induced()
        assert set(down.elements) == set(cyl.source_part.members), i


def test_cover_sweep():
    rng = random.Random(777003)
    for i in range(250):
        rep = verify_nerve_theorem(fx.random_good_cover(rng), "good-poset", shared_oracle(DEFAULT_BUDGET))
        assert rep.status is Status.CERTIFIED and rep.homology_equal, i
    for i in range(250):
        rep = verify_nerve_theorem(fx.random_quasi_good_cover(rng), "quasi-good", shared_oracle(DEFAULT_BUDGET))
        assert rep.status is Status.CERTIFIED and rep.homology_equal, i


def test_dictionary_sweep():
    rng = random.Random(777004)
    for i in range(150):
        p = fx.random_dismantlable_poset(rng, rng.randint(2, 8))
        assert verify_dictionary(p).status == "Certified", i
    for i in range(150):
        k = fx.random_complex(rng, 7)
        assert verify_dictionary(k).status == "Certified", i


def test_triviality_oracle_never_lies_sweep():
    # a trivial verdict must mean vanishing reduced homology; nontrivial
    # with a homology reason must mean a nonzero reduced group
    rng = random.Random(777005)
    for i in range(300):
        p = fx.random_poset(rng, rng.randint(1, 8), rng.uniform(0.1, 0.5))
        verdict = triviality_oracle(p, budget=3000)
        prof = homology(p, reduced=True)
        if verdict.status == "trivial":
            assert prof.nonzero_degrees() == (), i
        elif verdict.status == "nontrivial" and verdict.reason == "homology":
            assert prof.nonzero_degrees() != (), i


def test_batch_on_generated_poset_of_height_seven(tmp_path):
    # the 8-element poset of height 7 drawn by the poset recipe at seed 5,
    # whose dictionary check once built a subdivision of 95,517 faces
    directory = str(tmp_path / "generated")
    generate = ["fixtures", "generate", "--recipe", "poset", "--count", "1", "--seed", "5"]
    assert main([*generate, "--dir", directory, "--out", os.devnull]) == 0
    out = str(tmp_path / "report.json")
    assert main(["verify", "--batch", directory, "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["status"] == "Certified"
    assert [(e["theorem"], e["status"]) for e in doc["detail"]["fixtures"]] == [("dictionary", "Certified")]
