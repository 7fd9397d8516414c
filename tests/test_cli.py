import argparse
import dataclasses
import json
import os
import time

import pytest

import finitetopo.cylinder as cylinder_mod
import finitetopo.nerve as nerve_mod
import finitetopo.reduction as reduction_mod
from finitetopo import IntegerMatrix, Poset, PosetCover, Relation, ReplayError, face_poset
from finitetopo import ReductionCertificate, ReductionStep, cli
from finitetopo import fixtures as fx
from finitetopo.cli import main
from finitetopo.formats import poset_cover_to_json, poset_to_json, relation_to_json
from tests.test_cylinder import bound_degree_lookups


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


SHIPPED_FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def collapsible_disc() -> Poset:
    """Contractible, but its core is not a point: only a collapse search
    shows it trivial, so at budget 0 its verdict is unknown."""
    return fx.get_fixture("collapsible-noncontractible").build()


def doubled_disc_cover(tmp_path, **wrapper) -> str:
    """A fixture file of the cover of that disc by two parts that are each
    the whole disc: every intersection is the disc."""
    disc = collapsible_disc()
    cover = PosetCover(disc, {"U0": set(disc.elements), "U1": set(disc.elements)})
    return write_json(tmp_path / "doubled-disc.json", {**wrapper, "kind": "poset-cover", "data": poset_cover_to_json(cover)})


class TestVerify:
    def test_certified_relation(self, capsys):
        code, doc = run_json(capsys, "verify", "thm-a", "certified-relation")
        assert code == 0
        assert doc["status"] == "Certified"
        assert {c["label"] for c in doc["certificates"]} == {"collapse-to-source", "collapse-to-target"}

    def test_huge_prop_homology_degree_ends(self, capsys, tmp_path, monkeypatch):
        """A degree bound far above the dimension, given by --degree or by
        the fixture's params, is checked without walking every degree."""
        bound_degree_lookups(monkeypatch)
        code, doc = run_json(capsys, "verify", "prop-homology", "homology-relation", "--degree", str(10**12))
        assert code == 0 and doc["detail"]["homology_version"]["through_degree"] == 10**12
        payload = fx.fixture_payload(fx.get_fixture("homology-relation"))
        payload["params"] = {"degree": 10**9}
        path = tmp_path / "huge-degree.json"
        path.write_text(json.dumps(payload))
        code, doc = run_json(capsys, "verify", "prop-homology", str(path))
        assert code == 0 and doc["detail"]["homology_version"]["through_degree"] == 10**9

    def test_refutation_fixture(self, capsys):
        code, doc = run_json(capsys, "verify", "thm-a", "thm-a-refutation")
        assert code == 1
        assert doc["status"] == "Refuted"

    def test_monotone_map_both_statements(self, capsys):
        code, doc = run_json(capsys, "verify", "prop-2.5", "monotone-map-fence")
        assert code == 0
        code, doc = run_json(capsys, "verify", "prop-2.4", "monotone-map-fence")
        assert code == 1

    def test_both_sides_of_certified_relation(self, capsys):
        for theorem in ("prop-2.4", "prop-2.5"):
            code, doc = run_json(capsys, "verify", theorem, "certified-relation")
            assert code == 0, theorem

    def test_homology_version_with_degree(self, capsys):
        code, doc = run_json(capsys, "verify", "prop-homology", "homology-relation", "--degree", "1")
        assert code == 0
        assert doc["detail"]["homology_version"]["through_degree"] == 1

    def test_homology_version_reads_the_fixture_degree(self, capsys, tmp_path):
        payload = fx.fixture_payload(fx.get_fixture("homology-relation"))
        payload["params"] = {"degree": 0}
        path = tmp_path / "degree-0.json"
        path.write_text(json.dumps(payload))
        for argv, through in [((), 0), (("--degree", "2"), 2)]:
            code, doc = run_json(capsys, "verify", "prop-homology", str(path), *argv)
            assert code == 0
            assert doc["detail"]["homology_version"]["through_degree"] == through

    def test_homology_version_has_no_unknown_at_zero_budget(self, capsys):
        code, doc = run_json(capsys, "verify", "prop-homology", "homology-relation", "--budget", "0")
        assert code == 0
        assert doc["status"] == "Certified"

    def test_nerve_variants(self, capsys):
        for theorem, fixture in [
            ("nerve-good", "star-cover-six-cycle"),
            ("nerve-x0", "x-zero-star-cover"),
            ("nerve-quasigood", "two-arc-cover-six-cycle"),
        ]:
            code, doc = run_json(capsys, "verify", theorem, fixture)
            assert code == 0, (theorem, doc["status"])

    def test_completion_corollary(self, capsys):
        code, doc = run_json(capsys, "verify", "cor-completion", "example-3-12")
        assert code == 0
        assert doc["detail"]["completion_corollary"]["completion_f_vector"] == [2, 2]

    def test_dictionary(self, capsys):
        code, doc = run_json(capsys, "verify", "dictionary", "torus")
        assert code == 0

    def test_unknown_fixture_is_input_error(self, capsys):
        code = main(["verify", "thm-a", "no-such-thing"])
        assert code == 3

    def test_unknown_exit_code_on_budget_exhaustion(self, capsys, tmp_path):
        disc = fx.REGISTRY["collapsible-noncontractible"].build()
        r = Relation.of(disc, Poset(["w"]), [(x, "w") for x in disc.elements])
        path = tmp_path / "rel.json"
        path.write_text(json.dumps(relation_to_json(r)))
        code, doc = run_json(capsys, "verify", "thm-a", str(path), "--budget", "1")
        assert code == 2
        assert doc["status"] == "Unknown"

    def test_homology_version_names_the_failing_element(self, capsys):
        code, doc = run_json(capsys, "verify", "prop-homology", "thm-a-refutation")
        assert code == 1 and doc["status"] == "Refuted"
        assert doc["detail"]["homology_version"]["failing"] == {"target": ["x"]}

    def test_x_zero_with_an_undecided_intersection_is_unknown(self, capsys, tmp_path):
        code, doc = run_json(capsys, "verify", "nerve-x0", doubled_disc_cover(tmp_path), "--budget", "0")
        assert code == 2 and doc["status"] == "Unknown"
        nerve = doc["detail"]["nerve_theorem"]
        assert nerve["classification"]["status"] == "unknown"
        assert nerve["detail"] == {"undecided": ["U0", "U0,U1", "U1"]}

    def test_zero_degree_reaches_the_cylinder_check(self, capsys):
        code, doc = run_json(capsys, "verify", "prop-homology", "certified-relation", "--degree", "0")
        assert code == 0
        assert doc["detail"]["homology_version"]["through_degree"] == 0

    def test_input_hash_is_recorded(self, capsys, tmp_path):
        code, doc = run_json(capsys, "verify", "thm-a", "certified-relation")
        assert set(doc["inputs"]) == {"input"}
        assert len(doc["inputs"]["input"]) == 64


class TestBatch:
    def test_batch_over_emitted_fixtures(self, capsys, tmp_path):
        emit_dir = str(tmp_path / "fx")
        assert main(["fixtures", "emit", "--dir", emit_dir, "--out", os.devnull]) == 0
        code, doc = run_json(capsys, "verify", "--batch", emit_dir)
        assert code == 0
        counts = doc["detail"]["counts"]
        assert counts["errors"] == 0
        assert counts["mismatched"] == 0
        entries = {e["name"]: e for e in doc["detail"]["fixtures"]}
        assert entries["thm-a-refutation"]["status"] == "Refuted"
        assert entries["thm-a-refutation"]["match"] is True

    def test_a_theorem_id_skips_the_other_statements(self, capsys):
        code, doc = run_json(capsys, "verify", "thm-a", "--batch", SHIPPED_FIXTURES)
        assert code == 0 and doc["status"] == "Certified"
        entries = doc["detail"]["fixtures"]
        ran = sorted(e["name"] for e in entries if e["status"] != "Skipped")
        assert ran == ["certified-relation", "thm-a-refutation"]
        assert all(e["theorem"] != "thm-a" for e in entries if e["status"] == "Skipped")
        assert doc["detail"]["counts"] == {"total": len(entries), "ran": 2, "mismatched": 0, "errors": 0}

    def test_a_json_file_without_the_wrapper_is_an_error_entry(self, capsys, tmp_path):
        write_json(tmp_path / "bare.json", poset_to_json(Poset("ab")))
        code, doc = run_json(capsys, "verify", "--batch", str(tmp_path))
        assert code == 3 and doc["status"] == "Error"
        assert doc["detail"]["fixtures"] == [{"file": "bare.json", "status": "Error", "error": "not a fixture file"}]

    def test_a_wrong_expected_status_refutes_the_batch(self, capsys, tmp_path):
        payload = fx.fixture_payload(fx.get_fixture("certified-relation"))
        write_json(tmp_path / "expects-refuted.json", {**payload, "expected_status": "Refuted"})
        code, doc = run_json(capsys, "verify", "--batch", str(tmp_path))
        assert code == 1 and doc["status"] == "Refuted"
        (entry,) = doc["detail"]["fixtures"]
        assert (entry["status"], entry["expected"], entry["match"]) == ("Certified", "Refuted", False)
        assert doc["detail"]["counts"]["mismatched"] == 1

    def test_an_unknown_run_with_no_expectation_leaves_the_batch_unknown(self, capsys, tmp_path):
        doubled_disc_cover(tmp_path, name="doubled-disc", theorem="nerve-x0")
        code, doc = run_json(capsys, "verify", "--batch", str(tmp_path), "--budget", "0")
        assert code == 2 and doc["status"] == "Unknown"
        (entry,) = doc["detail"]["fixtures"]
        assert entry["status"] == "Unknown" and entry["expected"] is None and "match" not in entry

    def test_batch_on_empty_dir_is_input_error(self, capsys, tmp_path):
        code = main(["verify", "--batch", str(tmp_path)])
        assert code == 3

    def test_batch_directory_name_is_not_a_pattern(self, capsys, tmp_path):
        directory = tmp_path / "d[1]"
        directory.mkdir()
        fx.write_fixture(fx.get_fixture("certified-relation"), str(directory))
        code, doc = run_json(capsys, "verify", "--batch", str(directory))
        assert code == 0 and doc["status"] == "Certified"
        assert [e["file"] for e in doc["detail"]["fixtures"]] == ["certified-relation.json"]

    @pytest.mark.parametrize("word", ["certified", "Proved", 0])
    def test_expected_status_outside_the_status_words_is_input_error(self, capsys, tmp_path, word):
        payload = fx.fixture_payload(fx.get_fixture("certified-relation"))
        payload["expected_status"] = word
        (tmp_path / "bad-expected.json").write_text(json.dumps(payload))
        code, doc = run_json(capsys, "verify", "--batch", str(tmp_path))
        assert code == 3 and doc["status"] == "Error"
        (entry,) = doc["detail"]["fixtures"]
        assert entry["status"] == "Error"
        assert "expected_status" in entry["error"] and "match" not in entry

    def test_single_file_verify_refuses_what_the_batch_refuses(self, capsys, tmp_path):
        """One reader checks every wrapper key, for a single file as for a batch."""
        payload = fx.fixture_payload(fx.get_fixture("certified-relation"))
        path = write_json(tmp_path / "maybe.json", {**payload, "expected_status": "Maybe"})
        message = f"{path}: expected_status 'Maybe' is not one of Certified, Refuted, Unknown, Error"
        assert main(["verify", "thm-a", path]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        code, doc = run_json(capsys, "verify", "--batch", str(tmp_path))
        (entry,) = doc["detail"]["fixtures"]
        assert code == 3 and entry["error"] == message

    @pytest.mark.parametrize("exc", [
        AssertionError("certified relation with unequal homology"),
        RecursionError("maximum recursion depth exceeded"),
    ], ids=["assertion", "recursion"])
    def test_internal_error_stays_in_its_entry(self, capsys, monkeypatch, tmp_path, exc):
        emit_dir = str(tmp_path / "fx")
        assert main(["fixtures", "emit", "--dir", emit_dir, "--out", os.devnull]) == 0
        run_theorem = cli.run_theorem

        def crash_on_refutation(theorem, obj, params, budget, report, where="<input>"):
            if where.endswith("thm-a-refutation.json"):
                raise exc
            return run_theorem(theorem, obj, params, budget, report, where)

        monkeypatch.setattr(cli, "run_theorem", crash_on_refutation)
        code, doc = run_json(capsys, "verify", "--batch", emit_dir)
        assert code == 3 and doc["status"] == "Error"
        entries = {e["name"]: e for e in doc["detail"]["fixtures"]}
        crashed = entries.pop("thm-a-refutation")
        assert crashed["status"] == "Error"
        assert crashed["internal_error"] == f"{type(exc).__name__}: {exc}"
        assert doc["detail"]["counts"]["errors"] == 1
        ran = [e for e in entries.values() if e["status"] != "Skipped"]
        assert ran and all(e["match"] for e in ran)

    def test_a_tampered_certificate_makes_its_entry_an_error(self, capsys, monkeypatch, tmp_path):
        """A batch prints no certificate, but it replays each one before it
        reads the file's status: a certified statement whose collapse has a
        wrong beat witness ends Error, not Certified."""
        fx.write_fixture(fx.get_fixture("monotone-map-fence"), str(tmp_path))
        check, key = cli.STATEMENTS["prop-2.5"]

        def tampered(obj, params, ask, where):
            rep = check(obj, params, ask, where)
            x = rep.collapse.steps[0].removed[0]
            wrong = ReductionStep("up-beat", (x,), witness=x)
            return dataclasses.replace(rep, collapse=ReductionCertificate((wrong,) + rep.collapse.steps[1:]))

        monkeypatch.setitem(cli.STATEMENTS, "prop-2.5", (tampered, key))
        code, doc = run_json(capsys, "verify", "--batch", str(tmp_path))
        assert code == 3 and doc["status"] == "Error"
        (entry,) = doc["detail"]["fixtures"]
        assert entry["status"] == "Error" and entry["expected"] == "Certified" and entry["match"] is False
        assert doc["detail"]["counts"]["errors"] == 1

    def test_each_entry_has_the_status_of_its_single_file_run(self, capsys):
        code, doc = run_json(capsys, "verify", "--batch", SHIPPED_FIXTURES)
        ran = [e for e in doc["detail"]["fixtures"] if e.get("theorem")]
        assert code == 0 and ran
        for entry in ran:
            _, single = run_json(capsys, "verify", entry["theorem"], os.path.join(SHIPPED_FIXTURES, entry["file"]))
            assert entry["status"] == single["status"], entry["file"]


@pytest.mark.parametrize("fixture", [f for f in fx.all_fixtures() if f.theorem], ids=lambda f: f.name)
def test_a_fixture_name_and_its_shipped_file_give_one_report(capsys, fixture):
    """A registry name runs the object it builds; its shipped file describes
    the same object, so only the inputs and the timing differ."""
    docs = [
        run_json(capsys, "verify", fixture.theorem, token)
        for token in (fixture.name, os.path.join(SHIPPED_FIXTURES, fixture.name + ".json"))
    ]
    for _, doc in docs:
        del doc["inputs"], doc["timing"]
    assert docs[0] == docs[1]


@pytest.mark.parametrize("fixture", [f for f in fx.all_fixtures() if f.theorem], ids=lambda f: f.name)
def test_statement_report_speaks_the_run_status(capsys, fixture):
    """The statement's own report and the run report use one word for the outcome."""
    code, doc = run_json(capsys, "verify", fixture.theorem, fixture.name)
    (statement,) = doc["detail"].values()
    assert statement["status"] == doc["status"] == fixture.expected_status


class TestHomologyCommand:
    def test_fixture_by_name(self, capsys):
        code, doc = run_json(capsys, "homology", "projective-plane")
        assert code == 0
        entry = doc["homology"][0]
        assert entry["describe"] == "H0=Z H1=Z/2 H2=0"
        assert doc["detail"]["euler_characteristic"] == 1

    def test_reduced_flag(self, capsys):
        code, doc = run_json(capsys, "homology", "point", "--reduced")
        assert code == 0
        assert doc["homology"][0]["betti"] == [0]

    def test_text_format(self, capsys):
        code, out = run(capsys, "homology", "six-cycle", "--format", "text")
        assert code == 0
        assert "H0=Z H1=Z" in out

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("a < b\n")
        code, doc = run_json(capsys, "homology", str(path))
        assert code == 0
        assert doc["homology"][0]["betti"] == [1, 0]

    def test_inline_comment_does_not_make_a_complex_a_poset(self, capsys, tmp_path):
        # format detection drops comments as the text readers do
        path = tmp_path / "k.txt"
        path.write_text("a b   # the edge a<b\nb c\nc a\n")
        code, doc = run_json(capsys, "homology", str(path))
        assert code == 0
        assert doc["homology"][0]["betti"] == [1, 1]

    def test_euler_characteristic_of_a_large_face_poset(self, capsys, tmp_path):
        """The face poset of ∂Δ¹⁰ has 2,046 elements and more than 10⁹
        chains; its Euler characteristic is counted without listing them."""
        path = tmp_path / "sphere.json"
        path.write_text(json.dumps(poset_to_json(face_poset(fx.boundary_delta(9)))))
        start = time.process_time()
        code, doc = run_json(capsys, "homology", str(path))
        assert time.process_time() - start < 5
        assert code == 0
        assert doc["homology"][0]["betti"] == [1] + [0] * 8 + [1]
        assert doc["detail"]["euler_characteristic"] == 0


class TestReductionCommands:
    def test_reduce_reports_points_and_core(self, capsys):
        code, doc = run_json(capsys, "reduce", "collapsible-noncontractible")
        assert code == 0  # collapsible, so the oracle certifies
        assert doc["detail"]["core_size"] == 22
        assert doc["detail"]["oracle"]["status"] == "trivial"

    def test_reduce_refutes_circle(self, capsys):
        code, doc = run_json(capsys, "reduce", "six-cycle")
        assert code == 1
        assert doc["detail"]["oracle"]["reason"] == "homology"

    def test_reduce_reports_a_gamma_point_it_cannot_decide(self, capsys, tmp_path):
        """With a top added, the top's punctured down-set is the disc, whose
        verdict at budget 0 is unknown; every other punctured set is decided,
        and the whole poset, a cone, is dismantlable."""
        disc = collapsible_disc()
        coned = Poset([*disc.elements, "top"], [*disc.cover_pairs, *((m, "top") for m in disc.maximal_elements())])
        path = write_json(tmp_path / "coned.json", poset_to_json(coned))
        code, doc = run_json(capsys, "reduce", path, "--budget", "0")
        assert code == 0
        assert doc["detail"]["gamma_unknown"] == [["top", "gamma-down"]]
        assert doc["detail"]["oracle"]["reason"] == "dismantling"

    def test_collapse_out_of_budget_is_unknown(self, capsys):
        code, doc = run_json(capsys, "collapse", "collapsible-noncontractible", "--target", "a", "--budget", "0")
        assert code == 2 and doc["status"] == "Unknown"
        assert doc["detail"]["search"] == {"nodes": 1, "complete": False}
        assert doc["certificates"] == []

    def test_core_of_core_fixture_is_identity(self, capsys):
        code, doc = run_json(capsys, "core", "six-cycle")
        assert code == 0
        assert len(doc["detail"]["core"]["elements"]) == 6
        assert doc["detail"]["removed"] == 0

    def test_collapse_with_target(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("a < b < c\n")
        code, doc = run_json(capsys, "collapse", str(path), "--target", "a")
        assert code == 0

    def test_collapse_onto_a_multi_character_target(self, capsys, tmp_path):
        # the target is one element, not the set of its characters
        path = tmp_path / "p.txt"
        path.write_text("x0 < x1 < x2\nx0 < y1 < x2\n")
        code, doc = run_json(capsys, "collapse", str(path), "--target", "x0")
        assert code == 0 and doc["status"] == "Certified"
        (cert,) = doc["certificates"]
        assert sorted(s["removed"][0] for s in cert["certificate"]["steps"]) == ["x1", "x2", "y1"]

    def test_dot_format(self, capsys):
        code, out = run(capsys, "core", "six-cycle", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")


class TestCylinderCommand:
    def test_build_attaches_retraction_for_map(self, capsys):
        code, doc = run_json(capsys, "cylinder", "build", "monotone-map-fence")
        assert code == 0
        assert doc["detail"]["source_part"] == ["X:a", "X:b", "X:c"]
        assert {c["label"] for c in doc["certificates"]} == {"beat-retraction"}

    def test_verify_a(self, capsys):
        # Theorem A reads one verdict per side of the cylinder: here the
        # source side retracts and the target element x does not.
        code, doc = run_json(capsys, "verify", "thm-a", "thm-a-refutation")
        assert code == 1
        eq = doc["detail"]["equivalence"]
        assert eq["source"]["status"] == "Certified"
        assert eq["target"]["status"] == "Refuted"
        assert eq["target"]["verdicts"]["x"]["reason"] == "disconnected"

    def test_verify_homology(self, capsys):
        code, doc = run_json(
            capsys, "verify", "prop-homology", "homology-relation", "--degree", "1"
        )
        assert code == 0
        assert [h["label"] for h in doc["homology"]] == ["source", "target"]
        assert {h["describe"] for h in doc["homology"]} == {"H0=Z H1=Z"}


class TestNerveAndCompletion:
    def test_nerve_reports_classification(self, capsys):
        code, doc = run_json(capsys, "nerve", "star-cover-six-cycle")
        assert code == 0
        assert doc["detail"]["classification"]["status"] == "good"

    def test_nerve_with_an_undecided_intersection_is_unknown(self, capsys, tmp_path):
        code, doc = run_json(capsys, "nerve", doubled_disc_cover(tmp_path), "--budget", "0")
        assert code == 2 and doc["status"] == "Unknown"
        classification = doc["detail"]["classification"]
        assert classification["status"] == "unknown"
        assert {v["reason"] for v in classification["intersections"].values()} == {"budget"}

    def test_completion_f_vector(self, capsys):
        code, doc = run_json(capsys, "completion", "example-3-12")
        assert code == 0
        assert doc["detail"]["f_vector"] == [2, 2]


class TestMapperCommand:
    def test_fixture_by_name(self, capsys):
        code, doc = run_json(
            capsys,
            "mapper",
            "circle-60",
            "--filter", "x",
            "--intervals", "4",
            "--overlap", "0.3",
            "--epsilon", "0.15",
        )
        assert code == 0
        assert doc["detail"]["mapper"]["completion_f_vector"] == [6, 6]

    def test_csv_file_input(self, capsys, tmp_path):
        fx.write_fixture(fx.get_fixture("circle-60"), str(tmp_path))
        code, doc = run_json(
            capsys,
            "mapper",
            str(tmp_path / "circle-60.csv"),
            "--filter", "x",
            "--intervals", "4",
            "--overlap", "0.3",
            "--epsilon", "0.15",
        )
        assert code == 0

    def test_epsilon_is_required(self, capsys):
        assert main(["mapper", "circle-60", "--filter", "x"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_nan_epsilon_is_input_error(self, capsys):
        assert main(["mapper", "circle-60", "--epsilon", "nan"]) == 3
        assert "epsilon" in capsys.readouterr().err

    def test_more_intervals_than_points_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("0,0\n1,0\n")
        start = time.process_time()
        assert main(["mapper", str(path), "--intervals", str(10**12), "--epsilon", "0.5"]) == 3
        assert time.process_time() - start < 1
        assert "1000000000000 intervals for 2 points" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flt, far, message",
        [("ecc", "1e308", "the eccentricity filter overflows"), ("x", "1.7e308", "filter range [-1.7e+308, 1.7e+308]")],
        ids=["eccentricity", "range"],
    )
    def test_filter_overflow_is_input_error(self, capsys, tmp_path, flt, far, message):
        path = tmp_path / "far.csv"
        path.write_text(f"a,0\nb,{far}\nc,-{far}\n")
        assert main(["mapper", str(path), "--filter", flt, "--intervals", "2", "--epsilon", "1"]) == 3
        err = capsys.readouterr().err
        assert message in err and "cover misses" not in err

    def test_non_finite_coordinate_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("a,0,0\nb,nan,0\nc,0.1,0\nd,inf,1\n")
        assert main(["mapper", str(path), "--epsilon", "0.5"]) == 3
        assert "cloud.csv:2: point 'b' has a non-finite coordinate" in capsys.readouterr().err


class TestInputErrorsExitThree:
    """Problems found before a command runs are input errors, not verdicts."""

    def expect_input_error(self, capsys, *argv):
        assert main(list(argv)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["mapper", "circle-60", "--epsilon", "0.15", "--intervals", "abc"],
        ["verify", "thm-z", "certified-relation"],
        ["verify", "prop-homology", "homology-relation", "--degree", "-2"],
        ["homology", "two-arc-cover-six-cycle"],
        ["cylinder", "verify-a", "certified-relation"],
        ["collapse", "collapsible-noncontractible"],
        ["verify", "thm-a", "certified-relation", "--degree", "3"],
        ["homology", "six-cycle", "--seed", "1"],
        ["homology", "six-cycle", "--budget", "5"],
    ])
    def test_usage_error(self, capsys, argv):
        self.expect_input_error(capsys, *argv)

    def test_degree_in_a_batch(self, capsys, tmp_path):
        # a batch reads each file's params.degree, so a --degree would be ignored
        fx.write_fixture(fx.get_fixture("homology-relation"), str(tmp_path))
        self.expect_input_error(capsys, "verify", "--batch", str(tmp_path), "--degree", "0")

    def test_negative_budget_flag(self, capsys):
        self.expect_input_error(capsys, "nerve", "star-cover-six-cycle", "--budget", "-5")

    def test_a_cover_part_that_is_not_a_down_set(self, capsys, tmp_path):
        """A cover file's parts are down-sets; nothing reads an `open_hulls` key."""
        path = tmp_path / "cover.json"
        path.write_text(json.dumps({
            "poset": {"elements": ["a", "b", "c"], "relations": [["a", "c"], ["b", "c"]]},
            "parts": {"U": ["c"], "V": ["a", "b"]}, "open_hulls": True,
        }))
        assert main(["nerve", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: cover part 'U' is not a down-set\n"

    @pytest.mark.parametrize("degree", [-1, "abc", 1.5, True])
    def test_bad_degree_in_fixture_params(self, capsys, tmp_path, degree):
        payload = fx.fixture_payload(fx.get_fixture("homology-relation"))
        payload["params"]["degree"] = degree
        path = tmp_path / "bad-degree.json"
        path.write_text(json.dumps(payload))
        self.expect_input_error(capsys, "verify", "prop-homology", str(path))
        # in a batch the file is one failed entry, not a failed run
        code, doc = run_json(capsys, "verify", "--batch", str(tmp_path))
        assert code == 3
        assert doc["detail"]["fixtures"][0]["status"] == "Error"

    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_a_negative_degree_names_its_file_once(self, capsys, tmp_path, batch):
        payload = fx.fixture_payload(fx.get_fixture("homology-relation"))
        payload["params"] = {"degree": -1}
        path = tmp_path / "negative-degree.json"
        path.write_text(json.dumps(payload))
        message = f"{path}: degree bound must be non-negative, got -1"
        if batch:
            code, doc = run_json(capsys, "verify", "--batch", str(tmp_path))
            (entry,) = doc["detail"]["fixtures"]
            assert entry["status"] == "Error" and "internal_error" not in entry
            assert entry["error"] == message
        else:
            code = main(["verify", "prop-homology", str(path)])
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {message}\n"
        assert code == 3

    @pytest.mark.parametrize("key, value", [("params", ["x"]), ("theorem", ["thm-a"]), ("name", 5)],
                             ids=["params", "theorem", "name"])
    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_wrong_type_in_fixture_wrapper(self, capsys, tmp_path, key, value, batch):
        payload = fx.fixture_payload(fx.get_fixture("homology-relation"))
        payload[key] = value
        path = tmp_path / "bad-wrapper.json"
        path.write_text(json.dumps(payload))
        if batch:
            code, doc = run_json(capsys, "verify", "--batch", str(tmp_path))
            (entry,) = doc["detail"]["fixtures"]
            assert entry["status"] == "Error" and "internal_error" not in entry
            error = entry["error"]
        else:
            code = main(["verify", "prop-homology", str(path)])
            error = capsys.readouterr().err
            assert error.startswith("error:") and "internal error" not in error
        assert code == 3
        assert "bad-wrapper.json" in error and f"fixture {key!r} must be" in error

    def test_point_cloud_csv_is_read_only_by_mapper(self, capsys, tmp_path):
        path = fx.write_fixture(fx.get_fixture("circle-60"), str(tmp_path))
        assert main(["homology", path]) == 3
        assert "homology takes a poset, complex, or CW complex" in capsys.readouterr().err

    def test_mapper_rejects_json(self, capsys, tmp_path):
        path = fx.write_fixture(fx.get_fixture("six-cycle"), str(tmp_path))
        assert main(["mapper", path, "--epsilon", "0.1"]) == 3
        assert "mapper takes a point cloud" in capsys.readouterr().err

    def test_negative_count(self, capsys, tmp_path):
        out = tmp_path / "out"
        self.expect_input_error(capsys, "fixtures", "generate", "--recipe", "poset",
                                "--count", "-3", "--seed", "1", "--dir", str(out))
        assert not out.exists()

    @pytest.mark.parametrize("out", ["outdir", "missing/report.json"])
    def test_unwritable_out_fails_before_anything_is_written(self, capsys, tmp_path, out):
        (tmp_path / "outdir").mkdir()
        gen = tmp_path / "gen"
        self.expect_input_error(capsys, "fixtures", "generate", "--recipe", "poset", "--count", "2",
                                "--seed", "5", "--dir", str(gen), "--out", str(tmp_path / out))
        assert not gen.exists()

    def test_dot_on_a_command_that_draws_nothing_fails_before_anything_is_written(self, capsys, tmp_path):
        gen = tmp_path / "gen"
        self.expect_input_error(capsys, "fixtures", "generate", "--recipe", "poset", "--count", "1",
                                "--seed", "1", "--dir", str(gen), "--format", "dot")
        assert not gen.exists()

    def test_zero_budget_is_accepted(self, capsys):
        code, doc = run_json(capsys, "reduce", "collapsible-noncontractible", "--budget", "0")
        assert code == 2
        assert doc["detail"]["oracle"]["reason"] == "budget"


# Each command's option strings, help aside.  A flag sits only on the
# commands that read it: --budget where an oracle or search runs, --seed
# where fixtures are generated.
OPTIONS = {
    "reduce": ["--budget", "--format", "--out"],
    "core": ["--format", "--out"],
    "collapse": ["--budget", "--format", "--out", "--target"],
    "cylinder": ["--format", "--out"],
    "nerve": ["--budget", "--format", "--out"],
    "completion": ["--format", "--out"],
    "homology": ["--format", "--out", "--reduced"],
    "verify": ["--batch", "--budget", "--degree", "--format", "--out"],
    "mapper": ["--emit", "--epsilon", "--filter", "--format", "--intervals", "--out", "--overlap"],
    "fixtures": ["--count", "--dir", "--format", "--name", "--out", "--recipe", "--seed"],
}


def test_each_command_takes_exactly_its_flags():
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {
        name: sorted(s for action in parser._actions for s in action.option_strings if s not in ("-h", "--help"))
        for name, parser in commands.choices.items()
    } == OPTIONS


def test_main_parses_with_one_parser_per_process(monkeypatch, capsys):
    def refuse():
        raise AssertionError("a parser was built for one call")

    monkeypatch.setattr(cli, "build_parser", refuse)
    for _ in range(2):
        code, doc = run_json(capsys, "verify", "thm-a", "certified-relation")
        assert code == 0 and doc["status"] == "Certified"


class TestFixturesCommand:
    def test_list_names_everything(self, capsys):
        code, doc = run_json(capsys, "fixtures", "list")
        assert code == 0
        names = [f["name"] for f in doc["detail"]["fixtures"]]
        assert "six-cycle" in names and "torus" in names
        assert len(names) == len(fx.REGISTRY)

    def test_generate_requires_seed(self, capsys, tmp_path):
        code = main(["fixtures", "generate", "--recipe", "poset", "--dir", str(tmp_path)])
        assert code == 3

    def test_generate_is_deterministic(self, capsys, tmp_path):
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        for d in (d1, d2):
            code = main(
                ["fixtures", "generate", "--recipe", "relation", "--count", "2",
                 "--seed", "5", "--dir", d, "--out", os.devnull]
            )
            assert code == 0
        for name in os.listdir(d1):
            assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()


class TestOutputPlumbing:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["homology", "point", "--out", str(target)])
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["status"] == "Certified"

    def test_an_environment_variable_sets_no_option(self, capsys, monkeypatch, tmp_path):
        """Options are flags: with FINITETOPO_BUDGET=0 this reduction would be
        Unknown, and the other variables would move or reshape the report."""
        monkeypatch.setenv("FINITETOPO_BUDGET", "0")
        monkeypatch.setenv("FINITETOPO_FORMAT", "text")
        monkeypatch.setenv("FINITETOPO_OUT", str(tmp_path / "report.txt"))
        code, doc = run_json(capsys, "reduce", "collapsible-noncontractible")
        assert code == 0 and doc["status"] == "Certified"
        assert list(tmp_path.iterdir()) == []

    def test_dot_unsupported_action_errors(self, capsys):
        code = main(["verify", "thm-a", "certified-relation", "--format", "dot"])
        assert code == 3


class TestMalformedJson:
    """Malformed JSON is an input error whose line names the file."""

    RELATION = {
        "source": {"elements": ["a", "b"]},
        "target": {"elements": ["a", "b"]},
    }
    CASES = {
        "facet-of-mixed-types": ("homology", {"facets": [[1, "a"]]}, "complex"),
        "facets-not-a-list": ("homology", {"facets": 5}, "complex"),
        "facet-as-string": ("homology", {"facets": ["ab"]}, "complex"),
        "elements-as-string": ("homology", {"elements": "ab"}, "poset"),
        "relation-pair-as-string": ("homology", {"elements": ["a", "b"], "relations": ["ab"]}, "poset"),
        "relation-pair-of-three": ("cylinder", dict(RELATION, pairs=[["a", "b", "c"]]), "relation"),
        "cover-part-as-string": ("nerve", {"poset": {"elements": ["a", "b", "ab"]}, "parts": {"U": "ab"}},
                                 "poset-cover"),
        "map-not-an-object": ("cylinder", {"source": {"elements": ["a"]}, "target": {"elements": ["b"]},
                                           "map": [["a", "b"]]}, "monotone-map"),
    }

    @pytest.mark.parametrize("wrapped", [False, True], ids=["raw", "fixture"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_is_input_error_naming_the_file(self, capsys, tmp_path, case, wrapped):
        command, data, kind = self.CASES[case]
        if wrapped:
            data = {"kind": kind, "data": data}
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(data))
        argv = [command, "build", str(path)] if command == "cylinder" else [command, str(path)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert "internal error" not in captured.err

    def test_pair_of_three_is_named_malformed_relation(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(dict(self.RELATION, pairs=[["a", "b", "c"]])))
        assert main(["cylinder", "build", str(path)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {path}: malformed relation JSON: ")

    def test_a_poset_element_that_is_no_string_is_named(self, capsys, tmp_path):
        """Identifiers are checked before they are sorted, so [1, "a"] is an
        input error naming 1, not a failed comparison of int and str."""
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"elements": [1, "a"], "relations": []}))
        assert main(["homology", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {path}: element identifiers must be non-empty strings, got 1\n"

    @pytest.mark.parametrize("name, text, argv, tail", [
        ("p.json", '{"elements": ["", "a"]}', ["homology", "{}"],
         ": element identifiers must be non-empty strings, got ''"),
        ("k.json", '{"facets": [[1, "a"]]}', ["homology", "{}"],
         ": vertex identifiers must be non-empty strings, got 1"),
        ("l.json", '{"facets": [[["a"], "b"]]}', ["homology", "{}"],
         ": vertex identifiers must be non-empty strings, got ['a']"),
        ("w.json", '{"kind": "poset", "data": {"elements": ["a"], "relations": [["a", "b"]]}}', ["homology", "{}"],
         ": unknown element 'b'"),
        ("r.json", '{"source": {"elements": ["a"]}, "target": {"elements": ["b"]}, "pairs": [["a", "c"]]}',
         ["cylinder", "build", "{}"], ": relation pair mentions unknown target element 'c'"),
        ("c.txt", "a < b\nb < a\n", ["homology", "{}"], ": relations contain a cycle: a <= b <= a"),
        ("d.csv", "x,1\nx,2\n", ["mapper", "{}", "--epsilon", "0.1"], ": point identifiers must be unique"),
        ("bad.json", "{", ["homology", "{}"], ":1: invalid JSON: Expecting property name enclosed in double quotes"),
        ("e.csv", "p,1\nq,oops\n", ["mapper", "{}", "--epsilon", "0.1"], ":2: bad coordinate in ['q', 'oops']"),
        ("s.txt", "a b < c\n", ["homology", "{}"], ":1: element identifiers cannot contain spaces: 'a b < c'"),
        ("t.txt", "x < y\na b\n", ["homology", "{}"], ":2: element identifiers cannot contain spaces: 'a b'"),
        ("g.csv", "a,0,,0\nb,1,,0\nc,2,,5\n", ["mapper", "{}", "--epsilon", "0.5", "--filter", "y"],
         ":1: empty cell in ['a', '0', '', '0']"),
        ("rel.json", '{"source": {"elements": ["a"]}, "target": {"elements": ["b"]}, "pairs": [["a", "b"]]}',
         ["homology", "{}"], ": homology takes a poset, complex, or CW complex"),
    ], ids=["poset-json", "complex-int", "complex-list", "fixture-json", "relation-json", "text", "csv",
            "named-json", "named-csv", "space-on-a-relation-line", "space-on-a-bare-line", "csv-gap",
            "homology-of-a-relation"])
    def test_an_input_error_names_its_file_once(self, capsys, tmp_path, name, text, argv, tail):
        """An error raised while an object is built from a file names the
        file; one that names it already is not prefixed again.  Vertices,
        as elements, are checked before they are hashed and sorted."""
        path = tmp_path / name
        path.write_text(text)
        assert main([a.format(path) for a in argv]) == 3
        assert capsys.readouterr().err == f"error: {path}{tail}\n"

    def test_in_a_batch_the_file_is_one_input_error(self, capsys, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps(
            {"kind": "complex", "theorem": "dictionary", "expected_status": "Certified",
             "data": {"facets": [[1, "a"]]}}))
        code, doc = run_json(capsys, "verify", "--batch", str(tmp_path))
        assert code == 3
        (entry,) = doc["detail"]["fixtures"]
        assert entry["status"] == "Error" and "internal_error" not in entry
        assert entry["error"] == f"{tmp_path / 'bad.json'}: vertex identifiers must be non-empty strings, got 1"


class TestNonUtf8Input:
    """A file that is not UTF-8 is an input error naming the file."""

    BYTES = b'{"elements": ["a\xff"]}\n'

    @pytest.mark.parametrize("command, name", [("homology", "bad.json"), ("homology", "bad.txt"),
                                               ("mapper", "bad.csv")])
    def test_single_run(self, capsys, tmp_path, command, name):
        path = tmp_path / name
        path.write_bytes(self.BYTES)
        argv = [command, str(path)] + (["--epsilon", "0.1"] if command == "mapper" else [])
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text: ")
        assert "internal error" not in err

    def test_batch_entry(self, capsys, tmp_path):
        (tmp_path / "bad.json").write_bytes(self.BYTES)
        code, doc = run_json(capsys, "verify", "--batch", str(tmp_path))
        assert code == 3
        (entry,) = doc["detail"]["fixtures"]
        assert entry["status"] == "Error" and "internal_error" not in entry
        assert entry["error"].startswith(f"{tmp_path / 'bad.json'}: not UTF-8 text: ")


class TestJsonScalarsAreNotCoerced:
    """A JSON field that holds an integer or a string takes exactly that:
    true is not 1, and null is not the element "None"."""

    CASES = {
        "cw-dimension-as-boolean": (
            ["homology"], "cw", "dictionary", "the dimension of cell 'a' must be an integer, got False",
            {"poset": {"elements": ["a", "b", "e"], "relations": [["a", "e"], ["b", "e"]]},
             "dim": {"a": False, "b": False, "e": True}}),
        "map-value-null": (
            ["cylinder", "build"], "monotone-map", "prop-2.5", "the image of 'a' must be a string, got None",
            {"source": {"elements": ["a"]}, "target": {"elements": ["None"]}, "map": {"a": None}}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raw_file(self, capsys, tmp_path, case):
        command, _, _, message, data = self.CASES[case]
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(data))
        assert main(command + [str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_batch_entry(self, capsys, tmp_path, case):
        _, kind, theorem, message, data = self.CASES[case]
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps({"kind": kind, "theorem": theorem, "data": data}))
        code, doc = run_json(capsys, "verify", "--batch", str(tmp_path))
        assert code == 3
        (entry,) = doc["detail"]["fixtures"]
        assert entry["status"] == "Error" and "internal_error" not in entry
        assert entry["error"] == f"{path}: {message}"


class TestInternalErrorsExitThree:
    """A crash is not a verdict: exit 1 stays reserved for Refuted."""

    @pytest.mark.parametrize("exc", [
        AssertionError("certified relation with unequal homology"),
        RecursionError("maximum recursion depth exceeded"),
    ], ids=["assertion", "recursion"])
    def test_unexpected_exception(self, capsys, monkeypatch, exc):
        def crash(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "verify_equivalence", crash)
        assert main(["verify", "thm-a", "certified-relation"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: internal error: {type(exc).__name__}: ")
        assert "Traceback" not in captured.err

    def test_a_failed_boundary_check_is_no_input_error(self, capsys, monkeypatch):
        """∂∂ = 0 is checked on matrices the package built itself, so its
        failure is an internal error, alone and as a batch entry."""
        monkeypatch.setattr(IntegerMatrix, "is_zero", lambda m: False)
        assert main(["homology", os.path.join(SHIPPED_FIXTURES, "torus.json")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal error: AssertionError: boundary composition is non-zero\n"
        code, doc = run_json(capsys, "verify", "--batch", SHIPPED_FIXTURES)
        (torus,) = [e for e in doc["detail"]["fixtures"] if e["file"] == "torus.json"]
        assert code == 3 and "error" not in torus
        assert torus["internal_error"] == "AssertionError: boundary composition is non-zero"

    def test_a_replay_error_outside_a_report_is_internal(self, capsys, monkeypatch):
        """No command reads a certificate, so a ReplayError that reaches
        `main` comes from the package's own translation."""
        def refuse(*args):
            raise ReplayError("face ('x0',) is not free with coface ('x0', 'y0')")

        monkeypatch.setattr(reduction_mod, "replay_simplicial_certificate", refuse)
        assert main(["verify", "dictionary", "six-cycle"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal error: ReplayError: face ('x0',) is not free with coface ('x0', 'y0')\n"


class TestEachObjectBuiltOnce:
    """The report carries what the verification built; nothing is rebuilt."""

    @staticmethod
    def count_calls(monkeypatch, name, *modules):
        calls = []
        original = getattr(modules[0], name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
        return calls

    def test_cor_completion_builds_the_completion_once(self, capsys, monkeypatch):
        calls = self.count_calls(monkeypatch, "completion_poset", nerve_mod, cli)
        code, doc = run_json(capsys, "verify", "cor-completion", "example-3-12")
        assert code == 0
        assert len(calls) == 1

    def test_thm_a_builds_the_cylinder_once(self, capsys, monkeypatch):
        calls = self.count_calls(monkeypatch, "build_cylinder", cylinder_mod, cli)
        code, doc = run_json(capsys, "verify", "thm-a", "certified-relation")
        assert code == 0
        assert len(calls) == 1
