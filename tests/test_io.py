import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finitetopo import (
    InputError,
    ReductionCertificate,
    ReductionStep,
    RunReport,
    SimplicialComplex,
    Status,
    TrivialityVerdict,
    core,
)
from finitetopo import fixtures as fx
from finitetopo.formats import (
    KINDS,
    complex_cover_from_json,
    complex_cover_to_json,
    complex_from_json,
    complex_to_json,
    cw_from_json,
    cw_to_json,
    dot_complex,
    dot_poset,
    load_object,
    parse_complex_text,
    parse_poset_text,
    poset_cover_from_json,
    poset_cover_to_json,
    poset_from_json,
    poset_to_json,
    relation_from_json,
    relation_to_json,
)
from finitetopo.report import content_hash, hash_json
from tests.test_complexes import as_cw
from tests.test_poset import diamond


# the diamond's cover relations, one per line
DIAMOND_TEXT = "a < b\na < c\nb < d\nc < d\n"


class TestPosetText:
    def test_parse_chains_and_isolated(self):
        p = parse_poset_text("a < b < c\nd\n# comment\n")
        assert p.le("a", "c")
        assert "d" in p
        assert len(p) == 4

    def test_round_trip(self):
        assert parse_poset_text(DIAMOND_TEXT) == diamond()

    def test_bad_line_reports_location(self):
        with pytest.raises(InputError, match="input.txt:2"):
            parse_poset_text("a < b\n< c\n", where="input.txt")

    @pytest.mark.parametrize("line", ["a b < c", "c < a b", "a < b < c d", "a b"])
    def test_a_space_inside_an_identifier_is_refused(self, line):
        """On a relation line as on a bare line: "a b < c" names no element "a b"."""
        with pytest.raises(InputError, match="^input.txt:2: element identifiers cannot contain spaces: "):
            parse_poset_text(f"x < y\n{line}\n", where="input.txt")


class TestComplexText:
    def test_parse_facets(self):
        k = parse_complex_text("a b c\nc d\n")
        assert ("a", "b", "c") in k.facets

    def test_round_trip(self):
        k = SimplicialComplex([("a", "b"), ("b", "c")])
        assert parse_complex_text("a b\nb c\n") == k


class TestJsonRoundTrips:
    def test_poset(self):
        p = diamond()
        assert poset_from_json(poset_to_json(p)) == p

    def test_poset_rejects_junk(self):
        with pytest.raises(InputError, match="elements"):
            poset_from_json({"nope": 1})

    def test_complex(self):
        k = fx.REGISTRY["torus"].build()
        assert complex_from_json(complex_to_json(k)) == k

    def test_relation(self):
        r = fx._certified_relation()
        back = relation_from_json(relation_to_json(r))
        assert back.source == r.source
        assert back.target == r.target
        assert back.pairs == r.pairs

    def test_poset_cover(self):
        cov = fx.star_cover_six_cycle()
        back = poset_cover_from_json(poset_cover_to_json(cov))
        assert back.base == cov.base
        assert {k: set(v) for k, v in back.parts.items()} == {k: set(v) for k, v in cov.parts.items()}

    def test_complex_cover(self):
        cov = fx.example_3_12_cover()
        back = complex_cover_from_json(complex_cover_to_json(cov))
        assert back.base == cov.base
        assert set(back.parts) == set(cov.parts)

    def test_cw(self):
        cw = as_cw(SimplicialComplex([("a", "b", "c")]))
        back = cw_from_json(cw_to_json(cw))
        assert back == cw


class TestFileReaders:
    def test_read_poset_json_and_text(self, tmp_path):
        p = diamond()
        jpath = tmp_path / "p.json"
        jpath.write_text(json.dumps(poset_to_json(p)))
        assert load_object(str(jpath)) == (None, p)
        tpath = tmp_path / "p.txt"
        tpath.write_text(DIAMOND_TEXT)
        assert load_object(str(tpath)) == (None, p)

    def test_read_complex(self, tmp_path):
        k = SimplicialComplex([("a", "b")])
        path = tmp_path / "k.json"
        path.write_text(json.dumps(complex_to_json(k)))
        assert load_object(str(path)) == (None, k)
        tpath = tmp_path / "k.txt"
        tpath.write_text("a b\n")
        assert load_object(str(tpath)) == (None, k)

    @pytest.mark.parametrize("name", [f.name for f in fx.all_fixtures() if f.kind in KINDS])
    def test_plain_json_reads_as_its_fixture(self, tmp_path, name):
        # the bare data of a fixture is matched to its kind by its keys
        f = fx.get_fixture(name)
        wrapped = fx.write_fixture(f, str(tmp_path))
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(fx.fixture_payload(f)["data"]))
        wrapper, from_wrapper = load_object(wrapped)
        no_wrapper, from_plain = load_object(str(plain))
        assert wrapper["kind"] == f.kind and no_wrapper is None
        write = KINDS[f.kind].write
        assert write(from_plain) == write(from_wrapper) == fx.fixture_payload(f)["data"]

    def test_missing_file_becomes_input_error(self):
        for name in ("nope.json", "nope.txt"):
            with pytest.raises(InputError, match="cannot read"):
                load_object("/nonexistent/" + name)


class TestDotOutput:
    def test_poset_dot_lists_covers(self):
        out = dot_poset(diamond())
        assert out.startswith("digraph")
        assert '"a" -> "b"' in out

    def test_complex_dot_mentions_facets(self):
        out = dot_complex(SimplicialComplex([("a", "b")]))
        assert "a" in out and "b" in out


class TestFixturePayloads:
    def test_every_registry_entry_emits_and_rebuilds(self, tmp_path):
        from finitetopo.formats import object_from_json

        for f in fx.all_fixtures():
            if f.kind == "point-cloud":
                continue  # clouds ship as CSV, checked in the mapper tests
            payload = fx.fixture_payload(f)
            assert payload["name"] == f.name
            obj = object_from_json(f.kind, payload["data"], f.name)
            assert obj is not None

    def test_write_fixture_creates_versioned_files(self, tmp_path):
        f = fx.get_fixture("six-cycle")
        path = fx.write_fixture(f, str(tmp_path))
        data = json.loads((tmp_path / "six-cycle.json").read_text())
        assert data["kind"] == "poset"
        assert data["theorem"] == "dictionary"

    def test_unknown_fixture_lists_known_names(self):
        with pytest.raises(InputError, match="six-cycle"):
            fx.get_fixture("nope")


class TestRunReport:
    def test_exit_codes_table(self):
        assert {str(s): s.exit_code for s in Status} == {
            "Certified": 0, "Refuted": 1, "Unknown": 2, "Error": 3,
        }

    def test_status_validation(self):
        rep = RunReport("demo")
        with pytest.raises(ValueError):
            rep.set_status("Sideways")

    def test_certified_requires_replayable_targets(self):
        p = diamond()
        q, cert = core(p)
        rep = RunReport("demo")
        rep.set_status("Certified")
        rep.add_certificate("core", cert, p)
        rep.finalize()
        assert rep.status == "Certified"
        assert rep.exit_code == 0

    def test_tampered_certificate_downgrades(self):
        p = diamond()
        _, cert = core(p)
        bad = ReductionCertificate(
            (ReductionStep("up-beat", (cert.steps[0].removed[0],), witness=cert.steps[0].removed[0]),)
        )
        rep = RunReport("demo")
        rep.set_status("Certified")
        rep.add_certificate("core", bad, p)
        rep.finalize()
        assert rep.status == "Error"

    def test_json_shape_and_input_hashes(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("a < b\n")
        rep = RunReport("demo")
        rep.add_input("file", path=str(path))
        rep.add_input("payload", payload={"k": 1})
        rep.set_status("Unknown")
        rep.finalize()
        d = rep.to_json_dict()
        assert d["command"] == "demo"
        assert d["status"] == "Unknown"
        assert set(d["inputs"]) == {"file", "payload"}
        assert all(len(h) == 64 for h in d["inputs"].values())
        assert "elapsed_seconds" in d["timing"]

    def test_hashes_are_stable(self):
        assert content_hash(b"abc") == content_hash(b"abc")
        assert hash_json({"a": 1, "b": 2}) == hash_json({"b": 2, "a": 1})


verdict_lists = st.lists(
    st.sampled_from(("trivial", "nontrivial", "unknown")).map(lambda w: TrivialityVerdict(w, "test")),
    max_size=6,
)


class TestStatus:
    @pytest.mark.parametrize("status", list(Status), ids=str)
    def test_every_rendering_prints_the_word(self, status):
        assert str(status) == status.value
        assert f"{status}" == "{}".format(status) == status.value
        assert json.dumps({"status": status}) == json.dumps({"status": status.value})

    def test_an_unknown_word_is_rejected(self):
        with pytest.raises(ValueError):
            Status("certified")

    @given(verdict_lists)
    def test_precedence_of_verdicts(self, verdicts):
        words = {v.status for v in verdicts}
        expected = (
            Status.REFUTED if "nontrivial" in words
            else Status.UNKNOWN if "unknown" in words
            else Status.CERTIFIED
        )
        assert Status.of_verdicts(verdicts) is expected
        assert Status.of_verdicts(iter(verdicts)) is expected

    @given(verdict_lists, verdict_lists)
    def test_precedence_is_the_worse_of_two_parts(self, left, right):
        rank = [Status.CERTIFIED, Status.UNKNOWN, Status.REFUTED]
        worse = max(Status.of_verdicts(left), Status.of_verdicts(right), key=rank.index)
        assert Status.of_verdicts(left + right) is worse
