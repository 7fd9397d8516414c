"""Reports of the shipped fixtures and of the mapper demo, compared byte for
byte with the copies in tests/golden/, with the "timing" block removed.

The golden files pin the deterministic part of every report, so a change
that is meant to keep the output must leave them untouched.  After a change
that is meant to alter the output, regenerate them from the repository root
and review the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import glob
import json
import os
import sys

import pytest

from finitetopo import fixtures as fx
from finitetopo.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "fixtures")
GOLDEN = os.path.join(ROOT, "tests", "golden")
EMITS = ("nerve", "component-nerve", "completion")
CLOUDS = ("circle-60", "figure-eight-80")


def _theorem_fixtures():
    out = []
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            theorem = json.load(fh).get("theorem")
        if theorem:
            out.append((os.path.basename(path)[: -len(".json")], theorem))
    return out


def cases():
    """(golden file name, command line) for every pinned report."""
    out = [
        (f"verify-{name}.json", ["verify", theorem, os.path.join(FIXTURES, name + ".json")])
        for name, theorem in _theorem_fixtures()
    ]
    out.append(("verify-batch.json", ["verify", "--batch", FIXTURES]))
    for cloud in CLOUDS:
        params = fx.get_fixture(cloud).params
        flags = [
            "--filter", str(params["filter"]),
            "--intervals", str(params["intervals"]),
            "--overlap", str(params["overlap"]),
            "--epsilon", str(params["epsilon"]),
        ]
        for emit in EMITS:
            out.append((f"mapper-{cloud}-{emit}.json", ["mapper", cloud, *flags, "--emit", emit]))
    return out


def report_without_timing(argv, out_path):
    main([*argv, "--out", str(out_path)])
    with open(out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("timing")
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name,argv", cases(), ids=[name for name, _ in cases()])
def test_report_matches_golden(name, argv, tmp_path):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        expected = fh.read()
    assert report_without_timing(argv, tmp_path / "report.json") == expected


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in cases():
            text = report_without_timing(argv, os.path.join(tmp, "report.json"))
            with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as fh:
                fh.write(text)
            print(name, file=sys.stderr)
