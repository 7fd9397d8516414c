"""Outputs of the shipped fixtures and of the mapper demo, compared byte for
byte with the copies in tests/golden/.

Three kinds of output are pinned: JSON reports (with the "timing" block
removed), `--format dot` and `--format text` renderings, and the files
that `fixtures generate` writes for every recipe.  A change that is meant
to keep the output must leave them untouched.  After a change that is
meant to alter the output, regenerate them from the repository root and
review the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import glob
import json
import os
import subprocess
import sys

import pytest

from finitetopo import fixtures as fx
from finitetopo.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "fixtures")
GOLDEN = os.path.join(ROOT, "tests", "golden")
EMITS = ("nerve", "component-nerve", "completion")
CLOUDS = ("circle-60", "figure-eight-80")
RECIPES = ("poset", "dismantlable", "complex", "monotone-map",
           "relation", "good-cover", "quasi-good-cover")
DOT_COMMANDS = (
    ("homology", "six-cycle"),
    ("homology", "torus"),
    ("core", "collapsible-noncontractible"),
    ("reduce", "collapsible-noncontractible"),
    ("cylinder", "build", "certified-relation"),
    ("cylinder", "build", "monotone-map-fence"),
    ("nerve", "two-arc-cover-six-cycle"),
    ("completion", "two-arc-cover-six-cycle"),
)


def _theorem_fixtures():
    out = []
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            theorem = json.load(fh).get("theorem")
        if theorem:
            out.append((os.path.basename(path)[: -len(".json")], theorem))
    return out


def _mapper_flags(cloud):
    params = fx.get_fixture(cloud).params
    return [
        "--filter", str(params["filter"]),
        "--intervals", str(params["intervals"]),
        "--overlap", str(params["overlap"]),
        "--epsilon", str(params["epsilon"]),
    ]


def cases():
    """(golden file name, command line) for every pinned output."""
    out = [
        (f"verify-{name}.json", ["verify", theorem, os.path.join(FIXTURES, name + ".json")])
        for name, theorem in _theorem_fixtures()
    ]
    out.append(("verify-batch.json", ["verify", "--batch", FIXTURES]))
    for cloud in CLOUDS:
        for emit in EMITS:
            out.append((f"mapper-{cloud}-{emit}.json",
                        ["mapper", cloud, *_mapper_flags(cloud), "--emit", emit]))
    for argv in DOT_COMMANDS:
        out.append(("dot-" + "-".join(argv) + ".dot", [*argv, "--format", "dot"]))
    for emit in EMITS:
        out.append((f"dot-mapper-circle-60-{emit}.dot",
                    ["mapper", "circle-60", *_mapper_flags("circle-60"), "--emit", emit,
                     "--format", "dot"]))
    out.append(("text-verify-certified-relation.txt",
                ["verify", "thm-a", "certified-relation", "--format", "text"]))
    for recipe in RECIPES:
        out.append((f"generate-{recipe}.txt",
                    ["fixtures", "generate", "--recipe", recipe, "--count", "2", "--seed", "7"]))
    return out


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def rendered(argv, tmp):
    """The text pinned for one command line: the generated files, each under
    a "==> name <==" header, for `fixtures generate`; the output as written
    for dot and text; the report without "timing" for JSON."""
    out_path = os.path.join(tmp, "out")
    if argv[:2] == ["fixtures", "generate"]:
        directory = os.path.join(tmp, "generated")
        main([*argv, "--dir", directory, "--out", out_path])
        return "".join(
            f"==> {os.path.basename(path)} <==\n" + _read(path)
            for path in sorted(glob.glob(os.path.join(directory, "*")))
        )
    main([*argv, "--out", out_path])
    if "--format" in argv:
        return _read(out_path)
    doc = json.loads(_read(out_path))
    doc.pop("timing")
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name,argv", cases(), ids=[name for name, _ in cases()])
def test_report_matches_golden(name, argv, tmp_path):
    assert rendered(argv, str(tmp_path)) == _read(os.path.join(GOLDEN, name))


def test_batch_report_is_the_same_under_python_O():
    """No control flow rests on an `assert`, which `python -O` strips."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FINITETOPO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "finitetopo.cli", "verify", "--batch", "fixtures/"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    doc.pop("timing")
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == _read(os.path.join(GOLDEN, "verify-batch.json"))


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in cases():
        with tempfile.TemporaryDirectory() as tmp:
            text = rendered(argv, tmp)
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        print(name, file=sys.stderr)
