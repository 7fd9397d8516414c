"""Every public name under src/finitetopo/ has a caller in src/ or perfbench/.

Only code that runs counts: a use must sit in a Python file under src/ or
perfbench/.  A test calling a name does not keep it alive.

- A top-level `def`, `class` or UPPER_CASE constant counts as used when its
  name occurs, as a whole word, in such a file other than at its own
  definition and other than in the package's `__init__.py` (an export
  alone is not a use).  Strings count, so a name that perfbench's tracer
  looks up by string is used.
- A public method or property of a package class (no leading underscore)
  counts as used when some such file reads `.name` as an attribute or holds
  the string "name".

`ALLOWED` names the few that are kept with no caller, each with its reason.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finitetopo"

ALLOWED = {
    "certificate_from_json": "reserved for the offline certificate audit (ROADMAP item 3)",
    "IntegerMatrix.from_dense": "reserved for the sparse GF(p) witness work (ROADMAP item 8)",
    "PointCloud.distance": "the reference implementation tests/reference_epsilon.py calls it",
}


def running_files() -> list[Path]:
    return sorted(
        path for top in ("src", "perfbench") for path in (ROOT / top).rglob("*.py")
        if path != PACKAGE / "__init__.py"
    )


def package_modules() -> list[ast.Module]:
    return [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


def module_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper())
    return names


def public_methods(tree: ast.Module) -> list[str]:
    """"Class.method" for each public method or property of a top-level class."""
    return [
        f"{cls.name}.{node.name}"
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    ]


def uses() -> tuple[Counter, set[str]]:
    """The words of every running file, and the attribute names and strings
    its code holds."""
    words: Counter = Counter()
    attributes: set[str] = set()
    for path in running_files():
        text = path.read_text()
        words.update(re.findall(r"\w+", text))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attributes.add(node.value)
    return words, attributes


def dead_module_level_names() -> list[str]:
    words, _ = uses()
    defined: Counter = Counter()
    for tree in package_modules():
        defined.update(module_level_names(tree))
    return sorted(name for name, n in defined.items() if words[name] <= n)


def dead_methods() -> list[str]:
    _, attributes = uses()
    return sorted(
        name for tree in package_modules() for name in public_methods(tree) if name.split(".")[1] not in attributes
    )


def test_every_module_level_name_is_used():
    assert [name for name in dead_module_level_names() if name not in ALLOWED] == []


def test_every_public_method_and_property_is_used():
    assert [name for name in dead_methods() if name not in ALLOWED] == []


def test_every_allowed_name_is_still_defined_and_still_uncalled():
    """An entry whose name gained a caller, or went away, is stale."""
    assert sorted(name for name in dead_module_level_names() + dead_methods() if name in ALLOWED) == sorted(ALLOWED)
