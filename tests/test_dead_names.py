"""Every public name under src/finitetopo/ has a caller in src/ or perfbench/.

Only code that runs counts: a use must sit in the code of a Python file
under src/ or perfbench/, with its comments and docstrings left out.  A
test calling a name does not keep it alive, and neither does a docstring
that mentions it.

- A top-level `def`, `class` or UPPER_CASE constant counts as used when its
  name occurs, as a whole word, in such code other than at its own
  definition and other than in the package's `__init__.py` (an export
  alone is not a use).  Strings count, so a name that perfbench's tracer
  looks up by string is used.
- A public method or property of a package class (no leading underscore)
  counts as used when some such code reads `.name` as an attribute or holds
  the string "name".
- So does a field of a package dataclass, private or not: the constructor
  sets it, so only a read keeps it (a report reads its `HOMOLOGY` fields by
  their strings).

A use of `.name` cannot say which class it reaches, so one class's method
would keep a same-named method of another class alive.  `SHARED` lists
every public method name that two package classes define, or that a class
shares with a module-level name, each with the reason why every one of
them runs; a collision that is not listed fails.

`ALLOWED` names the few that are kept with no caller, each with its reason.
An allowlisted function never runs, so a use inside its body does not
count: what only it calls has no caller either and must be allowlisted too.
"""

import ast
import re
from collections import Counter, defaultdict
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finitetopo"

ALLOWED: dict[str, str] = {}

SHARED = {
    "certificates": "every statement report lists its collapses for the run report; "
                    "the StatementReport default yields none",
    "exit_code": "RunReport.exit_code is the exit code of its Status",
    "f_vector": "both complexes' f-vectors feed the Euler characteristic and the completion's JSON",
    "failing": "a refused collapse names the failing elements of its HypothesisReport; a refuted "
               "quasi-good statement names the failing components of its CoverClassification",
    "induced": "Poset.induced reads the members through ElementSet.induced",
    "nerve": "ComplexCover.nerve is the nerve of its poset cover",
    "to_json_dict": "every report, verdict and certificate writes its own part of the run report",
}

PRIVATE_IMPORTS = {
    "poset._iter_bits": "the bit loop that every module reading masks shares",
    "homology._poset_homology": "the homology cache, which cli.main empties when a command starts",
}


def code(path: Path) -> ast.Module:
    """The file's syntax tree without docstrings (comments never reach it)
    and, in the package, without the bodies of the allowlisted functions."""
    tree = ast.parse(path.read_text())
    for node in list(ast.walk(tree)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                node.body = node.body[1:] or [ast.Pass()]
    if path.parent == PACKAGE:
        for name, function in functions(tree):
            if name in ALLOWED:
                function.body = [ast.Pass()]
    return tree


def functions(tree: ast.Module) -> list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """("name" or "Class.method", node) for each top-level function and
    each method of a top-level class."""
    return [
        (prefix + node.name, node)
        for owner, prefix in [(tree, "")] + [(c, c.name + ".") for c in tree.body if isinstance(c, ast.ClassDef)]
        for node in owner.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


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
    return [name for name, _ in functions(tree) if "." in name and not name.split(".")[1].startswith("_")]


@lru_cache(maxsize=None)
def uses() -> tuple[Counter, set[str]]:
    """The words of the code of every running file, and the attribute
    names that code reads and the strings it holds."""
    words: Counter = Counter()
    attributes: set[str] = set()
    for path in running_files():
        tree = code(path)
        words.update(re.findall(r"\w+", ast.unparse(tree)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attributes.add(node.value)
    return words, attributes


def dataclass_fields(tree: ast.Module) -> list[str]:
    """"Class.field" for each annotated field of a top-level dataclass."""
    classes = [c for c in tree.body if isinstance(c, ast.ClassDef)]
    return [
        c.name + "." + node.target.id
        for c in classes if any("dataclass" in ast.unparse(d) for d in c.decorator_list)
        for node in c.body if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]


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


def dead_fields() -> list[str]:
    _, attributes = uses()
    return sorted(
        name for tree in package_modules() for name in dataclass_fields(tree) if name.split(".")[1] not in attributes
    )


def shared_method_names() -> dict[str, list[str]]:
    """Each public method name that two package classes define, or that a
    class shares with a module-level name: its owners."""
    owners: defaultdict[str, list[str]] = defaultdict(list)
    for tree in package_modules():
        for name in module_level_names(tree):
            owners[name].append(name)
        for name in public_methods(tree):
            owners[name.split(".")[1]].append(name)
    return {name: sorted(o) for name, o in owners.items() if len(o) > 1 and any("." in e for e in o)}


def test_every_module_level_name_is_used():
    assert [name for name in dead_module_level_names() if name not in ALLOWED] == []


def test_every_public_method_and_property_is_used():
    assert [name for name in dead_methods() if name not in ALLOWED] == []


def test_every_dataclass_field_is_read():
    assert [name for name in dead_fields() if name not in ALLOWED] == []


def test_every_allowed_name_is_still_defined_and_still_uncalled():
    """An entry whose name gained a caller, or went away, is stale."""
    dead = dead_module_level_names() + dead_methods() + dead_fields()
    assert sorted(name for name in dead if name in ALLOWED) == sorted(ALLOWED)


def test_every_shared_method_name_is_listed():
    """An unlisted collision fails; an entry that no longer collides is stale."""
    shared = shared_method_names()
    assert {name: owners for name, owners in shared.items() if name not in SHARED} == {}
    assert sorted(name for name in SHARED if name not in shared) == []


# each statement's verdict table and each search's budget: the command
# layer decides both, so no default stands in for that decision
TAKEN_NOT_DEFAULTED = {
    "check_source_retraction": "ask", "check_target_retraction": "ask",
    "verify_source_retraction": "ask", "verify_target_retraction": "ask",
    "verify_equivalence": "ask", "classify_cover": "ask", "verify_nerve_theorem": "ask",
    "verify_corollary_completion": "ask", "find_gamma_points": "ask",
    "shared_oracle": "budget", "triviality_oracle": "budget", "is_collapsible": "budget",
    "collapse_search": "budget",
}


def package_files() -> list[Path]:
    return sorted(PACKAGE.glob("*.py"))


def test_every_table_and_budget_is_passed_in():
    """No `ask` or `budget` parameter in the package has a default, the
    listed ones among them, and no function makes a table of its own."""
    taken, defaulted = {}, []
    for path in package_files():
        tree = code(path)
        for name, function in functions(tree):
            args = function.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for arg in positional + args.kwonlyargs:
                if arg.arg in ("ask", "budget"):
                    taken[name] = arg.arg
                    if arg in with_default:
                        defaulted.append(f"{path.name}:{name}({arg.arg})")
        assert "or shared_oracle(" not in ast.unparse(tree), path.name
    assert defaulted == []
    assert {name: taken.get(name) for name in TAKEN_NOT_DEFAULTED} == TAKEN_NOT_DEFAULTED


def test_the_statement_layer_never_names_the_budget():
    """cylinder.py and nerve.py take a table of verdicts, never a budget: the
    command that reads the budget makes the table.  They import nothing
    from reduction, whose search stays below them: the table's type,
    `Oracle`, comes from certificates."""
    for name in ("cylinder.py", "nerve.py"):
        tree = code(PACKAGE / name)
        words = set(re.findall(r"\w+", ast.unparse(tree)))
        assert words & {"budget", "DEFAULT_BUDGET", "shared_oracle"} == set(), name
        assert [node.module for node in package_imports(tree) if node.module == "reduction"] == [], name


def test_only_the_command_layer_reads_the_default_budget():
    """DEFAULT_BUDGET is defined in reduction.py and read in cli.py, where
    the budget option falls back to it; the export in `__init__` is no read."""
    named = {
        path.name: n for path in running_files() if path.is_relative_to(PACKAGE)
        for n in [re.findall(r"\w+", ast.unparse(code(path))).count("DEFAULT_BUDGET")] if n
    }
    assert named.keys() == {"reduction.py", "cli.py"}
    assert named["reduction.py"] == 1


def package_imports(tree: ast.Module) -> list[ast.ImportFrom]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]


def test_no_private_name_crosses_modules():
    """A `_` name stays in its module, apart from the listed ones; an entry
    that no module imports any more is stale."""
    crossing = {
        f"{node.module}.{alias.name}"
        for path in PACKAGE.glob("*.py") for node in package_imports(code(path))
        for alias in node.names if alias.name.startswith("_")
    }
    assert crossing == set(PRIVATE_IMPORTS)


def test_no_package_import_sits_inside_a_function():
    """Every package import runs when its module loads."""
    lazy = [
        (path.name, ast.unparse(node))
        for path in package_files()
        for function in ast.walk(code(path)) if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in package_imports(function)
    ]
    assert lazy == []


def test_the_module_import_graph_is_acyclic():
    """Each module imports only modules below it: `from .x import` and
    `from . import x` edges among the package's files leave no cycle."""
    modules = {path.stem for path in package_files()}
    edges = {
        path.stem: {
            target for node in package_imports(ast.parse(path.read_text()))
            for target in ([node.module] if node.module else [alias.name for alias in node.names])
            if target in modules
        }
        for path in package_files()
    }
    assert "complexes" in edges["homology"]  # the edges are read at all
    done: set[str] = set()
    while len(done) < len(edges):
        ready = [m for m in edges if m not in done and edges[m] <= done]
        assert ready, f"import cycle among {sorted(set(edges) - done)}"
        done.update(ready)
