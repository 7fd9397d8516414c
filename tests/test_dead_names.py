"""Every module-level name under src/finitetopo/ is used somewhere.

A top-level `def`, `class` or UPPER_CASE constant counts as used when its
name occurs, as a whole word, in some Python file under src/, tests/ or
perfbench/ other than at its own definition and other than in the
package's `__init__.py` (an export alone is not a use).  Strings count, so
a name that perfbench's tracer looks up by string is used.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finitetopo"


def module_level_names(path: Path) -> list[str]:
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper())
    return names


def word_counts() -> Counter:
    counts: Counter = Counter()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            if path != PACKAGE / "__init__.py":
                counts.update(re.findall(r"\w+", path.read_text()))
    return counts


def test_every_module_level_name_is_used():
    counts = word_counts()
    defined = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            defined.update(module_level_names(path))
    dead = sorted(name for name, n in defined.items() if counts[name] <= n)
    assert dead == []
