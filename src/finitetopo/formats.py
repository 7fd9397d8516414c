"""Every reader of input, and the writers of posets, complexes,
relations, covers and point clouds.

Input is read here and nowhere else: the JSON kinds, the fixture file
wrapper, the text formats and CSV point clouds.  Text formats are
line-oriented with "#" comments.  JSON formats carry the same data
self-contained.  Parse errors cite the offending file, and line or row
where there is one.  DOT drawings and CSV clouds are written here too.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import contextmanager
from typing import Any, Callable, Iterable, NamedTuple, Optional, Tuple

from .certificates import Status
from .complexes import RegularCWComplex, SimplicialComplex, cw_from_face_poset
from .cylinder import Relation
from .errors import InputError
from .mapper import PointCloud
from .nerve import ComplexCover, PosetCover
from .poset import Poset


def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


@contextmanager
def named(where: str, kind: str):
    """Name the file once in an error met while building an object from its
    data: an input error gains the prefix ``where:`` unless it has it, and a
    wrong type, a wrong length or a missing key is malformed input of kind."""
    try:
        yield
    except InputError as exc:
        if str(exc).startswith(f"{where}:"):
            raise
        raise InputError(f"{where}: {exc}") from exc
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        raise InputError(f"{where}: malformed {kind}: {exc}") from exc


def _list(value, what: str, where: str) -> list:
    """A JSON list, such as a list of identifiers; a string is refused
    rather than split into its characters."""
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{where}: {what} must be a list, got {value!r}")
    return value


_SCALARS = {bool: "true or false", int: "an integer", str: "a string"}


def json_scalar(value, kind: type, what: str, where: str):
    """A JSON boolean, integer or string, as kind says; nothing is coerced,
    and true and false are not integers."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise InputError(f"{where}: {what} must be {_SCALARS[kind]}, got {value!r}")
    return value


def _tuples(value, what: str, where: str) -> list[tuple]:
    """A JSON list of lists, such as facets or relation pairs, as tuples."""
    return [tuple(_list(item, f"each of {what}", where)) for item in _list(value, what, where)]


# ---------------------------------------------------------------- posets

def parse_poset_text(text: str, where: str = "<input>") -> Poset:
    """One relation per line, "a < b" or a chain "a < b < c"; a bare
    identifier declares an isolated element.  No identifier holds a space."""
    elements: list[str] = []
    relations: list[tuple[str, str]] = []
    for no, line in _lines(text):
        sides = [s.strip() for s in line.split("<")]
        if not all(sides):
            raise InputError(f"{where}:{no}: expected 'a < b', got {line!r}")
        if any(ch.isspace() for side in sides for ch in side):
            raise InputError(f"{where}:{no}: element identifiers cannot contain spaces: {line!r}")
        elements.extend(sides)
        relations.extend(zip(sides, sides[1:]))
    return Poset(elements, relations)


def parse_text(text: str, where: str = "<input>"):
    """A poset if some line, comments dropped, holds '<'; else a complex."""
    if any("<" in line for _, line in _lines(text)):
        return parse_poset_text(text, where)
    return parse_complex_text(text, where)


def poset_to_json(p: Poset) -> dict:
    return {"elements": list(p.elements), "relations": [list(pair) for pair in sorted(p.cover_pairs)]}


def poset_from_json(data, where: str = "<input>") -> Poset:
    if not isinstance(data, dict) or "elements" not in data:
        raise InputError(f"{where}: poset JSON needs an 'elements' list")
    elements = _list(data["elements"], "'elements'", where)
    return Poset(elements, [(a, b) for a, b in _tuples(data.get("relations", []), "'relations'", where)])


# -------------------------------------------------------------- complexes

def parse_complex_text(text: str, where: str = "<input>") -> SimplicialComplex:
    """One facet per line, vertices whitespace-separated."""
    facets = []
    for no, line in _lines(text):
        facets.append(tuple(line.split()))
    return SimplicialComplex(facets)


def complex_to_json(k: SimplicialComplex) -> dict:
    return {"facets": [list(f) for f in k.facets]}


def complex_from_json(data, where: str = "<input>") -> SimplicialComplex:
    if not isinstance(data, dict) or "facets" not in data:
        raise InputError(f"{where}: complex JSON needs a 'facets' list")
    return SimplicialComplex(_tuples(data["facets"], "'facets'", where))


def cw_to_json(c: RegularCWComplex) -> dict:
    return {"poset": poset_to_json(c.poset), "dim": dict(sorted(c.dim.items()))}


def cw_from_json(data, where: str = "<input>") -> RegularCWComplex:
    if not isinstance(data, dict) or "poset" not in data or "dim" not in data:
        raise InputError(f"{where}: CW JSON needs 'poset' and 'dim'")
    dim = {c: json_scalar(d, int, f"the dimension of cell {c!r}", where) for c, d in data["dim"].items()}
    return cw_from_face_poset(poset_from_json(data["poset"], where), dim)


# -------------------------------------------------------------- relations

def relation_to_json(r: Relation) -> dict:
    return {
        "source": poset_to_json(r.source),
        "target": poset_to_json(r.target),
        "pairs": [list(pair) for pair in sorted(r.pairs)],
    }


def relation_from_json(data, where: str = "<input>") -> Relation:
    if not isinstance(data, dict) or not {"source", "target", "pairs"} <= data.keys():
        raise InputError(f"{where}: relation JSON needs 'source', 'target', 'pairs'")
    return Relation.of(
        poset_from_json(data["source"], where),
        poset_from_json(data["target"], where),
        [(x, y) for x, y in _tuples(data["pairs"], "'pairs'", where)],
    )


# a monotone map is the triple (source, target, mapping), whose relation
# the mapping cylinder is built from

def monotone_map_to_json(m: tuple[Poset, Poset, dict]) -> dict:
    source, target, mapping = m
    return {"source": poset_to_json(source), "target": poset_to_json(target), "map": dict(sorted(mapping.items()))}


def monotone_map_from_json(data, where: str = "<input>") -> tuple[Poset, Poset, dict]:
    if not isinstance(data, dict) or not {"source", "target", "map"} <= data.keys():
        raise InputError(f"{where}: monotone map needs 'source', 'target', 'map'")
    return (
        poset_from_json(data["source"], where),
        poset_from_json(data["target"], where),
        {k: json_scalar(v, str, f"the image of {k!r}", where) for k, v in data["map"].items()},
    )


# ----------------------------------------------------------------- covers

def poset_cover_to_json(c: PosetCover) -> dict:
    return {
        "poset": poset_to_json(c.base),
        "parts": {name: sorted(sub.members) for name, sub in sorted(c.parts.items())},
    }


def poset_cover_from_json(data, where: str = "<input>") -> PosetCover:
    if not isinstance(data, dict) or "poset" not in data or "parts" not in data:
        raise InputError(f"{where}: poset cover JSON needs 'poset' and 'parts'")
    base = poset_from_json(data["poset"], where)
    parts = {str(k): set(_list(v, f"part {k!r}", where)) for k, v in data["parts"].items()}
    return PosetCover(base, parts, json_scalar(data.get("open_hulls", False), bool, "'open_hulls'", where))


def complex_cover_to_json(c: ComplexCover) -> dict:
    return {
        "complex": complex_to_json(c.base),
        "parts": {name: [list(f) for f in part.facets] for name, part in sorted(c.parts.items())},
    }


def complex_cover_from_json(data, where: str = "<input>") -> ComplexCover:
    if not isinstance(data, dict) or "complex" not in data or "parts" not in data:
        raise InputError(f"{where}: complex cover JSON needs 'complex' and 'parts'")
    base = complex_from_json(data["complex"], where)
    parts = {str(k): SimplicialComplex(_tuples(v, f"part {k!r}", where)) for k, v in data["parts"].items()}
    return ComplexCover(base, parts)


# ------------------------------------------------------------ input kinds

class Kind(NamedTuple):
    keys: frozenset  # keys that identify a plain JSON object of this kind
    read: Callable[[Any, str], Any]
    write: Callable[[Any], dict]


# Plain JSON is matched to the first kind, in this order, whose keys it
# holds; a new kind is one more row.  Each reader is called through its
# module-level name, so a wrapper later bound to that name sees every load.
KINDS: dict[str, Kind] = {
    "relation": Kind(frozenset({"pairs", "source"}),
                     lambda data, where: relation_from_json(data, where), relation_to_json),
    "monotone-map": Kind(frozenset({"map", "source"}),
                         lambda data, where: monotone_map_from_json(data, where), monotone_map_to_json),
    "cw": Kind(frozenset({"poset", "dim"}), lambda data, where: cw_from_json(data, where), cw_to_json),
    "poset-cover": Kind(frozenset({"poset", "parts"}),
                        lambda data, where: poset_cover_from_json(data, where), poset_cover_to_json),
    "complex-cover": Kind(frozenset({"complex", "parts"}),
                          lambda data, where: complex_cover_from_json(data, where), complex_cover_to_json),
    "poset": Kind(frozenset({"elements"}), lambda data, where: poset_from_json(data, where), poset_to_json),
    "complex": Kind(frozenset({"facets"}), lambda data, where: complex_from_json(data, where), complex_to_json),
}


def object_from_json(kind: Optional[str], data, where: str) -> Any:
    """The object that JSON data describes, read as the given kind or, when
    kind is None, as the first kind in KINDS whose keys the data holds.
    Malformed data is an InputError that names the file."""
    if kind is None:
        if not isinstance(data, dict):
            raise InputError(f"{where}: expected a JSON object")
        kind = next((k for k, entry in KINDS.items() if entry.keys <= data.keys()), None)
        if kind is None:
            raise InputError(f"{where}: unrecognized JSON shape")
    if not isinstance(kind, str) or kind not in KINDS:
        raise InputError(f"{where}: cannot build a {kind!r} fixture object")
    with named(where, f"{kind} JSON"):
        return KINDS[kind].read(data, where)


# ----------------------------------------------------------- point clouds

def point_cloud_from_csv(text: str, where: str = "<input>") -> PointCloud:
    """One point per row; a leading non-numeric field is the identifier.
    Trailing empty cells are ignored; an empty cell before a value is an
    input error."""
    ids: list[str] = []
    coords: list[list[float]] = []
    for row_no, row in enumerate(csv.reader(io.StringIO(text, newline="")), 1):
        cells = [c.strip() for c in row]
        while cells and not cells[-1]:
            cells.pop()
        if not cells or cells[0].startswith("#"):
            continue
        if "" in cells:
            raise InputError(f"{where}:{row_no}: empty cell in {row!r}")
        try:
            float(cells[0])
            ident = f"p{len(ids):04d}"
            values = cells
        except ValueError:
            ident = cells[0]
            values = cells[1:]
        try:
            row_coords = [float(v) for v in values]
        except ValueError as exc:
            raise InputError(f"{where}:{row_no}: bad coordinate in {row!r}") from exc
        if not all(map(math.isfinite, row_coords)):
            raise InputError(f"{where}:{row_no}: point {ident!r} has a non-finite coordinate in {row!r}")
        coords.append(row_coords)
        ids.append(ident)
    return PointCloud(ids, coords)


def point_cloud_to_csv(cloud: PointCloud, comments: Iterable[str]) -> str:
    """A "#" line per comment, then one row per point, identifier first."""
    lines = [f"# {c}" for c in comments]
    lines += [",".join([pid, *map(repr, row)]) for pid, row in zip(cloud.ids, cloud.coords)]
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------------- DOT

def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_poset(p: Poset) -> str:
    """Hasse diagram as a directed graph, edges pointing upward."""
    lines = ['digraph "poset" {', "  rankdir=BT;"]
    for e in p.elements:
        lines.append(f"  {_dot_quote(e)};")
    for a, b in sorted(p.cover_pairs):
        lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_complex(k: SimplicialComplex) -> str:
    """1-skeleton as an undirected graph."""
    lines = ['graph "complex" {']
    for v in k.vertices:
        lines.append(f"  {_dot_quote(v)};")
    by_dim = k.faces_by_dim()
    if len(by_dim) > 1:
        for a, b in by_dim[1]:
            lines.append(f"  {_dot_quote(a)} -- {_dot_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_cw(c: RegularCWComplex) -> str:
    """1-skeleton: 0-cells as nodes, each 1-cell joining its two endpoints."""
    lines = ['graph "cw" {']
    cells = c.cells_by_dim()
    for v in cells[0] if cells else []:
        lines.append(f"  {_dot_quote(v)};")
    if len(cells) > 1:
        for e in cells[1]:
            ends = sorted(x for x in c.poset.punctured_down(e).members)
            lines.append(f"  {_dot_quote(ends[0])} -- {_dot_quote(ends[1])};  // {e}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------- file loading

def load_json_file(path: str):
    text = read_text_file(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc


def read_text_file(path: str) -> str:
    """The file's text; it must be UTF-8, and a byte order mark is dropped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc


def read_fixture_file(path: str) -> Tuple[Optional[dict], Any]:
    """Returns (fixture wrapper or None, raw payload); every wrapper key
    that is present must have its type, and expected_status must be a
    Status word."""
    data = load_json_file(path)
    if not (isinstance(data, dict) and "kind" in data and "data" in data):
        return None, data
    for key, kind, what in (("name", str, "a string"), ("theorem", str, "a string"), ("params", dict, "an object")):
        if data.get(key) is not None and not isinstance(data[key], kind):
            raise InputError(f"{path}: fixture {key!r} must be {what} or null, got {data[key]!r}")
    words = [s.value for s in Status]
    if data.get("expected_status") not in [None, *words]:
        raise InputError(f"{path}: expected_status {data['expected_status']!r} is not one of {', '.join(words)}")
    return data, data["data"]


def load_object(path: str) -> Tuple[Optional[dict], Any]:
    """Load any supported input file into a domain object.

    JSON files may be fixture wrappers or raw payloads; a `.csv` file is a
    point cloud; other text files hold either a poset (lines with '<') or a
    complex (facet per line).  Every input error names the file once.
    """
    if path.endswith(".json"):
        wrapper, data = read_fixture_file(path)
        return wrapper, object_from_json(wrapper["kind"] if wrapper else None, data, path)
    with named(path, "text"):
        if path.endswith(".csv"):
            return None, point_cloud_from_csv(read_text_file(path), path)
        return None, parse_text(read_text_file(path), path)
