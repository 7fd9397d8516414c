"""Shipped example data and seeded instance generators.

The registry holds small named objects with known behaviour: oracle
calibration complexes, a refutation relation, covers whose nerves are
understood, and the sample point clouds used by the mapper demo.  Each
entry can be written to disk as a self-describing fixture file that the
command line runner understands.

Generators produce reproducible batches of posets, monotone maps,
relations and covers from an explicit seed.  Construction recipes favour
instances with a known guarantee (beat-point retractions always satisfy
the cylinder hypotheses) so large certified batches do not depend on
rejection luck.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .complexes import SimplicialComplex, face_poset
from .cylinder import Relation
from .errors import InputError
from .formats import KINDS, load_json_file
from .mapper import PointCloud, circle_sample, figure_eight_sample
from .nerve import ComplexCover, PosetCover, classify_cover
from .poset import Poset
from .reduction import find_beat_points, shared_oracle

@dataclass(frozen=True)
class Fixture:
    name: str
    kind: str
    description: str
    build: Callable[[], Any]
    theorem: Optional[str] = None
    expected_status: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)


# ------------------------------------------------------------- registry data

def _point() -> Poset:
    return Poset(["p"], [])


def six_cycle() -> Poset:
    """Minimal finite model of the circle: three minima under three maxima."""
    mins = [f"x{i}" for i in range(3)]
    maxs = [f"y{i}" for i in range(3)]
    pairs = []
    for i in range(3):
        pairs.append((mins[i], maxs[i]))
        pairs.append((mins[i], maxs[(i + 1) % 3]))
    return Poset(mins + maxs, pairs)


def _octahedron_without_facet() -> Poset:
    # boundary of the octahedron with one triangle removed: a disc that
    # collapses but whose face poset keeps a non-point core
    pairs = [("a", "d"), ("b", "e"), ("c", "f")]
    facets = []
    for u in pairs[0]:
        for v in pairs[1]:
            for w in pairs[2]:
                facets.append((u, v, w))
    facets.remove(("d", "e", "f"))
    return face_poset(SimplicialComplex(facets))


def boundary_delta(n: int) -> SimplicialComplex:
    verts = [chr(ord("a") + i) for i in range(n + 2)]
    facets = []
    for skip in range(len(verts)):
        facets.append(tuple(v for i, v in enumerate(verts) if i != skip))
    return SimplicialComplex(facets)


def projective_plane() -> SimplicialComplex:
    """Six vertex triangulation of the real projective plane."""
    facets = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
    return SimplicialComplex([tuple(str(v) for v in f) for f in facets])


def torus() -> SimplicialComplex:
    """Seven vertex triangulation of the torus (cyclic construction)."""
    facets = []
    for i in range(7):
        facets.append((f"t{i}", f"t{(i + 1) % 7}", f"t{(i + 3) % 7}"))
        facets.append((f"t{i}", f"t{(i + 2) % 7}", f"t{(i + 3) % 7}"))
    return SimplicialComplex(facets)


def _refutation_relation() -> Relation:
    # one point related to both points of an antichain: the target side
    # local data is disconnected, and the two spaces differ in homology
    return Relation.of(Poset(["x"], []), Poset(["a", "b"], []), [("x", "a"), ("x", "b")])


def _certified_relation() -> Relation:
    # retraction of a circle model with one extra beat point onto the model
    cyc = six_cycle()
    big = Poset(list(cyc.elements) + ["z"], list(cyc.cover_pairs) + [("z", "y0")])
    f = {e: e for e in cyc.elements}
    f["z"] = "y0"
    return Relation.from_monotone_map(big, cyc, f)


def _fence_map() -> Tuple[Poset, Poset, Dict[str, str]]:
    fence = Poset(["a", "b", "c"], [("a", "b"), ("c", "b")])
    chain = Poset(["u", "v"], [("u", "v")])
    return fence, chain, {"a": "u", "b": "v", "c": "u"}


def _fence_to_point() -> Tuple[Poset, Poset, Dict[str, str]]:
    fence = Poset(["a", "b", "c"], [("a", "b"), ("c", "b")])
    return fence, Poset(["w"], []), {"a": "w", "b": "w", "c": "w"}


def example_3_12_cover() -> ComplexCover:
    """Triangle boundary covered by a path of two edges and the third edge."""
    base = SimplicialComplex([("u", "v"), ("u", "w"), ("v", "w")])
    parts = {
        "L": SimplicialComplex([("u", "w"), ("v", "w")]),
        "T": SimplicialComplex([("u", "v")]),
    }
    return ComplexCover(base, parts)


def star_cover_six_cycle() -> PosetCover:
    p = six_cycle()
    parts = {f"U{i}": set(p.down_set(f"y{i}").members) for i in range(3)}
    return PosetCover(p, parts)


def two_arc_cover_six_cycle() -> PosetCover:
    # two arcs meeting in two separate points; quasi-good but not good
    p = six_cycle()
    arc = set(p.down_set("y0").members) | set(p.down_set("y1").members)
    return PosetCover(p, {"A": arc, "B": set(p.down_set("y2").members)})


MAPPER_CIRCLE_PARAMS = {
    "filter": "x",
    "intervals": 4,
    "overlap": 0.3,
    "epsilon": 0.15,
}


def _registry() -> Dict[str, Fixture]:
    entries = [
        Fixture("point", "poset", "one element poset", _point,
                theorem="dictionary", expected_status="Certified"),
        Fixture("six-cycle", "poset", "minimal finite model of the circle", six_cycle,
                theorem="dictionary", expected_status="Certified"),
        Fixture("collapsible-noncontractible", "poset",
                "face poset of a disc that collapses although its core is not a point",
                _octahedron_without_facet,
                theorem="dictionary", expected_status="Certified"),
        Fixture("boundary-delta-2", "complex", "triangle boundary", lambda: boundary_delta(1),
                theorem="dictionary", expected_status="Certified"),
        Fixture("boundary-delta-3", "complex", "tetrahedron boundary", lambda: boundary_delta(2),
                theorem="dictionary", expected_status="Certified"),
        Fixture("projective-plane", "complex", "six vertex projective plane", projective_plane,
                theorem="dictionary", expected_status="Certified"),
        Fixture("torus", "complex", "seven vertex torus", torus,
                theorem="dictionary", expected_status="Certified"),
        Fixture("thm-a-refutation", "relation",
                "point against a two point antichain, fully related", _refutation_relation,
                theorem="thm-a", expected_status="Refuted"),
        Fixture("certified-relation", "relation",
                "beat point retraction of an extended circle model", _certified_relation,
                theorem="thm-a", expected_status="Certified"),
        Fixture("homology-relation", "relation",
                "the certified relation checked degree by degree", _certified_relation,
                theorem="prop-homology", expected_status="Certified",
                params={"degree": 1}),
        Fixture("monotone-map-fence", "monotone-map",
                "fence onto a chain; target side hypotheses hold automatically", _fence_map,
                theorem="prop-2.5", expected_status="Certified"),
        Fixture("contractible-fibres-map", "monotone-map",
                "fence to a point; every fibre is contractible", _fence_to_point,
                theorem="prop-2.4", expected_status="Certified"),
        Fixture("example-3-12", "complex-cover",
                "triangle boundary split into a two edge path and one edge",
                example_3_12_cover,
                theorem="cor-completion", expected_status="Certified"),
        Fixture("star-cover-six-cycle", "poset-cover",
                "maximal point stars of the circle model; a good cover", star_cover_six_cycle,
                theorem="nerve-good", expected_status="Certified"),
        Fixture("x-zero-star-cover", "poset-cover",
                "the star cover checked through the trivial subnerve", star_cover_six_cycle,
                theorem="nerve-x0", expected_status="Certified"),
        Fixture("two-arc-cover-six-cycle", "poset-cover",
                "two arcs meeting twice; quasi-good but not good", two_arc_cover_six_cycle,
                theorem="nerve-quasigood", expected_status="Certified"),
        Fixture("circle-60", "point-cloud",
                "sixty noisy points on a circle (seed 7)", lambda: circle_sample(),
                params=dict(MAPPER_CIRCLE_PARAMS)),
        Fixture("figure-eight-80", "point-cloud",
                "eighty noisy points on two tangent circles (seed 11)",
                lambda: figure_eight_sample(),
                params={"filter": "x", "intervals": 6, "overlap": 0.3, "epsilon": 0.2}),
    ]
    return {f.name: f for f in entries}


REGISTRY = _registry()


def all_fixtures() -> List[Fixture]:
    return [REGISTRY[name] for name in sorted(REGISTRY)]


def get_fixture(name: str) -> Fixture:
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise InputError(f"unknown fixture {name!r}; known fixtures: {known}") from None


# -------------------------------------------------------------- file payload

def fixture_wrapper(f: Fixture) -> Dict[str, Any]:
    """What a fixture file says about its data, apart from the description."""
    return {"kind": f.kind, "name": f.name, "theorem": f.theorem,
            "expected_status": f.expected_status, "params": dict(f.params)}


def fixture_payload(f: Fixture) -> Dict[str, Any]:
    return dict(fixture_wrapper(f), description=f.description, data=KINDS[f.kind].write(f.build()))


def read_fixture_file(path: str) -> Tuple[Optional[dict], Any]:
    """Returns (fixture wrapper or None, raw payload)."""
    data = load_json_file(path)
    if isinstance(data, dict) and "kind" in data and "data" in data:
        for key, kind, what in (("name", str, "a string"), ("theorem", str, "a string"), ("params", dict, "an object")):
            if data.get(key) is not None and not isinstance(data[key], kind):
                raise InputError(f"{path}: fixture {key!r} must be {what} or null, got {data[key]!r}")
        return data, data["data"]
    return None, data


def _cloud_csv(f: Fixture) -> str:
    cloud: PointCloud = f.build()
    lines = [f"# fixture {f.name}: {f.description}"]
    if f.params:
        settings = " ".join(f"{k}={v}" for k, v in sorted(f.params.items()))
        lines.append(f"# suggested settings: {settings}")
    for pid in cloud.ids:
        coords = ",".join(repr(c) for c in cloud.coord(pid))
        lines.append(f"{pid},{coords}")
    return "\n".join(lines) + "\n"


def write_fixture(f: Fixture, directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    if f.kind == "point-cloud":
        path = os.path.join(directory, f"{f.name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_cloud_csv(f))
        return path
    path = os.path.join(directory, f"{f.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fixture_payload(f), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# --------------------------------------------------------------- generators

def random_poset(rng: random.Random, size: int, density: float = 0.3) -> Poset:
    """Random order on `size` elements from independent generator pairs."""
    names = [f"e{i}" for i in range(size)]
    pairs = []
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < density:
                pairs.append((names[i], names[j]))
    return Poset(names, pairs)


def random_dismantlable_poset(rng: random.Random, size: int) -> Poset:
    """Grown one element at a time, each attached as a beat point."""
    names = [f"d{i}" for i in range(size)]
    pairs = []
    for i in range(1, size):
        anchor = names[rng.randrange(i)]
        if rng.random() < 0.5:
            pairs.append((names[i], anchor))
        else:
            pairs.append((anchor, names[i]))
    return Poset(names, pairs)


def random_monotone_map(
    rng: random.Random,
    source_size: int,
    target_size: int,
) -> Tuple[Poset, Poset, Dict[str, str]]:
    source = random_poset(rng, source_size, rng.uniform(0.15, 0.45))
    target = random_poset(rng, target_size, rng.uniform(0.15, 0.45))
    order = source.linear_extension()
    for _ in range(50):
        f: Dict[str, str] = {}
        ok = True
        for x in order:
            below = [f[a] for a in source.punctured_down(x).members]
            mask = target.full_mask()
            for val in below:
                mask &= target.up_set(val).mask
            if not mask:
                ok = False
                break
            f[x] = rng.choice(sorted(target._names(mask)))
        if ok:
            return source, target, f
    # no joint assignment found: send chain height into a maximal chain,
    # which is monotone for any pair of posets
    chain = [target.minimal_elements()[0]]
    while True:
        succs = target.cover_successors(chain[-1])
        if not succs:
            break
        chain.append(sorted(succs)[0])
    height: Dict[str, int] = {}
    for x in order:
        below = source.punctured_down(x).members
        height[x] = 1 + max((height[a] for a in below), default=-1)
    f = {x: chain[min(height[x], len(chain) - 1)] for x in source.elements}
    return source, target, f


def beat_retraction_relation(rng: random.Random, size: int) -> Relation:
    """Relation of a composed beat point retraction.

    Removing beat points one at a time keeps both cylinder hypotheses
    satisfied: fibres of the composed retraction are dismantlable, and
    up sets of image points have minima.
    """
    source = random_poset(rng, size, rng.uniform(0.2, 0.5))
    current = source
    f = {e: e for e in source.elements}
    removals = rng.randrange(0, max(1, size - 1))
    for _ in range(removals):
        beats = find_beat_points(current)
        if not beats:
            break
        gone, _, witness = rng.choice(sorted(beats))
        current = current.induced([e for e in current.elements if e != gone])
        f = {e: (witness if v == gone else v) for e, v in f.items()}
    return Relation.from_monotone_map(source, current, f)


def random_complex(rng: random.Random, max_vertices: int = 7) -> SimplicialComplex:
    count = rng.randint(3, max_vertices)
    verts = [f"v{i}" for i in range(count)]
    facets = []
    for _ in range(rng.randint(2, 6)):
        k = rng.randint(1, min(3, count))
        facets.append(tuple(rng.sample(verts, k)))
    return SimplicialComplex(facets)


def _star_union_cover(rng: random.Random, p: Poset) -> Optional[PosetCover]:
    maxes = list(p.maximal_elements())
    if not maxes:
        return None
    rng.shuffle(maxes)
    groups: List[List[str]] = []
    for m in maxes:
        if groups and rng.random() < 0.4:
            rng.choice(groups).append(m)
        else:
            groups.append([m])
    parts = {}
    for idx, group in enumerate(groups):
        members: set = set()
        for m in group:
            members |= set(p.down_set(m).members)
        parts[f"U{idx}"] = members
    return PosetCover(p, parts)


def _random_cover(rng: random.Random, max_size: int, tries: int, wanted: str) -> PosetCover:
    """The first drawn cover of the wanted class, else the first good one,
    else a single part covering a dismantlable poset."""
    good: Optional[PosetCover] = None
    for _ in range(tries):
        p = random_poset(rng, rng.randint(4, max_size), rng.uniform(0.2, 0.5))
        cover = _star_union_cover(rng, p)
        if cover is None or len(cover.parts) < 2:
            continue
        cls = classify_cover(cover, shared_oracle(20_000))
        if cls.status == wanted:
            return cover
        if cls.is_good and good is None:
            good = cover
    if good is not None:
        return good
    p = random_dismantlable_poset(rng, rng.randint(3, 6))
    return PosetCover(p, {"U0": set(p.elements)})


def random_good_cover(rng: random.Random, max_size: int = 12) -> PosetCover:
    return _random_cover(rng, max_size, 120, "good")


def random_quasi_good_cover(rng: random.Random, max_size: int = 12) -> PosetCover:
    """Prefers covers with a disconnected intersection; accepts plain good ones."""
    return _random_cover(rng, max_size, 160, "quasi-good")


# recipe -> (fixture kind, theorem, builder drawing from a seeded rng); every
# recipe's instances are expected to certify
RECIPES: Dict[str, Tuple[str, str, Callable[[random.Random], Any]]] = {
    "poset": ("poset", "dictionary", lambda rng: random_poset(rng, rng.randint(4, 9))),
    "dismantlable": ("poset", "dictionary",
                     lambda rng: random_dismantlable_poset(rng, rng.randint(3, 9))),
    "complex": ("complex", "dictionary", random_complex),
    "monotone-map": ("monotone-map", "prop-2.5",
                     lambda rng: random_monotone_map(rng, rng.randint(2, 8), rng.randint(2, 8))),
    "relation": ("relation", "thm-a", lambda rng: beat_retraction_relation(rng, rng.randint(3, 8))),
    "good-cover": ("poset-cover", "nerve-good", random_good_cover),
    "quasi-good-cover": ("poset-cover", "nerve-quasigood", random_quasi_good_cover),
}


def generated_fixture(recipe: str, rng: random.Random, name: str) -> Fixture:
    """One instance of a recipe, drawn now, as a fixture ready for write_fixture."""
    kind, theorem, build = RECIPES[recipe]
    obj = build(rng)
    return Fixture(name, kind, f"generated by recipe {recipe}", lambda: obj,
                   theorem=theorem, expected_status="Certified")
