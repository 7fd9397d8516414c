"""The three workloads: their subjects, one operation per subject, and the
reference checks on every output.

A subject keeps its input as plain data.  For every round the runner asks
for a copy in which each identifier carries the round tag as a prefix, so
no two operations of a process see equal inputs, while sorted order, and
with it the work done, stays the same.  A tag holds neither ',' nor '|',
the separators finitetopo reserves in derived identifiers.
"""

from __future__ import annotations

import json
import os
import random
import shutil

import finitetopo as ft
from finitetopo import cli, fixtures as fx

import reference as ref

# -- homology-ladder --------------------------------------------------------------

# (betti, torsion) of the subjects whose homology is textbook
TORUS = ([1, 2, 1], [[], [], []])
SPHERE_2 = ([1, 0, 1], [[], [], []])
RP2 = ([1, 0, 0], [[], [2], []])


def _grid_torus(m, n):
    """Torus triangulated as an m x n grid with both pairs of sides glued."""
    def v(i, j):
        return f"g{i % m}x{j % n}"

    facets = []
    for i in range(m):
        for j in range(n):
            facets.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            facets.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return ft.SimplicialComplex(facets)


def _octahedron():
    return ft.SimplicialComplex([(u, v, w) for u in "ad" for v in "be" for w in "cf"])


def _second_subdivision(k):
    return ft.barycentric_poset(ft.face_poset(k))


def _banded(rng, draw, lo, hi, tries=20000):
    """Draw posets until one has an order complex with lo..hi faces, so
    that a subject costs about the same on every seed."""
    for _ in range(tries):
        p = draw(rng)
        n = len(ref.poset_chains(p.elements, p.cover_pairs))
        if lo <= n <= hi:
            return p
    raise RuntimeError(f"no draw with {lo}..{hi} faces in {tries} tries")


def _mapping_cylinder_draw(lo, hi, target_lo, target_hi):
    def draw(rng):
        source, target, f = fx.random_monotone_map(rng, rng.randint(lo, hi), rng.randint(target_lo, target_hi))
        return ft.mapping_cylinder(source, target, f).poset
    return draw


def _relation_cylinder_draw(lo, hi):
    def draw(rng):
        return ft.build_cylinder(fx.beat_retraction_relation(rng, rng.randint(lo, hi))).poset
    return draw


class Subject:
    """One subject of a workload.

    make(tag) builds the tagged input, run(input) is the timed operation,
    finish(input, raw) turns its raw result into the output (untimed),
    normalize(output, tag) makes outputs of different rounds comparable,
    check(output, tag) lists disagreements with the reference checks, and
    size holds the faces, points and statements one op works on.
    """

    @staticmethod
    def finish(inp, raw):
        return raw


class HomologySubject(Subject):
    """homology() of a poset or a simplicial complex."""

    def __init__(self, name, obj, textbook=None, same_euler_as=None):
        self.name = name
        if isinstance(obj, ft.Poset):
            self.elements = list(obj.elements)
            self.relations = sorted(obj.cover_pairs)
            self.facets = None
            self.faces = ref.poset_chains(self.elements, self.relations)
            vertices = len(self.elements)
        else:
            self.facets = [list(f) for f in obj.facets]
            self.faces = ref.complex_faces(self.facets)
            vertices = sum(1 for f in self.faces if len(f) == 1)
        self.textbook = textbook
        self.same_euler_as = same_euler_as
        self.size = {"faces": len(self.faces), "points": vertices, "statements": 1}

    def make(self, tag):
        if self.facets is None:
            return ft.Poset([tag + e for e in self.elements], [(tag + a, tag + b) for a, b in self.relations])
        return ft.SimplicialComplex([[tag + v for v in f] for f in self.facets])

    @staticmethod
    def run(obj):
        return ft.homology(obj)

    @staticmethod
    def normalize(out, tag):
        return (tuple(out.betti), tuple(tuple(t) for t in out.torsion))

    def check(self, out, tag):
        problems = ref.homology_problems(self.faces, out.betti, out.torsion)
        if self.textbook is not None:
            betti, torsion = self.textbook
            if ref.trimmed(out.betti) != ref.trimmed(betti) or ref.trimmed(list(map(list, out.torsion))) != ref.trimmed(torsion):
                problems.append(f"{out.describe()} is not the textbook homology {betti} {torsion}")
        if self.same_euler_as is not None:
            elements, relations = self.same_euler_as
            if ref.euler(self.faces) != ref.poset_euler(elements, relations):
                problems.append("cylinder and the factor it retracts onto differ in Euler characteristic")
        return problems


def homology_ladder(seed, workdir):
    """Order complexes from about 10^2 to about 3*10^3 faces.

    The small end keeps every boundary matrix within the 50x50 limit of
    the fraction-free cross-check; the rest lies beyond it.  The
    projective plane carries Z/2 torsion, which moves Smith normal form
    off its unit-pivot path.  Seeded cylinders are drawn within a narrow
    band of face counts, so every seed asks for about the same work.
    """
    rng = random.Random(seed)
    subjects = []

    def cylinder(name, draw, lo, hi, retracts_onto):
        p = _banded(rng, draw, lo, hi)
        side = [e for e in p.elements if e.startswith(retracts_onto)]
        keep = set(side)
        rel = [(a, b) for a, b in p.cover_pairs if a in keep and b in keep]
        subjects.append(HomologySubject(name, p, same_euler_as=(side, rel)))

    subjects.append(HomologySubject("circle-sd2", _second_subdivision(fx.boundary_delta(1)), ([1, 1], [[], []])))
    cylinder("mapcyl-120", _mapping_cylinder_draw(5, 9, 4, 8), 100, 140, "Y:")
    subjects.append(HomologySubject("rp2-sd1", ft.face_poset(fx.projective_plane()), RP2))
    cylinder("relcyl-300", _relation_cylinder_draw(7, 9), 280, 320, "Y:")
    cylinder("mapcyl-400", _mapping_cylinder_draw(7, 10, 5, 8), 380, 420, "Y:")
    subjects.append(HomologySubject("sphere2-sd2-complex", ft.order_complex(_second_subdivision(fx.boundary_delta(2))), SPHERE_2))
    subjects.append(HomologySubject("sphere3-sd1", ft.face_poset(fx.boundary_delta(3)), ([1, 0, 0, 1], [[], [], [], []])))
    subjects.append(HomologySubject("octahedron-sd2-complex", ft.order_complex(_second_subdivision(_octahedron())), SPHERE_2))
    cylinder("relcyl-800", _relation_cylinder_draw(8, 11), 780, 820, "Y:")
    subjects.append(HomologySubject("rp2-sd2", _second_subdivision(fx.projective_plane()), RP2))
    subjects.append(HomologySubject("torus-sd2", _second_subdivision(fx.torus()), TORUS))
    cylinder("relcyl-1600", _relation_cylinder_draw(9, 12), 1580, 1620, "Y:")
    subjects.append(HomologySubject("torus3x4-sd2", _second_subdivision(_grid_torus(3, 4)), TORUS))
    return subjects


# -- certify-stream ---------------------------------------------------------------


def _poset_json(p):
    return {"elements": list(p.elements), "relations": [list(r) for r in sorted(p.cover_pairs)]}


def _tag_poset(d, tag):
    return {"elements": [tag + e for e in d["elements"]], "relations": [[tag + a, tag + b] for a, b in d["relations"]]}


def _tag_facets(facets, tag):
    return [[tag + v for v in f] for f in facets]


def _tag_data(kind, d, tag):
    if kind == "poset":
        return _tag_poset(d, tag)
    if kind == "complex":
        return {"facets": _tag_facets(d["facets"], tag)}
    if kind == "relation":
        return {"source": _tag_poset(d["source"], tag), "target": _tag_poset(d["target"], tag),
                "pairs": [[tag + x, tag + y] for x, y in d["pairs"]]}
    if kind == "monotone-map":
        return {"source": _tag_poset(d["source"], tag), "target": _tag_poset(d["target"], tag),
                "map": {tag + x: tag + y for x, y in d["map"].items()}}
    if kind == "poset-cover":
        return {"poset": _tag_poset(d["poset"], tag),
                "parts": {tag + n: [tag + e for e in m] for n, m in d["parts"].items()}}
    if kind == "complex-cover":
        return {"complex": {"facets": _tag_facets(d["complex"]["facets"], tag)},
                "parts": {tag + n: _tag_facets(fs, tag) for n, fs in d["parts"].items()}}
    raise ValueError(kind)


def _relation_json(r):
    return {"source": _poset_json(r.source), "target": _poset_json(r.target), "pairs": [list(x) for x in sorted(r.pairs)]}


def _cover_json(c):
    return {"poset": _poset_json(c.base), "parts": {n: sorted(s.members) for n, s in sorted(c.parts.items())}}


FUBINI = (1, 1, 3, 13, 75, 541)


def _dictionary_cost(p):
    """Faces of the barycentric subdivision of the order complex, which
    `verify dictionary` takes the homology of: a k-face is the last face
    of Fubini(k+1) chains of faces.

    Order complexes grow factorially with chain length; posets with a
    chain of more than 5 elements are left out altogether, as in the
    acceptance suite (see FOUND in CHANGES.md).
    """
    chains = ref.poset_chains(p.elements, p.cover_pairs)
    if max(len(c) for c in chains) > 5:
        return -1
    return sum(n * FUBINI[k + 1] for k, n in enumerate(ref.f_vector(chains)))


def _banded_draw(rng, draw, cost, lo, hi, tries=5000):
    """Draw until the cost proxy lies in lo..hi, so that a fixture costs
    about the same on every seed."""
    for _ in range(tries):
        obj = draw(rng)
        if lo <= cost(obj) <= hi:
            return obj
    raise RuntimeError(f"no draw with cost {lo}..{hi} in {tries} tries")


def _relation_faces(r):
    return sum(len(ref.poset_chains(p.elements, p.cover_pairs)) for p in (r.source, r.target))


def _cover_faces(c):
    return len(ref.poset_chains(c.base.elements, c.base.cover_pairs))


def _annulus_cover(n, k):
    """Annulus of n segments, covered by two strips meeting in two
    disjoint edges: quasi-good, not good."""
    def tri(i):
        a0, a1, b0, b1 = f"a{i % n}", f"a{(i + 1) % n}", f"b{i % n}", f"b{(i + 1) % n}"
        return [[a0, b0, b1], [a0, a1, b1]]

    first = [t for i in range(k) for t in tri(i)]
    second = [t for i in range(k, n) for t in tri(i)]
    return {"complex": {"facets": first + second}, "parts": {"A": first, "B": second}}


def _polygon_cover(n, k):
    """n-gon covered by two arcs meeting in their two end points."""
    edges = [[f"v{i}", f"v{(i + 1) % n}"] for i in range(n)]
    return {"complex": {"facets": edges}, "parts": {"A": edges[:k], "B": edges[k:]}}


def certify_batch(rng):
    """One directory of fixture files: (file stem, kind, theorem, expected, params, data)."""
    out = []

    def add(stem, kind, theorem, data, expected="Certified", params=None):
        out.append((f"f{len(out):02d}-{stem}", kind, theorem, expected, params or {}, data))

    def relation(lo, hi):
        return _relation_json(_banded_draw(
            rng, lambda r: fx.beat_retraction_relation(r, r.randint(7, 10)), _relation_faces, lo, hi))

    def cover(draw, lo, hi):
        return _cover_json(_banded_draw(rng, draw, _cover_faces, lo, hi))

    def dictionary_poset(draw, lo, hi):
        return _poset_json(_banded_draw(rng, draw, _dictionary_cost, lo, hi))

    add("beat-relation-a", "relation", "thm-a", relation(130, 140))
    add("beat-relation-b", "relation", "thm-a", relation(230, 250))
    refutation = fx.REGISTRY["thm-a-refutation"]
    add("refutation", "relation", "thm-a", _relation_json(refutation.build()), refutation.expected_status)
    source, target, f = fx.random_monotone_map(rng, 7, 6)
    add("monotone-map", "monotone-map", "prop-2.5",
        {"source": _poset_json(source), "target": _poset_json(target), "map": dict(sorted(f.items()))})
    add("homology-relation", "relation", "prop-homology", relation(110, 120), params={"degree": 1})
    add("good-cover", "poset-cover", "nerve-good", cover(lambda r: fx.random_good_cover(r, 10), 25, 30))
    add("x0-cover", "poset-cover", "nerve-x0", cover(lambda r: fx.random_good_cover(r, 10), 25, 30))
    add("quasi-good-cover", "poset-cover", "nerve-quasigood",
        cover(lambda r: fx.random_quasi_good_cover(r, 10), 20, 30))
    add("polygon-cover", "complex-cover", "cor-completion", _polygon_cover(10, 5))
    add("annulus-cover", "complex-cover", "cor-completion", _annulus_cover(6, 3))
    add("poset", "poset", "dictionary",
        dictionary_poset(lambda r: fx.random_poset(r, 7, r.uniform(0.2, 0.4)), 150, 250))
    add("dismantlable", "poset", "dictionary",
        dictionary_poset(lambda r: fx.random_dismantlable_poset(r, 8), 250, 350))
    for i in range(2):
        add(f"complex-{i}", "complex", "dictionary", {"facets": [list(f) for f in fx.random_complex(rng, 7).facets]})
    return out


class CertifySubject(Subject):
    """One in-process `finitetopo verify --batch <dir>` over a fresh directory."""

    def __init__(self, name, files, workdir):
        self.name = name
        self.files = files
        self.workdir = workdir
        self.size = {
            "faces": sum(_fixture_faces(kind, data) for _, kind, _, _, _, data in files),
            "points": sum(_fixture_points(kind, data) for _, kind, _, _, _, data in files),
            "statements": len(files),
        }

    def make(self, tag):
        directory = os.path.join(self.workdir, tag + self.name)
        os.makedirs(directory)
        for stem, kind, theorem, expected, params, data in self.files:
            # each file gets its own tag as well: the batch runs on a thread
            # pool, so equal objects in two files would make cache hits
            # depend on thread timing
            file_tag = f"{tag}{stem[:3]}_"
            payload = {"kind": kind, "name": stem, "description": "perfbench certify-stream", "theorem": theorem,
                       "expected_status": expected, "params": params, "data": _tag_data(kind, data, file_tag)}
            with open(os.path.join(directory, stem + ".json"), "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        return directory

    @staticmethod
    def run(directory):
        return cli.main(["verify", "--batch", directory, "--out", directory + ".out.json"])

    @staticmethod
    def finish(directory, code):
        with open(directory + ".out.json", encoding="utf-8") as fh:
            report = json.load(fh)
        shutil.rmtree(directory)
        os.remove(directory + ".out.json")
        return code, report

    @staticmethod
    def normalize(out, tag):
        code, report = out
        report = dict(report)
        report.pop("timing", None)
        return code, json.dumps(report, sort_keys=True).replace(tag, "")

    def check(self, out, tag):
        code, report = out
        problems = []
        if code != 0 or report.get("status") != "Certified":
            problems.append(f"batch status {report.get('status')} with exit code {code}")
        if "replay_failures" in json.dumps(report):
            problems.append("a report carries replay_failures")
        entries = {e["file"]: e for e in report.get("detail", {}).get("fixtures", [])}
        for stem, kind, theorem, expected, params, data in self.files:
            entry = entries.get(stem + ".json")
            if entry is None or entry.get("status") != expected:
                problems.append(f"{stem}: status {entry and entry.get('status')}, expected {expected}")
                continue
            if entry["status"] == "Certified":
                problems.extend(f"{stem}: {p}" for p in _euler_problems(kind, theorem, data))
        return problems


def _fixture_faces(kind, data):
    if kind == "poset":
        return len(ref.poset_chains(data["elements"], data["relations"]))
    if kind == "complex":
        return len(ref.complex_faces(data["facets"]))
    if kind in ("relation", "monotone-map"):
        return _fixture_faces("poset", data["source"]) + _fixture_faces("poset", data["target"])
    if kind == "poset-cover":
        return _fixture_faces("poset", data["poset"])
    return _fixture_faces("complex", data["complex"])


def _fixture_points(kind, data):
    if kind == "poset":
        return len(data["elements"])
    if kind == "complex":
        return len({v for f in data["facets"] for v in f})
    if kind in ("relation", "monotone-map"):
        return len(data["source"]["elements"]) + len(data["target"]["elements"])
    if kind == "poset-cover":
        return len(data["poset"]["elements"])
    return _fixture_points("complex", data["complex"])


def _euler_problems(kind, theorem, data):
    """A certified statement is a homotopy equivalence, so both of its sides
    have one Euler characteristic; both are counted here from the input."""
    if theorem == "thm-a":
        a = ref.poset_euler(data["source"]["elements"], data["source"]["relations"])
        b = ref.poset_euler(data["target"]["elements"], data["target"]["relations"])
        return [] if a == b else [f"Euler characteristic {a} on the source, {b} on the target"]
    if theorem in ("nerve-good", "nerve-x0", "nerve-quasigood"):
        elements, relations = data["poset"]["elements"], data["poset"]["relations"]
        base = ref.poset_euler(elements, relations)
        parts = {n: frozenset(m) for n, m in data["parts"].items()}
        if theorem == "nerve-quasigood":
            above = ref.strict_up_sets(elements, relations)
            side = ref.completion_euler(parts, lambda members: ref.comparability_components(members, above))
        else:
            # every intersection of a good cover is trivial, so the trivial
            # subnerve of nerve-x0 is the whole nerve
            side = ref.nerve_euler(parts)
        return [] if base == side else [f"Euler characteristic {base} on the base, {side} on the nerve side"]
    if theorem == "cor-completion":
        base = ref.euler(ref.complex_faces(data["complex"]["facets"]))
        parts = {n: frozenset(ref.complex_faces(fs)) for n, fs in data["parts"].items()}
        side = ref.completion_euler(parts, ref.face_set_components)
        return [] if base == side else [f"Euler characteristic {base} on the base, {side} on the completion"]
    return []


def certify_stream(seed, workdir, batches=6):
    """Six directories, so that the run's figures average over six draws of
    every seeded fixture; with three, the draws of one seed moved
    statements_per_s by as much as the machine's noise did."""
    rng = random.Random(seed)
    return [CertifySubject(f"batch{i}", certify_batch(rng), workdir) for i in range(batches)]


# -- mapper-clouds ----------------------------------------------------------------

# (sample, points, intervals, overlap, epsilon).  Epsilon exceeds the
# largest gap between neighbouring samples (jitter included) and stays
# below the distance between the two arcs a part cuts from a loop, so
# each loop stays visible.  Overlap above 0.5 makes triple
# intersections, hence 2-cells.
MAPPER_SUBJECTS = (
    ("circle", 300, 5, 0.3, 0.15),
    ("figure-eight", 400, 8, 0.3, 0.15),
    ("circle", 1000, 4, 0.6, 0.08),
    ("figure-eight", 1000, 8, 0.6, 0.08),
    ("figure-eight", 1500, 8, 0.3, 0.08),
    ("circle", 2000, 8, 0.3, 0.06),
    ("figure-eight", 3000, 10, 0.3, 0.06),
    ("circle", 4000, 8, 0.3, 0.06),
)


class MapperSubject(Subject):
    """mapper_completion() of one point cloud, filtered by x."""

    def __init__(self, sample, n, intervals, overlap, epsilon, sample_seed):
        self.name = f"{sample}-{n}"
        draw = ft.circle_sample if sample == "circle" else ft.figure_eight_sample
        cloud = draw(n, seed=sample_seed)
        self.ids = list(cloud.ids)
        self.coords = [cloud.coord(i) for i in self.ids]
        self.loops = 1 if sample == "circle" else 2
        self.intervals, self.overlap, self.epsilon = intervals, overlap, epsilon
        self.size = {"faces": None, "points": n, "statements": 1}

    def make(self, tag):
        return ft.PointCloud([tag + i for i in self.ids], self.coords)

    def run(self, cloud):
        return ft.mapper_completion(cloud, ft.parse_filter("x"), ft.IntervalCover(self.intervals, self.overlap), self.epsilon)

    @staticmethod
    def normalize(out, tag):
        return json.dumps(out.to_json_dict(), sort_keys=True).replace(tag, "")

    def check(self, out, tag):
        problems = []
        coords = {tag + i: c for i, c in zip(self.ids, self.coords)}
        if len(out.intervals) != self.intervals:
            problems.append(f"{len(out.intervals)} intervals, asked for {self.intervals}")
        for (name, members), (lo, hi) in zip(sorted(out.parts.items()), out.intervals):
            inside = {p for p, c in coords.items() if lo <= c[0] <= hi}
            if set(members) != inside:
                problems.append(f"part {name} is not the pull-back of [{lo}, {hi}]")
        cells = {}
        for label, cell in out.completion.cells.items():
            cells.setdefault(label.split("|")[0], set()).add(frozenset(cell.members))
        counted = []
        for family, common in ref.intersecting_families({n: frozenset(m) for n, m in out.parts.items()}):
            mine = ref.epsilon_components({p: coords[p] for p in common}, self.epsilon)
            if mine != cells.get(",".join(family), set()):
                problems.append(f"components of {','.join(family)} differ from union-find within epsilon")
            while len(counted) < len(family):
                counted.append(0)
            counted[len(family) - 1] += len(mine)
        if list(out.complex.f_vector()) != counted:
            problems.append(f"completion f-vector {out.complex.f_vector()}, components give {counted}")
        # cells of the completion, counted here, are this workload's faces
        self.size["faces"] = sum(counted)
        h = out.completion_homology
        if ref.trimmed(h.betti) != [1, self.loops] or any(h.torsion):
            problems.append(f"completion homology {h.describe()}, expected Betti numbers (1, {self.loops})")
        if out.nerve_homology.degree(1) != (0, ()):
            problems.append(f"plain interval nerve has {out.nerve_homology.describe()}, expected H1 = 0")
        return problems


def mapper_clouds(seed, workdir):
    rng = random.Random(seed)
    return [MapperSubject(*spec, sample_seed=rng.randrange(1 << 30)) for spec in MAPPER_SUBJECTS]


WORKLOADS = {
    "homology-ladder": homology_ladder,
    "certify-stream": certify_stream,
    "mapper-clouds": mapper_clouds,
}
