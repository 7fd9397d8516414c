"""Point-cloud pipeline: pull back an interval cover along a filter, split
parts into metric components, and take the completion of the nerve.

The classic output keeps one vertex per component and a simplex for each
family of components with common points (the component nerve).  The
completion instead keeps one cell per component of each intersection of
parts, which can separate features the component nerve glues together.

Components of a finite sample are defined by the epsilon-neighborhood
graph at a single user-supplied scale; no clustering heuristics.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable

from .complexes import RegularCWComplex, SimplicialComplex
from .errors import InputError
from .formats import read_text_file
from .homology import HomologyProfile, homology
from .nerve import CompletionPoset, PosetCover, completion_poset, intersecting_families
from .poset import ElementSet, Poset, bit_list


class PointCloud:
    ids: tuple[str, ...]
    coords: tuple[tuple[float, ...], ...]

    def __init__(self, ids: Iterable[str], coords: Iterable[Iterable[float]]):
        self.ids = tuple(str(i) for i in ids)
        self.coords = tuple(tuple(float(v) for v in row) for row in coords)
        if len(self.ids) != len(self.coords):
            raise InputError("point cloud needs one identifier per coordinate row")
        for pid, row in zip(self.ids, self.coords):
            if not all(map(math.isfinite, row)):
                raise InputError(f"point {pid!r} has a non-finite coordinate: {row!r}")
        if len(set(self.ids)) != len(self.ids):
            raise InputError("point identifiers must be unique")
        dims = {len(row) for row in self.coords}
        if len(dims) > 1:
            raise InputError(f"points have mixed dimensions: {sorted(dims)}")
        if self.coords and not min(dims):
            raise InputError("points need at least one coordinate")
        self._index = {i: k for k, i in enumerate(self.ids)}

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dimension(self) -> int:
        return len(self.coords[0]) if self.coords else 0

    def coord(self, point_id: str) -> tuple[float, ...]:
        if point_id not in self._index:
            raise InputError(f"unknown point {point_id!r}")
        return self.coords[self._index[point_id]]

    @classmethod
    def from_csv(cls, path: str) -> "PointCloud":
        """One point per row; a leading non-numeric field is the identifier.
        Trailing empty cells are ignored; an empty cell before a value is an
        input error."""
        ids: list[str] = []
        coords: list[list[float]] = []
        with io.StringIO(read_text_file(path), newline="") as fh:
            for row_no, row in enumerate(csv.reader(fh)):
                cells = [c.strip() for c in row]
                while cells and not cells[-1]:
                    cells.pop()
                if not cells or cells[0].startswith("#"):
                    continue
                if "" in cells:
                    raise InputError(f"{path}:{row_no + 1}: empty cell in {row!r}")
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
                    raise InputError(f"{path}:{row_no + 1}: bad coordinate in {row!r}") from exc
                if not all(map(math.isfinite, row_coords)):
                    raise InputError(f"{path}:{row_no + 1}: point {ident!r} has a non-finite coordinate in {row!r}")
                coords.append(row_coords)
                ids.append(ident)
        return cls(ids, coords)


@dataclass(frozen=True)
class FilterSpec:
    """One real value per point: a coordinate projection or eccentricity
    (greatest distance to any other point)."""

    kind: str
    axis: int = 0

    def __post_init__(self):
        if self.kind not in ("coordinate", "eccentricity"):
            raise InputError(f"unknown filter kind {self.kind!r}")
        if self.kind == "coordinate" and self.axis < 0:
            raise InputError("coordinate axis must be non-negative")

    def values(self, pc: PointCloud) -> tuple[float, ...]:
        if not len(pc):
            raise InputError("empty point cloud")
        if self.kind == "coordinate":
            if self.axis >= pc.dimension:
                raise InputError(f"axis {self.axis} out of range for {pc.dimension}-dimensional points")
            return tuple(row[self.axis] for row in pc.coords)
        values = tuple(max(math.dist(row, other) for other in pc.coords) for row in pc.coords)
        if not all(map(math.isfinite, values)):
            raise InputError("the eccentricity filter overflows to infinity on these coordinates")
        return values


_AXIS_SHORTHAND = {"x": 0, "y": 1, "z": 2}


def parse_filter(text: str) -> FilterSpec:
    t = text.strip().lower()
    if t in _AXIS_SHORTHAND:
        return FilterSpec("coordinate", _AXIS_SHORTHAND[t])
    if t in ("ecc", "eccentricity"):
        return FilterSpec("eccentricity")
    if t.startswith("coord:") or t.startswith("coordinate:"):
        try:
            return FilterSpec("coordinate", int(t.split(":", 1)[1]))
        except ValueError:
            raise InputError(f"bad filter axis in {text!r}")
    raise InputError(f"unknown filter {text!r}; expected x|y|z, coord:<axis>, or eccentricity")


@dataclass(frozen=True)
class IntervalCover:
    """Uniform cover of the filter range by n closed intervals, each
    overlapping the next in the given fraction of its length."""

    intervals: int
    overlap: float

    def __post_init__(self):
        if self.intervals < 1:
            raise InputError("interval count must be at least 1")
        if not 0.0 <= self.overlap < 1.0:
            raise InputError("overlap fraction must lie in [0, 1)")

    def of_range(self, lo: float, hi: float) -> list[tuple[float, float]]:
        if hi < lo:
            raise InputError("empty filter range")
        if hi == lo:
            warnings.warn("degenerate filter range; using a single interval")
            return [(lo, hi)]
        if not math.isfinite(hi - lo):
            raise InputError(f"filter range [{lo!r}, {hi!r}] is too wide: its length overflows to infinity")
        n, g = self.intervals, self.overlap
        length = (hi - lo) / (n - g * (n - 1))
        step = length * (1.0 - g)
        spans = [(lo + k * step, lo + k * step + length) for k in range(n)]
        # the last span ends at hi exactly; rounding must not drop the max
        spans[-1] = (spans[-1][0], hi)
        return spans


def _part_name(k: int, n: int) -> str:
    return f"i{k:0{len(str(n - 1))}d}"


def _spans(pc: PointCloud, ic: IntervalCover, values: tuple[float, ...]) -> list[tuple[float, float]]:
    """The intervals over the filter range; more intervals than points is
    refused before any is built."""
    if ic.intervals > len(pc):
        raise InputError(f"{ic.intervals} intervals for {len(pc)} points; ask for at most one interval per point")
    return ic.of_range(min(values), max(values))


def pullback_cover(values: tuple[float, ...], spans: list[tuple[float, float]]) -> dict[str, list[int]]:
    """The points whose filter value v has ``a <= v <= b``, for each part's
    span (a, b): their positions in the cloud, ascending.

    The positions are sorted by value once, and each span's ends are
    bisected in that order, with the same comparisons.  A value is never
    NaN; a span with a NaN end holds nothing, as the comparisons say."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ordered = [values[i] for i in order]
    return {
        _part_name(k, len(spans)): sorted(order[bisect_left(ordered, a):bisect_right(ordered, b)]) if a <= b else []
        for k, (a, b) in enumerate(spans)
    }


class EpsilonGrid:
    """The points of a cloud in a uniform grid for one epsilon, indexed by
    their bit in ``poset``, a poset on the cloud's identifiers: each
    point's coordinates and the number of its cell.  The cell side is
    taken from the largest |coordinate| of the whole cloud; see
    `epsilon_components`.

    ``keys`` holds the key of each occupied cell, by number.  ``near``
    lists for each occupied cell the occupied cells (itself included)
    whose key differs from its own by at most one in every coordinate,
    looked up once among the 3^d keys around it.  It is None when there
    are fewer occupied cells than such keys, as in high dimensions; then
    each subset tests its own cells pairwise."""

    def __init__(self, pc: PointCloud, poset: Poset, epsilon: float):
        if not (math.isfinite(epsilon) and epsilon > 0):
            raise InputError(f"epsilon must be a positive finite number, got {epsilon!r}")
        largest = max(map(abs, itertools.chain.from_iterable(pc.coords)), default=0.0)
        side = epsilon * (1 + 1e-9) + 4 * (math.ulp(largest) + math.ulp(epsilon))
        self.poset, self.epsilon = poset, epsilon
        try:
            self.coords = [pc.coords[pc._index[e]] for e in poset.elements]
        except KeyError as exc:
            raise InputError(f"unknown point {exc.args[0]!r}") from None
        # floor(v / side) for every coordinate, a column at a time
        floors = [map(math.floor, map(operator.truediv, col, itertools.repeat(side))) for col in zip(*self.coords)]
        number: dict[tuple[int, ...], int] = {}
        self.cell = [number.setdefault(key, len(number)) for key in zip(*floors)]
        self.keys = list(number)
        self.near: list[list[int]] | None = None
        if 3**pc.dimension <= len(number):
            self.near = [
                [number[n] for n in itertools.product(*[(k - 1, k, k + 1) for k in key]) if n in number]
                for key in self.keys
            ]


def epsilon_components(grid: EpsilonGrid, sub: ElementSet) -> list[ElementSet]:
    """Components of the epsilon-neighborhood graph on the points of sub, in
    which two points are linked when ``math.dist(a, b) <= epsilon``; sorted
    by least member.

    The points lie in the grid's cells, of side

        side = epsilon * (1 + 1e-9) + 4 * (ulp(m) + ulp(epsilon)),

    where m is the largest |coordinate| of the whole cloud, and a pair is
    tested only when its cells differ by at most one in every coordinate.
    The grid only prunes: every pair it keeps is decided by ``math.dist``.

    Pruning is sound for all finite coordinates, and for every subset of
    the cloud.  If two cells differ by two or more in some coordinate, the
    two points differ there by more than ``side`` less the rounding of
    ``v / side`` for each of them, which is at most ulp(m) per point; by
    the choice of ``side`` that difference exceeds the float after epsilon
    (the 1e-9 term absorbs the rounding of ``side`` itself).  A faithfully
    rounded ``math.dist`` (CPython's is) is never below the absolute
    difference in any one coordinate rounded down, so such a pair fails
    the predicate.  The bound holds for any m at least the largest
    |coordinate| of the pair, so the side taken once for the cloud is as
    sound for a subset as the subset's own: it only prunes less.  A fixed
    margin, as in ``side = epsilon * (1 + 1e-9)``, covers that rounding
    only while |v| / epsilon stays below about 4e6.

    The search runs from each least unseen point.  Cells hold only unseen
    points, so each pop tests only the unseen points of its neighbouring
    cells, and skips those cells it has emptied.  A component's mask is
    built once, when its queue is empty.
    """
    if sub.poset is not grid.poset:
        raise InputError("the element set is not a subset of the grid's points")
    coords, cell_of, epsilon = grid.coords, grid.cell, grid.epsilon
    members = bit_list(sub.mask)
    cells: dict[int, dict[int, tuple[float, ...]]] = {}
    for i in members:
        cells.setdefault(cell_of[i], {})[i] = coords[i]
    if not cells:
        return []
    if grid.near is not None:
        near = {c: [cells[n] for n in grid.near[c] if n in cells] for c in cells}
    else:
        keys = grid.keys
        near = {c: [cells[n] for n in cells if all(abs(x - y) <= 1 for x, y in zip(keys[c], keys[n]))] for c in cells}
    out: list[ElementSet] = []
    for start in members:
        if start not in cells[cell_of[start]]:
            continue
        del cells[cell_of[start]][start]
        found = [start]
        queue = [start]
        while queue:
            cur = queue.pop()
            a = coords[cur]
            for cell in near[cell_of[cur]]:
                if cell:
                    hits = [q for q, b in cell.items() if math.dist(a, b) <= epsilon]
                    for q in hits:
                        del cell[q]
                    queue += hits
                    found += hits
        # every lower bit was seen before start, so start is the least member
        comp = 0
        for q in found:
            comp |= 1 << q
        out.append(ElementSet(grid.poset, comp))
    return out


@dataclass(eq=False)
class MapperResult:
    cloud: PointCloud
    intervals: list[tuple[float, float]]
    parts: dict[str, frozenset[str]]
    epsilon: float
    completion: CompletionPoset
    complex: RegularCWComplex
    completion_homology: HomologyProfile
    nerve: SimplicialComplex
    nerve_homology: HomologyProfile
    component_nerve: SimplicialComplex
    component_nerve_homology: HomologyProfile

    def to_json_dict(self) -> dict:
        return {
            "points": len(self.cloud),
            "epsilon": self.epsilon,
            "intervals": [list(span) for span in self.intervals],
            "parts": {k: sorted(v) for k, v in sorted(self.parts.items())},
            "completion_f_vector": list(self.complex.f_vector()),
            "completion_homology": self.completion_homology.describe(),
            "nerve_facets": [list(f) for f in self.nerve.facets],
            "nerve_homology": self.nerve_homology.describe(),
            "component_nerve_facets": [list(f) for f in self.component_nerve.facets],
            "component_nerve_homology": self.component_nerve_homology.describe(),
        }


def mapper_completion(
    pc: PointCloud, f: FilterSpec, ic: IntervalCover, epsilon: float
) -> MapperResult:
    """Run the pipeline and return the completion next to both classic nerves.

    The sample is treated as a discrete poset, so every part is open and
    the nerve machinery applies unchanged, with metric components standing
    in for order components.
    """
    values = f.values(pc)
    spans = _spans(pc, ic, values)
    positions = pullback_cover(values, spans)
    discrete = Poset(pc.ids, ())
    grid = EpsilonGrid(pc, discrete, epsilon)  # one grid for the run
    cover = PosetCover(discrete, {name: discrete.subset(pc.ids[k] for k in ks) for name, ks in positions.items()})
    comp = completion_poset(cover, lambda sub: epsilon_components(grid, sub))
    cw = comp.as_cw()
    plain = cover.nerve()
    # the completion's 0-cells are the parts' components, labelled "name|least point"
    vertices = {lab: cell.mask for lab, cell in comp.cells.items() if comp.dim[lab] == 0}
    comp_nerve = SimplicialComplex(intersecting_families(vertices))
    return MapperResult(
        pc,
        spans,
        {name: frozenset(pc.ids[k] for k in ks) for name, ks in positions.items()},
        epsilon,
        comp,
        cw,
        homology(cw),
        plain,
        homology(plain),
        comp_nerve,
        homology(comp_nerve),
    )


def circle_sample(n: int = 60, seed: int = 7, radius: float = 1.0) -> PointCloud:
    """Jittered points around a circle; adjacent spacing stays below 0.15
    for the default 60 points, so epsilon = 0.15 links neighbors only."""
    import random

    rng = random.Random(seed)
    ids = []
    coords = []
    for k in range(n):
        angle = 2.0 * math.pi * k / n + rng.uniform(-0.01, 0.01)
        r = radius + rng.uniform(-0.02, 0.02)
        ids.append(f"p{k:02d}")
        coords.append((r * math.cos(angle), r * math.sin(angle)))
    return PointCloud(ids, coords)


def figure_eight_sample(n: int = 80, seed: int = 11) -> PointCloud:
    """Jittered points along two unit circles meeting at the origin."""
    import random

    rng = random.Random(seed)
    ids = []
    coords = []
    half = n // 2
    for k in range(half):
        angle = 2.0 * math.pi * k / half + rng.uniform(-0.008, 0.008)
        coords.append((-1.0 + math.cos(angle), math.sin(angle)))
        ids.append(f"l{k:02d}")
    for k in range(n - half):
        angle = math.pi + 2.0 * math.pi * k / (n - half) + rng.uniform(-0.008, 0.008)
        coords.append((1.0 + math.cos(angle), math.sin(angle)))
        ids.append(f"r{k:02d}")
    return PointCloud(ids, coords)
