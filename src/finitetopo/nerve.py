"""Covers, nerves, and completions of nerves.

A cover of a poset is an indexed family of down-sets whose union is the
whole poset.  The nerve records which subfamilies intersect; the completion
refines it with one cell per connected component of each intersection, and
is always the face poset of a regular CW complex whose cells are simplices.

Every nerve statement reads one table of the cover, built once with the
nerve (`PosetCover.intersections()`): the label of each intersecting
subfamily J, its sorted part names joined by "," (the name `face_poset`
gives the nerve cell), mapped to the intersection U_J.  The table is
ordered by |J|, then lexicographically.

Theorem verification goes through the relation cylinder: each nerve
statement names a relation between the covered poset and a nerve-derived
poset, and the generalized equivalence checker does the rest.

Part names may not contain "," or "|"; those separators build the derived
identifiers (the label of an index set J, and "J|c" for the component of
U_J whose least element is c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Union

from .certificates import Oracle, StatementReport, Status, TrivialityVerdict
from .complexes import (
    RegularCWComplex,
    SimplicialComplex,
    cell_id,
    cell_vertices,
    cw_from_face_poset,
    face_poset,
)
from .cylinder import EquivalenceReport, Relation, verify_equivalence
from .errors import InputError
from .homology import HomologyProfile, certified_homology
from .poset import ElementSet, Poset

ComponentSplitter = Callable[[ElementSet], list[ElementSet]]


def component_label(jid: str, comp: ElementSet) -> str:
    return jid + "|" + comp.poset.elements[(comp.mask & -comp.mask).bit_length() - 1]


def intersecting_families(named: Mapping[str, Any]) -> dict[tuple[str, ...], Any]:
    """Sorted name tuples whose values have a non-empty common "&", each
    mapped to that common value.

    Values may be int masks or frozensets.  Families are grown layer by
    layer: one is tried only when the family without its largest name
    already intersects.  They come out by size, lexicographically within
    a size.
    """
    names = sorted(n for n, v in named.items() if v)
    position = {n: i for i, n in enumerate(names)}
    out: dict[tuple[str, ...], Any] = {}
    layer = [((n,), named[n]) for n in names]
    while layer:
        grown = []
        for tup, common in layer:
            out[tup] = common
            for n2 in names[position[tup[-1]] + 1 :]:
                c2 = common & named[n2]
                if c2:
                    grown.append((tup + (n2,), c2))
        layer = grown
    return out


def _check_part_name(name: str) -> None:
    if not name or "," in name or "|" in name:
        raise InputError(f"cover part name {name!r} is empty or contains a reserved character (one of ',' '|')")


class PosetCover:
    """Named down-sets covering a poset, with its table of intersections.

    The table, `intersections()`, is built once: the label "a,b" of each
    intersecting subfamily -> its intersection, by the number of parts,
    then lexicographically.  A part that is not a down-set is refused.
    """

    def __init__(self, base: Poset, parts: dict):
        self.base = base
        named: dict[str, ElementSet] = {}
        for name in sorted(parts):
            _check_part_name(name)
            sub = parts[name] if isinstance(parts[name], ElementSet) else base.subset(parts[name])
            if sub.poset is not base and sub.poset != base:
                raise InputError(f"cover part {name!r} belongs to a different poset")
            if not sub.is_down_set():
                raise InputError(f"cover part {name!r} is not a down-set")
            named[name] = sub
        missing = base.full_mask()
        for sub in named.values():
            missing &= ~sub.mask
        if missing:
            raise InputError(f"cover misses elements: {', '.join(base._names(missing)[:6])}")
        self.parts = named
        self._intersections: Optional[dict[str, ElementSet]] = None
        self._nerve: Optional[SimplicialComplex] = None
        self._nerve_poset: Optional[Poset] = None

    def intersections(self) -> dict[str, ElementSet]:
        if self._intersections is None:
            families = intersecting_families({n: sub.mask for n, sub in self.parts.items()})
            self._intersections = {cell_id(J): ElementSet(self.base, m) for J, m in families.items()}
        return self._intersections

    def nerve(self) -> SimplicialComplex:
        if self._nerve is None:
            self._nerve = SimplicialComplex(map(cell_vertices, self.intersections()))
        return self._nerve

    def nerve_poset(self) -> Poset:
        if self._nerve_poset is None:
            self._nerve_poset = face_poset(self.nerve())
        return self._nerve_poset


class ComplexCover:
    """Subcomplexes covering a simplicial complex."""

    def __init__(self, base: SimplicialComplex, parts: dict):
        self.base = base
        named: dict[str, SimplicialComplex] = {}
        for name in sorted(parts):
            _check_part_name(name)
            part = parts[name]
            if not isinstance(part, SimplicialComplex):
                part = SimplicialComplex(part)
            if not part.is_subcomplex_of(base):
                raise InputError(f"cover part {name!r} is not a subcomplex of the base")
            named[name] = part
        union: set[tuple[str, ...]] = set()
        for part in named.values():
            union |= part.faces
        if union != set(base.faces):
            missing = sorted(set(base.faces) - union)
            raise InputError(f"cover misses simplices: {missing[:4]}")
        self.parts = named
        self._poset_cover: Optional[PosetCover] = None

    def poset_cover(self) -> PosetCover:
        """The induced cover of the base's face poset by the parts' cell sets."""
        if self._poset_cover is None:
            fp = face_poset(self.base)
            self._poset_cover = PosetCover(
                fp, {name: {cell_id(s) for s in part.faces} for name, part in self.parts.items()}
            )
        return self._poset_cover

    def nerve(self) -> SimplicialComplex:
        return self.poset_cover().nerve()


AnyCover = Union[PosetCover, ComplexCover]


def _as_poset_cover(c: AnyCover) -> PosetCover:
    return c.poset_cover() if isinstance(c, ComplexCover) else c


@dataclass(eq=False)
class CoverClassification:
    """Triviality verdicts for every non-empty intersection and its components.

    status: "good" when every intersection is trivial, "quasi-good" when
    every component of every intersection is trivial, "neither" when some
    component is certified non-trivial, "unknown" otherwise.
    """

    status: str
    whole: dict[str, TrivialityVerdict]
    components: dict[str, TrivialityVerdict]

    @property
    def is_good(self) -> bool:
        return self.status == "good"

    @property
    def failing(self) -> list[str]:
        return sorted(k for k, v in self.components.items() if v.is_nontrivial)

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "intersections": {k: v.to_json_dict() for k, v in sorted(self.whole.items())},
            "components": {k: v.to_json_dict() for k, v in sorted(self.components.items())},
        }


def classify_cover(c: AnyCover, ask: Oracle) -> CoverClassification:
    """Every intersection and each of its components, decided through the
    table `ask`; a connected intersection is its one component."""
    c = _as_poset_cover(c)
    whole, comps = {}, {}
    for jid, w in c.intersections().items():
        whole[jid] = ask(w)
        comps.update((component_label(jid, piece), ask(piece)) for piece in w.components())
    if any(v.is_nontrivial for v in comps.values()):
        status = "neither"
    elif any(v.is_unknown for v in comps.values()):
        status = "unknown"
    elif len(comps) == len(whole):  # every intersection has one component
        status = "good"
    else:
        status = "quasi-good"
    return CoverClassification(status, whole, comps)


@dataclass(eq=False)
class TrivialSubnerve:
    """The subposet of the nerve poset spanned by the index sets with
    trivial intersection, and the index sets whose verdict is unknown."""

    cover: PosetCover
    poset: Poset
    undecided: tuple[str, ...]

    @property
    def decided(self) -> bool:
        return not self.undecided


def trivial_subnerve(c: PosetCover, classification: CoverClassification) -> TrivialSubnerve:
    keep = c.nerve_poset().induced(jid for jid, v in classification.whole.items() if v.is_trivial)
    undecided = tuple(sorted(jid for jid, v in classification.whole.items() if v.is_unknown))
    return TrivialSubnerve(c, keep, undecided)


def point_subnerve(sub: TrivialSubnerve, x: str) -> ElementSet:
    """Index sets in the trivial subnerve whose intersection contains x."""
    if x not in sub.cover.base:
        raise InputError(f"unknown element {x!r}")
    bit = 1 << sub.cover.base._lookup(x)
    table = sub.cover.intersections()
    out = ElementSet(sub.poset, sum(
        1 << i for i, jid in enumerate(sub.poset.elements) if table[jid].mask & bit))
    if not out.is_down_set():
        raise AssertionError(f"membership family of {x!r} is not open in the trivial subnerve")
    return out


@dataclass(eq=False)
class CompletionPoset:
    """Poset of pairs (index set J, component of U_J), inclusion both ways.

    Identifiers are "J|c" with J the label of the index set and c the
    least element of the component.  Grading by |J|-1 presents a regular
    CW complex whose cells are simplices.
    """

    poset: Poset
    dim: dict[str, int]
    cells: dict[str, ElementSet]

    def as_cw(self) -> RegularCWComplex:
        return cw_from_face_poset(self.poset, self.dim)


def completion_poset(c: AnyCover, components: Optional[ComponentSplitter] = None) -> CompletionPoset:
    """Refine the nerve by splitting every intersection into components.

    The components callable defaults to order-connectivity; the point-cloud
    pipeline substitutes metric components.  Construction re-checks, for
    every cell and every subfamily of its index set, that exactly one
    component one level up contains it.
    """
    c = _as_poset_cover(c)
    if components is None:
        components = lambda s: s.components()
    split = {jid: components(w) for jid, w in c.intersections().items()}
    cells: dict[str, ElementSet] = {}
    dim: dict[str, int] = {}
    relations: list[tuple[str, str]] = []
    for jid, pieces in split.items():
        names = cell_vertices(jid)
        k = len(names)
        # each proper subfamily, picked by the bits of a number, is a label
        # of the same table; those one part short are one level down
        subfamilies = [
            (cell_id(names[i] for i in range(k) if bits >> i & 1), bits.bit_count() == k - 1)
            for bits in range(1, (1 << k) - 1)
        ]
        for piece in pieces:
            lab = component_label(jid, piece)
            cells[lab] = piece
            dim[lab] = k - 1
            # the one-level containments generate the order; the claim is
            # checked for every proper subfamily
            for sub, one_level in subfamilies:
                containers = [p2 for p2 in split[sub] if piece.mask & ~p2.mask == 0]
                if len(containers) != 1:
                    raise AssertionError(f"component {lab!r} lies in {len(containers)} components of {sub!r}")
                if one_level:
                    relations.append((component_label(sub, containers[0]), lab))
    return CompletionPoset(Poset(cells.keys(), relations), dim, cells)


NERVE_VARIANTS = ("good-poset", "x-zero", "quasi-good")


@dataclass(eq=False)
class NerveTheoremReport(StatementReport):
    variant: str
    status: Status
    classification: CoverClassification
    detail: dict = field(default_factory=dict)
    equivalence: Optional[EquivalenceReport] = None
    base_homology: Optional[HomologyProfile] = None
    nerve_homology: Optional[HomologyProfile] = None
    homology_equal: Optional[bool] = None
    # the completion the quasi-good variant relates the base to
    completion: Optional[CompletionPoset] = None

    HOMOLOGY = (("base", "base_homology"), ("nerve-side", "nerve_homology"))

    def certificates(self):
        return self.equivalence.collapses("base", "nerve") if self.equivalence is not None else iter(())

    def to_json_dict(self) -> dict:
        out: dict = {
            "variant": self.variant,
            "status": self.status,
            "classification": self.classification.to_json_dict(),
        }
        if self.detail:
            out["detail"] = dict(self.detail)
        if self.equivalence is not None:
            out["equivalence"] = self.equivalence.to_json_dict()
        return {**out, **self.homology_json()}


def verify_nerve_theorem(c: AnyCover, variant: str, ask: Oracle) -> NerveTheoremReport:
    """Check one nerve statement by building its relation into the nerve side.

    good-poset: a good cover's nerve poset.  x-zero: the trivial subnerve,
    additionally requiring every element's membership family to be trivial.
    quasi-good: the completion.  Refuted means some hypothesis is certified
    non-trivial; unknown means some verdict ran out of budget.  Every
    hypothesis of the statement is decided through the one table `ask`.
    """
    if variant not in NERVE_VARIANTS:
        raise InputError(f"unknown nerve theorem variant {variant!r}; expected one of {NERVE_VARIANTS}")
    c = _as_poset_cover(c)
    classification = classify_cover(c, ask)
    comp: Optional[CompletionPoset] = None
    member_of = c.intersections()

    if variant == "good-poset":
        status = Status.of_verdicts(classification.whole.values())
        if status is not Status.CERTIFIED:
            bad = sorted(k for k, v in classification.whole.items() if v.is_nontrivial)
            return NerveTheoremReport(variant, status, classification, {"failing": bad})
        target = c.nerve_poset()
    elif variant == "x-zero":
        sub = trivial_subnerve(c, classification)
        if not sub.decided:
            return NerveTheoremReport(variant, Status.UNKNOWN, classification, {"undecided": list(sub.undecided)})
        membership_verdicts = {x: ask(point_subnerve(sub, x)) for x in c.base.elements}
        status = Status.of_verdicts(membership_verdicts.values())
        if status is not Status.CERTIFIED:
            bad = sorted(x for x, v in membership_verdicts.items() if v.is_nontrivial)
            open_q = sorted(x for x, v in membership_verdicts.items() if v.is_unknown)
            return NerveTheoremReport(
                variant, status, classification, {"failing": bad, "undecided": open_q}
            )
        target = sub.poset
    else:
        status = Status.of_verdicts(classification.components.values())
        if status is not Status.CERTIFIED:
            return NerveTheoremReport(variant, status, classification, {"failing": classification.failing})
        comp = completion_poset(c)
        target = comp.poset
        member_of = comp.cells

    # each element is related to the nerve-side cells whose set holds it
    pairs = [(x, lab) for lab in target.elements for x in member_of[lab]]
    eq = verify_equivalence(Relation.of(c.base, target.opposite(), pairs), ask)
    profiles = certified_homology("nerve theorem certified", c.base, target, eq.status is Status.CERTIFIED)
    return NerveTheoremReport(variant, eq.status, classification, {}, eq, *profiles, comp)


@dataclass(eq=False)
class CompletionCorollaryReport(StatementReport):
    status: Status
    nerve_report: NerveTheoremReport
    completion: Optional[RegularCWComplex] = None
    base_homology: Optional[HomologyProfile] = None
    completion_homology: Optional[HomologyProfile] = None
    homology_equal: Optional[bool] = None

    HOMOLOGY = (("base", "base_homology"), ("completion", "completion_homology"))

    def certificates(self):
        eq = self.nerve_report.equivalence
        return eq.collapses("base", "completion") if eq is not None else iter(())

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status, "nerve_theorem": self.nerve_report.to_json_dict()}
        if self.completion is not None:
            out["completion_f_vector"] = list(self.completion.f_vector())
        return {**out, **self.homology_json()}


def verify_corollary_completion(c: ComplexCover, ask: Oracle) -> CompletionCorollaryReport:
    """Quasi-good cover of a complex: the completion CW complex matches the base.

    Delegates the homotopy content to the quasi-good nerve check over the
    face poset, then compares homology of the original complex with the
    validated completion complex.
    """
    if not isinstance(c, ComplexCover):
        raise InputError("completion corollary expects a cover of a simplicial complex")
    inner = verify_nerve_theorem(c.poset_cover(), "quasi-good", ask)
    cw = (completion_poset(c) if inner.completion is None else inner.completion).as_cw()
    profiles = certified_homology("completion corollary certified", c.base, cw, inner.status is Status.CERTIFIED)
    return CompletionCorollaryReport(inner.status, inner, cw, *profiles)
