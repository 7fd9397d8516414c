"""The cylinder of a relation between two finite posets.

For a relation R from X to Y, the cylinder is X disjoint-union Y with both
orders kept and x < y whenever some x' above x is related to some y' below
y.  Identifiers are namespaced "X:" and "Y:".  A monotone map gives the
non-Hausdorff mapping cylinder, which retracts onto its target by up-beat
deletions.

Both retractions, onto X (Prop. 2.4) and dually onto Y (Prop. 2.5), are
one routine applied to either side: one check certifies the local data of
every element of the other factor, and one gamma-collapse loop deletes
those elements.  When both sides certify, the factors have the same weak
homotopy type and equal homology.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .certificates import Oracle, ReductionCertificate, ReductionStep, StatementReport, Status, TrivialityVerdict
from .errors import InputError, NotCertified, ValidationError
from .homology import HomologyProfile, certified_homology, homology
from .poset import ElementSet, Poset, reach_of

SOURCE_PREFIX = "X:"
TARGET_PREFIX = "Y:"


@dataclass(frozen=True)
class Relation:
    """A relation from source to target, with the local data of Theorem A
    of every element, built once, from the pairs, when the relation is
    made.  Bit j of _target_data[i] says that target element j lies in
    the closure of the image of source element i's up-set; bit i of
    _source_data[j] says that source element i lies in the open hull of
    the preimage of target element j's down-set.

    Image, preimage, closure and open hull preserve unions, and an up-set
    is its element with the up-sets of its upper covers.  So, in reverse
    linear-extension order, each element's target data is the closure of
    its own image with the target data of its upper covers, and dually,
    in linear-extension order, the source data: one pass over each factor."""

    source: Poset
    target: Poset
    pairs: frozenset[tuple[str, str]]
    _source_data: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _target_data: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        source, target = self.source, self.target
        image = [0] * len(source)
        preimage = [0] * len(target)
        for x, y in self.pairs:
            i = source._index.get(x)
            if i is None:
                raise InputError(f"relation pair mentions unknown source element {x!r}")
            j = target._index.get(y)
            if j is None:
                raise InputError(f"relation pair mentions unknown target element {y!r}")
            image[i] |= 1 << j
            preimage[j] |= 1 << i
        # in place: each entry turns into its element's local datum after its covers' entries
        for i in reversed(source._order):
            image[i] = reach_of(target._up, image[i]) | reach_of(image, source._succ_masks[i])
        for j in target._order:
            preimage[j] = reach_of(source._down, preimage[j]) | reach_of(preimage, target._pred_masks[j])
        object.__setattr__(self, "_target_data", tuple(image))
        object.__setattr__(self, "_source_data", tuple(preimage))

    @classmethod
    def of(cls, source: Poset, target: Poset, pairs) -> "Relation":
        return cls(source, target, frozenset((x, y) for x, y in pairs))

    @classmethod
    def from_monotone_map(cls, source: Poset, target: Poset, f: dict[str, str]) -> "Relation":
        if set(f) != set(source.elements):
            raise InputError("map must be defined on exactly the source elements")
        for a, b in source.cover_pairs:
            if not target.le(f[a], f[b]):
                raise InputError(f"map is not monotone: {a!r} < {b!r} but f({a!r}) is not below f({b!r})")
        return cls(source, target, frozenset((x, f[x]) for x in source.elements))


def source_name(x: str) -> str:
    return SOURCE_PREFIX + x


def target_name(y: str) -> str:
    return TARGET_PREFIX + y


@dataclass(frozen=True)
class CylinderPoset:
    """The two factors side by side: a prefix keeps each factor's identifier
    order and "X:" sorts before "Y:", so source element i is bit i and target
    element j is bit |X|+j.  That layout is checked when the cylinder is made."""

    poset: Poset
    relation: Relation
    retraction_certificate: Optional[ReductionCertificate] = None

    def __post_init__(self):
        r = self.relation
        layout = tuple(map(source_name, r.source.elements)) + tuple(map(target_name, r.target.elements))
        if self.poset.elements != layout:
            raise ValidationError("cylinder elements are not the source's then the target's, in identifier order")

    @property
    def source_part(self) -> ElementSet:
        return ElementSet(self.poset, (1 << len(self.relation.source)) - 1)

    @property
    def target_part(self) -> ElementSet:
        return ElementSet(self.poset, self.poset.full_mask() ^ self.source_part.mask)


def build_cylinder(r: Relation) -> CylinderPoset:
    elements = [source_name(x) for x in r.source.elements] + [target_name(y) for y in r.target.elements]
    relations = (
        [(source_name(a), source_name(b)) for a, b in r.source.cover_pairs]
        + [(target_name(a), target_name(b)) for a, b in r.target.cover_pairs]
        + [(source_name(x), target_name(y)) for x, y in r.pairs]
    )
    return CylinderPoset(Poset(elements, relations), r)


def mapping_cylinder(source: Poset, target: Poset, f: dict[str, str]) -> CylinderPoset:
    """Cylinder of a monotone map, with its up-beat retraction onto the target.

    The certificate deletes source elements in decreasing linear-extension
    order; each one is an up-beat point witnessed by its image.
    """
    r = Relation.from_monotone_map(source, target, f)
    cyl = build_cylinder(r)
    steps = [
        ReductionStep("up-beat", (source_name(x),), witness=target_name(f[x]))
        for x in reversed(source.linear_extension())
    ]
    return CylinderPoset(cyl.poset, r, ReductionCertificate(tuple(steps)))


@dataclass(frozen=True)
class HypothesisReport(StatementReport):
    """Per-element triviality verdicts for one side's local data; a
    one-sided statement also carries its collapse onto that side."""

    side: str  # "source" or "target"
    verdicts: dict[str, TrivialityVerdict]
    collapse: Optional[ReductionCertificate] = None
    # the cylinder the collapse acts on
    cylinder: Optional[CylinderPoset] = None

    def certificates(self):
        if self.collapse is not None:
            yield "collapse-to-" + self.side, self.collapse, self.cylinder.poset

    @property
    def status(self) -> Status:
        return Status.of_verdicts(self.verdicts.values())

    @property
    def failing(self) -> list[str]:
        return sorted(e for e, v in self.verdicts.items() if v.is_nontrivial)

    def to_json_dict(self) -> dict:
        return {
            "side": self.side,
            "status": self.status,
            "verdicts": {e: v.to_json_dict() for e, v in sorted(self.verdicts.items())},
        }


def source_local_data(r: Relation, y: str) -> ElementSet:
    """Open hull in the source of the preimage of the target element's
    down-set, read from the relation's table."""
    return ElementSet(r.source, r._source_data[r.target._lookup(y)])


def target_local_data(r: Relation, x: str) -> ElementSet:
    """Closure in the target of the image of the source element's up-set,
    read from the relation's table."""
    return ElementSet(r.target, r._target_data[r.source._lookup(x)])


def _check_side(side: str, r: Relation, elements, local_data, ask: Oracle) -> HypothesisReport:
    """Triviality verdicts, from the table `ask`, for the local data of the
    elements this side's collapse deletes."""
    return HypothesisReport(side, {e: ask(local_data(r, e)) for e in elements})


def check_source_retraction(r: Relation, ask: Oracle) -> HypothesisReport:
    """Certify that every target element's local source data is homotopy trivial.

    When certified, the cylinder collapses onto its source part.
    """
    return _check_side("source", r, r.target.elements, source_local_data, ask)


def check_target_retraction(r: Relation, ask: Oracle) -> HypothesisReport:
    return _check_side("target", r, r.source.elements, target_local_data, ask)


def _certificate_of(verdict: TrivialityVerdict, element: str) -> ReductionCertificate:
    if verdict.certificate is None:
        raise ValidationError(f"the trivial verdict for {element!r} carries no certificate")
    return verdict.certificate


# kept side -> (name of a kept element, of a deleted one, punctured set facing the kept side)
_SIDES = {"source": (source_name, target_name, "down"), "target": (target_name, source_name, "up")}


def _gamma_collapse(side: str, c: CylinderPoset, report: HypothesisReport, deleted, local_data) -> ReductionCertificate:
    """Gamma-delete the other factor's elements in the given order.  At every
    step, the punctured set facing `side` among the elements still there,
    `reach[i] & alive`, must be the local datum's mask shifted to the kept
    side's bits; both masks are computed and compared."""
    if report.side != side:
        raise InputError(f"the collapse onto the {side} takes the {side} report, not the {report.side} one")
    if report.status is not Status.CERTIFIED:
        raise NotCertified(f"{side} retraction is {report.status}", failing=report.failing or None)
    kept_name, deleted_name, direction = _SIDES[side]
    p = c.poset
    reach = p._down if direction == "down" else p._up
    shift = 0 if side == "source" else len(c.relation.source)
    alive = p.full_mask()
    steps = []
    for e in deleted:
        name = deleted_name(e)
        i = p._index[name]
        alive &= ~(1 << i)
        if reach[i] & alive != local_data(c.relation, e).mask << shift:
            raise ValidationError(f"punctured {direction}-set of {name!r} does not match its local {side} data")
        evidence = _certificate_of(report.verdicts[e], e).rename(kept_name)
        steps.append(ReductionStep("gamma-" + direction, (name,), evidence=evidence))
    return ReductionCertificate(tuple(steps))


def collapse_cylinder_to_source(c: CylinderPoset, report: HypothesisReport) -> ReductionCertificate:
    """Gamma-delete the target part in linear-extension order."""
    return _gamma_collapse("source", c, report, c.relation.target.linear_extension(), source_local_data)


def collapse_cylinder_to_target(c: CylinderPoset, report: HypothesisReport) -> ReductionCertificate:
    """Gamma-delete the source part in reverse linear-extension order."""
    return _gamma_collapse("target", c, report, reversed(c.relation.source.linear_extension()), target_local_data)


def _with_collapse(r: Relation, report: HypothesisReport, collapse, cyl: Optional[CylinderPoset] = None) -> HypothesisReport:
    if report.status is not Status.CERTIFIED:
        return report
    cyl = cyl or build_cylinder(r)
    return replace(report, collapse=collapse(cyl, report), cylinder=cyl)


def verify_source_retraction(r: Relation, ask: Oracle) -> HypothesisReport:
    """Proposition 2.4: certified source local data collapse the cylinder
    onto its source; the report carries that collapse."""
    return _with_collapse(r, check_source_retraction(r, ask), collapse_cylinder_to_source)


def verify_target_retraction(r: Relation, ask: Oracle) -> HypothesisReport:
    """Proposition 2.5: the same onto the target."""
    return _with_collapse(r, check_target_retraction(r, ask), collapse_cylinder_to_target)


@dataclass(frozen=True)
class EquivalenceReport(StatementReport):
    """When certified, each side's report carries its collapse of the one shared cylinder."""

    status: Status
    source_report: HypothesisReport
    target_report: HypothesisReport
    source_homology: Optional[HomologyProfile] = None
    target_homology: Optional[HomologyProfile] = None
    homology_equal: Optional[bool] = None

    HOMOLOGY = (("source", "source_homology"), ("target", "target_homology"))

    @property
    def to_source(self) -> Optional[ReductionCertificate]:
        return self.source_report.collapse

    @property
    def to_target(self) -> Optional[ReductionCertificate]:
        return self.target_report.collapse

    @property
    def cylinder(self) -> Optional[CylinderPoset]:
        return self.source_report.cylinder

    def certificates(self):
        return self.collapses("source", "target")

    def collapses(self, source_side: str, target_side: str):
        """Both collapse certificates, labelled by the sides' names in the statement."""
        if self.cylinder is not None:
            yield "collapse-to-" + source_side, self.to_source, self.cylinder.poset
            yield "collapse-to-" + target_side, self.to_target, self.cylinder.poset

    def to_json_dict(self) -> dict:
        out: dict = {
            "status": self.status,
            "source": self.source_report.to_json_dict(),
            "target": self.target_report.to_json_dict(),
        }
        if self.to_source is not None:
            out["to_source"] = self.to_source.to_json_dict()
        if self.to_target is not None:
            out["to_target"] = self.to_target.to_json_dict()
        return {**out, **self.homology_json()}


def verify_equivalence(r: Relation, ask: Oracle) -> EquivalenceReport:
    """Certify both retractions; a certified relation forces equal homology.

    A certified report carries both gamma certificates, and the homology
    comparison is asserted: a certified instance with differing homology is
    a soundness failure, not a report entry.
    """
    src = check_source_retraction(r, ask)
    tgt = check_target_retraction(r, ask)
    status = Status.of_verdicts([*src.verdicts.values(), *tgt.verdicts.values()])
    if status is not Status.CERTIFIED:
        return EquivalenceReport(status, src, tgt)
    cyl = build_cylinder(r)
    src = _with_collapse(r, src, collapse_cylinder_to_source, cyl)
    tgt = _with_collapse(r, tgt, collapse_cylinder_to_target, cyl)
    return EquivalenceReport(status, src, tgt, *certified_homology("certified relation", r.source, r.target))


@dataclass(frozen=True)
class HomologyEquivalenceReport(StatementReport):
    status: Status  # never Unknown: the check is exact
    through_degree: int
    failing: dict[str, list[str]] = field(default_factory=dict)
    source_homology: Optional[HomologyProfile] = None
    target_homology: Optional[HomologyProfile] = None
    homology_equal: Optional[bool] = None

    HOMOLOGY = EquivalenceReport.HOMOLOGY

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status, "through_degree": self.through_degree}
        if self.failing:
            out["failing"] = {k: list(v) for k, v in sorted(self.failing.items())}
        return {**out, **self.homology_json()}


def _reduced_vanishes_through(members: ElementSet, n: int) -> bool:
    """Non-empty with zero reduced homology in degrees 0..n: every non-zero
    degree, of which there are at most the dimension, lies above n."""
    if not members.mask:
        return False
    return all(k > n for k in homology(members, reduced=True).nonzero_degrees())


def verify_homology_equivalence(r: Relation, n: int) -> HomologyEquivalenceReport:
    """Homology-only version: local data need only vanish through degree n.

    This check is exact (no Unknown): reduced homology through degree n of
    every local piece either vanishes or it does not.  Empty local data
    fails, matching the connectivity reading of the hypothesis.
    """
    if n < 0:
        raise InputError(f"degree bound must be non-negative, got {n}")
    failing: dict[str, list[str]] = {}
    for side, elements, local_data in (
        ("source", r.target.elements, source_local_data),
        ("target", r.source.elements, target_local_data),
    ):
        bad = [e for e in elements if not _reduced_vanishes_through(local_data(r, e), n)]
        if bad:
            failing[side] = bad
    if failing:
        return HomologyEquivalenceReport(Status.REFUTED, n, failing)
    profiles = certified_homology("certified homology hypothesis", r.source, r.target, through_degree=n)
    return HomologyEquivalenceReport(Status.CERTIFIED, n, {}, *profiles)
