"""Reduction certificates: replayable step lists with their witness data.

Step kinds
----------
up-beat      remove x; witness is the minimum of the punctured up-set
down-beat    remove x; witness is the maximum of the punctured down-set
up-weak      remove x; evidence dismantles the punctured up-set to a point
down-weak    remove x; evidence dismantles the punctured down-set to a point
gamma-up     remove x; evidence certifies the punctured up-set homotopy trivial
gamma-down   remove x; evidence certifies the punctured down-set homotopy trivial
simplicial-collapse   remove a free face and its unique proper coface; removed
                      holds the face and its coface as tuples of sorted vertices

The witness carried by a step is everything replay needs; replay never
searches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Optional

from .poset import ElementSet

POSET_STEP_KINDS = ("up-beat", "down-beat", "up-weak", "down-weak", "gamma-up", "gamma-down")
SIMPLICIAL_STEP_KIND = "simplicial-collapse"
BEAT_KINDS = ("up-beat", "down-beat")
WEAK_KINDS = ("up-weak", "down-weak")
GAMMA_KINDS = ("gamma-up", "gamma-down")


@dataclass(frozen=True)
class ReductionStep:
    kind: str
    removed: tuple  # the removed element, or a simplicial step's face and coface
    witness: Optional[str] = None
    evidence: Optional["ReductionCertificate"] = None

    def __post_init__(self):
        if self.kind in POSET_STEP_KINDS:
            if len(self.removed) != 1:
                raise ValueError(f"{self.kind} step must remove exactly one element")
            if self.kind in BEAT_KINDS and self.witness is None:
                raise ValueError(f"{self.kind} step needs a witness element")
            if self.kind in WEAK_KINDS + GAMMA_KINDS and self.evidence is None:
                raise ValueError(f"{self.kind} step needs an evidence certificate")
        elif self.kind == SIMPLICIAL_STEP_KIND:
            if len(self.removed) != 2:
                raise ValueError("simplicial-collapse step removes a face and its coface")
        else:
            raise ValueError(f"unknown step kind {self.kind!r}")

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "removed": list(self.removed)}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.evidence is not None:
            out["evidence"] = self.evidence.to_json_dict()
        return out


@dataclass(frozen=True)
class ReductionCertificate:
    steps: tuple[ReductionStep, ...]

    def removed_elements(self) -> tuple[str, ...]:
        return tuple(e for s in self.steps for e in s.removed)

    def is_dismantling(self) -> bool:
        return all(s.kind in BEAT_KINDS for s in self.steps)

    def is_collapse(self) -> bool:
        return all(s.kind in BEAT_KINDS + WEAK_KINDS for s in self.steps)

    def rename(self, fn: Callable[[str], str]) -> "ReductionCertificate":
        """Apply an identifier renaming to every element the certificate mentions."""
        steps = []
        for s in self.steps:
            steps.append(
                ReductionStep(
                    kind=s.kind,
                    removed=tuple(fn(e) for e in s.removed),
                    witness=fn(s.witness) if s.witness is not None else None,
                    evidence=s.evidence.rename(fn) if s.evidence is not None else None,
                )
            )
        return ReductionCertificate(tuple(steps))

    def to_json_dict(self) -> dict:
        return {"steps": [s.to_json_dict() for s in self.steps]}


@dataclass(frozen=True)
class TrivialityVerdict:
    """Three-valued homotopy-triviality answer with replayable or checkable evidence.

    status "trivial": certificate dismantles or collapses the poset to a point.
    status "nontrivial": detail pins the obstruction (empty, disconnected,
    or a non-zero reduced homology degree).
    status "unknown": detail reports the exhausted budget.
    """

    status: str
    reason: str
    certificate: Optional[ReductionCertificate] = None
    detail: dict = field(default_factory=dict)

    @property
    def is_trivial(self) -> bool:
        return self.status == "trivial"

    @property
    def is_nontrivial(self) -> bool:
        return self.status == "nontrivial"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status, "reason": self.reason}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json_dict()
        if self.detail:
            out["detail"] = self.detail
        return out


# a table of verdicts on the subspaces of a poset, as `reduction.shared_oracle` makes one
Oracle = Callable[[ElementSet], TrivialityVerdict]


class Status(str, Enum):
    """Outcome of a statement check or a command run: the value is the word
    every report prints, ``exit_code`` the command line contract."""

    CERTIFIED = "Certified"
    REFUTED = "Refuted"
    UNKNOWN = "Unknown"
    ERROR = "Error"

    def __str__(self) -> str:
        return self.value

    @property
    def exit_code(self) -> int:
        return {"Certified": 0, "Refuted": 1, "Unknown": 2, "Error": 3}[self.value]

    @classmethod
    def of_verdicts(cls, verdicts: Iterable[TrivialityVerdict]) -> "Status":
        """Refuted if any verdict is non-trivial, else Unknown if any is unknown."""
        words = {v.status for v in verdicts}
        if "nontrivial" in words:
            return cls.REFUTED
        return cls.UNKNOWN if "unknown" in words else cls.CERTIFIED


class StatementReport:
    """What a statement check yields besides its JSON form: the collapses it
    certified, each with the object it reduces, and the homology profiles
    it compared, which a subclass names in ``HOMOLOGY`` as (label,
    attribute) pairs."""

    HOMOLOGY: tuple[tuple[str, str], ...] = ()
    homology_equal: Optional[bool] = None

    def certificates(self) -> Iterator[tuple[str, ReductionCertificate, Any]]:
        """(label, certificate, replay target) per certified collapse."""
        return iter(())

    def homology_profiles(self) -> Iterator[tuple[str, Any]]:
        """(label, HomologyProfile) per profile the check computed."""
        return ((label, getattr(self, attr)) for label, attr in self.HOMOLOGY if getattr(self, attr) is not None)

    def homology_json(self) -> dict:
        """The ``<attribute>: describe()`` and ``homology_equal`` entries."""
        attrs = dict(self.HOMOLOGY)
        out: dict = {attrs[label]: prof.describe() for label, prof in self.homology_profiles()}
        if self.homology_equal is not None:
            out["homology_equal"] = self.homology_equal
        return out
