"""The local data of Theorem A by their definitions, one element at a time.

`finitetopo.cylinder` reads each element's local datum from a table that
`Relation` fills in one pass over each factor.  The property tests check
those tables against the definitions kept here: the preimage of a target
element's down-set, then its open hull, and the image of a source
element's up-set, then its up-closure.  Everything is read off the
relation's pairs and `Poset.le`, with no mask table.
"""

from finitetopo import ElementSet, InputError, Poset, Relation


def _of_factor(members: ElementSet, factor: Poset, what: str, side: str) -> None:
    """A set of the other factor is refused, not read as bits of this one;
    a set of an equal poset has the same bits."""
    if members.poset is not factor and members.poset != factor:
        raise InputError(f"{what} takes an element set of the relation's {side}")


def image(r: Relation, members: ElementSet) -> ElementSet:
    """The target elements related to some member of an element set of the source."""
    _of_factor(members, r.source, "image", "source")
    return r.target.subset(y for x, y in r.pairs if x in members)


def preimage(r: Relation, members: ElementSet) -> ElementSet:
    """The source elements related to some member of an element set of the target."""
    _of_factor(members, r.target, "preimage", "target")
    return r.source.subset(x for x, y in r.pairs if y in members)


def closure(s: ElementSet) -> ElementSet:
    """The up-set a subset generates: every element above some member."""
    p = s.poset
    return p.subset(b for b in p.elements if any(p.le(a, b) for a in s))


def open_hull(s: ElementSet) -> ElementSet:
    """The down-set a subset generates: every element below some member."""
    p = s.poset
    return p.subset(a for a in p.elements if any(p.le(a, b) for b in s))


def source_local_data(r: Relation, y: str) -> ElementSet:
    """Open hull in the source of the preimage of the target element's down-set."""
    return open_hull(preimage(r, r.target.subset(b for b in r.target.elements if r.target.le(b, y))))


def target_local_data(r: Relation, x: str) -> ElementSet:
    """Closure in the target of the image of the source element's up-set."""
    return closure(image(r, r.source.subset(a for a in r.source.elements if r.source.le(x, a))))
