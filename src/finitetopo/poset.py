"""Finite posets over opaque string identifiers.

A finite poset doubles as a finite topological space: the open sets are
exactly the down-sets, so the smallest open set containing an element is
its down-set and the closure of a subset is the up-set it generates.

Construction is forgiving: any relation pairs are accepted, the
transitive closure is taken, and the stored cover ("Hasse") edges are the
transitive reduction.  Cycles are rejected.  Reachability is kept as one
bitmask per element, built when the poset is created.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InputError


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def bit_list(mask: int) -> list[int]:
    """The bits of mask, ascending, as `_iter_bits` yields them.  One pass
    over the binary digits: a long mask costs time linear in its length,
    where each step of `_iter_bits` costs that much."""
    return list(itertools.compress(itertools.count(), bin(mask)[:1:-1].encode().translate(_DIGIT_BITS)))


def reach_of(reach: list[int] | tuple[int, ...], mask: int) -> int:
    """The union (OR) of reach[i] over the bits i of mask."""
    out = 0
    for i in _iter_bits(mask):
        out |= reach[i]
    return out


def extremum(reach: list[int], subset: int) -> int | None:
    """The index in subset whose reach (the up-sets for a minimum, the
    down-sets for a maximum) contains all of subset, if there is one."""
    for j in _iter_bits(subset):
        if subset & ~reach[j] == 0:
            return j
    return None


class Poset:
    def __init__(self, elements: Iterable[str], relations: Iterable[tuple[str, str]] = ()):
        elems = list(elements)
        for e in elems:
            if not isinstance(e, str) or e == "":
                raise InputError(f"element identifiers must be non-empty strings, got {e!r}")
        # deduplicated in input order, so that sorted input sorts in one pass
        self.elements: tuple[str, ...] = tuple(sorted(dict.fromkeys(elems)))
        n = len(self.elements)
        self._index: dict[str, int] = dict(zip(self.elements, range(n)))

        # an element with no successor shares one empty set
        succ: list[set[int] | frozenset[int]] = [frozenset()] * n
        for a, b in relations:
            ia, ib = self._lookup(a), self._lookup(b)
            if ia != ib:
                if not succ[ia]:
                    succ[ia] = set()
                succ[ia].add(ib)

        order = self._topological_order(succ)
        # the least linear extension depends only on the transitive closure
        self._order = tuple(order)
        strict = [0] * n
        self._succ_masks = [0] * n
        self._pred_masks = [0] * n
        self._nonminimal = 0
        hasse = []
        # successors come first in reverse order: the strict up-set of i is
        # the union over its successors j of j and j's strict up-set, and a
        # cover of i is an element of it that no such up-set holds
        for i in reversed(order):
            # an element with no successor has no strict up-set and no cover
            if not succ[i]:
                continue
            m = implied = 0
            for j in succ[i]:
                m |= strict[j] | 1 << j
                implied |= strict[j]
            strict[i] = m
            self._succ_masks[i] = covers = m & ~implied
            self._nonminimal |= covers
            for j in _iter_bits(covers):
                self._pred_masks[j] |= 1 << i
                hasse.append((self.elements[i], self.elements[j]))
        # an element related to nothing keeps its own bit as both sets
        self._down = down = [1 << i for i in range(n)]
        self._up = [m | b if m else b for m, b in zip(strict, down)]
        # in topological order a down-set is complete before it is passed on
        for i in order:
            if succ[i]:
                for j in succ[i]:
                    down[j] |= down[i]
        self.cover_pairs: frozenset[tuple[str, str]] = frozenset(hasse)
        # posets key the homology and order complex caches; hash once
        self._hash = hash((self.elements, self.cover_pairs))

    def _lookup(self, e: str) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise InputError(f"unknown element {e!r}") from None

    def _topological_order(self, succ: list[set[int] | frozenset[int]]) -> list[int]:
        n = len(self.elements)
        indeg = [0] * n
        for j in itertools.chain.from_iterable(succ):
            indeg[j] += 1
        # the least ready index comes next; those ready from the start are
        # a stack, least on top, and only those a pop releases need a heap
        ready = [i for i in reversed(range(n)) if indeg[i] == 0]
        released: list[int] = []
        order = []
        while ready or released:
            i = heapq.heappop(released) if released and (not ready or released[0] < ready[-1]) else ready.pop()
            order.append(i)
            if succ[i]:
                for j in succ[i]:
                    indeg[j] -= 1
                    if indeg[j] == 0:
                        heapq.heappush(released, j)
        if len(order) < n:
            raise InputError("relations contain a cycle: " + " <= ".join(self._find_cycle(succ, indeg)))
        return order

    def _find_cycle(self, succ: list[set[int] | frozenset[int]], indeg: list[int]) -> list[str]:
        stuck = {i for i in range(len(self.elements)) if indeg[i] > 0}
        start = min(stuck)
        seen: dict[int, int] = {}
        path = []
        i = start
        while i not in seen:
            seen[i] = len(path)
            path.append(i)
            i = min(j for j in succ[i] if j in stuck)
        cycle = path[seen[i] :] + [i]
        return [self.elements[j] for j in cycle]

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __contains__(self, e: str) -> bool:
        return e in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self.cover_pairs == other.cover_pairs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Poset({len(self)} elements, {len(self.cover_pairs)} cover pairs)"

    def le(self, a: str, b: str) -> bool:
        return bool(self._up[self._lookup(a)] & (1 << self._lookup(b)))

    def cover_successors(self, e: str) -> tuple[str, ...]:
        return self._names(self._succ_masks[self._lookup(e)])

    def _names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in _iter_bits(mask))

    def _mask_of(self, members: Iterable[str]) -> int:
        m = 0
        for e in members:
            m |= 1 << self._lookup(e)
        return m

    def full_mask(self) -> int:
        return (1 << len(self.elements)) - 1

    # -- subsets ----------------------------------------------------------

    def subset(self, members: Iterable[str]) -> "ElementSet":
        return ElementSet(self, self._mask_of(members))

    def down_set(self, e: str) -> "ElementSet":
        return ElementSet(self, self._down[self._lookup(e)])

    def up_set(self, e: str) -> "ElementSet":
        return ElementSet(self, self._up[self._lookup(e)])

    def punctured_down(self, e: str) -> "ElementSet":
        i = self._lookup(e)
        return ElementSet(self, self._down[i] & ~(1 << i))

    def maximal_elements(self) -> tuple[str, ...]:
        return tuple(e for i, e in enumerate(self.elements) if self._succ_masks[i] == 0)

    def minimal_elements(self) -> tuple[str, ...]:
        return tuple(e for i, e in enumerate(self.elements) if self._pred_masks[i] == 0)

    # -- derived posets ---------------------------------------------------

    def opposite(self) -> "Poset":
        return Poset(self.elements, [(b, a) for a, b in self.cover_pairs])

    def induced(self, members: Iterable[str]) -> "Poset":
        return self.subset(members).induced()

    def linear_extension(self) -> tuple[str, ...]:
        """Topological order; ties are broken by identifier (codepoint) order."""
        return tuple(self.elements[i] for i in self._order)


@dataclass(frozen=True)
class ElementSet:
    """A subset of a poset's elements: a bitmask over the parent's
    identifiers, bit i standing for ``poset.elements[i]``.  Every operation
    reads and returns masks of the parent; ``members`` and iteration turn
    the mask into names, in identifier order."""

    poset: Poset
    mask: int

    def __post_init__(self):
        if not isinstance(self.mask, int) or self.mask < 0 or self.mask >> len(self.poset.elements):
            raise InputError(f"mask {self.mask!r} is not a subset of the {len(self.poset)} elements of its poset")

    @property
    def members(self) -> frozenset[str]:
        return frozenset(self)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[str]:
        return iter(self.poset._names(self.mask))

    def __contains__(self, e: str) -> bool:
        i = self.poset._index.get(e)
        return i is not None and bool(self.mask >> i & 1)

    def open_hull(self) -> "ElementSet":
        return ElementSet(self.poset, reach_of(self.poset._down, self.mask))

    def is_down_set(self) -> bool:
        """Each lower cover of each non-minimal member is a member."""
        p, mask = self.poset, self.mask
        return not any(p._pred_masks[i] & ~mask for i in _iter_bits(mask & p._nonminimal))

    def components(self) -> list["ElementSet"]:
        """Components of the comparability graph on the subset, sorted by
        their least member identifier."""
        p, mask = self.poset, self.mask
        comps = []
        remaining = mask
        while remaining:
            comp = 0
            frontier = remaining & -remaining
            while frontier:
                i = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                comp |= 1 << i
                nbrs = (p._up[i] | p._down[i]) & mask & ~comp
                frontier |= nbrs
                comp |= nbrs
            comps.append(ElementSet(p, comp))
            remaining &= ~comp
        return comps

    def induced(self) -> Poset:
        """The subposet on the members: the reach restricted to them, which
        the constructor reduces to cover pairs."""
        p, mask = self.poset, self.mask
        pairs = [(p.elements[i], p.elements[j]) for i in _iter_bits(mask) for j in _iter_bits(p._up[i] & mask)]
        return Poset(p._names(mask), pairs)
