"""Reduction machinery for finite posets.

Beat points and cores, weak points and collapse searches, gamma points
backed by the three-valued triviality oracle, plus certificate replay.
Replay is pure verification: every side condition is re-checked from the
witness data, and no search is ever invoked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional

from .certificates import (
    BEAT_KINDS,
    GAMMA_KINDS,
    WEAK_KINDS,
    Oracle,
    ReductionCertificate,
    ReductionStep,
    StatementReport,
    Status,
    TrivialityVerdict,
)
from .complexes import (
    SimplicialComplex,
    barycentric_complex,
    barycentric_poset,
    chain_complex,
    chain_tree,
    chains_of,
    face_poset,
    order_complex,
)
from .errors import InputError, ReplayError
from .homology import homology, profile_from_chain_complex, same_homology
from .poset import ElementSet, Poset, _iter_bits, extremum

DEFAULT_BUDGET = 100_000


def _punctured(p: Poset, mask: int, i: int) -> tuple[tuple[str, int], tuple[str, int]]:
    """("up", punctured up-set) and ("down", punctured down-set) of i within mask."""
    rest = mask & ~(1 << i)
    return ("up", p._up[i] & rest), ("down", p._down[i] & rest)


def _beat_moves(p: Poset, mask: int, i: int) -> Iterator[tuple[str, int]]:
    """(kind, witness index) for each side on which i is a beat point within
    mask, up first: the witness is the punctured set's minimum or maximum."""
    for side, sub in _punctured(p, mask, i):
        w = extremum(p._up if side == "up" else p._down, sub)
        if w is not None:
            yield side + "-beat", w


def _weak_moves(p: Poset, mask: int, i: int) -> Iterator[tuple[str, ReductionCertificate]]:
    """(kind, dismantling evidence) for each side on which i is a weak point
    within mask, up first."""
    for side, sub in _punctured(p, mask, i):
        if sub:
            cert = _dismantling_cert(p, sub)
            if cert is not None:
                yield side + "-weak", cert


def _greedy_core(p: Poset, mask: int) -> tuple[int, list[ReductionStep]]:
    """Remove the first beat point in identifier order until none remain."""
    steps: list[ReductionStep] = []
    changed = True
    while changed:
        changed = False
        for i in _iter_bits(mask):
            move = next(_beat_moves(p, mask, i), None)
            if move is not None:
                kind, w = move
                steps.append(ReductionStep(kind, (p.elements[i],), witness=p.elements[w]))
                mask ^= 1 << i
                changed = True
                break
    return mask, steps


def _dismantling_cert(p: Poset, mask: int) -> Optional[ReductionCertificate]:
    final, steps = _greedy_core(p, mask)
    if final.bit_count() == 1:
        return ReductionCertificate(tuple(steps))
    return None


def find_beat_points(p: Poset) -> list[tuple[str, str, str]]:
    """All (element, kind, witness) triples; an element may appear for both kinds."""
    mask = p.full_mask()
    return [(e, kind, p.elements[w]) for i, e in enumerate(p.elements) for kind, w in _beat_moves(p, mask, i)]


def core(p: Poset) -> tuple[Poset, ReductionCertificate]:
    mask, steps = _greedy_core(p, p.full_mask())
    return ElementSet(p, mask).induced(), ReductionCertificate(tuple(steps))


def find_weak_points(p: Poset) -> list[tuple[str, str]]:
    """(element, kind) pairs whose punctured up/down set is dismantlable."""
    mask = p.full_mask()
    return [(e, kind) for i, e in enumerate(p.elements) for kind, _ in _weak_moves(p, mask, i)]


def _collapse_moves(p: Poset, mask: int, keep: int):
    """Yield (step, new mask) moves: beat removals first, weak-only after."""
    weak_only = []
    for i in _iter_bits(mask & ~keep):
        move = next(_beat_moves(p, mask, i), None)
        if move is not None:
            kind, w = move
            step = ReductionStep(kind, (p.elements[i],), witness=p.elements[w])
            yield step, mask ^ (1 << i)
        else:
            weak_only.append(i)
    for i in weak_only:
        move = next(_weak_moves(p, mask, i), None)
        if move is not None:
            kind, cert = move
            step = ReductionStep(kind, (p.elements[i],), evidence=cert)
            yield step, mask ^ (1 << i)


@dataclass
class _Frame:
    """One state on the current DFS path, with the moves not yet tried."""

    state: Hashable
    moves: Iterator[tuple[Any, Hashable]]
    complete: bool = True
    step: Any = None


def _collapse_dfs(start: Hashable, done: Callable[[Any], bool],
                  moves: Callable[[Any], Iterator[tuple[Any, Hashable]]], budget: int):
    """DFS from start to a state where done holds; moves(state) yields
    (step, next state) in the order they are tried.  Returns (steps or
    None, nodes, complete); a state whose search finished without success
    is not expanded again.

    The path is an explicit stack of frames, so a collapse longer than the
    interpreter's recursion limit is still found."""
    failed: set = set()
    nodes = 0
    path: list[_Frame] = []

    def visit(state):
        """(steps or None, complete) when the state is decided at once;
        otherwise None, after opening a frame for it."""
        nonlocal nodes
        if done(state):
            return [], True
        if state in failed:
            return None, True
        nodes += 1
        if nodes > budget:
            return None, False
        path.append(_Frame(state, moves(state)))
        return None

    answer = visit(start)
    while path:
        frame = path[-1]
        move = next(frame.moves, None)
        if move is None:
            path.pop()
            if frame.complete:
                failed.add(frame.state)
            answer = None, frame.complete
        else:
            frame.step, nm = move
            answer = visit(nm)
            if answer is None:
                continue
            if answer[0] is not None:
                return [f.step for f in path] + answer[0], nodes, True
        if path:
            path[-1].complete = path[-1].complete and answer[1]
    steps, complete = answer
    return steps, nodes, complete


def is_collapsible(s: Poset | ElementSet, budget: int) -> TrivialityVerdict:
    """Trivial iff a weak-point deletion sequence to a point is found within budget."""
    p, start = (s, s.full_mask()) if isinstance(s, Poset) else (s.poset, s.mask)
    if not start:
        return TrivialityVerdict("nontrivial", "empty")
    steps, nodes, complete = _collapse_dfs(
        start, lambda mask: mask.bit_count() == 1, lambda mask: _collapse_moves(p, mask, 0), budget)
    if steps is not None:
        return TrivialityVerdict("trivial", "collapse", ReductionCertificate(tuple(steps)), detail={"nodes": nodes})
    reason = "no-collapse" if complete else "budget"
    return TrivialityVerdict("unknown", reason, detail={"nodes": nodes})


def collapse_search(p: Poset, target: Iterable[str], budget: int) -> tuple[Optional[ReductionCertificate], dict]:
    """Search for a weak-point deletion sequence from p onto the subposet on
    the target elements."""
    members = set(target)
    for e in members:
        if e not in p:
            raise InputError(f"target element {e!r} is not in the poset")
    tmask = p.subset(members).mask
    steps, nodes, complete = _collapse_dfs(
        p.full_mask(), lambda mask: mask == tmask, lambda mask: _collapse_moves(p, mask, tmask), budget)
    report = {"nodes": nodes, "complete": complete}
    if steps is None:
        return None, report
    return ReductionCertificate(tuple(steps)), report


def triviality_oracle(s: Poset | ElementSet, budget: int) -> TrivialityVerdict:
    """Three-valued homotopy-triviality decision ladder on a poset, or on the
    subspace an element set of one spans, read off masks of its parent.

    Empty or disconnected spaces are NonTrivial; a non-zero reduced homology
    group is NonTrivial; a dismantling or a collapse within budget is Trivial
    with a replayable certificate; anything else is Unknown.  The homology
    screen runs before any Trivial answer, so a Trivial verdict can never
    contradict homology.
    """
    if isinstance(s, Poset):
        s = ElementSet(s, s.full_mask())
    p, mask = s.poset, s.mask
    if not mask:
        return TrivialityVerdict("nontrivial", "empty")
    comps = s.components()
    if len(comps) > 1:
        return TrivialityVerdict("nontrivial", "disconnected", detail={"components": len(comps)})
    prof = homology(s, reduced=True)
    degrees = prof.nonzero_degrees()
    if degrees:
        return TrivialityVerdict(
            "nontrivial", "homology", detail={"degree": degrees[0], "homology": prof.describe()}
        )
    cert = _dismantling_cert(p, mask)
    if cert is not None:
        return TrivialityVerdict("trivial", "dismantling", cert)
    return is_collapsible(s, budget)


def shared_oracle(budget: int) -> Oracle:
    """The table `ask(element_set)`: the oracle's verdict, decided once per
    distinct (poset, mask), which is all a verdict depends on besides the
    budget.  The command that reads the budget makes one table per
    statement and passes it down; every statement takes its table from
    its caller and makes none."""
    verdicts: dict[tuple[Poset, int], TrivialityVerdict] = {}

    def ask(s: ElementSet) -> TrivialityVerdict:
        key = s.poset, s.mask
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = triviality_oracle(s, budget)
        return verdict

    return ask


def find_gamma_points(p: Poset, ask: Oracle) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """(element, kind) pairs whose punctured set is homotopy trivial.

    Sides whose verdict is Unknown are reported separately, never classified.
    """
    gammas = []
    unknowns = []
    mask = p.full_mask()
    for i, e in enumerate(p.elements):
        for side, sub in _punctured(p, mask, i):
            if not sub:
                continue
            verdict = ask(ElementSet(p, sub))
            if verdict.is_trivial:
                gammas.append((e, "gamma-" + side))
            elif verdict.is_unknown:
                unknowns.append((e, "gamma-" + side))
    return gammas, unknowns


# -- certificate replay -------------------------------------------------------


def _replay_on_mask(p: Poset, mask: int, cert: ReductionCertificate) -> int:
    for step in cert.steps:
        x = step.removed[0]
        if x not in p._index:
            raise ReplayError(f"certificate removes unknown element {x!r}")
        i = p._index[x]
        if not mask & (1 << i):
            raise ReplayError(f"certificate removes {x!r} which is not present")
        side = "up" if "up" in step.kind.split("-") else "down"
        sub = dict(_punctured(p, mask, i))[side]
        if step.kind in BEAT_KINDS:
            if step.witness not in p._index:
                raise ReplayError(f"witness {step.witness!r} is not an element")
            w = p._index[step.witness]
            reach = p._up if side == "up" else p._down
            if not sub & (1 << w) or sub & ~reach[w]:
                raise ReplayError(f"{step.kind} witness {step.witness!r} fails for {x!r}")
        elif step.kind in WEAK_KINDS + GAMMA_KINDS:
            if not sub:
                raise ReplayError(f"{step.kind} step on {x!r} has an empty punctured set")
            ev = step.evidence
            assert ev is not None
            if step.kind in WEAK_KINDS and not ev.is_dismantling():
                raise ReplayError(f"{step.kind} evidence for {x!r} must be a dismantling")
            if step.kind in GAMMA_KINDS and not ev.is_collapse():
                raise ReplayError(f"{step.kind} evidence for {x!r} must be a collapse certificate")
            ev_mask = 0
            for e in ev.removed_elements():
                if e not in p._index:
                    raise ReplayError(f"evidence element {e!r} is not in the poset")
                ev_mask |= 1 << p._index[e]
            if ev_mask & ~sub:
                raise ReplayError(f"evidence for {x!r} strays outside the punctured set")
            final = _replay_on_mask(p, sub, ev)
            # no valid step empties a punctured set (a beat step's witness
            # stays, a weak or gamma step needs a non-empty one), so != 1
            # here means the same as > 1
            if final.bit_count() != 1:
                raise ReplayError(f"evidence for {x!r} does not reach a single point")
        else:
            raise ReplayError(f"step kind {step.kind!r} is not a poset step")
        mask ^= 1 << i
    return mask


def replay_poset_certificate(p: Poset, cert: ReductionCertificate) -> ElementSet:
    """Re-verify every step's side condition and return the final subspace."""
    return ElementSet(p, _replay_on_mask(p, p.full_mask(), cert))


# -- simplicial collapses -----------------------------------------------------


def _facets(t: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The codimension-one faces of t; a vertex has none."""
    return [t[:i] + t[i + 1:] for i in range(len(t))] if len(t) > 1 else []


def replay_simplicial_certificate(k: SimplicialComplex, cert: ReductionCertificate) -> frozenset:
    """Re-verify freeness of every removed pair; returns the remaining faces.

    What free pairs leave is a complex, so t is the one proper coface of
    s when it is the one codimension-one coface of s left (a coface t ∪ {w}
    of t would leave s ∪ {w} beside it), read from an index of those
    cofaces built once and updated as pairs go.
    """
    faces = set(k.faces)
    cofaces: dict[tuple[str, ...], set[tuple[str, ...]]] = {f: set() for f in faces}
    for t in faces:
        for f in _facets(t):
            cofaces[f].add(t)
    for step in cert.steps:
        if step.kind != "simplicial-collapse":
            raise ReplayError(f"step kind {step.kind!r} is not a simplicial step")
        s, t = step.removed
        if s not in faces or t not in faces:
            raise ReplayError(f"pair ({s}, {t}) is not present")
        if cofaces[s] != {t}:
            raise ReplayError(f"face {s} is not free with coface {t}")
        for u in (s, t):
            faces.remove(u)
            for f in _facets(u):
                cofaces[f].discard(u)
    return frozenset(faces)


# -- poset collapses as simplicial collapses ----------------------------------


def _chains_in(p: Poset, mask: int) -> list[frozenset[int]]:
    """All non-empty chains (as index sets) inside the masked subposet."""
    return [frozenset(chain) for chain in chains_of(chain_tree(p, mask))]


def _desc(chains: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    """The chains largest first, then the empty chain."""
    return sorted(chains, key=lambda s: (-len(s), sorted(s))) + [frozenset()]


def collapse_to_simplicial(p: Poset, cert: ReductionCertificate) -> ReductionCertificate:
    """Translate a dismantling (beat steps only, as `core` certifies) into
    simplicial collapses of the order complex.

    Each beat step expands into the explicit free-face pairs that collapse
    the star of the removed element onto its witness.  The translation is
    replayed on the order complex before it is returned, so every pair is
    checked free, in order, and the replay must end at the order complex of
    the final subposet.  A weak or gamma step is an input error.
    """
    def face(chain: frozenset[int]) -> tuple[str, ...]:
        return tuple(sorted(p.elements[j] for j in chain))

    steps = []
    mask = p.full_mask()
    for step in cert.steps:
        x = step.removed[0]
        if x not in p._index:
            raise ReplayError(f"certificate removes unknown element {x!r}")
        i = p._index[x]
        if not mask & (1 << i):
            raise ReplayError(f"certificate removes {x!r} which is not present")
        if step.kind not in BEAT_KINDS:
            raise InputError(f"{step.kind} steps do not translate to simplicial collapses")
        if step.witness not in p._index:
            raise ReplayError(f"witness {step.witness!r} is not an element")
        (_, up), (_, down) = _punctured(p, mask, i)
        # collapse every chain through i onto its w-extension
        w = p._index[step.witness]
        for s in _desc(_chains_in(p, (up | down) & ~(1 << w))):
            steps.append(ReductionStep("simplicial-collapse", (face(s | {i}), face(s | {i, w}))))
        mask ^= 1 << i
    out = ReductionCertificate(tuple(steps))
    remaining = replay_simplicial_certificate(order_complex(p), out)
    if remaining != order_complex(ElementSet(p, mask).induced()).faces:
        raise ReplayError("translated collapse does not end at the order complex of the final poset")
    return out


@dataclass(frozen=True)
class DictionaryReport(StatementReport):
    """Outcome of the poset/complex correspondence checks on one object."""

    subject: str
    checks: dict
    status: Status
    detail: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "subject": self.subject,
            "checks": dict(sorted(self.checks.items())),
            "status": self.status,
            "detail": self.detail,
        }


def verify_dictionary(obj) -> DictionaryReport:
    """Check the order-complex/face-poset correspondence laws on one object.

    For a poset: homology is invariant under barycentric subdivision, the
    order complex of the opposite poset is the same complex, and the core's
    dismantling certificate translates into a simplicial collapse of the
    order complex that replays.  For a simplicial complex: barycentric
    invariance and agreement with the face poset's homology.  The object's
    homology is read once; the subdivided or face-poset side is taken
    through its order complex, not `homology()`: its cellular complex would
    be the object's own chain complex again.
    """
    if not isinstance(obj, (Poset, SimplicialComplex)):
        raise InputError(f"no correspondence checks for {type(obj).__name__}")
    checks: dict[str, bool] = {}
    detail: dict = {}
    own = homology(obj)

    def agree(b) -> bool:
        equal, _ = same_homology(own, profile_from_chain_complex(chain_complex(b)))
        return equal

    if isinstance(obj, Poset):
        checks["barycentric-homology"] = agree(barycentric_poset(obj))
        same_chains = order_complex(obj).faces == order_complex(obj.opposite()).faces
        checks["opposite-order-complex"] = same_chains
        q, cert = core(obj)
        # collapse_to_simplicial replays its translation and raises unless
        # it ends at the order complex of the core
        simplicial = collapse_to_simplicial(obj, cert)
        checks["core-collapse-translation"] = True
        detail["core_size"] = len(q)
        detail["translated_steps"] = len(simplicial.steps)
        subject = "poset"
    else:
        checks["barycentric-homology"] = agree(barycentric_complex(obj))
        checks["face-poset-homology"] = agree(face_poset(obj))
        subject = "complex"
    status = Status.CERTIFIED if all(checks.values()) else Status.REFUTED
    return DictionaryReport(subject, checks, status, detail)
