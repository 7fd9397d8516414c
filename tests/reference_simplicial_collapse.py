"""The simplicial collapse search that `finitetopo.reduction` ran before it
shared the explicit-stack search with the poset collapses: one recursive
call per removal, and free faces found by testing every face against every
other.

Kept only as a reference for the property tests, which compare its
certificates, node counts and completeness flags with those of
`simplicial_collapse_search`.
"""

from typing import Optional

from finitetopo import ReductionCertificate, ReductionStep, SimplicialComplex
from finitetopo.reduction import simplex_token


def reference_free_pairs(faces) -> list:
    fs = set(faces)
    out = []
    for s in sorted(fs):
        ss = set(s)
        cof = [t for t in fs if len(t) > len(s) and ss.issubset(t)]
        if len(cof) == 1:
            out.append((s, cof[0]))
    return out


def reference_simplicial_collapse_search(
    k: SimplicialComplex, target: Optional[SimplicialComplex], budget: int
) -> tuple[Optional[ReductionCertificate], dict]:
    start = frozenset(k.faces)
    keep: frozenset = frozenset()
    if target is not None:
        keep = frozenset(target.faces)
    failed: set = set()
    counter = [0]

    def done(faces: frozenset) -> bool:
        if target is not None:
            return faces == keep
        return len(faces) == 1 and len(next(iter(faces))) == 1

    def dfs(faces: frozenset):
        if done(faces):
            return [], True
        if faces in failed:
            return None, True
        counter[0] += 1
        if counter[0] > budget:
            return None, False
        complete = True
        for s, t in reference_free_pairs(faces):
            if s in keep or t in keep:
                continue
            sub, sub_complete = dfs(faces - {s, t})
            if sub is not None:
                step = ReductionStep("simplicial-collapse", (simplex_token(s), simplex_token(t)))
                return [step] + sub, True
            complete = complete and sub_complete
        if complete:
            failed.add(faces)
        return None, complete

    steps, complete = dfs(start)
    report = {"nodes": counter[0], "complete": complete}
    if steps is None:
        return None, report
    return ReductionCertificate(tuple(steps)), report
