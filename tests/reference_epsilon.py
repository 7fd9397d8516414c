"""The epsilon components that `finitetopo.mapper` computed before its grid:
a breadth-first search whose every pop tests all unseen points.

Kept only as a reference for the property tests, which compare its
components with those of `epsilon_components`.
"""

from typing import Iterable

from finitetopo import PointCloud


def reference_epsilon_components(pc: PointCloud, ids: Iterable[str], epsilon: float) -> list[frozenset[str]]:
    """Components of the epsilon-neighborhood graph on the given points,
    sorted by least member."""
    pool = sorted(set(ids))
    unseen = set(pool)
    out: list[frozenset[str]] = []
    for start in pool:
        if start not in unseen:
            continue
        queue = [start]
        unseen.discard(start)
        comp = {start}
        while queue:
            cur = queue.pop()
            near = [q for q in unseen if pc.distance(cur, q) <= epsilon]
            for q in near:
                unseen.discard(q)
                comp.add(q)
                queue.append(q)
        out.append(frozenset(comp))
    return sorted(out, key=min)
