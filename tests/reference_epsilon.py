"""The epsilon components that `finitetopo.mapper` computed before its grid:
a breadth-first search whose every pop tests all unseen points.

Kept only as a reference for the property tests, which compare its
components with those of `epsilon_components`.
"""

import math
from typing import Iterable

from finitetopo import PointCloud


def distance(pc: PointCloud, a: str, b: str) -> float:
    return math.dist(pc.coord(a), pc.coord(b))


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
            near = [q for q in unseen if distance(pc, cur, q) <= epsilon]
            for q in near:
                unseen.discard(q)
                comp.add(q)
                queue.append(q)
        out.append(frozenset(comp))
    return sorted(out, key=min)
