"""Reference computations kept apart from finitetopo.

Nothing in this module imports the package under test.  Chains, faces,
ranks over prime fields, Euler characteristics and components are
computed from plain data (element lists, relation pairs, facet lists,
point coordinates), so a fault in the program cannot hide inside its own
check.
"""

from __future__ import annotations

import math
from itertools import combinations

# -- posets and complexes as plain data ---------------------------------------


def strict_up_sets(elements, relations):
    """Map each element to the set of elements strictly above it in the
    order generated by the relation pairs (a, b), read as a < b."""
    succ = {e: set() for e in elements}
    indeg = dict.fromkeys(elements, 0)
    for a, b in relations:
        if a != b and b not in succ[a]:
            succ[a].add(b)
            indeg[b] += 1
    ready = [e for e in elements if indeg[e] == 0]
    order = []
    while ready:
        e = ready.pop()
        order.append(e)
        for s in succ[e]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if len(order) != len(succ):
        raise ValueError("relation pairs contain a cycle")
    above = {}
    for e in reversed(order):
        up = set()
        for s in succ[e]:
            up.add(s)
            up |= above[s]
        above[e] = up
    return above


def poset_chains(elements, relations):
    """Every non-empty chain, each listed once in increasing order."""
    above = strict_up_sets(elements, relations)
    chains = []
    stack = [(e,) for e in sorted(elements)]
    while stack:
        chain = stack.pop()
        chains.append(chain)
        for s in sorted(above[chain[-1]]):
            stack.append(chain + (s,))
    return chains


def complex_faces(facets):
    """Every non-empty face of the complex spanned by the facets, vertices sorted."""
    faces = set()
    for facet in facets:
        vs = tuple(sorted(set(facet)))
        for k in range(1, len(vs) + 1):
            faces.update(combinations(vs, k))
    return sorted(faces)


def f_vector(faces):
    counts = {}
    for f in faces:
        counts[len(f) - 1] = counts.get(len(f) - 1, 0) + 1
    top = max(counts, default=-1)
    return [counts.get(k, 0) for k in range(top + 1)]


def euler(faces):
    return sum((-1) ** k * n for k, n in enumerate(f_vector(faces)))


def poset_euler(elements, relations):
    return euler(poset_chains(elements, relations))


# -- ranks over prime fields ---------------------------------------------------


def _rank_gf2(columns):
    pivots = {}
    rank = 0
    for col in columns:
        while col:
            top = col.bit_length() - 1
            other = pivots.get(top)
            if other is None:
                pivots[top] = col
                rank += 1
                break
            col ^= other
    return rank


def _rank_gfp(columns, p):
    pivots = {}
    rank = 0
    for col in columns:
        col = {i: v % p for i, v in col.items() if v % p}
        while col:
            top = max(col)
            piv = pivots.get(top)
            if piv is None:
                inv = pow(col[top], -1, p)
                pivots[top] = {i: (v * inv) % p for i, v in col.items()}
                rank += 1
                break
            factor = col[top]
            for i, v in piv.items():
                nv = (col.get(i, 0) - factor * v) % p
                if nv:
                    col[i] = nv
                else:
                    col.pop(i, None)
    return rank


def boundary_ranks(faces, p):
    """Ranks over GF(p) of the boundary maps; entry k is the rank of the
    map from k-faces to (k-1)-faces (entry 0 is 0).  Each face keeps the
    vertex order it is given in, which must be one total order per face
    that restricts to its sub-faces (sorted tuples and chains both do)."""
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    top = max(by_dim, default=-1)
    ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        index = {frozenset(f): i for i, f in enumerate(by_dim.get(k - 1, []))}
        if p == 2:
            cols = []
            for f in by_dim.get(k, []):
                col = 0
                for omit in range(len(f)):
                    col |= 1 << index[frozenset(f[:omit] + f[omit + 1 :])]
                cols.append(col)
            ranks[k] = _rank_gf2(cols)
        else:
            cols = []
            for f in by_dim.get(k, []):
                cols.append({index[frozenset(f[:omit] + f[omit + 1 :])]: (-1) ** omit for omit in range(len(f))})
            ranks[k] = _rank_gfp(cols, p)
    return ranks


def homology_problems(faces, betti, torsion, primes=(2, 3)):
    """Disagreements between a claimed integer homology and the faces.

    The alternating sum of face counts must equal that of the Betti
    numbers.  For each prime p, by the universal coefficient theorem,
    dim H_k(GF(p)) = b_k + t_k(p) + t_(k-1)(p), where t_k(p) counts the
    torsion coefficients of H_k divisible by p; the left side is computed
    here from ranks of the boundary maps over GF(p).
    """
    problems = []
    fv = f_vector(faces)
    betti = list(betti)
    torsion = [list(t) for t in torsion]
    if sum((-1) ** k * n for k, n in enumerate(fv)) != sum((-1) ** k * b for k, b in enumerate(betti)):
        problems.append(f"Euler characteristic of faces {fv} differs from that of Betti numbers {betti}")
    top = max(len(fv), len(betti), len(torsion))

    def t(k, p):
        return sum(1 for d in (torsion[k] if 0 <= k < len(torsion) else ()) if d % p == 0)

    for p in primes:
        ranks = boundary_ranks(faces, p) + [0]
        for k in range(top):
            n = fv[k] if k < len(fv) else 0
            mod_p = n - (ranks[k] if k < len(ranks) else 0) - (ranks[k + 1] if k + 1 < len(ranks) else 0)
            b = betti[k] if k < len(betti) else 0
            claimed = b + t(k, p) + t(k - 1, p)
            if mod_p != claimed:
                problems.append(f"degree {k} over GF({p}): faces give {mod_p}, claimed homology gives {claimed}")
    return problems


def trimmed(values):
    """Drop trailing zero (or empty) entries, for comparing profiles."""
    out = list(values)
    while out and not out[-1]:
        out.pop()
    return out


# -- components ------------------------------------------------------------------


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def groups(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), set()).add(x)
        return {frozenset(g) for g in out.values()}


def comparability_components(members, above):
    """Components of the comparability graph on a subset of a poset."""
    members = set(members)
    uf = UnionFind(members)
    for a in members:
        for b in above[a] & members:
            uf.union(a, b)
    return uf.groups()


def face_set_components(faces):
    """Components of the complex given by a set of faces."""
    uf = UnionFind({v for f in faces for v in f})
    for f in faces:
        for v in f[1:]:
            uf.union(f[0], v)
    return uf.groups()


def epsilon_components(coords, eps):
    """Components of the graph joining points at distance <= eps.

    coords maps a point id to its coordinates.  Points are bucketed in a
    grid of side eps, so only pairs in neighbouring cells are compared.
    """
    uf = UnionFind(coords)
    grid = {}
    for pid, xy in coords.items():
        grid.setdefault(tuple(math.floor(c / eps) for c in xy), []).append(pid)
    for cell, pids in grid.items():
        neighbours = []
        for offset in _offsets(len(cell)):
            neighbours.extend(grid.get(tuple(c + o for c, o in zip(cell, offset)), ()))
        for a in pids:
            for b in neighbours:
                if a < b and math.dist(coords[a], coords[b]) <= eps:
                    uf.union(a, b)
    return uf.groups()


def _offsets(dim):
    out = [()]
    for _ in range(dim):
        out = [o + (d,) for o in out for d in (-1, 0, 1)]
    return out


# -- covers ---------------------------------------------------------------------


def intersecting_families(parts):
    """(sorted name tuple, common members) for every subfamily of the
    named sets with a non-empty intersection."""
    names = sorted(n for n in parts if parts[n])
    out = []
    layer = [((n,), frozenset(parts[n])) for n in names]
    while layer:
        grown = []
        for names_j, common in layer:
            out.append((names_j, common))
            for n in names[names.index(names_j[-1]) + 1 :]:
                both = common & parts[n]
                if both:
                    grown.append((names_j + (n,), both))
        layer = grown
    return out


def nerve_euler(parts):
    """Euler characteristic of the nerve of a family of sets."""
    return sum((-1) ** (len(j) - 1) for j, _ in intersecting_families(parts))


def completion_euler(parts, components):
    """Euler characteristic of the completion of the nerve: one cell of
    dimension |J|-1 for each component of each non-empty intersection.
    components maps a set of members to its list of components."""
    return sum((-1) ** (len(j) - 1) * len(components(common)) for j, common in intersecting_families(parts))
