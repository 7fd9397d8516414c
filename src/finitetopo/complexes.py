"""Simplicial complexes, regular CW data, and the functors linking them to posets.

Identifiers stay strings throughout.  A cell of a face poset is named by
joining its sorted vertices with commas, so "a,b" is the edge on a and b.

Boundary matrices are read off one chain tree (`chain_tree`), rooted at
the empty face, in which a face is two ints: the index of its prefix (the
face minus its top) one level down and its top.  No face is named on the
way to homology.  They are `IntegerMatrix` values, stored by column; the
class lives here with its product, which the builders use for their ∂∂=0
check, and `homology` only reads its columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import InputError, ValidationError
from .poset import Poset, _iter_bits


class SimplicialComplex:
    """An abstract simplicial complex stored by its facets."""

    def __init__(self, simplices: Iterable[Iterable[str]]):
        seen: set[tuple[str, ...]] = set()
        for s in simplices:
            s = tuple(s)
            if not s:
                raise InputError("simplices must be non-empty")
            # checked before they are hashed and sorted, to name a bad one
            for v in s:
                if not isinstance(v, str) or v == "":
                    raise InputError(f"vertex identifiers must be non-empty strings, got {v!r}")
            seen.add(tuple(sorted(set(s))))
        # only a strictly larger simplex can contain another, so each one is
        # tested against the kept facets of larger size, largest size first
        facets: list[tuple[str, ...]] = []
        larger: list[frozenset[str]] = []
        for size in sorted({len(t) for t in seen}, reverse=True):
            kept = [t for t in seen if len(t) == size and not any(u.issuperset(t) for u in larger)]
            facets.extend(kept)
            larger.extend(map(frozenset, kept))
        self.facets: tuple[tuple[str, ...], ...] = tuple(sorted(facets))
        self._faces: frozenset[tuple[str, ...]] | None = None

    @property
    def faces(self) -> frozenset[tuple[str, ...]]:
        if self._faces is None:
            out: set[tuple[str, ...]] = set()
            for f in self.facets:
                for k in range(1, len(f) + 1):
                    out.update(itertools.combinations(f, k))
            self._faces = frozenset(out)
        return self._faces

    def faces_by_dim(self) -> list[list[tuple[str, ...]]]:
        top = self.dim()
        out: list[list[tuple[str, ...]]] = [[] for _ in range(top + 1)]
        for f in self.faces:
            out[len(f) - 1].append(f)
        for row in out:
            row.sort()
        return out

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(sorted({v for f in self.facets for v in f}))

    def dim(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.faces_by_dim())

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return all(f in other.faces for f in self.facets)

    def __len__(self) -> int:
        return len(self.faces)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.facets)} facets, dim {self.dim()})"


@lru_cache(maxsize=4096)
def order_complex(p: Poset) -> SimplicialComplex:
    """The complex of non-empty chains; facets are the maximal chains."""
    chains: list[tuple[str, ...]] = []
    stack = [(e,) for e in p.minimal_elements()]
    while stack:
        chain = stack.pop()
        succs = p.cover_successors(chain[-1])
        if not succs:
            chains.append(chain)
        stack.extend(chain + (s,) for s in succs)
    return SimplicialComplex(chains)


def chain_tree(k: SimplicialComplex | Poset, mask: int | None = None) -> list[tuple[list[int], list[int]]]:
    """The faces of k by dimension as a tree rooted at the empty face:
    level d lists each face's prefix (the face minus its top, an index
    into level d-1, or 0 for the root) and its top.

    A poset's faces (inside mask, if given) are its chains, tops being
    element indices.  Each chain grows by every member above its top, in
    index order, so it is listed once, bottom to top, and all chains are
    ordered by the same linear extension, which orients the order complex
    consistently.  A complex's faces are those of `faces_by_dim()`, in
    its order, tops being indices into `vertices`.
    """
    levels: list[tuple[list[int], list[int]]] = []
    if isinstance(k, SimplicialComplex):
        vertex = {v: i for i, v in enumerate(k.vertices)}
        index: dict[tuple[str, ...], int] = {(): 0}
        for row in k.faces_by_dim():
            levels.append(([index[f[:-1]] for f in row], [vertex[f[-1]] for f in row]))
            index = {f: i for i, f in enumerate(row)}
        return levels
    if mask is None:
        mask = k.full_mask()
    members = list(_iter_bits(mask))
    above = {i: list(_iter_bits(k._up[i] & mask & ~(1 << i))) for i in members}
    prefix, top = [0] * len(members), members
    while top:
        levels.append((prefix, top))
        prefix, longer = [], []
        for g, t in enumerate(top):
            js = above[t]
            prefix += [g] * len(js)
            longer += js
        top = longer
    return levels


def chains_of(tree: list[tuple[list[int], list[int]]]) -> list[tuple[int, ...]]:
    """Every face of a chain tree, level by level, as the tuple of its tops
    from the root down (a poset's chain as element indices, bottom to top)."""
    out: list[tuple[int, ...]] = []
    level: list[tuple[int, ...]] = [()]
    for prefix, top in tree:
        level = [level[g] + (t,) for g, t in zip(prefix, top)]
        out += level
    return out


_CELL_SEP = ","


def cell_id(simplex: Iterable[str]) -> str:
    return _CELL_SEP.join(sorted(simplex))


def cell_vertices(cid: str) -> tuple[str, ...]:
    return tuple(cid.split(_CELL_SEP))


def face_poset(k: SimplicialComplex) -> Poset:
    """Faces ordered by inclusion, named via cell_id."""
    for v in k.vertices:
        if _CELL_SEP in v:
            raise InputError(f"vertex identifier {v!r} may not contain {_CELL_SEP!r}")
    elements = [cell_id(f) for f in k.faces]
    pairs = []
    for f in k.faces:
        if len(f) > 1:
            for sub in itertools.combinations(f, len(f) - 1):
                pairs.append((cell_id(sub), cell_id(f)))
    return Poset(elements, pairs)


def barycentric_poset(p: Poset) -> Poset:
    """Poset of non-empty chains ordered by inclusion.

    Chain names are built from element indices, not element names, so
    elements whose names contain the cell separator stay usable.
    """
    chains = [tuple(sorted(c)) for c in chains_of(chain_tree(p))]
    name = {c: "c" + ".".join(map(str, c)) for c in chains}
    pairs = [(name[c[:k] + c[k + 1:]], name[c]) for c in chains if len(c) > 1 for k in range(len(c))]
    return Poset(name.values(), pairs)


def barycentric_complex(k: SimplicialComplex) -> SimplicialComplex:
    """Order complex of the face poset.

    A face becomes a vertex named from its vertex indices, as in
    barycentric_poset, so the result can be subdivided again.
    """
    idx = {v: i for i, v in enumerate(k.vertices)}
    name = {cell_id(f): "c" + ".".join(str(idx[v]) for v in f) for f in k.faces}
    return SimplicialComplex(
        [name[c] for c in chain] for chain in order_complex(face_poset(k)).facets
    )


@dataclass(frozen=True)
class RegularCWComplex:
    """A regular CW complex presented by its face poset and a cell-dimension map."""

    poset: Poset
    dim: dict[str, int]

    def cells_by_dim(self) -> list[list[str]]:
        top = max(self.dim.values(), default=0)
        out: list[list[str]] = [[] for _ in range(top + 1)]
        for c in self.poset.elements:
            out[self.dim[c]].append(c)
        return out

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.cells_by_dim())

    def __hash__(self) -> int:  # the generated hash would fail on the dim dict
        return hash((self.poset, tuple(sorted(self.dim.items()))))


def cw_from_face_poset(p: Poset, dim: dict[str, int]) -> RegularCWComplex:
    """Validate that (p, dim) presents a regular CW complex whose cells are simplices.

    p must be a simplicial poset (`simplicial_cells`) and each cell's
    dimension one less than the number of its vertices, so a cover edge
    raises dimension by exactly one.
    """
    if set(dim) != set(p.elements):
        raise ValidationError("dimension map must cover exactly the cells of the poset")
    for c, d in dim.items():
        if d < 0:
            raise ValidationError(f"cell {c!r} has negative dimension")
    for i, (k, _) in simplicial_cells(p, p.full_mask()).items():
        c = p.elements[i]
        if dim[c] != k - 1:
            raise ValidationError(f"cell {c!r} of dimension {dim[c]} has {k} vertices below it")
    return RegularCWComplex(p, dict(dim))


def simplicial_cells(p: Poset, mask: int) -> dict[int, tuple[int, list[int]]]:
    """Each member x of mask with the number k of its vertices (the minimal
    members below it) and its facets, in the index order of the vertex
    each one lacks, when mask is a simplicial poset.

    The down-set D of x inside mask must hold 2^k - 1 elements, no two
    with the same vertex set; then y -> V(y) is an order isomorphism from D
    onto the non-empty subsets of V(x) (if V(y) ⊆ V(z), the element below z
    with y's vertex set is y).  Given the counts, the vertex sets in D
    differ once the facets of x (the y with k - 1 vertices) lack k different
    vertices: by induction on k their down-sets hold an element for each
    proper subset, and with x that is all of D.  When D lies inside mask the
    facets are covers of x.  Raises ValidationError naming the first
    member that fails.
    """
    down = p._down
    members = list(_iter_bits(mask))
    below = [down[i] & mask for i in members]
    vertices = sum(d for i, d in zip(members, below) if d == 1 << i)  # the minimal members, a bit each
    verts, sizes = {}, {}
    for i, d in zip(members, below):
        v = verts[i] = d & vertices
        k = sizes[i] = v.bit_count()
        if d.bit_count() != (1 << k) - 1:
            raise ValidationError(f"cell {p.elements[i]!r} has {d.bit_count()} faces; "
                                  f"a simplex on a vertex set of size {k} has {(1 << k) - 1}")
    cells = {}
    for i, d in zip(members, below):
        v, k = verts[i], sizes[i]
        lacking = {}
        if k > 1:
            rest = p._pred_masks[i] if d == down[i] else d ^ (1 << i)
            while rest:
                j = rest.bit_length() - 1
                rest ^= 1 << j
                if sizes[j] == k - 1:
                    lacking[v ^ verts[j]] = j
            if len(lacking) != k:
                raise ValidationError(f"cell {p.elements[i]!r}: two faces share the same vertex set")
        cells[i] = (k, [lacking[b] for b in sorted(lacking)])
    return cells


class IntegerMatrix:
    """Sparse integer matrix stored by column: column c is columns[c], a
    dict from a row in 0..rows-1 to a non-zero value.  `entries`, the
    (row, col) view, is a copy built on request; nothing in the package
    reads it."""

    def __init__(self, rows: int, columns: list[dict[int, int]]):
        used = set().union(*columns)  # empty for every product ∂k·∂k+1, which then has no values
        values = itertools.chain.from_iterable(map(dict.values, columns))
        if used and (min(used) < 0 or max(used) >= rows or not all(values)):
            # the same test column by column, only to name the first bad one
            for c, col in enumerate(columns):
                if col and (min(col) < 0 or max(col) >= rows or 0 in col.values()):
                    raise ValueError(f"column {c} has a row outside 0..{rows - 1} or a zero value")
        self.rows, self.cols, self.columns = rows, len(columns), columns

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        return {(r, c): v for c, column in enumerate(self.columns) for r, v in column.items()}

    def is_zero(self) -> bool:
        return not any(self.columns)

    def compose(self, other: "IntegerMatrix") -> "IntegerMatrix":
        """The product self·other, one column at a time.

        Column c of the product is the sum of w times column k of self over
        the entries (k, w) of other's column c; it is summed in one list
        indexed by row, shared by every column, and the rows it touched
        are read off and reset to zero after each column.  Only non-zero
        sums are kept (none is copied when all are zero, as in every
        column of ∂k·∂k+1).  Both factors are read by column as stored.
        The cost is nnz(other) times the largest column of self: for
        boundary matrices ∂k·∂k+1 that is nnz(∂k+1)·(k+1).
        """
        if self.cols != other.rows:
            raise ValueError("shape mismatch in composition")
        left = self.columns
        sums = [0] * self.rows
        product: list[dict[int, int]] = []
        for column in other.columns:
            touched: list[int] = []
            for k, w in column.items():
                for r, v in left[k].items():
                    if not sums[r]:
                        touched.append(r)
                    sums[r] += v * w
            kept = {}
            for r in touched:
                if sums[r]:
                    kept[r] = sums[r]
                    sums[r] = 0
            product.append(kept)
        return IntegerMatrix(self.rows, product)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.columns) == (other.rows, other.cols, other.columns)

    def __repr__(self) -> str:
        return f"IntegerMatrix({self.rows}x{self.cols}, {sum(map(len, self.columns))} non-zero)"


@dataclass(frozen=True)
class ChainComplexPresentation:
    """Integer boundary matrices of a simplicial complex, of a poset's
    order complex or of a simplicial poset's cells, and the number of
    faces in each degree.  A simplex of a complex is oriented by the
    lexicographic order of its vertices, a chain of a poset from bottom to
    top, a cell by the index order of its vertices."""

    sizes: tuple[int, ...]
    boundaries: tuple[IntegerMatrix, ...]  # boundaries[k-1] maps degree k to k-1


def chain_complex(k: SimplicialComplex | Poset, mask: int | None = None) -> ChainComplexPresentation:
    """The boundary matrices, read off `chain_tree`, with ∂∂=0 checked on every pair.

    Column j of ∂d is the boundary of the j-th face f of degree d:
    {index of f minus its i-th vertex: (-1)^i}.  For f = P·t, dropping an
    i < d drops it from P and keeps the top t, and dropping t leaves P,
    so column f is {ext[g·n + t]: s for g, s in column P of ∂d-1} ∪
    {P: (-1)^d}, in the order of i; ext indexes the faces g·t of degree
    d-1 by one int (n is above every top).  A vertex's column is {0: +1},
    the empty face, so column P·t of ∂1 is {index of t: +1, P: -1}.

    A poset (restricted to mask, if given) gives the chain complex of its
    order complex without building that complex.
    """
    tree = chain_tree(k, mask)
    if not tree:
        return ChainComplexPresentation((), ())
    sizes = tuple(len(top) for _, top in tree)
    n = max(tree[0][1]) + 1
    columns: list[dict[int, int]] = [{0: 1}] * sizes[0]
    boundaries = []
    for d in range(1, len(tree)):
        below, ext = columns, {g * n + t: j for j, (g, t) in enumerate(zip(*tree[d - 1]))}
        sign = -1 if d % 2 else 1
        columns = []
        for g, t in zip(*tree[d]):
            column = {ext[h * n + t]: s for h, s in below[g].items()}
            column[g] = sign
            columns.append(column)
        boundaries.append(IntegerMatrix(sizes[d - 1], columns))
    return _checked(sizes, boundaries)


def cellular_chain_complex(p: Poset, mask: int | None = None) -> ChainComplexPresentation | None:
    """The cellular chain complex of p (restricted to mask, if given) when
    it is a simplicial poset, else None.

    A simplicial poset is the face poset of a regular CW complex whose
    cells are simplices, and its order complex subdivides that complex
    (Björner, Europ. J. Combin. 5, 1984), so both have the same homology;
    here there is one generator per element, not one per chain.  Cells of
    degree d are the members with d + 1 vertices, in index order.  The
    column of a cell x lists its facets: the facet opposite the i-th
    vertex of x, in index order, is the y below x whose vertex set lacks
    just that vertex, with sign (-1)^i.
    """
    if mask is None:
        mask = p.full_mask()
    try:
        cells = simplicial_cells(p, mask)
    except ValidationError:
        return None
    by_dim: list[list[int]] = [[] for _ in range(max((k for k, _ in cells.values()), default=0))]
    for i, (k, _) in cells.items():
        by_dim[k - 1].append(i)
    index = {i: j for row in by_dim for j, i in enumerate(row)}
    boundaries = [
        IntegerMatrix(len(by_dim[d - 1]), [
            {index[j]: -1 if n % 2 else 1 for n, j in enumerate(cells[i][1])} for i in by_dim[d]
        ])
        for d in range(1, len(by_dim))
    ]
    return _checked(tuple(map(len, by_dim)), boundaries)


def _checked(sizes: tuple[int, ...], boundaries: list) -> ChainComplexPresentation:
    """The presentation, once ∂∂=0 holds on every pair of boundary matrices."""
    for a, b in zip(boundaries, boundaries[1:]):
        if not a.compose(b).is_zero():
            raise ValidationError("boundary composition is non-zero")
    return ChainComplexPresentation(sizes, tuple(boundaries))
