"""Integer simplicial homology via Smith normal form.

Everything is exact: Python integers, no floating point, no field
shortcuts on the main path.  A boundary matrix is an `IntegerMatrix`,
stored by column and built in `complexes`, one column per face, as in
Bauer's Ripser (J. Appl. Comput. Topol. 5, 2021), each read off the
column of the face's prefix in a chain tree, with no face names
(`chain_complex`); Smith normal form and the fraction-free rank here only
read the columns as stored.  A poset whose every down-set is the face lattice of
a simplex (a simplicial poset: face posets, subdivisions, nerves,
completions) skips the order complex: its cellular chain complex has one
generator per element (`cellular_chain_complex`), and the same homology.
`homology()` is the one entry point, also for the subspace an element set
spans; it caches one unreduced profile per order, which subspaces of
any poset share, and each command (`cli.main`) starts with it empty.

Smith normal form runs in two phases, after Dumas, Saunders and
Villard (J. Symbolic Comput. 32, 2001): phase 1 eliminates
every ±1 pivot by sparse Schur-complement steps, first every ±1 that is
alone in its row or its column (a singleton pass, which makes no
update), then the rest by sweeps over the columns in index order until
one takes no pivot, which takes out most of the rank of a boundary
matrix; phase 2 copies the small block that is left into a dense matrix
and runs the min-|entry| reduction with its divisibility fix on it,
where torsion shows.  Both phases are purely algebraic: no beat points,
weak points or collapses, so the oracle can audit those reductions.

`profile_from_chain_complex` reduces the boundary matrices from the top
degree down and clears as it goes (the twist of Chen and Kerber,
restricted to unit pivots): the rows R and columns C of ∂k+1 that phase 1
pivots on bound a block of determinant ±1, so from ∂k∂k+1 = 0 each column
of ∂k indexed by R is an integer combination of the others, and those
columns are left out of ∂k without changing its rank or an invariant
factor.  Rows that phase 2 pivots on are never cleared: their pivots are
not units, and over Z such a column need not be a combination.

Two checks stay on.  Both builders in `complexes` test ∂∂=0 on every
pair of boundary matrices with `IntegerMatrix.compose`, a sparse product
summed one column at a time.  On every matrix up to 50x50 the rank is
re-derived by `fraction_free_rank`, a column reduction by lowest row over
Q in integers only, on the whole, uncleared matrix: an exact cross-check
of both phases and of the clearing.  It is independent of phase 1: it
shares no code with it, reads every column, cleared or not, in stored
order, and its pivots need not be units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

from . import complexes
from .complexes import IntegerMatrix
from .poset import ElementSet, Poset, _iter_bits, bit_list


_VERIFY_LIMIT = 50
_UNITS = (1, -1)


def smith_normal_form(
    m: IntegerMatrix, clear: frozenset[int] | set[int] = frozenset(), pivot_rows: set[int] | None = None
) -> tuple[tuple[int, ...], int]:
    """Invariant factors (d1 | d2 | ...) and the rank.

    Phase 1 removes the ±1 pivots (`_eliminate_unit_pivots`); phase 2
    (`_min_entry_factors`) reduces the small block they leave as a dense
    matrix.  The columns in `clear` are left out first; the caller vouches
    that they are integer combinations of the others (see
    `profile_from_chain_complex`).  The rows phase 1 pivots on are added to
    `pivot_rows` when it is given.  On matrices up to 50x50 the rank is
    re-derived independently, from m with every column.
    """
    by_row: list[dict[int, int]] = [{} for _ in range(m.rows)]
    cols: dict[int, set[int]] = {}
    for c, column in enumerate(m.columns):
        if column and c not in clear:
            cols[c] = set(column)
            for r, v in column.items():
                by_row[r][c] = v
    rows = {r: row for r, row in enumerate(by_row) if row}

    pivots = _eliminate_unit_pivots(rows, cols)
    if pivot_rows is not None:
        pivot_rows.update(r for r, _ in pivots)
    factors = [1] * len(pivots) + _min_entry_factors(rows)

    if m.rows <= _VERIFY_LIMIT and m.cols <= _VERIFY_LIMIT:
        if len(factors) != fraction_free_rank(m):
            raise AssertionError("Smith rank disagrees with fraction-free elimination")
    return tuple(factors), len(factors)


def _eliminate_unit_pivots(rows: dict[int, dict[int, int]], cols: dict[int, set[int]]) -> list[tuple[int, int]]:
    """Phase 1: remove every ±1 pivot by a sparse Schur-complement step.

    For a pivot p at (r, c), each other row r2 of column c becomes
    row_r2 - row_r2[c]·p·row_r, which clears column c outside row r; then
    row r and column c are dropped.  Since p is a unit, this changes the
    invariant factors only by the one factor 1 it removes, and the block
    of the input on the pivot rows and columns has determinant ±1.

    After `_unit_singletons`, sweeps walk the columns in index order and
    pivot in each on the ±1 entry in its shortest row, until a sweep takes
    no pivot: then no ±1 is left.  A column filled in by a sweep waits for
    the next, else on a closed surface's top boundary (two entries in
    every row) each step hands its column on to a later one, which grows
    through the sweep.  In place; returns the pivots (r, c) in order.
    """
    pivots = _unit_singletons(rows, cols)
    swept = True
    while swept:
        swept = False
        grown: set[int] = set()
        for c in [c for c, col in cols.items() if col]:
            if c in grown:
                continue
            _, r = min(((len(rows[i]), i) for i in cols[c] if rows[i][c] in _UNITS), default=(0, None))
            if r is None:
                continue
            pivot_row = rows.pop(r)
            p = pivot_row.pop(c)
            for c2 in pivot_row:
                cols[c2].remove(r)
            column = cols.pop(c)
            column.remove(r)
            if column:
                grown.update(pivot_row)
            for r2 in column:
                target = rows[r2]
                f = target.pop(c) * p
                for c2, v in pivot_row.items():
                    new = target.get(c2, 0) - f * v
                    if new:
                        target[c2] = new
                        cols[c2].add(r2)
                    else:
                        del target[c2]
                        cols[c2].discard(r2)
                if not target:
                    del rows[r2]
            pivots.append((r, c))
            swept = True
    return pivots


def _unit_singletons(rows: dict[int, dict[int, int]], cols: dict[int, set[int]]) -> list[tuple[int, int]]:
    """The singleton pass (after Kaczynski, Mrozek and Ślusarek, Comput.
    Math. Appl. 35, 1998): a ±1 alone in its column or row is a pivot that
    only deletes its row and column, which may leave the next ±1 singleton;
    other singletons are left for phase 2.  In place, like the sweep."""
    pivots: list[tuple[int, int]] = []
    queue = [(r, c) for c, column in cols.items() if len(column) == 1 for r in column if rows[r][c] in _UNITS]
    queue += [(r, c) for r, row in rows.items() if len(row) == 1 for c, v in row.items() if v in _UNITS]
    while queue:
        r, c = queue.pop()
        if r not in rows or c not in cols:
            continue  # taken out by an earlier singleton
        pivot_row = rows.pop(r)
        del pivot_row[c]
        for c2 in pivot_row:
            column = cols[c2]
            column.remove(r)
            if len(column) == 1:
                (r2,) = column
                if rows[r2][c2] in _UNITS:
                    queue.append((r2, c2))
        column = cols.pop(c)
        column.remove(r)
        for r2 in column:
            row = rows[r2]
            del row[c]
            if len(row) == 1:
                ((c2, v),) = row.items()
                if v in _UNITS:
                    queue.append((r2, c2))
            elif not row:
                del rows[r2]
        pivots.append((r, c))
    return pivots


def _min_entry_factors(rows: dict[int, dict[int, int]]) -> list[int]:
    """Phase 2: invariant factors of what phase 1 left, in divisibility order.

    The block is small, so it is copied into a dense list of rows.  The
    pivot is an entry of least absolute value, ties broken by position;
    its column is cleared by row operations and its row by column
    operations.  A remainder becomes the next pivot.  An isolated pivot
    that does not divide every other entry pulls in a row holding one it
    does not divide; otherwise it is recorded and its row and column go.
    """
    columns = sorted({c for row in rows.values() for c in row})
    a = [[row.get(c, 0) for c in columns] for row in rows.values()]
    factors: list[int] = []
    while a := [row for row in a if any(row)]:
        _, r, c = min((abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v)
        pivot_row = a[r]
        p = pivot_row[c]
        for i, row in enumerate(a):
            if i != r and row[c]:
                q = row[c] // p
                a[i] = [v - q * w for v, w in zip(row, pivot_row)]
        for j, v in enumerate(pivot_row):
            if j != c and v:
                q = v // p
                for row in a:
                    row[j] -= q * row[c]
        if any(row[c] for i, row in enumerate(a) if i != r) or any(pivot_row[:c] + pivot_row[c + 1:]):
            continue  # a remainder is the next pivot
        bad = next((row for row in a if any(v % p for v in row)), None)
        if bad is not None:
            a[r] = [v + w for v, w in zip(pivot_row, bad)]
            continue
        factors.append(abs(p))
        del a[r]
        for row in a:
            del row[c]
    return factors


def fraction_free_rank(m: IntegerMatrix) -> int:
    """Rank over the rationals by column reduction in integers only.

    The columns are read as stored, left to right (Edelsbrunner, Letscher
    and Zomorodian, Discrete Comput. Geom. 28, 2002).  A column's pivot is
    its lowest row.  While another column already holds that row as its
    pivot, with entry p there where the column has f, the column becomes
    a·col − b·pivot_col, with a = p/g and b = f/g for g = gcd(p, f), and is
    divided by the gcd of its entries.  The rank is the number of pivot
    columns.  A column is copied when it first changes, so m is never
    mutated.  Independent of `smith_normal_form`: no code is shared with
    its phases, the columns it leaves out are read too, the order is the
    stored one and not phase 1's, and any pivot will do, unit or not.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in m.columns:
        owned = False
        while col:
            low = max(col)
            pivot_col = pivots.get(low)
            if pivot_col is None:
                pivots[low] = col
                break
            p, f = pivot_col[low], col[low]
            g = gcd(p, f)
            a, b = p // g, f // g
            if a in _UNITS:
                b *= a  # a·col − b·pivot_col is a times col − (a·b)·pivot_col
                col = col if owned else dict(col)
            else:
                col = {k: a * v for k, v in col.items()}
            owned = True
            for k, w in pivot_col.items():
                v = col.get(k, 0) - b * w
                if v:
                    col[k] = v
                else:
                    del col[k]
            if col and (content := gcd(*col.values())) > 1:
                col = {k: v // content for k, v in col.items()}
    return len(pivots)


@dataclass(frozen=True)
class HomologyProfile:
    """Betti numbers and torsion coefficients per degree."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    reduced: bool = False

    def degree(self, k: int) -> tuple[int, tuple[int, ...]]:
        b = self.betti[k] if 0 <= k < len(self.betti) else 0
        t = self.torsion[k] if 0 <= k < len(self.torsion) else ()
        return b, t

    def top_degree(self) -> int:
        return max(len(self.betti), len(self.torsion)) - 1

    def nonzero_degrees(self) -> tuple[int, ...]:
        out = []
        for k in range(self.top_degree() + 1):
            b, t = self.degree(k)
            if b or t:
                out.append(k)
        return tuple(out)

    def describe(self) -> str:
        parts = []
        for k in range(self.top_degree() + 1):
            b, t = self.degree(k)
            gens = ["Z"] * b + [f"Z/{d}" for d in t]
            parts.append(f"H{k}=" + ("+".join(gens) if gens else "0"))
        return " ".join(parts) if parts else "(empty)"


def profile_from_chain_complex(chain) -> HomologyProfile:
    """Betti numbers and torsion from the boundary matrices, top degree first.

    Clearing (the twist of Chen and Kerber, restricted to unit pivots):
    the rows R and columns C that phase 1 pivots on in ∂k+1 bound a block
    ∂k+1[R,C] of determinant ±1, and ∂k∂k+1 = 0, so each column of ∂k
    indexed by R is an integer combination of its other columns.  Leaving
    those columns out of ∂k changes neither its rank nor an invariant
    factor.  Rows pivoted on in phase 2 have a non-unit pivot and are
    never cleared.
    """
    if not chain.sizes:
        return HomologyProfile((), ())
    factor_lists: list[tuple[int, ...]] = []
    cleared: set[int] = set()
    for b in reversed(chain.boundaries):
        pivot_rows: set[int] = set()
        factor_lists.append(smith_normal_form(b, cleared, pivot_rows)[0])
        cleared = pivot_rows
    factor_lists.reverse()
    ranks = [0] + [len(f) for f in factor_lists] + [0]
    betti = tuple(n - ranks[k] - ranks[k + 1] for k, n in enumerate(chain.sizes))
    torsion = tuple(tuple(d for d in f if d > 1) for f in factor_lists) + ((),)
    return HomologyProfile(betti, torsion)


def _reduced(plain: HomologyProfile) -> HomologyProfile:
    """The reduced profile: b̃0 = b0 − 1 on a non-empty complex, every other
    Betti number and all torsion unchanged; the empty complex has no degrees."""
    if not plain.betti:
        return HomologyProfile((), (), True)
    return HomologyProfile((plain.betti[0] - 1,) + plain.betti[1:], plain.torsion, True)


@dataclass(frozen=True)
class _Order:
    """A subspace's key in the homology cache: the up-set of each member
    inside the mask, renumbered 0…k−1 in index order.  The builders read
    nothing else, so equal orders give identical boundary matrices.  The
    subspace rides along, outside comparison and hash, for a miss to build
    from."""

    up: tuple[int, ...]
    subspace: ElementSet = field(compare=False)


def _order(s: ElementSet) -> _Order:
    p, mask = s.poset, s.mask
    if mask == p.full_mask():
        return _Order(tuple(p._up), s)
    bit = {i: 1 << r for r, i in enumerate(bit_list(mask))}
    return _Order(tuple(sum(bit[j] for j in _iter_bits(p._up[i] & mask)) for i in bit), s)


@lru_cache(maxsize=8192)
def _poset_homology(order: _Order) -> HomologyProfile:
    """Unreduced homology of a subspace, from its cellular chain complex
    when it is a simplicial poset, else from its order complex's chains.
    One entry per order: the first subspace of each order is built, with
    every check, and later ones, the reduced profile too, read it."""
    s = order.subspace
    chain = complexes.cellular_chain_complex(s.poset, s.mask)
    if chain is None:
        chain = complexes.chain_complex(s.poset, s.mask)
    return profile_from_chain_complex(chain)


def homology(obj, reduced: bool = False) -> HomologyProfile:
    """Homology of a poset, the subspace an element set of one spans (a
    poset is its full element set), a simplicial complex, or a regular CW
    complex, which here has simplex cells and so is its face poset's
    cellular complex.  Every subspace is read through `_poset_homology`.
    """
    if isinstance(obj, complexes.RegularCWComplex):
        obj = obj.poset
    if isinstance(obj, Poset):
        obj = ElementSet(obj, obj.full_mask())
    if isinstance(obj, ElementSet):
        plain = _poset_homology(_order(obj))
    elif isinstance(obj, complexes.SimplicialComplex):
        plain = profile_from_chain_complex(complexes.chain_complex(obj))
    else:
        raise TypeError(f"cannot compute homology of {type(obj).__name__}")
    return _reduced(plain) if reduced else plain


def euler_characteristic(obj) -> int:
    """χ of a poset's order complex, or of a complex from its f-vector.

    A poset's chains are counted with signs, not listed: along a linear
    extension, e(x) = 1 − Σ_{y<x} e(y) is the alternating count of the
    chains whose top is x (x alone, or x on top of a chain below it, one
    degree up), and χ = Σ e(x).  The count is independent of homology and
    of the cellular test, so the two can audit each other."""
    if isinstance(obj, Poset):
        signed = [0] * len(obj)
        for i in obj._order:
            signed[i] = 1 - sum(signed[j] for j in _iter_bits(obj._down[i] & ~(1 << i)))
        return sum(signed)
    if isinstance(obj, (complexes.SimplicialComplex, complexes.RegularCWComplex)):
        return sum((-1) ** k * n for k, n in enumerate(obj.f_vector()))
    raise TypeError(f"cannot compute the Euler characteristic of {type(obj).__name__}")


def same_homology(a: HomologyProfile, b: HomologyProfile, through_degree: int | None = None) -> tuple[bool, list[str]]:
    """Degree-wise comparison; returns (equal, mismatch descriptions)."""
    if a.reduced != b.reduced:
        raise ValueError("cannot compare a reduced profile with an unreduced one")
    top = max(a.top_degree(), b.top_degree())
    if through_degree is not None:
        top = min(top, through_degree)
    diffs = []
    for k in range(top + 1):
        if a.degree(k) != b.degree(k):
            diffs.append(f"degree {k}: {a.degree(k)} vs {b.degree(k)}")
    return not diffs, diffs


def certified_homology(what: str, a, b, certified: bool = True, through_degree: int | None = None):
    """(homology of a, homology of b, equal or None if not certified); a
    certified statement `what` whose two sides differ is a soundness failure."""
    ha, hb = homology(a), homology(b)
    if not certified:
        return ha, hb, None
    equal, diffs = same_homology(ha, hb, through_degree)
    if not equal:
        raise AssertionError(f"{what} with unequal homology: {diffs}")
    return ha, hb, equal
