"""The Smith normal form that `finitetopo.homology` used before its
unit-pivot phase: a min-|entry| loop over the whole matrix.

Kept only as a reference for the property tests, which compare its
invariant factors with those of `smith_normal_form`.
"""

from finitetopo import IntegerMatrix


def reference_smith_normal_form(m: IntegerMatrix) -> tuple[tuple[int, ...], int]:
    """Invariant factors (d1 | d2 | ...) and the rank, pivots of minimal
    absolute value first, ties broken by position."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)

    def set_entry(r: int, c: int, v: int) -> None:
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)
        else:
            row = rows.get(r)
            if row and c in row:
                del row[c]
                if not row:
                    del rows[r]
                cols[c].discard(r)
                if not cols[c]:
                    del cols[c]

    def add_multiple_of_row(target: int, source: int, q: int) -> None:
        # row[target] += q * row[source]
        for c, v in list(rows.get(source, {}).items()):
            set_entry(target, c, rows.get(target, {}).get(c, 0) + q * v)

    def add_multiple_of_col(target: int, source: int, q: int) -> None:
        for r in list(cols.get(source, set())):
            v = rows[r][source]
            set_entry(r, target, rows.get(r, {}).get(target, 0) + q * v)

    def min_entry() -> tuple[int, int] | None:
        best = None
        best_key = None
        for r, row in rows.items():
            for c, v in row.items():
                key = (abs(v), r, c)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (r, c)
        return best

    factors: list[int] = []
    while rows:
        while True:
            pos = min_entry()
            if pos is None:
                break
            r, c = pos
            pivot = rows[r][c]
            dirty = False
            for r2 in list(cols.get(c, set())):
                if r2 == r:
                    continue
                q = rows[r2][c] // pivot
                if q:
                    add_multiple_of_row(r2, r, -q)
                if rows.get(r2, {}).get(c):
                    dirty = True  # remainder left, pivot will move there
            for c2 in list(rows.get(r, {})):
                if c2 == c:
                    continue
                q = rows[r][c2] // pivot
                if q:
                    add_multiple_of_col(c2, c, -q)
                if rows.get(r, {}).get(c2):
                    dirty = True
            if not dirty and cols.get(c) == {r} and set(rows.get(r, {})) == {c}:
                # pivot isolated; pull in any entry it does not divide yet
                bad = None
                for r2, row in rows.items():
                    if r2 == r:
                        continue
                    for c2, v in row.items():
                        if v % pivot:
                            bad = r2
                            break
                    if bad is not None:
                        break
                if bad is None:
                    factors.append(abs(pivot))
                    set_entry(r, c, 0)
                    break
                add_multiple_of_row(r, bad, 1)

    return tuple(factors), len(factors)
