"""Dense forms of an `IntegerMatrix` and its rank over the prime field GF(p).

Only the tests use them: the rank over GF(p) tells torsion apart from
rank (criterion 7 and the rank-path tests), and the dense rows write a
matrix, or read one, the way a reader checks it by hand.
"""

from finitetopo import IntegerMatrix


def from_dense(data: list[list[int]]) -> IntegerMatrix:
    """The matrix with the given rows; a matrix without rows has no columns."""
    cols = len(data[0]) if data else 0
    return IntegerMatrix(len(data), [{r: row[c] for r, row in enumerate(data) if row[c]} for c in range(cols)])


def to_dense(m: IntegerMatrix) -> list[list[int]]:
    out = [[0] * m.cols for _ in range(m.rows)]
    for c, column in enumerate(m.columns):
        for r, v in column.items():
            out[r][c] = v
    return out


def rank_mod_p(m: IntegerMatrix, p: int) -> int:
    """Rank over GF(p) by Gauss-Jordan elimination on the dense rows."""
    a = [[v % p for v in row] for row in to_dense(m)]
    rows, cols = m.rows, m.cols
    rank = 0
    for col in range(cols):
        pivot_row = next((r for r in range(rank, rows) if a[r][col]), None)
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [(v * inv) % p for v in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [(v - f * w) % p for v, w in zip(a[r], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank
