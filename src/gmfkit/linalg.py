"""Exact rational linear algebra.

One Gauss-Jordan elimination over Fractions serves both the rank and the
solve.  It takes the rows in order, so the pivot rows are the first
linearly independent rows, and a row that reduces to zero is a
combination of the rows before it.  Systems here are tall and thin (at
most a few dozen rows, a handful of columns), so Fraction arithmetic on
them stays small.
"""

from __future__ import annotations

from fractions import Fraction


def _gauss_jordan(rows, width):
    """Reduce the rows in order against the pivots found so far.

    Pivots are sought only in the first ``width`` entries of a row; the
    entries after them are carried along (the right-hand side of an
    augmented system).  Returns ``(pivots, bad)``: ``pivots`` maps each
    pivot column to its row, scaled to 1 there and zero in every other
    pivot column; ``bad`` is the index of the first row whose first
    ``width`` entries reduce to zero while a carried entry does not, or
    None.
    """
    pivots = {}
    bad = None
    for i, row in enumerate(rows):
        r = [Fraction(v) for v in row]
        for c, p in pivots.items():
            if r[c]:
                factor = r[c]
                r = [v - factor * w for v, w in zip(r, p)]
        col = next((j for j in range(width) if r[j]), None)
        if col is None:
            if bad is None and any(r[width:]):
                bad = i
            continue
        inv = 1 / r[col]
        r = [v * inv for v in r]
        for c, p in pivots.items():
            if p[col]:
                factor = p[col]
                pivots[c] = [v - factor * w for v, w in zip(p, r)]
        pivots[col] = r
    return pivots, bad


def rank(rows) -> int:
    """Exact rank of a matrix with rational entries."""
    width = len(rows[0]) if rows else 0
    return len(_gauss_jordan(rows, width)[0])


def solve_full_column_rank(a_rows, b):
    """Solve the tall system A x = b where A has full column rank.

    Returns ``(x, bad_row)``: x is the unique solution of the first d
    linearly independent rows, and bad_row is the index of the first row
    with A_i . x != b_i (None when the whole system is consistent).
    Raises ValueError if A does not have full column rank.
    """
    width = len(a_rows[0]) if a_rows else 0
    pivots, bad = _gauss_jordan([list(row) + [v] for row, v in zip(a_rows, b)], width)
    if len(pivots) < width:
        raise ValueError("matrix does not have full column rank")
    return [pivots[c][width] for c in range(width)], bad
