"""Exact linear algebra over Z: one fraction-free elimination kernel.

`echelon` is Gauss-Jordan elimination in Bareiss's fraction-free form
(Bareiss 1968, Math. Comp. 22): every entry stays an integer, and each
step divides by the previous pivot, a division that is exact because
every entry is a minor of the input.  The remainder is checked all the
same.  `nullspace` reads its Fraction basis off the echelon form.
"""

from __future__ import annotations

from fractions import Fraction


def echelon(rows) -> tuple[list[int], list[list[int]], int]:
    """Fraction-free reduced row echelon form of an integer matrix.

    Returns (pivot_cols, pivot_rows, last_pivot): pivot_rows[i] has the
    entry last_pivot in column pivot_cols[i] and 0 in every other pivot
    column, so pivot_rows / last_pivot is the reduced row echelon form
    with its zero rows dropped.  last_pivot is 1 for a zero matrix.
    Raises ArithmeticError if a division by the previous pivot is not
    exact."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivot_cols: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivot_cols)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            new = []
            for a, b in zip(row, top):
                q, rem = divmod(p * a - f * b, prev)
                if rem:
                    raise ArithmeticError("Bareiss division is not exact")
                new.append(q)
            rows[i] = new
        pivot_cols.append(c)
        prev = p
        if r + 1 == len(rows):
            break
    return pivot_cols, rows[:len(pivot_cols)], prev


def nullspace(rows) -> list[list[Fraction]]:
    """Basis of the right nullspace of an integer matrix: one vector per
    free column, in column order, with 1 in its own free column, 0 in the
    other free columns, and the negated reduced-echelon entries in the
    pivot columns."""
    ncols = len(rows[0]) if rows else 0
    pivot_cols, prows, d = echelon(rows)
    basis = []
    for fc in (j for j in range(ncols) if j not in pivot_cols):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, prow in zip(pivot_cols, prows):
            vec[pc] = Fraction(-prow[fc], d)
        basis.append(vec)
    return basis
