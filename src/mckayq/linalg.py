"""Linear algebra over Z: one exact and one modular elimination kernel.

`echelon` is Gauss-Jordan elimination in Bareiss's fraction-free form
(Bareiss 1968, Math. Comp. 22): every entry stays an integer, and each
step divides by the previous pivot, a division that is exact because
every entry is a minor of the input.  The remainder is checked all the
same.  `nullspace` reads its Fraction basis off the echelon form.

`nullspace_mod` is the modular kernel: elimination over F_p for a
prime p.  `rational_reconstruction` recovers a small fraction from its
residue (Wang, Guy & Davenport 1982, SIGSAM Bull. 16).  Neither is
exact over Q on its own.  Rank can only fall mod p, so the nullity mod p
is an upper bound on the nullity over Q, and the caller must check a
reconstructed vector against the integer matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


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


def nullspace_mod(rows, p: int) -> list[list[int]]:
    """Basis of the right nullspace of an integer matrix over F_p, laid
    out as `nullspace` lays out its basis, with entries in range(p).

    Elimination stops at row echelon form with unit pivots, and each
    basis vector is back-substituted from its free column.  On the
    sparse matrices of cyclic McKay quivers this avoids the fill-in that
    clearing above the pivots would create in the upper rows."""
    rows = [[a % p for a in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivot_cols: list[int] = []
    for c in range(ncols):
        r = len(pivot_cols)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        # rows r.. are zero left of c, so only columns c.. change
        inv = pow(rows[r][c], -1, p)
        top = rows[r][c:] = [a * inv % p for a in rows[r][c:]]
        for row in rows[r + 1:]:
            f = row[c]
            if f:
                row[c:] = [(a - f * b) % p for a, b in zip(row[c:], top)]
        pivot_cols.append(c)
        if r + 1 == len(rows):
            break
    basis = []
    for fc in (j for j in range(ncols) if j not in pivot_cols):
        vec = [0] * ncols
        vec[fc] = 1
        for pc, row in reversed(list(zip(pivot_cols, rows))):
            vec[pc] = -sum(a * b for a, b in zip(row[pc + 1:], vec[pc + 1:])) % p
        basis.append(vec)
    return basis


def rational_reconstruction(u: int, m: int) -> tuple[int, int] | None:
    """The fraction a/b with a/b = u mod m, |a| and 0 < b both at most
    sqrt(m/2), and gcd(a, b) = 1, or None when there is none.  For odd m
    such a fraction is unique: two of them, a/b and c/d, would give
    m | ad - bc with |ad - bc| < m.  The half-extended Euclidean
    algorithm on (m, u) finds it."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if not 0 < t1 <= bound or gcd(r1, t1) != 1:
        return None
    return r1, t1
