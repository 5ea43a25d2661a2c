"""Linear algebra over Z through one elimination kernel modulo a prime.

`nullspace_mod` is elimination over F_p for a prime p.
`rational_reconstruction` recovers a small fraction from its residue
(Wang, Guy & Davenport 1982, SIGSAM Bull. 16).  Neither is exact over Q
on its own.  Rank can only fall mod p, so the nullity mod p is an upper
bound on the nullity over Q, and the caller must check a reconstructed
vector against the integer matrix (`quiver._eigenspace` does).
"""

from __future__ import annotations

from math import gcd, isqrt


def nullspace_mod(rows, p: int) -> list[list[int]]:
    """Basis of the right nullspace of an integer matrix over F_p, with
    entries in range(p): one vector per free column, in column order,
    with 1 in its own free column and 0 in the other free columns.  The
    vector of free column j is also 0 at every pivot column after j, so
    its last nonzero entry marks j.

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
