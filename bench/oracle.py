"""Independent computations the benchmark checks the library against.

Nothing here calls into mckayq's algorithms.  Character values are read
from the table objects and evaluated in floating point; graph questions
are answered by plain reachability; characteristic polynomials come from
sympy or from determinants modulo a large prime; degree patterns modulo
p come from sympy's factorization over GF(p).
"""

from __future__ import annotations

import cmath
import math
import random

EPS = 1e-6
_BIG_PRIME = (1 << 61) - 1


# -- character values --------------------------------------------------------


def complex_value(v) -> complex:
    """Floating-point value of a Cyclotomic from its power-basis coordinates."""
    n = v.conductor
    return sum(float(c) * cmath.exp(2j * math.pi * k / n)
               for k, c in enumerate(v.coeffs) if c)


def numeric_table(t) -> list[list[complex]]:
    return [[complex_value(v) for v in row] for row in t.characters]


def rep_values(num, rho) -> list[complex]:
    r = len(num)
    return [sum(m * num[k][c] for k, m in enumerate(rho) if m) for c in range(r)]


def float_mckay(num, sizes, order, rho_vals) -> list[list[float]]:
    """<rho * chi_i, chi_j> for every pair, from numeric character values."""
    r = len(num)
    out = []
    for i in range(r):
        left = [sizes[c] * rho_vals[c] * num[i][c] for c in range(r)]
        out.append([sum(left[c] * num[j][c].conjugate() for c in range(r)).real / order
                    for j in range(r)])
    return out


def matrices_match(A, F) -> bool:
    return all(abs(a - f) < EPS for ra, rf in zip(A, F) for a, f in zip(ra, rf))


def kernel_count(rho_vals) -> int:
    d = rho_vals[0]
    return sum(1 for v in rho_vals if abs(v - d) < EPS)


def table_is_orthogonal(num, sizes, order) -> bool:
    r = len(num)
    for i in range(r):
        for j in range(r):
            s = sum(sizes[c] * num[i][c] * num[j][c].conjugate() for c in range(r))
            if abs(s - (order if i == j else 0)) > EPS * order:
                return False
    return True


# -- graphs ----------------------------------------------------------------------


def reachable(A, start: int) -> set[int]:
    seen = {start}
    todo = [start]
    while todo:
        v = todo.pop()
        for w, a in enumerate(A[v]):
            if a and w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def strong_blocks(A) -> list[tuple[int, ...]]:
    """Strongly connected blocks from mutual reachability, sorted."""
    n = len(A)
    reach = [reachable(A, v) for v in range(n)]
    blocks = {tuple(sorted(w for w in reach[v] if v in reach[w])) for v in range(n)}
    return sorted(blocks)


def weak_blocks(A) -> list[tuple[int, ...]]:
    """Connected blocks of the underlying undirected graph, by union-find."""
    n = len(A)
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in range(n):
        for j, a in enumerate(A[i]):
            if a:
                parent[find(i)] = find(j)
    blocks: dict[int, list[int]] = {}
    for v in range(n):
        blocks.setdefault(find(v), []).append(v)
    return sorted(tuple(b) for b in blocks.values())


def int_matpow(A, L: int):
    """A^L by repeated sparse multiplication."""
    n = len(A)
    rows = [{j: a for j, a in enumerate(row) if a} for row in A]
    P = [{i: 1} for i in range(n)]
    for _ in range(L):
        nxt = []
        for i in range(n):
            acc: dict[int, int] = {}
            for k, c in P[i].items():
                for j, a in rows[k].items():
                    acc[j] = acc.get(j, 0) + c * a
            nxt.append(acc)
        P = nxt
    return tuple(tuple(P[i].get(j, 0) for j in range(n)) for i in range(n))


def is_permutation_matrix(A) -> bool:
    return all(sorted(row) == [0] * (len(row) - 1) + [1] for row in A) and \
        all(sum(col) == 1 for col in zip(*A))


def permutation_charpoly(A) -> list[int]:
    """Constant-first coefficients of det(xI - P) = prod over cycles (x^m - 1)."""
    n = len(A)
    image = [row.index(1) for row in A]
    seen = [False] * n
    poly = [1]
    for v in range(n):
        if seen[v]:
            continue
        m = 0
        while not seen[v]:
            seen[v] = True
            v = image[v]
            m += 1
        factor = [-1] + [0] * (m - 1) + [1]
        poly = _poly_mul(poly, factor)
    return poly


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _det_mod(M, p: int) -> int:
    M = [[x % p for x in row] for row in M]
    n = len(M)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det = det * M[c][c] % p
        inv = pow(M[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = M[r][c] * inv % p
            if f:
                row_c = M[c]
                M[r] = [(x - f * y) % p for x, y in zip(M[r], row_c)]
    return det % p


def charpoly_matches(A, coeffs, rng: random.Random, points: int = 3) -> bool:
    """Whether constant-first `coeffs` is det(xI - A).

    Small matrices go through sympy; larger ones are compared at random
    points modulo a 61-bit prime (a wrong monic polynomial of degree n
    agrees at a random point with probability at most n / p).
    """
    n = len(A)
    if len(coeffs) != n + 1 or coeffs[-1] != 1:
        return False
    if is_permutation_matrix(A):
        return list(coeffs) == permutation_charpoly(A)
    if n <= 12:
        return sympy_charpoly(A) == list(coeffs)
    p = _BIG_PRIME
    for _ in range(points):
        lam = rng.randrange(p)
        M = [[(lam if i == j else 0) - A[i][j] for j in range(n)] for i in range(n)]
        value = 0
        for c in reversed(coeffs):
            value = (value * lam + c) % p
        if _det_mod(M, p) != value:
            return False
    return True


def sympy_charpoly(A) -> list[int]:
    """Constant-first coefficients of det(xI - A), by sympy."""
    import sympy
    x = sympy.Symbol("x")
    return [int(c) for c in sympy.Matrix(A).charpoly(x).all_coeffs()[::-1]]


# -- polynomials -------------------------------------------------------------------


def parse_int_poly(text: str) -> list[int]:
    """Constant-first coefficients of a polynomial printed as 'x^3-2*x+1'."""
    import sympy
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.sympify(text.replace("^", "**")), x)
    return [int(c) for c in poly.all_coeffs()[::-1]]


def degree_pattern_mod(coeffs_constant_first, p: int) -> tuple[int, ...]:
    import sympy
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(coeffs_constant_first)), x, modulus=p)
    _, factors = poly.factor_list()
    out = []
    for f, mult in factors:
        out.extend([f.degree()] * mult)
    return tuple(sorted(out))


def irreducible_degrees(coeffs_constant_first) -> list[int]:
    import sympy
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(coeffs_constant_first)), x)
    _, factors = poly.factor_list()
    return sorted(f.degree() for f, mult in factors for _ in range(mult))
