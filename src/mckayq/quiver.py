"""Quivers (directed multigraphs with optional vertex weights) and the
structural analysis used to screen them: connectivity, integer
eigen-weightings, exact characteristic polynomials, automorphism orbits,
isomorphism testing, and affine ADE recognition.  Orbits and
isomorphisms come from one search: colour refinement, individualisation,
and a check of every returned map on every adjacency entry.

Everything is exact.  An eigenspace is solved modulo primes, lifted by
CRT and rational reconstruction, and kept only when A w = k w holds over
Z for each basis vector; the positive combination of a basis of two or
more vectors is computed over Fraction.  The characteristic polynomial
is computed modulo word-sized primes and recovered by CRT under a bound
that every coefficient obeys.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, compress, count
from math import comb, gcd, lcm

from .linalg import crt, nullspace_mod, rational_reconstruction
from .polynomials import IntPolynomial, _crt_prime, _sym, factor_over_Q


class QuiverFormatError(ValueError):
    """Malformed quiver JSON."""


def _is_int(a) -> bool:
    # JSON true/false arrive as bool, which is an int subclass
    return isinstance(a, int) and not isinstance(a, bool)


class Quiver:
    """Immutable quiver: vertex names, a non-negative integer adjacency
    matrix (entry [i][j] counts arrows i -> j), optional positive vertex
    weights."""

    __slots__ = ("vertices", "adjacency", "weights")

    def __init__(self, vertices, adjacency, weights=None):
        vs = tuple(str(v) for v in vertices)
        if not vs:
            raise ValueError("a quiver needs at least one vertex")
        if len(set(vs)) != len(vs):
            raise ValueError("vertex names must be unique")
        rows = []
        for row in adjacency:
            row = tuple(row)
            if len(row) != len(vs):
                raise ValueError("adjacency matrix must be square")
            if any(not _is_int(a) or a < 0 for a in row):
                raise ValueError("adjacency entries must be non-negative integers")
            rows.append(row)
        if len(rows) != len(vs):
            raise ValueError("adjacency matrix must be square")
        if weights is not None:
            weights = tuple(weights)
            if len(weights) != len(vs):
                raise ValueError("weights must match the vertex count")
            if any(not _is_int(w) or w < 1 for w in weights):
                raise ValueError("weights must be positive integers")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "adjacency", tuple(rows))
        object.__setattr__(self, "weights", weights)

    def __setattr__(self, *a):
        raise AttributeError("Quiver is immutable")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def induced(self, indices) -> "Quiver":
        idx = sorted(set(indices))
        return Quiver(
            [self.vertices[i] for i in idx],
            [[self.adjacency[i][j] for j in idx] for i in idx],
            None if self.weights is None else [self.weights[i] for i in idx])

    def is_symmetric(self) -> bool:
        A = self.adjacency
        return all(A[i][j] == A[j][i] for i in range(self.n) for j in range(i))

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.vertices == other.vertices
                and self.adjacency == other.adjacency and self.weights == other.weights)

    def __hash__(self):
        return hash((self.vertices, self.adjacency, self.weights))

    def __repr__(self):
        return f"<Quiver on {self.n} vertices>"

    def to_json(self) -> dict:
        out = {"vertices": list(self.vertices),
               "adjacency": [list(r) for r in self.adjacency]}
        if self.weights is not None:
            out["weights"] = list(self.weights)
        return out

    @staticmethod
    def from_json(data) -> "Quiver":
        if isinstance(data, (str, bytes)):
            try:
                data = json.loads(data)
            except (json.JSONDecodeError, RecursionError) as ex:
                raise QuiverFormatError(f"not valid JSON: {ex}") from ex
        if not isinstance(data, dict):
            raise QuiverFormatError("quiver JSON must be an object")
        try:
            for v in data["vertices"]:
                if type(v) is not str:
                    raise TypeError(f"a vertex name must be a string, not {v!r}")
            return Quiver(data["vertices"], data["adjacency"], data.get("weights"))
        except (KeyError, TypeError, ValueError) as ex:
            raise QuiverFormatError(f"malformed quiver JSON: {ex}") from ex


# -- connectivity ------------------------------------------------------------


def strongly_connected_components(q: Quiver) -> tuple[tuple[int, ...], ...]:
    """Components as sorted tuples, sorted by first vertex.  The component
    of v is what v reaches intersected with what reaches v; each set is
    an int bitmask grown from the adjacency rows or columns."""
    n = q.n
    succ, pred = [0] * n, [0] * n
    for i, row in enumerate(q.adjacency):
        for j, a in enumerate(row):
            if a:
                succ[i] |= 1 << j
                pred[j] |= 1 << i

    def reach(v: int, nbrs: list[int]) -> int:
        seen = todo = 1 << v
        while todo:
            low = todo & -todo
            todo ^= low
            new = nbrs[low.bit_length() - 1] & ~seen
            seen |= new
            todo |= new
        return seen

    comps, done = [], 0
    for v in range(n):
        if not done >> v & 1:
            comp = reach(v, succ) & reach(v, pred)
            done |= comp
            comps.append(tuple(u for u in range(v, n) if comp >> u & 1))
    return tuple(comps)


class _Partition:
    """Union-find over range(n)."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int):
        """Join the blocks of a and b; a block's root is its least vertex."""
        ra, rb = self.find(a), self.find(b)
        self.parent[max(ra, rb)] = min(ra, rb)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks as sorted tuples, sorted by first element (vertices
        are visited in order, so both orders come out directly)."""
        groups: dict[int, list[int]] = {}
        for v in range(len(self.parent)):
            groups.setdefault(self.find(v), []).append(v)
        return tuple(tuple(g) for g in groups.values())


def weakly_connected_components(q: Quiver) -> tuple[tuple[int, ...], ...]:
    part = _Partition(q.n)
    for i in range(q.n):
        for j in range(q.n):
            if q.adjacency[i][j] > 0:
                part.union(i, j)
    return part.blocks()


def is_strongly_connected(q: Quiver) -> bool:
    return len(strongly_connected_components(q)) == 1


# -- eigen-weightings ---------------------------------------------------------


@dataclass(frozen=True)
class WeightVector:
    """A strictly positive integer vector w with A w = k w, scaled so the
    entries have gcd 1."""
    k: int
    weights: tuple[int, ...]


# the name bench/layers.py counts modular eliminations through
_nullspace = nullspace_mod


def _strictly_positive_combination(basis: list[list[Fraction]]):
    """A vector w = sum(l_b * basis_b) with every entry > 0, or None.
    Fourier-Motzkin elimination on the coefficients l_b, over Fraction
    whatever the type of the basis entries."""
    m = len(basis)
    n = len(basis[0])
    # constraint rows: sum_b basis[b][i] * l_b > 0
    cons = [[Fraction(basis[b][i]) for b in range(m)] for i in range(n)]
    if any(all(v == 0 for v in row) for row in cons):
        return None  # some coordinate is identically zero on the eigenspace
    eliminated = []  # (var, lowers, uppers) in elimination order
    live = list(range(m))
    while live:
        var = live.pop()
        lowers, uppers, keep = [], [], []
        for row in cons:
            c = row[var]
            if c > 0:
                lowers.append(row)   # l_var > -(rest)/c
            elif c < 0:
                uppers.append(row)   # l_var < -(rest)/c
            else:
                keep.append(row)
        cons = list(keep)
        for lo in lowers:
            for up in uppers:
                a, b = lo[var], -up[var]
                row = [lo[j] / a + up[j] / b for j in range(m)]
                row[var] = Fraction(0)
                if any(row):
                    cons.append(row)
                else:
                    return None  # combined to 0 > 0
        eliminated.append((var, lowers, uppers))
    # back-substitute: the last-eliminated variable is constrained only by
    # already-assigned ones
    sol = [Fraction(0)] * m
    for var, lowers, uppers in reversed(eliminated):
        lo_vals, up_vals = ([-sum(row[j] * sol[j] for j in range(m) if j != var) / row[var]
                             for row in rows] for rows in (lowers, uppers))
        if lo_vals and up_vals:
            lo, up = max(lo_vals), min(up_vals)
            if not lo < up:
                return None
            sol[var] = (lo + up) / 2
        elif lo_vals:
            sol[var] = max(lo_vals) + 1
        elif up_vals:
            sol[var] = min(up_vals) - 1
        else:
            sol[var] = Fraction(1)
    w = [sum(basis[b][i] * sol[b] for b in range(m)) for i in range(n)]
    if any(v <= 0 for v in w):
        return None
    return w


def _normalize_positive(fracs) -> tuple[int, ...] | None:
    """(a, b) pairs for a/b, b > 0, scaled to coprime integers; None if a pair is."""
    if None in fracs:
        return None
    den = lcm(*(b for _, b in fracs))
    ints = [a * (den // b) for a, b in fracs]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


# the first prime of _eigenspace: the largest below 2^30, so that every
# residue is a single CPython digit
_WEIGHT_PRIME = (1 << 30) - 35


def _eigenspace(M: list[list[int]]) -> list[tuple[int, ...]]:
    """Basis of the nullspace of the integer matrix M over Q: the reduced
    row echelon basis (one vector per free column, 1 there and 0 in the
    other free columns), each vector scaled to integers with gcd 1.

    `nullspace_mod` runs at _WEIGHT_PRIME, then at _crt_prime(0), (1),
    ...  Rank can only fall mod p, so nullity 0 at any prime is final.
    A vector's last nonzero entry is its free column.  A prime loses to
    one with lower nullity, or at equal nullity to one whose list of
    free columns is lexicographically later; the residues of the best
    layout met so far are combined by CRT and lifted by rational
    reconstruction.  The basis is returned once M v = 0 holds over Z for
    every lifted v.  Such a v is 0 after its free column j, so column j
    of M lies in the Q-span of the earlier columns: every free column
    mod p is free over Q.  There are at least as many mod p, so the sets
    are equal, and v is the reduced echelon vector of column j scaled.
    Only finitely many primes are bad, and reconstruction succeeds once
    the modulus passes the bound on the entries, so the loop ends."""
    best, basis, m = None, [], 1
    for p in chain([_WEIGHT_PRIME], map(_crt_prime, count())):
        res = nullspace_mod(M, p)
        if not res:
            return []
        key = (-len(res), [max(j for j, x in enumerate(v) if x) for v in res])
        if best is not None and key < best:
            continue
        if key == best:
            basis = [crt(u, m, v, p) for u, v in zip(basis, res)]
            m *= p
        else:
            best, basis, m = key, res, p
        lifts = [_normalize_positive([rational_reconstruction(x, m) for x in v]) for v in basis]
        if None not in lifts and all(sum(a * x for a, x in zip(row, w)) == 0
                                     for w in lifts for row in M):
            return lifts


def k_weight_vector(q: Quiver, k: int) -> WeightVector | None:
    """A strictly positive w with A w = k w, reduced to integers with
    gcd 1, or None when no such vector exists.

    The eigenspace comes from `_eigenspace`.  A one-dimensional
    eigenspace is spanned by an integer vector that is positive in its
    free column, so a strictly positive vector exists exactly when that
    one is.  A larger one goes to a Fourier-Motzkin search for a
    positive combination of the reduced echelon basis."""
    n = q.n
    M = [[q.adjacency[i][j] - (k if i == j else 0) for j in range(n)]
         for i in range(n)]
    basis = _eigenspace(M)
    if not basis:
        return None
    if len(basis) == 1:
        w = basis[0]
        return WeightVector(k, w) if all(x > 0 for x in w) else None
    # the combination found depends on the scaling of the basis: rescale
    # each vector to 1 in its free column, its last nonzero entry
    w = _strictly_positive_combination(
        [[Fraction(x, next(d for d in reversed(v) if d)) for x in v] for v in basis])
    if w is None:
        return None
    weights = _normalize_positive([v.as_integer_ratio() for v in w])
    assert all(sum(a * x for a, x in zip(row, weights)) == 0 for row in M)
    return WeightVector(k, weights)


def reduced_weight_vector(q: Quiver, factors=None) -> WeightVector | None:
    """The unique strictly positive integer eigen-weighting.

    Only an eigenvalue can carry an eigenvector, and only the spectral
    radius can carry a strictly positive one: scaling by a positive w
    with A w = k w gives a similar non-negative matrix whose rows all
    sum to k, so its spectral radius is k.  The spectral radius is the
    largest real eigenvalue and lies between the extreme row sums.  So
    the one candidate is the largest integer root of the char poly in
    that range, read off its linear factors: were it not the spectral
    radius, no integer would be.  `factors` is
    factor_over_Q(char_poly(q)), computed here when not given (so a
    quiver on more than MAX_FACTOR_DEGREE vertices raises ValueError)."""
    sums = [sum(row) for row in q.adjacency]
    lo, hi = max(1, min(sums)), max(sums)
    if factors is None:
        factors = factor_over_Q(char_poly(q))
    roots = [-g.constant for g in factors if g.degree == 1 and g.lc == 1]
    k = max((k for k in roots if lo <= k <= hi), default=None)
    return None if k is None else k_weight_vector(q, k)


# -- characteristic polynomial -------------------------------------------------


def _char_poly_mod(A, p: int) -> list[int]:
    """det(xI - A) mod p, constant first: similarity reduction to
    Hessenberg form over F_p, then the standard three-term recurrence on
    leading principal minors."""
    n = len(A)
    H = [[v % p for v in row] for row in A]
    for c in range(n - 2):
        piv = next((r for r in range(c + 1, n) if H[r][c]), None)
        if piv is None:
            continue
        if piv != c + 1:
            H[piv], H[c + 1] = H[c + 1], H[piv]
            for row in H:
                row[piv], row[c + 1] = row[c + 1], row[piv]
        inv = pow(H[c + 1][c], -1, p)
        top = H[c + 1]
        for r in range(c + 2, n):
            f = H[r][c] * inv % p
            if f:
                H[r] = [(a - f * b) % p for a, b in zip(H[r], top)]
                for row in H:
                    row[c + 1] = (row[c + 1] + f * row[r]) % p
    # polys[m] = charpoly of the leading m x m block
    polys = [[1]]
    for m in range(1, n + 1):
        d = H[m - 1][m - 1]
        prev = polys[m - 1]
        cur = [0] + prev
        for i, v in enumerate(prev):
            cur[i] -= d * v
        beta = 1
        for i in range(m - 1, 0, -1):
            beta = beta * H[i][i - 1] % p
            if not beta:
                break
            coef = H[i - 1][m - 1] * beta
            if coef:
                for j, v in enumerate(polys[i - 1]):
                    cur[j] -= coef * v
        polys.append([v % p for v in cur])
    return polys[n]


def _char_poly(A) -> list[int]:
    """det(xI - A) over Z for a square integer matrix, constant first.

    Every eigenvalue has |lambda| <= R, the largest absolute row sum, so
    the coefficient of x^(n-k), a signed sum of C(n, k) products of k
    eigenvalues, is at most C(n, k) * R^k in absolute value.  The
    residues modulo word-sized primes are combined by CRT until the
    modulus exceeds twice the largest of these bounds; the symmetric
    residues are then the coefficients themselves."""
    n = len(A)
    R = max((sum(abs(v) for v in row) for row in A), default=0)
    bound = 2 * max(comb(n, k) * R ** k for k in range(n + 1))
    coeffs, M, used = [0] * (n + 1), 1, 0
    while M <= bound:
        p = _crt_prime(used)
        used += 1
        coeffs, M = crt(coeffs, M, _char_poly_mod(A, p), p), M * p
    return [_sym(c, M) for c in coeffs]


def char_poly(q: Quiver) -> IntPolynomial:
    """det(xI - A), exact: computed modulo primes under a coefficient
    bound (see `_char_poly`), without rational arithmetic."""
    return IntPolynomial(_char_poly(q.adjacency))


# -- automorphisms and isomorphism ---------------------------------------------


def _refine(g, colours) -> tuple[list[int], list]:
    """Colour refinement to an equitable colouring, and its trace.  The
    signature (colour, loop count, sorted (arrows, colour) pairs over the
    out- and in-neighbours) is ranked among the sorted distinct ones, so
    an isomorphism that keeps the old colours keeps the new ones.  The
    trace holds each round's distinct signatures and sorted colours (so
    cell sizes); rounds end when colours stop growing or all differ."""
    nbrs, trace, size = g[1], [], len(set(colours))
    while True:
        get = colours.__getitem__
        sigs = [(c, loop, tuple(sorted(zip(arrows, map(get, ends)))))
                for c, (loop, arrows, ends) in zip(colours, nbrs)]
        distinct = sorted(set(sigs))
        rank = {s: r for r, s in enumerate(distinct)}
        colours = [rank[s] for s in sigs]
        trace.append((distinct, sorted(colours)))
        if len(distinct) in (size, len(nbrs)):
            return colours, trace
        size = len(distinct)


def _individualise(g, colours: list[int], v: int):
    """_refine with v alone in a new colour, above the refined ones."""
    return _refine(g, [len(colours) if u == v else c for u, c in enumerate(colours)])


def _search(g1, g2, c1: list[int], c2: list[int]):
    """An isomorphism (a tuple) carrying the equitable colouring c1 of one
    quiver onto c2 of another, of equal traces, or None.  The map sending
    the k-th vertex of each colour to the k-th of that colour in the
    other is returned if it preserves every arrow.  Else, unless all are
    singletons, the first vertex v of the smallest cell of two or more
    (the lowest colour among equals) is individualised, and each w of its
    colour in the other in turn, recursing where the traces agree.  As
    refinement commutes with isomorphism, the search is exact."""
    (A, _), (B, _), n = g1, g2, len(c1)
    order1, order2 = (sorted(range(n), key=c.__getitem__) for c in (c1, c2))
    f = tuple(w for _, w in sorted(zip(order1, order2)))
    if all(row == tuple(map(B[w].__getitem__, f)) for row, w in zip(A, f)):
        return f
    cell = min(((k, c) for c, k in Counter(c1).items() if k > 1), default=(0, None))[1]
    if cell is None:
        return None
    d1, t1 = _individualise(g1, c1, c1.index(cell))
    for w in order2:
        if c2[w] == cell:
            d2, t2 = _individualise(g2, c2, w)
            if t2 == t1 and (f := _search(g1, g2, d1, d2)) is not None:
                return f
    return None


def _start(q: Quiver, use_weights: bool = True):
    """The graph `_refine` and `_search` read (the adjacency and, per
    vertex, its loop count, arrow counts out and negated in, and their
    ends, loops included), refined from the weights or from one colour."""
    A, ends = q.adjacency, range(q.n)
    g = A, [(row[v], list(compress(row, row)) + [-a for a in compress(col, col)],
             list(compress(ends, row)) + list(compress(ends, col)))
            for v, (row, col) in enumerate(zip(A, zip(*A)))]
    return (g, *_refine(g, list(use_weights and q.weights or [0] * q.n)))


def automorphism_orbits(q: Quiver) -> tuple[tuple[int, ...], ...]:
    """Vertex orbits of the automorphism group (adjacency- and
    weight-preserving), as sorted tuples sorted by first vertex.  The
    first vertex of each block is searched (`_search`) against each later
    one of its refined colour (`_refine`) in another block whose
    individualised trace is the same; every vertex of a map found,
    checked on every adjacency entry, joins its image's block."""
    g, base, _ = _start(q)
    part = _Partition(q.n)
    individual = cache(lambda v: _individualise(g, base, v))
    for i in range(q.n):
        if part.find(i) != i:
            continue  # a block is a whole orbit once its first vertex is done
        for j in range(i + 1, q.n):
            if base[i] != base[j] or part.find(i) == part.find(j):
                continue
            (ci, ti), (cj, tj) = individual(i), individual(j)
            if ti == tj and (full := _search(g, g, ci, cj)) is not None:
                for u, s in enumerate(full):
                    part.union(u, s)
    return part.blocks()


def find_isomorphism(q1: Quiver, q2: Quiver,
                     respect_weights: bool = True) -> tuple[int, ...] | None:
    """A vertex bijection carrying q1's arrows (and weights, when both
    quivers have them and respect_weights is set) onto q2's, or None:
    unequal refinement traces rule it out, else `_search` decides and
    returns only a map checked on every adjacency entry."""
    if q1.n != q2.n or (respect_weights
                        and (q1.weights is None) != (q2.weights is None)):
        return None
    (g1, c1, t1), (g2, c2, t2) = _start(q1, respect_weights), _start(q2, respect_weights)
    return _search(g1, g2, c1, c2) if t1 == t2 else None


def quiver_isomorphic(q1: Quiver, q2: Quiver,
                      respect_weights: bool = True) -> bool:
    return find_isomorphism(q1, q2, respect_weights) is not None


# -- affine ADE recognition -----------------------------------------------------


def ade_classify(q: Quiver) -> str | None:
    """The affine ADE type of the underlying graph, as "A~n", "D~n",
    "E~6", "E~7" or "E~8"; None when the quiver is not an affine ADE
    diagram (doubled arrows everywhere count as single undirected edges
    only in the two rank<=1 cycle cases A~0 and A~1)."""
    n = q.n
    A = q.adjacency
    if n == 1:
        return "A~0" if A[0][0] == 2 else None
    if n == 2 and A[0][0] == 0 and A[1][1] == 0 and A[0][1] == 2 and A[1][0] == 2:
        return "A~1"
    if not q.is_symmetric():
        return None
    if any(A[i][i] for i in range(n)):
        return None
    if any(A[i][j] > 1 for i in range(n) for j in range(n)):
        return None
    if len(weakly_connected_components(q)) != 1:
        return None
    deg = [sum(A[i]) for i in range(n)]
    edges = sum(deg) // 2
    if all(d == 2 for d in deg):
        return f"A~{n - 1}"  # a single cycle
    if edges != n - 1:
        return None  # not a tree
    three = [v for v in range(n) if deg[v] == 3]
    four = [v for v in range(n) if deg[v] == 4]
    if any(d > 4 for d in deg):
        return None
    if len(four) == 1 and not three and n == 5:
        return "D~4"  # star with four leaves
    if four:
        return None
    if len(three) == 2:
        ok = all(sum(1 for j in range(n) if A[v][j] and deg[j] == 1) == 2
                 for v in three)
        rest_ok = all(deg[v] <= 2 for v in range(n) if v not in three)
        return f"D~{n - 1}" if ok and rest_ok else None
    if len(three) == 1:
        c = three[0]
        arms = []
        for start in (j for j in range(n) if A[c][j]):
            length = 1
            prev, cur = c, start
            while deg[cur] == 2:
                nxt = next(j for j in range(n) if A[cur][j] and j != prev)
                prev, cur = cur, nxt
                length += 1
            if deg[cur] != 1:
                return None
            arms.append(length)
        arms.sort()
        return {(2, 2, 2): "E~6", (1, 3, 3): "E~7", (1, 2, 5): "E~8"}.get(tuple(arms))
    return None


# -- DOT export ------------------------------------------------------------------


def to_dot(q: Quiver) -> str:
    """Graphviz source.  Opposite arrow pairs are drawn as single
    undirected edges and self-loop pairs are halved, purely for display;
    the JSON form keeps the exact arrow counts."""
    lines = ["digraph quiver {", "  rankdir=LR;", '  node [shape=circle];']
    for i, name in enumerate(q.vertices):
        label = name
        if q.weights is not None:
            label = f"{name}\\n({q.weights[i]})"
        lines.append(f'  v{i} [label="{label}"];')
    A = q.adjacency
    for i in range(q.n):
        undirected, directed = divmod(A[i][i], 2)
        lines += [f"  v{i} -> v{i} [dir=none];"] * undirected
        lines += [f"  v{i} -> v{i};"] * directed
        for j in range(i + 1, q.n):
            paired = min(A[i][j], A[j][i])
            lines += [f"  v{i} -> v{j} [dir=none];"] * paired
            lines += [f"  v{i} -> v{j};"] * (A[i][j] - paired)
            lines += [f"  v{j} -> v{i};"] * (A[j][i] - paired)
    lines.append("}")
    return "\n".join(lines) + "\n"
