"""McKay quivers of finite group representations.

Given a character table and a representation rho (a multiplicity vector
over the irreducibles), the McKay quiver has one vertex per irreducible
and adjacency entry [i][j] equal to the multiplicity of irreducible j in
rho tensor irreducible i.  Everything here is exact.  A product of
characters is recognised as a row on the table engine's modular image
(`_TableEngine.product_rows`, exact under a norm bound) or else split by
exact inner products; each irreducible's McKay matrix and the dual
action are computed once per table and kept there.  `eigen_check` checks
the matrices on the exact arithmetic.  The expensive verifications
recompute the same quantity along two independent routes and raise
InternalInconsistency if the routes ever disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chartab import (
    CharacterTable,
    ClassFunction,
    NotACharacter,
    character_of,
    decompose,
    quotient_table,
)
from .quiver import Quiver, strongly_connected_components, weakly_connected_components


class InternalInconsistency(RuntimeError):
    """Two independent computations of one quantity disagreed."""


# -- adjacency matrices --------------------------------------------------------


def _check_rho(t: CharacterTable, rho) -> tuple[int, ...]:
    rho = tuple(rho)
    if len(rho) != t.n_classes:
        raise ValueError("multiplicity vector length must match the table")
    if any(not isinstance(m, int) or m < 0 for m in rho):
        raise ValueError("multiplicities must be non-negative integers")
    if not any(rho):
        raise ValueError("the zero representation has no quiver")
    return rho


def _decompose_products(t: CharacterTable, left) -> tuple:
    """Rows of multiplicities of left * chi_i, one row per irreducible i.

    `left` gives the multiplier's value on each class as a sparse
    exponent dict of the table engine.  A product that is a row is
    recognised by `_TableEngine.product_rows` and answered with the
    engine's shared unit row; any other is split exactly by
    `_TableEngine.inner_multiplicities`.
    """
    eng = t._engine()
    rows = []
    for i, (row, j) in enumerate(zip(eng.vals, eng.product_rows(left))):
        if j is not None:
            rows.append(eng.units[j])
            continue
        try:
            rows.append(eng.inner_multiplicities(
                [eng.mul(a, b) for a, b in zip(left, row)]))
        except NotACharacter:
            raise ValueError(
                f"product with row {i + 1} does not decompose integrally; "
                f"the table is not a character table") from None
    return tuple(rows)


def _irr_matrix(t: CharacterTable, k: int) -> tuple:
    """McKay matrix of the k-th irreducible, cached on the table."""
    eng = t._engine()
    cached = eng.product_cache.get(k)
    if cached is None:
        cached = _decompose_products(t, eng.vals[k])
        eng.product_cache[k] = cached
    return cached


def mckay_matrix(t: CharacterTable, rho) -> tuple[tuple[int, ...], ...]:
    """Adjacency matrix with entries <chi_rho * chi_i, chi_j>.

    The product with a sum of irreducibles is the matching sum of the
    per-irreducible matrices, so only those are ever computed; for a
    single irreducible the cached matrix itself is returned.
    """
    rho = _check_rho(t, rho)
    hot = [k for k, m in enumerate(rho) if m]
    if len(hot) == 1 and rho[hot[0]] == 1:
        return _irr_matrix(t, hot[0])
    r = t.n_classes
    total = [[0] * r for _ in range(r)]
    for k, m in enumerate(rho):
        if not m:
            continue
        mk = _irr_matrix(t, k)
        for i in range(r):
            row = total[i]
            for j, a in enumerate(mk[i]):
                if a:
                    row[j] += m * a
    return tuple(tuple(row) for row in total)


class McKayQuiver:
    """McKay quiver of one representation of one table.

    Vertices are the irreducibles in table order; `matrix[i][j]` counts
    the arrows i -> j.  The class also keeps the representation's
    character in engine form, which the verification routines reuse.
    """

    def __init__(self, table: CharacterTable, rho):
        self.table = table
        self.rho = _check_rho(table, rho)
        self.matrix = mckay_matrix(table, rho)
        eng = table._engine()
        self._rho_dicts = eng.rep_dicts(self.rho)
        self._rho_coords = [eng.reduce_dict(d) for d in self._rho_dicts]
        self._quiver = (None, None)  # (matrix, its Quiver)

    @property
    def n_vertices(self) -> int:
        return self.table.n_classes

    @property
    def dims(self) -> tuple[int, ...]:
        return self.table.dims

    @property
    def dim(self) -> int:
        return sum(m * d for m, d in zip(self.rho, self.table.dims))

    def character(self) -> ClassFunction:
        return character_of(self.table, self.rho)

    def kernel_class_indices(self) -> tuple[int, ...]:
        """Classes where the character equals its identity value."""
        ref = self._rho_coords[0]
        return tuple(c for c, co in enumerate(self._rho_coords)
                     if co is ref or co == ref)

    def is_faithful(self) -> bool:
        return self.kernel_class_indices() == (0,)

    def to_quiver(self) -> Quiver:
        """The quiver, built once per matrix and shared: Quiver is immutable."""
        if self._quiver[0] is not self.matrix:
            self._quiver = (self.matrix, Quiver(
                self.table.row_names(), self.matrix, weights=self.table.dims))
        return self._quiver[1]

    def __repr__(self):
        return (f"<McKayQuiver of {self.table.name}: dim {self.dim}, "
                f"{self.n_vertices} vertices>")


# -- verifications -------------------------------------------------------------


def eigen_check(mq: McKayQuiver) -> bool:
    """Whether each table column is an eigenvector of the matrix.

    For every class c the vector of column values (chi_i(c))_i must
    satisfy A v = chi_rho(c) v; the check is exact and independent of
    how the matrix was assembled.  It is made at the first class of each
    group of `_TableEngine.column_orbits`: if column c' is sigma_a(column
    c), sigma_a fixes the integer A and sends chi_rho(c) to chi_rho(c'),
    so the equation at c gives the one at c'.  The left side is
    sum_j A_ij coords_j(c), as reduction is linear.
    """
    eng = mq.table._engine()
    for c, *_ in eng.column_orbits:
        col = [co[c] for co in eng.coords]
        for row, vals in zip(mq.matrix, eng.vals):
            terms = [[a * v for v in x] for a, x in zip(row, col) if a]
            if (tuple(map(sum, zip((0,) * eng.phi, *terms)))
                    != eng.reduce_dict(eng.mul(mq._rho_dicts[c], vals[c]))):
                return False
    return True


def dual_reversal_check(mq: McKayQuiver) -> bool:
    """Whether the dual representation's quiver is the arrow reversal."""
    t = mq.table
    star = [0] * t.n_classes
    for k, m in enumerate(mq.rho):
        if m:
            star[t.dual_index(k)] += m
    reversed_matrix = mckay_matrix(t, star)
    n = t.n_classes
    return all(reversed_matrix[i][j] == mq.matrix[j][i]
               for i in range(n) for j in range(n))


# -- connectivity --------------------------------------------------------------


def component_partition(mq: McKayQuiver) -> tuple[tuple[int, ...], ...]:
    """Connected components of the quiver, as sorted vertex tuples.

    Three routes must agree: strong connectivity, weak connectivity,
    and grouping rows by their normalized values on the kernel classes.
    Each yields sorted blocks ordered by first vertex, and any
    disagreement, in order too, raises InternalInconsistency.
    """
    q = mq.to_quiver()
    strong = strongly_connected_components(q)
    weak = weakly_connected_components(q)

    t = mq.table
    eng = t._engine()
    kernel = mq.kernel_class_indices()
    # rows compared as coordinates times lcm(dims) / d_i, all integers
    scale = math.lcm(*t.dims)
    groups: dict[tuple, list[int]] = {}
    for i, di in enumerate(t.dims):
        sig = tuple(tuple(x * (scale // di) for x in eng.coords[i][c])
                    for c in kernel)
        groups.setdefault(sig, []).append(i)
    prop = tuple(map(tuple, groups.values()))

    if not (strong == weak == prop):
        raise InternalInconsistency(
            f"component partitions disagree on {t.name}: "
            f"strong {strong}, weak {weak}, proportionality {prop}")
    return strong


def component_count(mq: McKayQuiver) -> int:
    return len(component_partition(mq))


@dataclass(frozen=True)
class PrincipalComponent:
    """The component of the trivial vertex, with its quotient model.

    `vertices` are row indices into the ambient table; `quotient` is
    the McKay quiver of the representation descended to the quotient
    by its kernel, which matches the induced subquiver exactly.
    """

    vertices: tuple[int, ...]
    quotient: McKayQuiver


def principal_component(mq: McKayQuiver) -> PrincipalComponent:
    t = mq.table
    qt = quotient_table(t, mq.kernel_class_indices())
    survivors = qt.surviving_rows

    comps = component_partition(mq)
    comp0 = next(p for p in comps if 0 in p)
    if tuple(sorted(survivors)) != comp0:
        raise InternalInconsistency(
            f"survivors {survivors} differ from the trivial vertex's "
            f"component {comp0} on {t.name}")

    chi = mq.character()
    try:
        rho_q = decompose(ClassFunction(
            qt, [chi[c] for c in qt.block_representatives]))
    except NotACharacter as ex:
        raise InternalInconsistency(
            f"representation does not descend to {qt.name}: {ex}") from ex
    sub = McKayQuiver(qt, rho_q)

    for a, i in enumerate(survivors):
        for b, j in enumerate(survivors):
            if mq.matrix[i][j] != sub.matrix[a][b]:
                raise InternalInconsistency(
                    f"quotient quiver of {qt.name} differs from the "
                    f"induced subquiver at ({i + 1}, {j + 1})")
    return PrincipalComponent(vertices=comp0, quotient=sub)


# -- walk counting ---------------------------------------------------------------


def walk_matrix(mq: McKayQuiver, length: int) -> tuple[tuple[int, ...], ...]:
    """Entry [i][j] counts directed walks of the given length i -> j."""
    if length < 0:
        raise ValueError("walk length must be non-negative")
    r = mq.n_vertices
    base = [{j: a for j, a in enumerate(row) if a} for row in mq.matrix]
    cur = [{i: 1} for i in range(r)]
    for _ in range(length):
        nxt = []
        for i in range(r):
            acc: dict[int, int] = {}
            for v, c in cur[i].items():
                for j, a in base[v].items():
                    acc[j] = acc.get(j, 0) + c * a
            nxt.append(acc)
        cur = nxt
    return tuple(tuple(cur[i].get(j, 0) for j in range(r)) for i in range(r))


def character_walk_matrix(mq: McKayQuiver, length: int) -> tuple[tuple[int, ...], ...]:
    """Same matrix as walk_matrix, but from characters: entry [i][j] is
    the multiplicity of irreducible j in rho^length tensor irreducible i."""
    if length < 0:
        raise ValueError("walk length must be non-negative")
    t = mq.table
    eng = t._engine()
    pw = [{0: 1} for _ in range(t.n_classes)]
    for _ in range(length):
        pw = [eng.mul(p, d) for p, d in zip(pw, mq._rho_dicts)]
    return _decompose_products(t, pw)


def walk_multiplicity(mq: McKayQuiver, i: int, j: int, length: int) -> int:
    """Walk count i -> j, verified along both routes."""
    wm = walk_matrix(mq, length)
    cm = character_walk_matrix(mq, length)
    if wm != cm:
        raise InternalInconsistency(
            f"walk counts of length {length} disagree on {mq.table.name}")
    return wm[i][j]


# -- the action of one-dimensional characters ------------------------------------


def dual_group_action(t: CharacterTable) -> dict[int, tuple[int, ...]]:
    """Permutations of the rows induced by the one-dimensional rows.

    Multiplying by a one-dimensional character permutes the
    irreducibles; the result maps each one-dimensional row index to its
    permutation.  A product that fails to land on a row means the table
    is internally inconsistent.  The action is computed once per table,
    kept on the table engine, and returned as a copy.  Only a row l not
    yet reached is multiplied out (`product_rows`); each row m reached
    before gives row perm_l[m], exactly chi_l * chi_m, which acts by
    perm_l o pi_m (products are associative) and so passes both checks.
    """
    eng = t._engine()
    if eng.dual_action is None:
        r, dims = t.n_classes, t.dims
        action: dict[int, tuple[int, ...]] = {}
        for l in range(r):
            if dims[l] != 1 or l in action:
                continue
            perm = tuple(eng.product_rows(eng.vals[l]))
            if None in perm:
                raise InternalInconsistency(
                    f"row {l + 1} * row {perm.index(None) + 1} is not a row of {t.name}")
            if len(set(perm)) != r:
                raise InternalInconsistency(
                    f"row {l + 1} of {t.name} does not act by a permutation")
            action[l] = perm
            known = list(action)
            for m in known:  # grows as rows are reached
                if perm[m] not in action:
                    action[perm[m]] = tuple(perm[i] for i in action[m])
                    known.append(perm[m])
        eng.dual_action = dict(sorted(action.items()))
    return dict(eng.dual_action)


def dual_action_simply_transitive(t: CharacterTable) -> bool:
    """Whether the one-dimensional rows act simply transitively on
    themselves: from each of them, every other is reached exactly once."""
    action = dual_group_action(t)
    lins = sorted(action)
    for i in lins:
        if sorted(action[l][i] for l in lins) != lins:
            return False
    return True
