"""Multiplication-by-rho matrices: frozen small cases, eigen identities,
component structure, walk counts, and the inner-product oracle route."""

import math

import pytest

from mckayq import quiver
from mckayq.catalog import (
    binary_tetrahedral_table,
    catalog_specs,
    cyclic_table,
    natural_rep,
    parse_group_spec,
    regular_rep,
)
from mckayq.chartab import CharacterTable, ClassFunction, inner_product
from mckayq.cyclotomic import Cyclotomic
from mckayq.mckay import (
    InternalInconsistency,
    McKayQuiver,
    character_walk_matrix,
    component_count,
    component_partition,
    dual_action_simply_transitive,
    dual_group_action,
    dual_reversal_check,
    eigen_check,
    mckay_matrix,
    principal_component,
    walk_matrix,
    walk_multiplicity,
)
from mckayq.quiver import ade_classify, char_poly, reduced_weight_vector


def raw_mckay_matrix(t, rho):
    """Entry by entry through plain inner products, no decomposition
    machinery: a_ij = <rho_char * chi_i, chi_j>."""
    rho_char = ClassFunction(t, [Cyclotomic.zero()] * t.n_classes)
    for k, m in enumerate(rho):
        if m:
            rho_char = rho_char + m * t.irreducible(k)
    rows = []
    for i in range(t.n_classes):
        prod = rho_char * t.irreducible(i)
        row = []
        for j in range(t.n_classes):
            v = inner_product(prod, t.irreducible(j))
            row.append(v.to_int())
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("spec,rho", [
    ("C:4", (0, 1, 0, 1)),
    ("C:5", (0, 0, 1, 0, 0)),
    ("BD:12", (0, 0, 1, 0, 0, 0)),
    ("BD:12", (0, 0, 0, 0, 1, 0)),
    ("BD:12", (1, 0, 1, 0, 2, 0)),
    ("2T", (0, 0, 0, 1, 0, 0, 0)),
    ("BD:24", (0, 0, 0, 0, 0, 0, 1, 0, 0)),
])
def test_matrix_matches_inner_product_route(spec, rho):
    t = parse_group_spec(spec)
    assert mckay_matrix(t, rho) == raw_mckay_matrix(t, rho)


# -- frozen small cases ---------------------------------------------------------


def test_trivial_group():
    c1 = cyclic_table(1)
    m = McKayQuiver(c1, (1,))
    assert m.matrix == ((1,),)
    assert m.is_faithful() and component_count(m) == 1
    assert eigen_check(m) and dual_reversal_check(m)
    doubled = McKayQuiver(c1, natural_rep(c1))
    assert doubled.matrix == ((2,),)
    assert ade_classify(doubled.to_quiver()) == "A~0"


def test_c4_natural_is_a_cycle():
    c4 = cyclic_table(4)
    m = McKayQuiver(c4, natural_rep(c4))
    assert m.rho == (0, 1, 0, 1) and m.dim == 2
    assert m.matrix == ((0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0))
    assert m.is_faithful()
    assert component_partition(m) == ((0, 1, 2, 3),)
    assert eigen_check(m) and dual_reversal_check(m)
    assert ade_classify(m.to_quiver()) == "A~3"


def test_c4_single_row_splits():
    m = McKayQuiver(cyclic_table(4), (0, 0, 1, 0))
    assert m.kernel_class_indices() == (0, 2)
    assert not m.is_faithful()
    assert component_partition(m) == ((0, 2), (1, 3))
    pc = principal_component(m)
    assert pc.vertices == (0, 2)
    assert pc.quotient.table.order == 2
    assert pc.quotient.matrix == ((0, 1), (1, 0))


def test_bd12_one_dim_row():
    b12 = parse_group_spec("BD:12")
    m = McKayQuiver(b12, (0, 0, 1, 0, 0, 0))
    expect = ((0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0),
              (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0))
    assert m.matrix == expect
    assert m.matrix != tuple(zip(*m.matrix))          # a permutation, not symmetric
    assert eigen_check(m) and dual_reversal_check(m)
    assert not m.is_faithful()
    assert component_partition(m) == ((0, 1, 2, 3), (4, 5))


def test_bd12_unfaithful_two_dim_row():
    b12 = parse_group_spec("BD:12")
    m = McKayQuiver(b12, (0, 0, 0, 0, 1, 0))
    expect = ((0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1),
              (0, 0, 0, 0, 0, 1), (1, 1, 0, 0, 1, 0), (0, 0, 1, 1, 0, 1))
    assert m.matrix == expect
    assert m.matrix == tuple(zip(*m.matrix))
    assert m.matrix[4][4] == 1                         # odd diagonal entry
    assert component_partition(m) == ((0, 1, 4), (2, 3, 5))
    pc = principal_component(m)
    assert pc.vertices == (0, 1, 4)
    assert pc.quotient.table.order == 6
    assert pc.quotient.rho == (0, 0, 1)
    assert pc.quotient.matrix == ((0, 0, 1), (0, 0, 1), (1, 1, 1))


def test_bd12_natural():
    b12 = parse_group_spec("BD:12")
    m = McKayQuiver(b12, natural_rep(b12))
    expect = ((0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0),
              (0, 0, 0, 0, 1, 0), (0, 0, 1, 1, 0, 1), (1, 1, 0, 0, 1, 0))
    assert m.matrix == expect
    assert m.matrix == tuple(zip(*m.matrix))
    assert all(m.matrix[i][i] % 2 == 0 for i in range(6))
    assert m.is_faithful() and component_count(m) == 1
    assert eigen_check(m) and dual_reversal_check(m)
    q = m.to_quiver()
    assert ade_classify(q) == "D~5"
    assert q.weights == b12.dims
    rw = reduced_weight_vector(q)
    assert rw is not None and rw.k == 2 and rw.weights == b12.dims


def test_bd24_split_case():
    b24 = parse_group_spec("BD:24")
    m = McKayQuiver(b24, (0, 0, 0, 0, 0, 0, 1, 0, 0))
    assert m.kernel_class_indices() == (0, 1)
    assert component_partition(m) == ((0, 1, 2, 3, 6, 7), (4, 5, 8))
    minor = m.to_quiver().induced((4, 5, 8))
    assert minor.adjacency == ((1, 0, 1), (0, 1, 1), (1, 1, 0))
    assert minor.weights == (2, 2, 2)
    rw = reduced_weight_vector(minor)
    assert rw is not None and rw.k == 2 and rw.weights == (1, 1, 1)
    pc = principal_component(m)
    assert pc.vertices == (0, 1, 2, 3, 6, 7)
    assert pc.quotient.table.order == 12
    assert eigen_check(m) and dual_reversal_check(m)
    # eigenvalues of the full matrix are the class values of the chosen row
    assert str(char_poly(m.to_quiver())) == "x^9-2*x^8-6*x^7+12*x^6+9*x^5-18*x^4-4*x^3+8*x^2"


def test_regular_rep_outer_product():
    tt = binary_tetrahedral_table()
    m = McKayQuiver(tt, regular_rep(tt))
    dims = tt.dims
    assert m.matrix == tuple(tuple(di * dj for dj in dims) for di in dims)
    assert m.dim == 24
    assert eigen_check(m) and dual_reversal_check(m)
    assert component_count(m) == 1


# -- walks -----------------------------------------------------------------------


def test_walk_counts_two_routes():
    b12 = parse_group_spec("BD:12")
    cases = [
        McKayQuiver(cyclic_table(4), (0, 1, 0, 1)),
        McKayQuiver(b12, (0, 0, 0, 0, 1, 0)),
        McKayQuiver(b12, natural_rep(b12)),
        McKayQuiver(parse_group_spec("BD:24"), (0, 0, 0, 0, 0, 0, 1, 0, 0)),
    ]
    for mq in cases:
        for L in range(4):
            assert walk_matrix(mq, L) == character_walk_matrix(mq, L), L


def test_walk_frozen_values():
    b12 = parse_group_spec("BD:12")
    m = McKayQuiver(b12, natural_rep(b12))
    n = m.n_vertices
    assert walk_matrix(m, 0) == tuple(
        tuple(int(i == j) for j in range(n)) for i in range(n))
    assert walk_multiplicity(m, 0, 0, 2) == 1
    assert walk_multiplicity(m, 0, 5, 3) == 3
    with pytest.raises(ValueError):
        walk_matrix(m, -1)


def test_walk_cross_check_catches_doctored_matrix():
    b12 = parse_group_spec("BD:12")
    m = McKayQuiver(b12, natural_rep(b12))
    rows = [list(r) for r in m.matrix]
    rows[0][0] += 1
    object.__setattr__(m, "matrix", tuple(tuple(r) for r in rows))
    with pytest.raises(InternalInconsistency):
        walk_multiplicity(m, 0, 0, 2)


@pytest.mark.parametrize("spec", ["C:7", "BD:12", "2T", "2I", "C:2xBD:8"])
def test_eigen_check_rejects_a_raised_entry(spec):
    t = parse_group_spec(spec)
    r = t.n_classes
    last = tuple(int(k == r - 1) for k in range(r))
    for rho in (natural_rep(t), regular_rep(t), last):
        m = McKayQuiver(t, rho)
        good = m.matrix
        assert eigen_check(m)
        for i in range(r):
            for j in {i, (i + 1) % r}:
                rows = [list(row) for row in good]
                rows[i][j] += 1
                m.matrix = tuple(tuple(row) for row in rows)
                assert not eigen_check(m), (spec, rho, i, j)


# -- eigen_check on one class per Galois orbit -----------------------------------------


def brute_column_orbits(t):
    """Classes grouped by "column c' is sigma_a(column c)" for every a in
    (Z/E)^*, on Cyclotomic objects, each group led by its least class."""
    E = t._engine().exponent
    cols = list(zip(*t.characters))
    index = {col: c for c, col in reversed(list(enumerate(cols)))}
    images = {}

    def image(v, a):
        if (v, a) not in images:
            images[v, a] = v.galois(a)
        return images[v, a]

    orbits, done = [], set()
    for c, col in enumerate(cols):
        if c in done:
            continue
        orbit = {index.get(tuple(image(v, a) for v in col))
                 for a in range(1, E + 1) if math.gcd(a, E) == 1} - {None}
        assert c in orbit and not orbit & done  # an equivalence on a genuine table
        done |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


@pytest.mark.parametrize("spec", catalog_specs(48))
def test_column_orbits_match_every_galois_automorphism(spec):
    t = parse_group_spec(spec)
    assert t._engine().column_orbits == brute_column_orbits(t)


def failing_classes(m):
    """Classes where sum_j A_ij chi_j(c) != chi_rho(c) chi_i(c) for some
    i, on Cyclotomic objects."""
    chi, r = m.table.characters, m.n_vertices
    zero = Cyclotomic.zero()
    out = []
    for c in range(r):
        rho_c = sum((k * chi[j][c] for j, k in enumerate(m.rho) if k), zero)
        if any(sum((a * chi[j][c] for j, a in enumerate(m.matrix[i]) if a), zero)
               != rho_c * chi[i][c] for i in range(r)):
            out.append(c)
    return out


def test_a_tampered_class_is_checked_not_assumed():
    # C:5's classes 2..5 are one Galois orbit.  Raising chi2 at class 5 by
    # 1 leaves classes 2..4 related and class 5 the image of none of them.
    t = cyclic_table(5)
    rows = [list(row) for row in t.characters]
    rows[1][4] = rows[1][4] + 1
    bad = CharacterTable("C5-tampered", 5, t.classes, rows)
    assert t._engine().column_orbits == ((0,), (1, 2, 3, 4))
    assert bad._engine().column_orbits == ((0,), (1, 2, 3), (4,))
    rho = (0, 1, 0, 0, 0)
    m = McKayQuiver(t, rho)
    assert eigen_check(m) and failing_classes(m) == []
    # C:5's matrix against the tampered columns fails at class 5 alone
    m.table, m._rho_dicts = bad, bad._engine().rep_dicts(rho)
    assert failing_classes(m) == [4]
    assert not eigen_check(m)


# -- the quiver of a McKayQuiver, built once ---------------------------------------------


def test_to_quiver_is_built_once_per_matrix(monkeypatch):
    built = []
    orig = quiver.Quiver.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        orig(self, *args, **kwargs)
    monkeypatch.setattr(quiver.Quiver, "__init__", counting)
    t = parse_group_spec("BD:12")
    m = McKayQuiver(t, natural_rep(t))
    q = m.to_quiver()
    assert component_partition(m) == ((0, 1, 2, 3, 4, 5),)
    assert m.to_quiver() is q and len(built) == 1
    assert q.adjacency == m.matrix and q.weights == t.dims
    # a new matrix gets a new quiver
    m.matrix = mckay_matrix(t, (0, 0, 0, 0, 1, 0))
    assert m.to_quiver().adjacency == m.matrix and len(built) == 2


# -- the one-dimensional rows as a permutation action ---------------------------------


@pytest.mark.parametrize("spec", ["C:6", "BD:12", "BD:16", "2T", "2O", "C:2xC:4"])
def test_dual_group_action(spec):
    t = parse_group_spec(spec)
    act = dual_group_action(t)
    assert sorted(act) == [i for i in range(t.n_classes) if t.dims[i] == 1]
    assert act[0] == tuple(range(t.n_classes))
    for perm in act.values():
        assert sorted(perm) == list(range(t.n_classes))
    assert dual_action_simply_transitive(t), spec


def test_character_and_kernel():
    for spec, rho in (("BD:12", (0, 1, 0, 0, 1, 0)),
                      ("BD:12", (0, 2, 0, 1, 0, 0)),
                      ("2I", regular_rep),
                      ("C:2xBD:8", natural_rep)):
        t = parse_group_spec(spec)
        rho = rho if isinstance(rho, tuple) else rho(t)
        m = McKayQuiver(t, rho)
        ch = m.character()
        # oracle: the same sum over Cyclotomic objects
        assert ch.values == tuple(
            sum((k * t.characters[i][c] for i, k in enumerate(rho) if k), Cyclotomic.zero())
            for c in range(t.n_classes)), spec
        assert m.kernel_class_indices() == tuple(
            c for c, v in enumerate(ch.values) if v == ch.values[0])
        assert m.dims == t.dims
        assert m.n_vertices == t.n_classes


def test_bad_rho_rejected():
    b12 = parse_group_spec("BD:12")
    for bad in ((), (0, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0),
                (1.0, 0, 0, 0, 0, 0), (1, 0, 0)):
        with pytest.raises(ValueError):
            mckay_matrix(b12, bad)
        with pytest.raises(ValueError):
            McKayQuiver(b12, bad)
