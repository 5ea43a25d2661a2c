"""The fraction-free elimination kernel against sympy, and the subfield
solver data built on it."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mckayq.cyclotomic import _reduction_rows, _subfield_basis, euler_phi, prime_factors
from mckayq.linalg import echelon, inverse, nullspace


@st.composite
def int_matrices(draw):
    """Small integer matrices, 1 x n and n x 1 included, with zero rows
    and repeated (so rank-deficient) rows mixed in."""
    r = draw(st.integers(1, 6))
    c = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=c, max_size=c),
                         min_size=r, max_size=r))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, r))
        if draw(st.booleans()):
            rows.insert(i, [0] * c)
        else:
            rows.insert(i, list(rows[draw(st.integers(0, len(rows) - 1))]))
    return rows


def to_fractions(m):
    return [[Fraction(int(x.p), int(x.q)) for x in row] for row in m.tolist()]


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_echelon_matches_rref(rows):
    pivot_cols, prows, d = echelon(rows)
    rref, pivots = sympy.Matrix(rows).rref()
    assert tuple(pivot_cols) == pivots
    assert d != 0 and all(isinstance(x, int) for row in prows for x in row)
    assert [[Fraction(x, d) for x in row] for row in prows] == \
        to_fractions(rref)[:len(pivots)]


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_nullspace_matches_sympy(rows):
    basis = nullspace(rows)
    expected = [to_fractions(v.T)[0] for v in sympy.Matrix(rows).nullspace()]
    assert basis == expected
    assert all(type(x) is Fraction for v in basis for x in v)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_inverse_matches_sympy(rows):
    m = sympy.Matrix(rows)
    if m.det() == 0:
        with pytest.raises(ArithmeticError):
            inverse(rows)
        return
    inv = inverse(rows)
    assert [list(r) for r in inv] == to_fractions(m.inv())
    assert all(type(x) is Fraction for r in inv for x in r)


def test_degenerate_shapes():
    assert echelon([]) == ([], [], 1)
    assert echelon([[0, 0], [0, 0]]) == ([], [], 1)
    assert nullspace([[0, 0]]) == [[1, 0], [0, 1]]
    assert nullspace([[2, 4]]) == [[-2, 1]]
    assert inverse([[2]]) == ((Fraction(1, 2),),)


@pytest.mark.parametrize("n", range(2, 121))
def test_subfield_basis_is_a_left_inverse(n):
    red = _reduction_rows(n)
    for p in prime_factors(n):
        m = n // p
        pivots, inv = _subfield_basis(n, m)
        # column j of the embedding: zeta_m^j in the power basis of Q(zeta_n)
        emb = [red[(j * p) % n] for j in range(euler_phi(m))]
        k = len(emb)
        assert len(pivots) == k
        # inv times column j of the submatrix on the pivot rows is e_j
        for j, col in enumerate(emb):
            terms = [(t, col[i]) for t, i in enumerate(pivots) if col[i]]
            assert [sum(row[t] * c for t, c in terms) for row in inv] == \
                [int(i == j) for i in range(k)]
