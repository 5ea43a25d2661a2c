"""The fraction-free elimination kernel against sympy, and the cyclotomic
subfield projection, a left inverse of the subfield embedding."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mckayq.cyclotomic import _Field, _project, _reduction_rows, euler_phi, prime_factors
from mckayq.linalg import echelon, nullspace


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


def test_degenerate_shapes():
    assert echelon([]) == ([], [], 1)
    assert echelon([[0, 0], [0, 0]]) == ([], [], 1)
    assert nullspace([[0, 0]]) == [[1, 0], [0, 1]]
    assert nullspace([[2, 4]]) == [[-2, 1]]


@pytest.mark.parametrize("n", range(2, 121))
def test_subfield_basis_is_a_left_inverse(n):
    # the projection to Q(zeta_m), m = n/p, after the embedding
    # zeta_m -> zeta_n^p is the identity on each basis vector zeta_m^j
    red = _reduction_rows(n)
    for p in prime_factors(n):
        m = n // p
        F = _Field(m)
        for j in range(euler_phi(m)):
            coords = tuple(Fraction(c) for c in red[j * p % n])
            assert F.reduce_dict(_project(n, p, coords)) == \
                tuple(int(i == j) for i in range(euler_phi(m)))
