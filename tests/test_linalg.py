"""The modular elimination kernel against sympy, rational
reconstruction, and the cyclotomic subfield projection, a left inverse
of the subfield embedding."""

from fractions import Fraction

from math import gcd, isqrt

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from mckayq.cyclotomic import _Field, _project, _reduction_rows, euler_phi, prime_factors
from mckayq.linalg import nullspace_mod, rational_reconstruction


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
@given(int_matrices(), st.sampled_from([2, 3, 5, 7, 1073741789]))
def test_nullspace_mod_against_sympy_rank(rows, p):
    ncols = len(rows[0])
    basis = nullspace_mod(rows, p)
    field = sympy.GF(p)
    rank = DomainMatrix([[field(x) for x in row] for row in rows],
                        (len(rows), ncols), field).rank()
    assert len(basis) == ncols - rank
    free = [next(j for j in reversed(range(ncols)) if v[j]) for v in basis]
    for v, fc in zip(basis, free):
        assert all(0 <= x < p for x in v) and v[fc] == 1
        assert all(v[j] == 0 for j in free if j != fc)
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in rows)


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_nullspace_mod_is_nullspace_mod_p(rows):
    # entries of at most 4 and at most 6 columns: by Hadamard's bound
    # every minor is below 10^6, so none is a nonzero multiple of p and
    # the rank does not fall mod p
    p = 1073741789
    assert nullspace_mod(rows, p) == [
        [x.numerator * pow(x.denominator, -1, p) % p for x in v]
        for v in (to_fractions(u.T)[0] for u in sympy.Matrix(rows).nullspace())]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 101, 10007, 1073741789]), st.data())
def test_rational_reconstruction_inverts_reduction(p, data):
    bound = isqrt(p // 2)
    a = data.draw(st.integers(-bound, bound))
    b = data.draw(st.integers(1, bound))
    g = gcd(a, b)
    a, b = a // g, b // g
    assert rational_reconstruction(a * pow(b, -1, p) % p, p) == (a, b)


def test_rational_reconstruction_without_a_small_fraction():
    # 1/10 = 91 mod 101, and no a/b with |a|, b <= 7 is 91 mod 101
    assert rational_reconstruction(91, 101) is None
    assert rational_reconstruction(0, 101) == (0, 1)
    assert rational_reconstruction(100, 101) == (-1, 1)


def test_degenerate_shapes():
    assert nullspace_mod([[0, 0]], 7) == [[1, 0], [0, 1]]
    assert nullspace_mod([[2, 4]], 7) == [[5, 1]]
    assert nullspace_mod([[7, 14]], 7) == [[1, 0], [0, 1]]


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
