"""The exponent-form kernel `_Field` against its definition: a dict
{e: c} stands for sum c * zeta_n^e, its coordinates are
sum c * _reduction_rows(n)[e], and a product adds exponents mod n."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mckayq.cyclotomic import _Field, _reduction_rows, _sparse_rows, euler_phi

CONDUCTORS = [1, 3, 4, 7, 12, 15, 48, 60, 64]

coefficients = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=6))


def exponents(n):
    """Exponents below phi(n), where zeta^e is a basis vector, and at or
    above it, where it needs a reduction row."""
    phi = euler_phi(n)
    low = st.integers(0, phi - 1)
    return low if phi == n else st.one_of(low, st.integers(phi, n - 1))


def exponent_dicts(n):
    monomials = st.builds(lambda e, c: {e: c}, exponents(n), coefficients)
    mixed = st.dictionaries(exponents(n), coefficients, max_size=8)
    return st.one_of(monomials, mixed)


@st.composite
def field_and_dicts(draw, count):
    n = draw(st.sampled_from(CONDUCTORS))
    return n, [draw(exponent_dicts(n)) for _ in range(count)]


def naive_reduce(n, d):
    red = _reduction_rows(n)
    out = [0] * euler_phi(n)
    for e, c in d.items():
        for t, x in enumerate(red[e]):
            out[t] += c * x
    return tuple(out)


def naive_mul(n, d1, d2):
    out = {}
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            e = (e1 + e2) % n
            out[e] = out.get(e, 0) + c1 * c2
    return out


def nonzero(d):
    return {e: c for e, c in d.items() if c}


@settings(max_examples=200, deadline=None)
@given(field_and_dicts(1))
def test_reduce_dict_matches_reduction_rows(case):
    n, (d,) = case
    F = _Field(n)
    want = naive_reduce(n, d)
    assert F.reduce_dict(d) == want
    dense = [0] * n
    for e, c in d.items():
        dense[e] = c
    assert F.reduce_dict(dense) == want


def test_sparse_rows_are_the_nonzero_entries_at_and_above_phi():
    for n in range(1, 129):
        phi, rows = euler_phi(n), _sparse_rows(n)
        assert rows[:phi] == ((),) * phi and len(rows) == n
        for e in range(phi, n):
            assert rows[e] == tuple((t, x) for t, x in enumerate(_reduction_rows(n)[e]) if x)


def test_reduce_dict_monomial_returns_the_cached_row():
    for n in CONDUCTORS:
        F = _Field(n)
        for e in range(n):
            assert F.reduce_dict({e: 1}) is _reduction_rows(n)[e]
            assert F.reduce_dict({e: Fraction(1, 2)}) == tuple(
                Fraction(x, 2) for x in _reduction_rows(n)[e])


@settings(max_examples=200, deadline=None)
@given(field_and_dicts(2))
def test_mul_matches_double_loop(case):
    n, (d1, d2) = case
    F = _Field(n)
    assert nonzero(F.mul(d1, d2)) == nonzero(naive_mul(n, d1, d2))
    assert F.reduce_dict(F.mul(d1, d2)) == naive_reduce(n, naive_mul(n, d1, d2))


@settings(max_examples=100, deadline=None)
@given(field_and_dicts(4), st.lists(st.integers(-3, 3), min_size=2, max_size=2))
def test_combo_and_dot_match_their_sums(case, weights):
    n, (a1, a2, b1, b2) = case
    F = _Field(n)
    want = {}
    for w, d in zip(weights, (a1, a2)):
        for e, c in d.items():
            want[e] = want.get(e, 0) + w * c
    assert F.combo(weights, (a1, a2)) == nonzero(want)
    products = {}
    for w, x, y in zip(weights, (a1, a2), (b1, b2)):
        for e, c in naive_mul(n, x, y).items():
            products[e] = products.get(e, 0) + w * c
    assert F.dot(weights, (a1, a2), (b1, b2)) == naive_reduce(n, products)


@settings(max_examples=100, deadline=None)
@given(field_and_dicts(2), st.integers(-60, 60))
def test_galois_is_a_ring_map(case, a):
    n, (d1, d2) = case
    while math.gcd(a, n) != 1:
        a += 1
    F = _Field(n)
    assert F.galois(d1, a) == {a * e % n: c for e, c in d1.items()}
    red = F.reduce_dict
    assert red(F.galois(F.mul(d1, d2), a)) == red(F.mul(F.galois(d1, a), F.galois(d2, a)))
    assert F.galois(F.galois(d1, -1), -1) == d1
