"""Integer polynomial arithmetic and rational factorization, against sympy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mckayq import polynomials
from mckayq.polynomials import (
    MAX_FACTOR_DEGREE,
    MR_BOUND,
    IntPolynomial,
    cyclotomic_index,
    cyclotomic_polynomial,
    factor_over_Q,
    is_prime,
    parse_polynomial,
    poly_gcd,
    primes_below,
    squarefree_decomposition,
    squarefree_part,
)

X = sympy.Symbol("x")


def to_sympy(f: IntPolynomial):
    return sympy.Poly(list(reversed(f.coeffs)), X)


def from_sympy(p) -> IntPolynomial:
    return IntPolynomial(list(reversed([int(c) for c in p.all_coeffs()])))


poly_strategy = st.lists(st.integers(-6, 6), min_size=1, max_size=7).filter(
    lambda c: any(c))


# -- ring arithmetic ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(poly_strategy, poly_strategy)
def test_arithmetic_matches_sympy(ca, cb):
    a, b = IntPolynomial(ca), IntPolynomial(cb)
    sa, sb = to_sympy(a), to_sympy(b)
    assert from_sympy(sa + sb) == a + b or (sa + sb).is_zero and (a + b).is_zero
    assert from_sympy(sa * sb) == a * b
    assert from_sympy(sa - sb) == a - b or (sa - sb).is_zero and (a - b).is_zero
    assert a.evaluate(3) == sa.eval(3)
    assert from_sympy(sa.diff(X)) == a.derivative() or a.degree == 0


def test_basic_properties():
    x = IntPolynomial.x()
    f = x ** 3 - 2 * x + IntPolynomial.one()
    assert f.coeffs == (1, -2, 0, 1)
    assert f.degree == 3 and f.lc == 1 and f.constant == 1
    assert f.is_monic and not IntPolynomial([1, 2]).is_monic
    assert IntPolynomial.zero().is_zero
    assert IntPolynomial([0, 0, 3, 0]).coeffs == (0, 0, 3)
    assert IntPolynomial([2, 4, 6]).content() == 2
    assert IntPolynomial([2, 4, 6]).primitive() == IntPolynomial([1, 2, 3])
    assert (f ** 2).degree == 6
    assert f.try_divide(x) is None
    assert (f * x).try_divide(f) == x


def test_parse_str_round_trip_fixed():
    for text, coeffs in [
        ("x^2-x-6", (-6, -1, 1)),
        ("x^5+2*x^4-44*x^3-40*x^2+400*x+128", (128, 400, -40, -44, 2, 1)),
        ("7", (7,)),
        ("-x", (0, -1)),
        ("x", (0, 1)),
        ("2*x+1", (1, 2)),
        ("x^3+x", (0, 1, 0, 1)),
        ("0", ()),
        ("-1", (-1,)),
        ("x-1", (-1, 1)),
        ("-x+1", (1, -1)),
        ("-2*x^3+x^2-x", (0, -1, 1, -2)),
    ]:
        f = parse_polynomial(text)
        assert f.coeffs == coeffs, text
        assert str(f) == text
        assert parse_polynomial(str(f)) == f


@settings(max_examples=60, deadline=None)
@given(poly_strategy)
def test_parse_str_round_trip_random(coeffs):
    f = IntPolynomial(coeffs)
    assert parse_polynomial(str(f)) == f


def test_parse_errors():
    for bad in ("", "x^", "x**2", "y+1", "x^-1", "1//2", "x^2 2"):
        with pytest.raises(ValueError):
            parse_polynomial(bad)


# -- gcd and squarefree ------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(poly_strategy, poly_strategy)
def test_gcd_matches_sympy(ca, cb):
    a, b = IntPolynomial(ca), IntPolynomial(cb)
    got = poly_gcd(a, b)
    want = sympy.gcd(to_sympy(a), to_sympy(b))
    # both are primitive with positive lc, up to rational scaling
    assert to_sympy(got).monic() == sympy.Poly(want, X).monic()


@settings(max_examples=30, deadline=None)
@given(poly_strategy, poly_strategy, poly_strategy)
def test_gcd_of_products_with_a_common_factor(ca, cb, cc):
    a, b, c = IntPolynomial(ca), IntPolynomial(cb), IntPolynomial(cc)
    got = poly_gcd(a * c * c, b * c)
    want = sympy.Poly(sympy.gcd(to_sympy(a * c * c), to_sympy(b * c)), X)
    assert got.lc > 0 and got.content() == 1
    assert to_sympy(got).monic() == want.monic()


def test_squarefree():
    x = IntPolynomial.x()
    f = (x - IntPolynomial.one()) ** 3 * (x + IntPolynomial.one())
    assert squarefree_part(f) == (x - IntPolynomial.one()) * (x + IntPolynomial.one())
    decomp = squarefree_decomposition(f)
    assert (x - IntPolynomial.one(), 3) in decomp
    assert (x + IntPolynomial.one(), 1) in decomp
    rebuilt = IntPolynomial.one()
    for g, m in decomp:
        rebuilt = rebuilt * g ** m
    assert rebuilt == f.primitive()


# -- factorization ------------------------------------------------------------------


def sympy_factors(f: IntPolynomial):
    _, pairs = sympy.factor_list(to_sympy(f).as_expr(), X)
    out = []
    for base, mult in pairs:
        g = from_sympy(sympy.Poly(base, X)).primitive()
        if g.lc < 0:
            g = -g
        if g.degree >= 1:
            out.extend([g] * mult)
    out.sort(key=lambda h: (h.degree, h.coeffs))
    return tuple(out)


@settings(max_examples=40, deadline=None)
@given(poly_strategy)
def test_factor_matches_sympy(coeffs):
    f = IntPolynomial(coeffs)
    if f.degree == 0:
        assert factor_over_Q(f) == ()
        return
    assert factor_over_Q(f) == sympy_factors(f)


def test_factor_frozen_cases():
    quintic = parse_polynomial("x^5+2*x^4-44*x^3-40*x^2+400*x+128")
    assert factor_over_Q(quintic) == (quintic,)
    assert sympy.Poly(to_sympy(quintic)).is_irreducible

    x = IntPolynomial.x()
    eight = x - IntPolynomial([8])
    assert factor_over_Q(eight * quintic) == (eight, quintic)

    c12 = parse_polynomial("x^12-1")
    degrees = sorted(g.degree for g in factor_over_Q(c12))
    assert degrees == [1, 1, 2, 2, 2, 4]       # the divisors' totients

    assert factor_over_Q(parse_polynomial("6*x^2+5*x+1")) == (
        parse_polynomial("2*x+1"), parse_polynomial("3*x+1"))

    with pytest.raises(ValueError):
        factor_over_Q(IntPolynomial.zero())


# -- cyclotomic factors ---------------------------------------------------------------

SMALL_PHI_D = [d for d in range(1, 211) if sympy.totient(d) <= 48]


def phi_poly(d: int) -> IntPolynomial:
    return IntPolynomial(cyclotomic_polynomial(d))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(SMALL_PHI_D), max_size=4),
       st.lists(st.integers(-5, 5), min_size=2, max_size=5).filter(lambda c: c[-1]),
       st.integers(1, 3))
@example([210, 1], [1, 1, 1], 1)
@example([210], [3, 0, 2], 2)
def test_cyclotomic_products_factor_like_sympy(ds, rest, mult):
    """Products of Phi_d (d <= 210, so up to phi = 48) with a random,
    possibly non-monic or cyclotomic cofactor, the first Phi_d repeated."""
    f = IntPolynomial(rest)
    for d in ds:
        f = f * phi_poly(d)
    if ds:
        f = f * phi_poly(ds[0]) ** (mult - 1)
    assume(f.degree <= MAX_FACTOR_DEGREE)
    assert factor_over_Q(f) == sympy_factors(f)


def test_cyclotomic_split_skips_zassenhaus(monkeypatch):
    calls = []
    real = polynomials._zassenhaus_monic
    monkeypatch.setattr(polynomials, "_zassenhaus_monic",
                        lambda F: calls.append(F) or real(F))
    f = parse_polynomial("x^46-1")
    assert factor_over_Q(f) == (phi_poly(1), phi_poly(2), phi_poly(46), phi_poly(23))
    assert calls == []
    # the rest after the split still goes through Zassenhaus
    quintic = parse_polynomial("x^5+2*x^4-44*x^3-40*x^2+400*x+128")
    assert factor_over_Q(f * quintic) == (
        phi_poly(1), phi_poly(2), quintic, phi_poly(46), phi_poly(23))
    assert calls == [quintic]


def test_cyclotomic_polynomial_matches_sympy():
    for d in list(range(1, 121)) + [210, 240, 256, 385, 1021]:
        want = sympy.Poly(sympy.cyclotomic_poly(d, X), X)
        assert phi_poly(d) == from_sympy(want), d


def test_cyclotomic_index():
    for d in range(1, 300):
        if sympy.totient(d) <= MAX_FACTOR_DEGREE:
            assert cyclotomic_index(phi_poly(d)) == d
    x = IntPolynomial.x()
    for f in (x, x ** 4 + IntPolynomial.one() * 2, phi_poly(7) * 2,
              phi_poly(5) + x ** 2, phi_poly(3) * phi_poly(4),
              parse_polynomial("x^2+3*x+1")):
        assert cyclotomic_index(f) is None, f


def test_crt_primes_are_the_largest_below_2_61():
    for n in (1, 2, 3, 4, 48, 1024):
        want, p = [], (1 << 61) - 1
        p -= (p - 1) % n  # the largest p = 1 mod n below 2^61
        while len(want) < 4:
            if sympy.isprime(p):
                want.append(p)
            p -= n
        assert [polynomials._crt_prime(i, n) for i in range(4)] == want, n
    assert polynomials._crt_prime(0) == (1 << 61) - 1
    assert [polynomials._crt_prime(i) for i in range(4)] == [
        polynomials._crt_prime(i, 2) for i in range(4)]


def test_import_does_no_polynomial_work():
    code = ("import mckayq\n"
            "from mckayq import polynomials, quiver\n"
            "print(polynomials._cyclotomic_candidates.cache_info().currsize,\n"
            "      polynomials.cyclotomic_polynomial.cache_info().currsize,\n"
            "      quiver._crt_prime.cache_info().currsize)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout.split() == ["0", "0", "0"], proc.stderr


def test_cyclotomic_caches_are_bounded():
    assert cyclotomic_polynomial.cache_info().maxsize is not None
    assert polynomials._cyclotomic_candidates.cache_info().maxsize == 1


# -- small prime utilities -----------------------------------------------------------


def test_primes():
    assert primes_below(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [n for n in range(2, 40) if is_prime(n)] == primes_below(40)
    assert not is_prime(1) and not is_prime(0)


def test_is_prime_matches_the_sieve():
    primes = set(primes_below(10 ** 5))
    assert all(is_prime(n) == (n in primes) for n in range(-3, 10 ** 5))


def test_is_prime_on_pseudoprimes_and_large_primes():
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161)
    # strong pseudoprimes to every prime base up to 23, and up to 37
    strong = (3825123056546413051, 318665857834031151167461)
    for n in carmichael + strong:
        assert not is_prime(n), n
    m61 = 2 ** 61 - 1
    for n in (m61, 2 ** 62 - 57, 2 ** 64 - 59, 2 ** 80 - 65):
        assert is_prime(n), n
    assert not is_prime(m61 * 1000003)
    for n in range(2 ** 61 - 400, 2 ** 61):
        assert is_prime(n) == sympy.isprime(n), n
    with pytest.raises(ValueError):
        is_prime(MR_BOUND)
