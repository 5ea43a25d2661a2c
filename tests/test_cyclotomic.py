"""Exact cyclotomic arithmetic against a floating-point oracle and the
ring axioms."""

import cmath
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckayq import cyclotomic
from mckayq.catalog import cyclic_table
from mckayq.cyclotomic import (
    Cyclotomic,
    CyclotomicSyntaxError,
    MAX_POWER,
    E,
    NotRational,
    _Field,
    cyclotomic_polynomial,
    euler_phi,
    parse_cyclotomic,
    prime_factors,
)


def approx(c: Cyclotomic) -> complex:
    """Independent numerical value of a cyclotomic: evaluate the stored
    power-basis coefficients at a float root of unity."""
    z = cmath.exp(2j * cmath.pi / c.conductor)
    return sum(float(a) * z ** k for k, a in enumerate(c.coeffs))


CONDUCTORS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15]


@st.composite
def cyclotomics(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    coeffs = draw(st.lists(
        st.one_of(st.integers(-4, 4),
                  st.fractions(min_value=-4, max_value=4, max_denominator=4)),
        min_size=1, max_size=euler_phi(n)))
    return sum((a * E(n) ** k for k, a in enumerate(coeffs)),
               Cyclotomic.zero())


# -- number theory helpers ----------------------------------------------------


def test_prime_factors():
    assert prime_factors(1) == ()
    assert prime_factors(12) == (2, 3)
    assert prime_factors(97) == (97,)
    assert prime_factors(360) == (2, 3, 5)


def test_euler_phi():
    # brute-force gcd count as oracle
    import math
    for n in range(1, 60):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1)
                                   if math.gcd(k, n) == 1)


def test_cyclotomic_polynomial_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    # prod over d | n of Phi_d = x^n - 1
    for n in (1, 2, 6, 12, 30):
        prod = [1]
        for d in range(1, n + 1):
            if n % d:
                continue
            phi = cyclotomic_polynomial(d)
            out = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
        expect = [-1] + [0] * (n - 1) + [1]
        assert prod == expect


# -- identities ---------------------------------------------------------------


def test_basic_identities():
    assert E(4) ** 2 == -1
    assert E(3) + E(3) ** 2 == -1
    assert E(1) == 1
    assert E(2) == -1
    sqrt2 = E(8) + E(8) ** 7
    assert sqrt2 * sqrt2 == 2
    golden = E(5) + E(5) ** 4
    assert golden * golden + golden - 1 == 0
    # sum of all primitive 5th roots is -1
    assert sum((E(5) ** k for k in range(1, 5)), Cyclotomic.zero()) == -1


def test_conductor_minimization():
    # zeta_6^3 = -1 lives in Q, zeta_12^2 in Q(zeta_6) = Q(zeta_3) basis
    assert (E(6) ** 3).conductor == 1
    assert (E(12) ** 2).conductor == 3
    assert (E(8) ** 2).conductor == 4
    assert (E(15) ** 5).conductor == 3
    v = E(12) + E(12) ** 11   # sqrt(3), conductor 12
    assert v.conductor == 12
    assert v * v == 3


def conductor_oracle(n: int, d: dict) -> int:
    """The smallest m | n such that every unit a = 1 mod m fixes the
    element with exponent form d in Q(zeta_n), by brute force."""
    F = _Field(n)
    coords = F.reduce_dict(d)
    return next(m for m in range(1, n + 1) if n % m == 0 and all(
        F.reduce_dict(F.galois(d, a)) == coords
        for a in range(1, n) if a % m == 1 % m and math.gcd(a, n) == 1))


@st.composite
def subfield_elements(draw):
    """(n, d, exponent form in Q(zeta_n)) of a few-term element of Q(zeta_d)."""
    n = draw(st.one_of(st.integers(1, 120), st.sampled_from([902, 1018, 1020, 1021, 1024])))
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    terms = draw(st.dictionaries(
        st.integers(0, d - 1),
        st.fractions(min_value=-3, max_value=3, max_denominator=3), max_size=4))
    return n, d, {e * (n // d): c for e, c in terms.items()}


@settings(max_examples=120, deadline=None)
@given(subfield_elements())
def test_descent_reaches_the_minimal_conductor(case):
    n, d, terms = case
    F = _Field(n)
    coords = F.reduce_dict(terms)
    v = Cyclotomic(n, coords)
    assert v.conductor == conductor_oracle(n, terms)
    assert F.reduce_dict(v.terms(n)) == coords
    assert all(type(c) is Fraction for c in v.coeffs)


def test_roots_of_unity_match_the_descent_route():
    # Cyclotomic.zeta builds zeta_n^e at its conductor in closed form;
    # the reference reduces {e: 1} in Q(zeta_n) and descends from n
    for n in [*range(1, 65), 96, 128, 210, 256]:
        F = _Field(n)
        for e in range(n):
            z, ref = Cyclotomic.zeta(n, e), Cyclotomic(n, F.reduce_dict({e: 1}))
            assert (z.conductor, z.coeffs) == (ref.conductor, ref.coeffs), (n, e)
            assert all(type(c) is Fraction for c in z.coeffs)


def test_cyclic_table_makes_no_descent(monkeypatch):
    calls = []
    minimize = cyclotomic._minimize

    def counted(n, coeffs):
        calls.append(n)
        return minimize(n, coeffs)

    monkeypatch.setattr(cyclotomic, "_minimize", counted)
    cyclotomic._zeta_cached.cache_clear()
    t = cyclic_table(48)
    assert calls == []
    assert t.irreducible(5)[1] == E(48, 5)


def test_hostile_roots_of_unity_parse_fast():
    # a fresh process, so no cache holds these fields yet
    code = ("import time\n"
            "from mckayq.cyclotomic import parse_cyclotomic\n"
            "for text in ('E(902)', 'E(1018)'):\n"
            "    start = time.process_time()\n"
            "    parse_cyclotomic(text)\n"
            "    print(time.process_time() - start)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    times = [float(t) for t in proc.stdout.split()]
    assert len(times) == 2 and max(times) < 0.5, proc.stderr


def test_rationality():
    assert Cyclotomic.from_rational(Fraction(3, 4)).is_rational
    assert (E(5) + E(5) ** 2 + E(5) ** 3 + E(5) ** 4).to_rational() == -1
    with pytest.raises(NotRational):
        E(3).to_rational()
    with pytest.raises(NotRational):
        (E(8) + E(8) ** 7).to_int()
    with pytest.raises(NotRational):
        Cyclotomic.from_rational(Fraction(1, 2)).to_int()


def test_division():
    # no field division: a character value is an algebraic integer, and
    # only a root of unity, whose inverse is its conjugate, has x^-1
    with pytest.raises(TypeError):
        E(4) / E(4)
    with pytest.raises(TypeError):
        1 / E(3)
    assert E(4) ** -1 == E(4).conjugate() == -E(4)
    assert (-E(7, 2)) ** -3 == (-E(7, 2)).conjugate() ** 3
    for x in (2 + E(7), Cyclotomic.zero(), Fraction(1, 2) * E(4),
              Fraction(3, 5) + Fraction(4, 5) * E(4)):
        with pytest.raises(ValueError, match="needs a root of unity"):
            x ** -1


def is_root_of_unity(a: Cyclotomic) -> bool:
    """By enumeration: the roots of unity in Q(zeta_n) are the E(2n)^k."""
    m = 2 * a.conductor
    return any(a == E(m, k) for k in range(m))


def test_galois_and_conjugation():
    g = E(5)
    assert g.conjugate() == E(5) ** 4
    assert g.galois(2) == E(5) ** 2
    with pytest.raises(ValueError):
        g.galois(5)  # not coprime to the conductor
    # conjugation fixes real combinations
    r = E(7) + E(7) ** 6
    assert r.conjugate() == r
    # trace of zeta_5 over Q
    tr = sum((g.galois(a) for a in (1, 2, 3, 4)), Cyclotomic.zero())
    assert tr == -1


# -- oracle comparison ---------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(cyclotomics(), cyclotomics(), st.integers(-40, 40))
def test_arithmetic_matches_float_oracle(a, b, k):
    assert abs(approx(a) + approx(b) - approx(a + b)) < 1e-6
    assert abs(approx(a) * approx(b) - approx(a * b)) < 1e-6
    assert abs(approx(a) - approx(b) - approx(a - b)) < 1e-6
    assert abs(approx(a).conjugate() - approx(a.conjugate())) < 1e-6
    # galois(k): the stored coefficients evaluated at z^k instead of z
    while math.gcd(k, a.conductor) != 1:
        k += 1
    z = cmath.exp(2j * cmath.pi / a.conductor)
    at_zk = sum(float(c) * z ** (k * j) for j, c in enumerate(a.coeffs))
    assert abs(at_zk - approx(a.galois(k))) < 1e-6


@settings(max_examples=100, deadline=None)
@given(cyclotomics())
def test_field_axioms(a):
    assert a + Cyclotomic.zero() == a
    assert a * Cyclotomic.one() == a
    assert a - a == 0
    assert -(-a) == a


@settings(max_examples=100, deadline=None)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# -- printing and parsing -------------------------------------------------------


def test_canonical_strings():
    assert str(Cyclotomic.zero()) == "0"
    assert str(Cyclotomic.one()) == "1"
    assert str(Cyclotomic.from_rational(Fraction(-3, 2))) == "-3/2"
    assert str(E(4)) == "E(4)"
    assert str(-E(4)) == "-E(4)"
    assert str(E(8) + E(8) ** 7) == "-E(8)^3+E(8)"
    assert str(2 * E(3) + 1) == "2*E(3)+1"
    # the shared term printer's edge cases: a rational at conductor 1, a
    # coefficient of +-1 at powers 0 and 1, a negative leading term
    assert str(Cyclotomic.from_rational(Fraction(-1, 2))) == "-1/2"
    assert str(-Cyclotomic.one()) == "-1"
    assert str(E(3) - 1) == "E(3)-1"
    assert str(1 - E(3)) == "-E(3)+1"
    assert str(E(5) - 2 * E(5) ** 3) == "-2*E(5)^3+E(5)"


def test_parse_round_trip_fixed():
    for text in ("0", "1", "-1", "5/3", "E(4)", "-E(4)", "E(8)-E(8)^3",
                 "2*E(3)+1", "E(12)^7-1/2", "(1+E(3))*E(4)"):
        v = parse_cyclotomic(text)
        assert parse_cyclotomic(str(v)) == v


def test_parse_errors():
    for text in ("", "E(0)", "E(4", "E(4)^", "x", "1++2", "E(-3)", "2*", "(1"):
        with pytest.raises(CyclotomicSyntaxError):
            parse_cyclotomic(text)


def test_parse_bounds_powers():
    # x^k beyond MAX_POWER is rejected at k, before any squaring
    for text in ("(2)^100000000", "(1/3+E(60)+E(7))^-1025", "(E(4))^1025"):
        start = time.process_time()
        with pytest.raises(CyclotomicSyntaxError) as err:
            parse_cyclotomic(text)
        assert time.process_time() - start < 0.1
        assert err.value.position == text.index("^") + 1
    assert parse_cyclotomic(f"(2)^{MAX_POWER}") == 2 ** MAX_POWER
    # E(n)^k is a root of unity: any k
    assert parse_cyclotomic("E(7)^100000000") == E(7) ** (100000000 % 7)
    assert parse_cyclotomic("E(7)^-100000001") == E(7, -100000001)


def test_inverse_of_a_large_power_is_fast():
    # short values within MAX_POWER and MAX_POWER_BITS that are no roots
    # of unity: rejected at k, without printing the value; the last one
    # took minutes when the parser inverted it by an extended gcd over Q
    for text in ("(3/5+4/5*E(4))^-1", "(2+E(1021))^-1",
                 "((1+E(1021)+2*E(1021)^3)^16)^-1"):
        start = time.process_time()
        with pytest.raises(CyclotomicSyntaxError) as err:
            parse_cyclotomic(text)
        assert time.process_time() - start < 0.5, text
        assert str(err.value) == ("a negative power needs a root of unity "
                                  f"(at position {text.rindex('^') + 1})")


def test_negative_powers_of_roots_of_unity_are_conjugate_powers():
    for text, x, k in (("(E(4))^-1", E(4), 1), ("(-1)^-3", -Cyclotomic.one(), 3),
                       ("(E(1021)^5)^-7", E(1021, 5), 7),
                       ("(-E(12)^5)^-2", -E(12, 5), 2)):
        assert parse_cyclotomic(text) == x.conjugate() ** k == x ** -k


def test_parse_bounds_the_size_of_powers():
    # a power of a power is rejected by the size of its value, at its k
    for text in ("((2)^1024)^1024", "(((2)^1024)^1024)^1024"):
        start = time.process_time()
        with pytest.raises(CyclotomicSyntaxError) as err:
            parse_cyclotomic(text)
        assert time.process_time() - start < 0.1
        assert err.value.position == text.index("^", text.index("^") + 1) + 1
    assert parse_cyclotomic("(2)^1024") == 2 ** 1024
    assert parse_cyclotomic("((2)^32)^32") == 2 ** 1024
    assert parse_cyclotomic("E(7)^100000000") == E(7) ** (100000000 % 7)


@settings(max_examples=150, deadline=None)
@given(cyclotomics())
def test_parse_print_round_trip(a):
    assert parse_cyclotomic(str(a)) == a


@settings(max_examples=60, deadline=None)
@given(cyclotomics())
def test_power_consistency(a):
    assert a ** 0 == 1
    assert a ** 1 == a
    assert a ** 3 == a * a * a
    if is_root_of_unity(a):
        assert a ** -2 == a.conjugate() ** 2
    else:
        with pytest.raises(ValueError):
            a ** -2
