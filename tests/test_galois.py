"""Solvability screening with replayable certificates, against sympy's
galois_group where it applies."""

import json

import pytest
import sympy

from mckayq.galois import (
    MAX_PRIME_BUDGET,
    NOT_SOLVABLE,
    RULE_PRIME_CYCLE,
    RULE_TRANSPOSITION,
    SOLVABLE,
    UNKNOWN,
    NonsolvabilityCertificate,
    SolvabilityVerdict,
    component_solvability,
    replay_certificate,
    solvability,
)
from mckayq.polynomials import (
    IntPolynomial,
    ddf_pattern,
    parse_polynomial,
    squarefree_part,
)
from mckayq.quiver import Quiver

X = sympy.Symbol("x")

QUINTIC = parse_polynomial("x^5+2*x^4-44*x^3-40*x^2+400*x+128")


def sympy_solvable(f: IntPolynomial) -> bool:
    poly = sympy.Poly(list(reversed(f.coeffs)), X)
    group, _ = sympy.galois_group(poly)
    return group.is_solvable


# -- verdicts ------------------------------------------------------------------


def test_low_degree_always_solvable():
    for text in ("x+3", "x^2-2", "x^3-x-1", "x^4+x+1", "x^4-10*x^2+1"):
        v = solvability(parse_polynomial(text))
        assert v.status == SOLVABLE
        assert not v.certificates
        assert sympy_solvable(parse_polynomial(text))


def test_products_of_low_degree_factors():
    v = solvability(parse_polynomial("x^12-1"))
    assert v.status == SOLVABLE
    assert sorted(v.factor_degrees) == [1, 1, 2, 2, 2, 4]


@pytest.mark.parametrize("parts", [
    (QUINTIC, QUINTIC, parse_polynomial("x^2+1")),
    (parse_polynomial("x^5-2"),) * 3 + (parse_polynomial("-3*x^4+3*x+3"),),
    (parse_polynomial("x^12-1"), parse_polynomial("x^4-1"))])
def test_repeated_factors_do_not_change_the_verdict(parts):
    f = IntPolynomial.one()
    for g in parts:
        f = f * g
    assert solvability(f, 500) == solvability(squarefree_part(f), 500)


def test_quintic_not_solvable_with_certificate():
    v = solvability(QUINTIC)
    assert v.status == NOT_SOLVABLE
    assert v.factor_degrees == (5,)
    assert len(v.certificates) == 1
    cert = v.certificates[0]
    assert cert.factor == QUINTIC
    assert cert.rule in (RULE_PRIME_CYCLE, RULE_TRANSPOSITION)
    assert replay_certificate(cert)
    assert replay_certificate(cert, QUINTIC)
    # sympy agrees the group is S5
    group, _ = sympy.galois_group(sympy.Poly(list(reversed(QUINTIC.coeffs)), X))
    assert not group.is_solvable


def test_certificate_json_round_trip_and_tamper():
    cert = solvability(QUINTIC).certificates[0]
    data = cert.to_json()
    again = NonsolvabilityCertificate.from_json(json.dumps(data))
    assert again == cert
    assert replay_certificate(again)

    wrong_prime = NonsolvabilityCertificate(
        cert.factor, cert.prime + 1, cert.pattern, cert.rule)
    assert not replay_certificate(wrong_prime)
    wrong_rule = NonsolvabilityCertificate(
        cert.factor, cert.prime,
        cert.pattern,
        RULE_PRIME_CYCLE if cert.rule == RULE_TRANSPOSITION else RULE_TRANSPOSITION)
    assert not replay_certificate(wrong_rule)
    low_degree = NonsolvabilityCertificate(
        parse_polynomial("x^2-2"), 3, (2,), RULE_TRANSPOSITION)
    assert not replay_certificate(low_degree)
    # certificate for a factor that does not divide the stated polynomial
    assert not replay_certificate(cert, parse_polynomial("x^5-2"))


def test_malformed_certificate_json_raises_value_error():
    good = {"factor": "x^5-x-1", "prime": 7, "pattern": [5], "rule": RULE_PRIME_CYCLE}
    del_prime = {k: v for k, v in good.items() if k != "prime"}
    for text in ("{", "[]", json.dumps(del_prime), json.dumps({**good, "prime": "a"}),
                 "[" * 100000, json.dumps({**good, "factor": 5})):
        with pytest.raises(ValueError, match="malformed certificate JSON"):
            NonsolvabilityCertificate.from_json(text)
    assert NonsolvabilityCertificate.from_json(json.dumps(good)).prime == 7


@pytest.mark.parametrize("field, value", [
    ("prime", 7.9), ("prime", True), ("pattern", "5"), ("pattern", [5.7]),
    ("rule", 5)])
def test_certificate_json_takes_no_lookalike_fields(field, value):
    good = {"factor": "x^5-x-1", "prime": 7, "pattern": [5], "rule": RULE_PRIME_CYCLE}
    with pytest.raises(ValueError, match="malformed certificate JSON"):
        NonsolvabilityCertificate.from_json(json.dumps({**good, field: value}))


def test_replay_against_a_polynomial_with_content():
    cert = solvability(QUINTIC).certificates[0]
    x2_plus_1 = parse_polynomial("x^2+1")
    f = QUINTIC * QUINTIC * x2_plus_1 * 2
    assert f.content() == 2
    assert replay_certificate(cert, f)
    doubled = NonsolvabilityCertificate(
        cert.factor * 2, cert.prime, cert.pattern, cert.rule)
    assert not replay_certificate(doubled, f)


def test_x5_minus_2_stays_unknown():
    # Galois group F20 is solvable, but the cycle-type screen cannot
    # certify solvability in degree 5, so the honest answer is unknown
    v = solvability(parse_polynomial("x^5-2"))
    assert v.status == UNKNOWN
    assert not v.certificates
    assert sympy_solvable(parse_polynomial("x^5-2"))


def test_x8_minus_x_minus_1_not_solvable():
    # sympy's galois_group stops at degree 6, so the oracle here is the
    # replay itself: a verified cycle-type pair proves the group is not
    # solvable without naming it
    f = parse_polynomial("x^8-x-1")
    assert sympy.Poly(list(reversed(f.coeffs)), X).is_irreducible
    v = solvability(f)
    assert v.status == NOT_SOLVABLE
    assert {c.rule for c in v.certificates} <= {RULE_PRIME_CYCLE, RULE_TRANSPOSITION}
    assert all(replay_certificate(c, f) for c in v.certificates)


def test_budget_monotonicity():
    tiny = solvability(QUINTIC, prime_budget=2)
    assert tiny.status in (UNKNOWN, NOT_SOLVABLE)
    big = solvability(QUINTIC, prime_budget=10000)
    assert big.status == NOT_SOLVABLE
    if tiny.status == NOT_SOLVABLE:
        assert big.status == NOT_SOLVABLE

    with pytest.raises(ValueError):
        solvability(IntPolynomial.zero())


def test_prime_budget_is_bounded():
    # refused before any sieve is built, whatever the factors' degrees
    for f in (QUINTIC, parse_polynomial("x^2+1")):
        with pytest.raises(ValueError, match="above the supported bound"):
            solvability(f, prime_budget=MAX_PRIME_BUDGET + 1)
    assert MAX_PRIME_BUDGET == 10 ** 6


def test_verdict_json_shape():
    v = solvability(QUINTIC)
    data = v.to_json()
    assert data["status"] == "not_solvable"
    assert data["factor_degrees"] == [5]
    assert data["certificates"][0]["rule"] == v.certificates[0].rule
    assert json.dumps(data, sort_keys=True)  # serializable


def test_ddf_pattern_matches_sympy():
    for text, p in [("x^5+2*x^4-44*x^3-40*x^2+400*x+128", 3),
                    ("x^5-2", 7), ("x^8-x-1", 11), ("x^6+x+1", 5)]:
        f = parse_polynomial(text)
        poly = sympy.Poly(list(reversed(f.coeffs)), X, modulus=p, symmetric=False)
        if poly.degree() != f.degree or sympy.gcd(poly, poly.diff(X)).degree() > 0:
            continue
        want = tuple(sorted(g.degree() for g, _ in poly.factor_list()[1]))
        assert ddf_pattern(f, p) == want, (text, p)


# -- per-component verdicts ---------------------------------------------------------


def test_component_solvability():
    # two weak components: a 3-cycle (x^3-1, solvable) and a single loop
    adj = [
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 2],
    ]
    out = component_solvability(Quiver(["a", "b", "c", "d"], adj))
    assert len(out) == 2
    comps = {comp: verdict.status for comp, verdict in out}
    assert comps[(0, 1, 2)] == SOLVABLE
    assert comps[(3,)] == SOLVABLE


def test_component_not_solvable_frozen():
    adj = [
        [1, 0, 0, 1, 0],
        [0, 1, 1, 0, 1],
        [1, 1, 0, 1, 0],
        [1, 0, 1, 0, 1],
        [1, 1, 0, 0, 1],
    ]
    q = Quiver([f"v{i}" for i in range(5)], adj)
    ((comp, verdict),) = component_solvability(q)
    assert comp == (0, 1, 2, 3, 4)
    assert verdict.status == NOT_SOLVABLE
    cert = verdict.certificates[0]
    assert str(cert.factor) == "x^5-3*x^4-x^3+5*x^2-1"
    assert replay_certificate(cert)
    assert not sympy_solvable(cert.factor)
