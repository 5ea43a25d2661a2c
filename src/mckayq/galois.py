"""Solvability screening for Galois groups of integer polynomials.

The decision procedure factors over Q and declares solvable every
factor of degree at most 4 and every cyclotomic factor Phi_d, whose
Galois group is abelian.  `polynomials.cyclotomic_index` recognises
Phi_d from the same candidate list that `factor_over_Q` divides out
before Zassenhaus.  On the remaining factors it hunts for
nonsolvability witnesses: degree patterns of the factor modulo good
primes are Frobenius cycle types, and two classical cycle-type rules
force the Galois group to contain the alternating group or be the full
symmetric group.  A verdict of "not_solvable" always carries a
certificate that can be replayed independently; absence of a witness
within the prime budget leaves the verdict "unknown", never "solvable".

Both rules are sound for irreducible factors:

* large-prime-cycle: a pattern containing a prime part q with
  n/2 < q <= n-3 means some power of Frobenius is a q-cycle, and a
  transitive group containing such a long prime cycle contains A_n.
* transposition: for prime degree n, a pattern of one 2 and odd parts
  otherwise gives a transposition in a primitive group, hence S_n.

For n >= 5 these groups are not solvable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .polynomials import (
    BadPrime,
    IntPolynomial,
    cyclotomic_index,
    ddf_pattern,
    factor_over_Q,
    is_prime,
    parse_polynomial,
    primes_below,
    squarefree_part,
)

__all__ = [
    "NonsolvabilityCertificate", "SolvabilityVerdict", "solvability",
    "replay_certificate", "component_solvability",
    "SOLVABLE", "NOT_SOLVABLE", "UNKNOWN", "MAX_PRIME_BUDGET",
]

SOLVABLE = "solvable"
NOT_SOLVABLE = "not_solvable"
UNKNOWN = "unknown"

RULE_PRIME_CYCLE = "large-prime-cycle"
RULE_TRANSPOSITION = "transposition"

# the largest prime budget: the witness scan sieves a bytearray of this
# many bytes, and 10^6 already holds 78,498 primes
MAX_PRIME_BUDGET = 10 ** 6


@dataclass(frozen=True)
class NonsolvabilityCertificate:
    """A replayable witness that one irreducible factor has nonsolvable
    Galois group."""
    factor: IntPolynomial
    prime: int
    pattern: tuple[int, ...]
    rule: str

    def to_json(self) -> dict:
        return {"factor": str(self.factor), "prime": self.prime,
                "pattern": list(self.pattern), "rule": self.rule}

    @staticmethod
    def from_json(data) -> "NonsolvabilityCertificate":
        try:
            if isinstance(data, (str, bytes)):
                data = json.loads(data)
            return NonsolvabilityCertificate(
                factor=parse_polynomial(data["factor"]),
                prime=int(data["prime"]),
                pattern=tuple(int(d) for d in data["pattern"]),
                rule=str(data["rule"]))
        except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as ex:
            raise ValueError(f"malformed certificate JSON: {ex}") from ex


@dataclass(frozen=True)
class SolvabilityVerdict:
    status: str  # SOLVABLE / NOT_SOLVABLE / UNKNOWN
    prime_budget: int
    factor_degrees: tuple[int, ...]
    certificates: tuple[NonsolvabilityCertificate, ...] = ()

    def to_json(self) -> dict:
        return {"status": self.status,
                "prime_budget": self.prime_budget,
                "factor_degrees": list(self.factor_degrees),
                "certificates": [c.to_json() for c in self.certificates]}


def _rule_for_pattern(n: int, pattern: tuple[int, ...]) -> str | None:
    """Which nonsolvability rule (if any) the cycle type of an
    irreducible degree-n factor triggers."""
    if n < 5:
        return None
    for q in set(pattern):
        if is_prime(q) and 2 * q > n and q <= n - 3:
            return RULE_PRIME_CYCLE
    if is_prime(n):
        evens = [d for d in pattern if d % 2 == 0]
        if evens == [2]:
            return RULE_TRANSPOSITION
    return None


def _witness_for_factor(f: IntPolynomial, prime_budget: int):
    for p in primes_below(prime_budget):
        try:
            pattern = ddf_pattern(f, p)
        except BadPrime:
            continue
        rule = _rule_for_pattern(f.degree, pattern)
        if rule is not None:
            return NonsolvabilityCertificate(f, p, pattern, rule)
    return None


def solvability(f: IntPolynomial, prime_budget: int = 10000, *,
                factors=None, witnesses=None) -> SolvabilityVerdict:
    """Decide solvability of the Galois group of f where possible.

    Verdicts: "solvable" when every irreducible factor has degree <= 4
    or is cyclotomic;
    "not_solvable" when some factor yields a certificate within the
    budget; "unknown" otherwise.  Raising the budget can only move
    "unknown" to "not_solvable".  A budget above MAX_PRIME_BUDGET raises
    ValueError.

    A caller that already knows the distinct irreducible factors of f,
    as `factor_over_Q` orders them, may pass them as `factors`; a dict
    passed as `witnesses` keeps each factor's witness search (its
    certificate or None) for later calls with the same budget."""
    if prime_budget > MAX_PRIME_BUDGET:
        raise ValueError(f"prime budget {prime_budget} is above the supported "
                         f"bound {MAX_PRIME_BUDGET}")
    if f.is_zero:
        raise ValueError("the zero polynomial has no Galois group")
    if factors is None:
        factors = factor_over_Q(squarefree_part(f))
    if witnesses is None:
        witnesses = {}
    degrees = tuple(g.degree for g in factors)
    certs = []
    undecided = False
    for g in factors:
        if g.degree <= 4:
            continue
        if cyclotomic_index(g) is not None:
            continue  # roots of unity, abelian Galois group
        if g not in witnesses:
            witnesses[g] = _witness_for_factor(g, prime_budget)
        cert = witnesses[g]
        if cert is not None:
            certs.append(cert)
        else:
            undecided = True
    if certs:
        return SolvabilityVerdict(NOT_SOLVABLE, prime_budget, degrees, tuple(certs))
    if undecided:
        return SolvabilityVerdict(UNKNOWN, prime_budget, degrees)
    return SolvabilityVerdict(SOLVABLE, prime_budget, degrees)


def replay_certificate(cert: NonsolvabilityCertificate,
                       f: IntPolynomial | None = None) -> bool:
    """Re-derive everything a certificate claims: the factor is
    irreducible (and divides f, when given), the degree pattern modulo
    the prime is as stated, and the stated rule really fires on it."""
    g = cert.factor
    if g.degree < 5:
        return False
    if f is not None:
        if squarefree_part(f).try_divide(g) is None:
            return False
    if factor_over_Q(g) != (g.primitive(),):
        return False
    try:
        pattern = ddf_pattern(g, cert.prime)
    except (BadPrime, ValueError):
        return False
    if pattern != cert.pattern:
        return False
    return _rule_for_pattern(g.degree, pattern) == cert.rule


def component_solvability(q, prime_budget: int = 10000):
    """Per weak component of a quiver: (vertex tuple, verdict for the
    characteristic polynomial of the induced adjacency block)."""
    from .obstructions import QuiverAnalysis
    return QuiverAnalysis(q, prime_budget).component_solvability()
