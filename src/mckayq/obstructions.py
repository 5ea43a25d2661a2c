"""Necessary-condition battery for quivers claiming to be McKay quivers.

Every McKay quiver of a faithful representation is strongly connected,
carries a unique reduced positive integer weighting (the irreducible
dimensions), has a weight multiset that could be the dimensions of a
finite group, admits quiver automorphisms acting transitively on the
weight-1 vertices, and has a characteristic polynomial that is solvable
by radicals.  Each test reports pass, fail or unknown together with a
witness; a single failure is a certified obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .galois import DEFAULT_PRIME_BUDGET, NOT_SOLVABLE, SOLVABLE, solvability
from .polynomials import IntPolynomial, factor_over_Q
from .quiver import (
    Quiver,
    WeightVector,
    automorphism_orbits,
    char_poly,
    reduced_weight_vector,
    strongly_connected_components,
    weakly_connected_components,
)

OBSTRUCTED = "obstructed"
CONSISTENT = "consistent"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BatteryTest:
    name: str
    status: str            # "pass", "fail" or "unknown"
    detail: str
    witness: object = None  # JSON-ready structure, when there is one

    def to_json(self) -> dict:
        out = {"name": self.name, "status": self.status, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class ObstructionReport:
    """Outcome of the battery; obstructed as soon as one test fails."""

    def __init__(self, tests):
        self.tests = tuple(tests)

    @property
    def verdict(self) -> str:
        statuses = [t.status for t in self.tests]
        if "fail" in statuses:
            return OBSTRUCTED
        if all(s == "pass" for s in statuses):
            return CONSISTENT
        return INCONCLUSIVE

    def __str__(self):
        lines = [f"obstruction battery: {self.verdict}"]
        for t in self.tests:
            line = f"  [{t.status}] {t.name}: {t.detail}"
            lines.append(line)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "tests": [t.to_json() for t in self.tests],
        }


class QuiverAnalysis:
    """What the battery and a fuller report on one quiver both compute,
    each computed on first use and then kept.

    Components are vertex tuples as the quiver functions return them;
    the whole vertex set stands for the quiver itself.  Make one per
    quiver and prime budget, for one report, and drop it with the report:
    it is the only place these results are kept.
    """

    def __init__(self, q: Quiver, prime_budget: int = DEFAULT_PRIME_BUDGET):
        self.q = q
        self.prime_budget = prime_budget
        self._char_polys: dict[tuple[int, ...], IntPolynomial] = {}
        self._weightings: dict[tuple[int, ...], WeightVector | None] = {}
        self._factors: dict[IntPolynomial, tuple[IntPolynomial, ...]] = {}
        self._verdicts: dict = {}
        self._witnesses: dict = {}

    @cached_property
    def strong_components(self) -> tuple[tuple[int, ...], ...]:
        return strongly_connected_components(self.q)

    @cached_property
    def weak_components(self) -> tuple[tuple[int, ...], ...]:
        return weakly_connected_components(self.q)

    @property
    def all_vertices(self) -> tuple[int, ...]:
        return tuple(range(self.q.n))

    def induced(self, comp) -> Quiver:
        return self.q if comp == self.all_vertices else self.q.induced(comp)

    def char_poly(self, comp) -> IntPolynomial:
        if comp not in self._char_polys:
            self._char_polys[comp] = char_poly(self.induced(comp))
        return self._char_polys[comp]

    def weighting(self, comp) -> WeightVector | None:
        """The reduced weighting, or None, of the block induced on a
        strong component (all vertices for a strong quiver); its candidate
        eigenvalues come from the block's factored char poly."""
        if comp not in self._weightings:
            self._weightings[comp] = reduced_weight_vector(
                self.induced(comp), self.factors(self.char_poly(comp)))
        return self._weightings[comp]

    def factors(self, f: IntPolynomial) -> tuple[IntPolynomial, ...]:
        """factor_over_Q(f), repeated by multiplicity."""
        if f not in self._factors:
            self._factors[f] = factor_over_Q(f)
        return self._factors[f]

    def solvability(self, f: IntPolynomial):
        """solvability(f, prime_budget), from the kept factorization of f
        and sharing each factor's witness search."""
        if f not in self._verdicts:
            self._verdicts[f] = solvability(
                f, self.prime_budget, witnesses=self._witnesses,
                factors=tuple(dict.fromkeys(self.factors(f))))
        return self._verdicts[f]

    def component_solvability(self):
        """(component, verdict for the char poly of its induced block)
        per weak component; `galois.component_solvability` returns this."""
        return tuple((comp, self.solvability(self.char_poly(comp)))
                     for comp in self.weak_components)

    def battery(self) -> ObstructionReport:
        """Run the five obstruction tests in order.

        1. strong connectivity (a faithful representation's quiver has one
           strongly connected block);
        2. existence of the unique reduced weight vector;
        3. arithmetic of the weight multiset: it contains 1, every weight
           divides the sum of squared weights, and the number of weight-1
           vertices divides that sum (necessary conditions only);
        4. some quiver automorphism orbit contains every weight-1 vertex;
        5. solvability by radicals of the characteristic polynomial, per
           weak component.

        Tests 2 to 4 are reported unknown when an earlier prerequisite is
        missing; test 5 always runs.  `analyze` calls this on the analysis
        it reports from, so nothing is computed twice.
        """
        tests: list[BatteryTest] = []

        blocks = self.strong_components
        strong = len(blocks) == 1
        if strong:
            tests.append(BatteryTest(
                "strong-connectivity", "pass", "one strongly connected block"))
        else:
            tests.append(BatteryTest(
                "strong-connectivity", "fail",
                f"{len(blocks)} strongly connected blocks",
                witness=[[v + 1 for v in sorted(b)] for b in blocks]))

        rw = self.weighting(self.all_vertices) if strong else None
        if not strong:
            tests.append(BatteryTest(
                "reduced-weighting", "unknown", "requires strong connectivity"))
        elif rw is None:
            tests.append(BatteryTest(
                "reduced-weighting", "fail",
                "no integer eigenvalue admits a positive weight vector"))
        else:
            tests.append(BatteryTest(
                "reduced-weighting", "pass",
                f"k = {rw.k}, weights {list(rw.weights)}",
                witness={"k": rw.k, "weights": list(rw.weights)}))

        if rw is None:
            tests.append(BatteryTest(
                "weight-arithmetic", "unknown", "needs a reduced weight vector"))
        else:
            w = rw.weights
            sq = sum(x * x for x in w)
            ones = w.count(1)
            problems = []
            if ones == 0:
                problems.append("no weight-1 vertex")
            bad = sorted({x for x in w if sq % x})
            if bad:
                problems.append(f"weights {bad} do not divide {sq}")
            if ones and sq % ones:
                problems.append(f"the {ones} weight-1 vertices do not divide {sq}")
            if problems:
                tests.append(BatteryTest(
                    "weight-arithmetic", "fail", "; ".join(problems),
                    witness={"weights": list(w), "sum_of_squares": sq}))
            else:
                tests.append(BatteryTest(
                    "weight-arithmetic", "pass",
                    f"necessary conditions (sum of squared weights {sq})"))

        if rw is None:
            tests.append(BatteryTest(
                "weight-one-orbit", "unknown", "needs a reduced weight vector"))
        elif 1 not in rw.weights:
            tests.append(BatteryTest(
                "weight-one-orbit", "unknown", "no weight-1 vertices"))
        else:
            weighted = Quiver(self.q.vertices, self.q.adjacency, weights=rw.weights)
            orbits = automorphism_orbits(weighted)
            hit = [tuple(v for v in orb if rw.weights[v] == 1) for orb in orbits]
            hit = [h for h in hit if h]
            if len(hit) == 1:
                tests.append(BatteryTest(
                    "weight-one-orbit", "pass",
                    "all weight-1 vertices lie in one automorphism orbit"))
            else:
                tests.append(BatteryTest(
                    "weight-one-orbit", "fail",
                    f"weight-1 vertices split into {len(hit)} orbits",
                    witness=[[v + 1 for v in h] for h in hit]))

        per_comp = self.component_solvability()
        failures = [(comp, v) for comp, v in per_comp if v.status == NOT_SOLVABLE]
        if failures:
            tests.append(BatteryTest(
                "charpoly-solvability", "fail",
                "a component's characteristic polynomial is not solvable "
                "by radicals",
                witness=[{"component": [v + 1 for v in comp],
                          "verdict": verdict.to_json()}
                         for comp, verdict in failures]))
        elif all(v.status == SOLVABLE for _, v in per_comp):
            tests.append(BatteryTest(
                "charpoly-solvability", "pass",
                "every component's characteristic polynomial is solvable "
                "by radicals"))
        else:
            tests.append(BatteryTest(
                "charpoly-solvability", "unknown",
                f"no nonsolvability witness within prime budget {self.prime_budget}"))

        return ObstructionReport(tests)


def mckay_obstruction_battery(q: Quiver, prime_budget: int = DEFAULT_PRIME_BUDGET):
    """The ObstructionReport of `QuiverAnalysis.battery` on a fresh analysis of q."""
    return QuiverAnalysis(q, prime_budget).battery()
