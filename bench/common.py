"""Shared pieces of the workloads: the item record, the workload base
class, and Galois orbits of irreducibles, which the workloads use to
vary their inputs with the seed while keeping the same amount of work.

Galois-conjugate irreducibles (and representations built from them)
give quivers that differ only by a relabelling of the vertices, so the
library does the same work on them.  A workload fixes its mix of
representations once and lets the seed pick which conjugate fills each
slot; two seeds then run different inputs of the same cost.
"""

from __future__ import annotations

import cmath
import math
import random
import resource
import time
from dataclasses import dataclass
from typing import Any, Callable

from oracle import EPS, numeric_table


@dataclass
class Item:
    """One timed unit of work and the check of its output."""
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    # untimed work that readies the item's input, such as writing its file
    prepare: Callable[[], None] | None = None


class Workload:
    """Set-up happens in __init__; the timed phase asks for rounds."""

    def round(self, r: int) -> list[Item]:
        raise NotImplementedError

    def run_item(self, item: Item) -> tuple[Any, float]:
        """Run one item; return its output and the CPU seconds it took."""
        if item.prepare is not None:
            item.prepare()
        c0 = time.process_time()
        out = item.run()
        return out, time.process_time() - c0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def corrupt(self, item: Item, output: Any) -> Any:
        """A wrong version of `output`, for the harness self-test."""
        raise NotImplementedError

    def close(self) -> None:
        pass


def seeded(seed: int, *salt) -> random.Random:
    """A generator that depends only on the seed and the salt."""
    return random.Random(":".join(str(x) for x in (seed,) + salt))


# -- Galois orbits -------------------------------------------------------------


def _conductor_lcm(t) -> int:
    E = 1
    for row in t.characters:
        for v in row:
            E = E * v.conductor // math.gcd(E, v.conductor)
    return E


def _galois_numeric(v, a: int) -> complex:
    n = v.conductor
    return sum(float(c) * cmath.exp(2j * math.pi * ((a * k) % n) / n)
               for k, c in enumerate(v.coeffs) if c)


def galois_row_actions(t, spec: str) -> list[tuple[int, ...]]:
    """Row permutations induced by the Galois automorphisms of the table.

    For the cyclic tables C:n, row k is k -> zeta^(k j), so sigma_a sends
    row k to row a k mod n.  Other tables are matched numerically.
    """
    r = t.n_classes
    if spec.startswith("C:") and "x" not in spec:
        n = int(spec[2:])
        return [tuple((a * k) % n for k in range(n))
                for a in range(1, n + 1) if math.gcd(a, n) == 1]
    E = _conductor_lcm(t)
    num = numeric_table(t)
    perms = []
    for a in range(1, E + 1):
        if math.gcd(a, E) != 1:
            continue
        perm = []
        for k in range(r):
            image = [_galois_numeric(v, a) for v in t.characters[k]]
            match = [j for j in range(r)
                     if all(abs(x - y) < EPS for x, y in zip(image, num[j]))]
            if len(match) != 1:
                raise RuntimeError(f"no Galois image of row {k} in {spec}")
            perm.append(match[0])
        perms.append(tuple(perm))
    return perms


def galois_classes(perms, r: int) -> list[list[int]]:
    """Orbits of the rows under the given permutations, sorted."""
    seen = [False] * r
    out = []
    for k in range(r):
        if seen[k]:
            continue
        orbit = sorted({p[k] for p in perms})
        for j in orbit:
            seen[j] = True
        out.append(orbit)
    return out


def twist(rho, perm) -> tuple[int, ...]:
    """The Galois conjugate of a multiplicity vector."""
    out = [0] * len(rho)
    for k, m in enumerate(rho):
        out[perm[k]] += m
    return tuple(out)
