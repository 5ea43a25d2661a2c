"""`forensics`: candidate quivers screened by the obstruction battery and
by `mckayq analyze --format json`, run in-process through `cli.main`.

The candidates are fixed once: genuine McKay quivers of faithful
representations, genuine quivers of unfaithful ones, the faithful ones
with one arrow added or one removed, and small random quivers.  Two
candidates (C:11 natural, BD:28 with an added arrow) have a
characteristic-polynomial factor that no cycle-type rule decides: their
solvability scan runs the whole prime budget, about 1.5-2 CPU s each,
and they are the slowest items.  Every other candidate takes 2-30 ms.
Set-up makes COPIES relabelled copies of every candidate (the seed picks
each vertex order); each copy's quiver file is written just before its
first item, outside the item's timing, so that neither set-up nor the
items time the file system.  A round screens every copy of every fast
candidate and one copy of each slow one, in an order the seed picks, so
that the medians rest on hundreds of fast items a run and the two slow
ones take about half of a round's CPU, not nine tenths.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
from itertools import permutations

from mckayq import catalog, cli, mckay as mk, obstructions as ob
from mckayq.quiver import Quiver

import oracle
from common import Item, Workload, seeded

FAITHFUL = ("C:7", "C:11", "BD:12", "BD:20", "BD:28", "2T", "2O", "2I")
# genuine quivers that get one arrow added and one removed; perturbing the
# larger ones (C:11, 2O, 2I) costs 2-6 s an item, too much for one round
PERTURBED = ("C:7", "BD:12", "BD:20", "BD:28", "2T")
UNFAITHFUL = ("C:12", "BD:24", "2O", "2I", "C:2xBD:8", "C:3xC:3")
RANDOM_QUIVERS = 16
COPIES = 8   # relabelled copies of each candidate, made at set-up
# the candidates whose solvability scan runs the whole prime budget; one
# copy of each goes into a round, against every copy of the others
SLOW = ("C:11/natural", "BD:28/natural+arrow")
BRUTE_FORCE_MAX = 7


def _templates() -> list[tuple[str, Quiver, int | None]]:
    """(label, quiver, kernel class count if genuine) for every candidate."""
    rng = random.Random("forensics-templates")
    out = []
    faithful = []
    for spec in FAITHFUL:
        t = catalog.parse_group_spec(spec)
        q = mk.McKayQuiver(t, catalog.natural_rep(t)).to_quiver()
        out.append((f"{spec}/natural", q, 1))
        if spec in PERTURBED:
            faithful.append((f"{spec}/natural", q))
    for spec in UNFAITHFUL:
        t = catalog.parse_group_spec(spec)
        num = oracle.numeric_table(t)
        r = t.n_classes
        rows = [i for i in range(1, r)
                if 1 < oracle.kernel_count(num[i]) < r]
        rho = [0] * r
        for k in rng.sample(rows, min(2, len(rows))):
            rho[k] = 1
        kernel = oracle.kernel_count(oracle.rep_values(num, rho))
        q = mk.McKayQuiver(t, rho).to_quiver()
        out.append((f"{spec}/unfaithful", q, kernel))
    for label, q in faithful:
        A = [list(row) for row in q.adjacency]
        i, j = rng.randrange(q.n), rng.randrange(q.n)
        A[i][j] += 1
        out.append((f"{label}+arrow", Quiver(q.vertices, A), None))
        A = [list(row) for row in q.adjacency]
        i, j = rng.choice([(i, j) for i in range(q.n) for j in range(q.n) if A[i][j]])
        A[i][j] -= 1
        out.append((f"{label}-arrow", Quiver(q.vertices, A), None))
    for v in range(RANDOM_QUIVERS):
        n = 2 + v % 4
        A = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
        out.append((f"random{v + 1}", Quiver([f"v{i + 1}" for i in range(n)], A), None))
    return out


def _relabel(q: Quiver, rng: random.Random) -> Quiver:
    order = list(range(q.n))
    rng.shuffle(order)
    return Quiver([q.vertices[i] for i in order],
                  [[q.adjacency[i][j] for j in order] for i in order])


class Forensics(Workload):

    def __init__(self, seed: int, out_dir):
        self.seed = seed
        self.workdir = os.path.join(out_dir, f"forensics-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.copies = []  # per copy: (label, quiver, kernel, path) per candidate
        templates = _templates()
        if not set(SLOW) <= {label for label, _, _ in templates}:
            raise RuntimeError(f"forensics: {SLOW} are not all candidates")
        for c in range(COPIES):
            rng = seeded(seed, "forensics", c)
            batch = []
            for n, (label, q, kernel) in enumerate(templates):
                path = os.path.join(self.workdir, f"c{c}-{n}.json")
                batch.append((label, _relabel(q, rng), kernel, path))
            self.copies.append(batch)

    def round(self, r: int) -> list[Item]:
        picks = [cand for c, batch in enumerate(self.copies) for cand in batch
                 if cand[0] not in SLOW or c == r % COPIES]
        seeded(self.seed, "order", r).shuffle(picks)
        return [self._item(*cand) for cand in picks]

    def _item(self, label, q, kernel, path) -> Item:
        def run():
            report = ob.mckay_obstruction_battery(q)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["analyze", path, "--format", "json"])
            return {"battery": report.to_json(), "rc": rc, "analyze": buf.getvalue()}

        def write():
            if not os.path.exists(path):
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(q.to_json(), fh)

        return Item(label, run, lambda out: _check(q, kernel, out), write)

    def corrupt(self, item, out):
        report = json.loads(out["analyze"])
        report["char_poly"] = "x+1"
        return dict(out, analyze=json.dumps(report))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- checks --------------------------------------------------------------------


def _rule_fires(n: int, pattern) -> bool:
    """The two cycle-type rules, restated from their mathematics."""
    if n < 5:
        return False
    primes = [p for p in set(pattern) if p > 1 and all(p % d for d in range(2, p))]
    if any(2 * p > n and p <= n - 3 for p in primes):
        return True
    n_prime = all(n % d for d in range(2, n))
    return n_prime and [d for d in pattern if d % 2 == 0] == [2]


def _certificate_ok(cert, comp_coeffs) -> bool:
    f = oracle.parse_int_poly(cert["factor"])
    if oracle.irreducible_degrees(f) != [len(f) - 1]:
        return False
    import sympy
    x = sympy.Symbol("x")
    if sympy.rem(sympy.Poly(comp_coeffs[::-1], x), sympy.Poly(f[::-1], x)) != 0:
        return False
    pattern = oracle.degree_pattern_mod(f, cert["prime"])
    return (list(pattern) == cert["pattern"] and sum(pattern) == len(f) - 1
            and _rule_fires(len(f) - 1, pattern))


def _automorphisms(A, weights):
    n = len(A)
    for p in permutations(range(n)):
        if all(weights[p[i]] == weights[i] for i in range(n)) and all(
                A[p[i]][p[j]] == A[i][j] for i in range(n) for j in range(n)):
            yield p


def _check(q: Quiver, kernel, out) -> bool:
    A = [list(row) for row in q.adjacency]
    n = q.n
    if out["rc"] != 0:
        return False
    report = json.loads(out["analyze"])
    battery = out["battery"]
    if report["battery"] != battery:
        return False
    coeffs = oracle.parse_int_poly(report["char_poly"])
    if not oracle.charpoly_matches(A, coeffs, random.Random(n)):
        return False
    degrees = sorted(len(oracle.parse_int_poly(f["factor"])) - 1
                     for f in report["factorization"] for _ in range(f["multiplicity"]))
    if degrees != oracle.irreducible_degrees(coeffs):
        return False
    if sorted(tuple(v - 1 for v in c["vertices"]) for c in report["components"]) \
            != oracle.weak_blocks(A):
        return False
    blocks = oracle.strong_blocks(A)
    tests = {t["name"]: t for t in battery["tests"]}
    statuses = [t["status"] for t in battery["tests"]]
    verdict = ("obstructed" if "fail" in statuses else
               "consistent" if all(s == "pass" for s in statuses) else "inconclusive")
    if battery["verdict"] != verdict:
        return False

    sc = tests["strong-connectivity"]
    if (sc["status"] == "pass") != (len(blocks) == 1):
        return False
    if sc["status"] == "fail" and sorted(
            tuple(v - 1 for v in b) for b in sc["witness"]) != blocks:
        return False

    rw = tests["reduced-weighting"]
    weights = None
    if rw["status"] == "pass":
        k, weights = rw["witness"]["k"], rw["witness"]["weights"]
        if min(weights) < 1 or math.gcd(*weights) != 1 or any(
                sum(A[i][j] * weights[j] for j in range(n)) != k * weights[i]
                for i in range(n)):
            return False

    wa = tests["weight-arithmetic"]
    if weights is not None:
        sq = sum(w * w for w in weights)
        ones = weights.count(1)
        ok = ones > 0 and all(sq % w == 0 for w in weights) and sq % ones == 0
        if wa["status"] != ("pass" if ok else "fail"):
            return False

    wo = tests["weight-one-orbit"]
    if wo["status"] in ("pass", "fail") and n <= BRUTE_FORCE_MAX:
        ones = [v for v in range(n) if weights[v] == 1]
        reach = {ones[0]} | {p[ones[0]] for p in _automorphisms(A, weights)}
        if (wo["status"] == "pass") != all(v in reach for v in ones):
            return False

    cs = tests["charpoly-solvability"]
    if cs["status"] == "fail":
        for w in cs["witness"]:
            comp = [v - 1 for v in w["component"]]
            sub = [[A[i][j] for j in comp] for i in comp]
            sub_coeffs = oracle.sympy_charpoly(sub)
            for cert in w["verdict"]["certificates"]:
                if not _certificate_ok(cert, sub_coeffs):
                    return False
    if report["solvability"]["status"] == "not_solvable":
        for cert in report["solvability"]["certificates"]:
            if not _certificate_ok(cert, coeffs):
                return False

    if kernel is not None:
        # a genuine McKay quiver: one strong block per kernel class, and
        # no characteristic polynomial is ever certified not solvable
        if len(blocks) != kernel or cs["status"] == "fail" or \
                report["solvability"]["status"] == "not_solvable":
            return False
        if kernel == 1 and "fail" in statuses:
            return False
    return True
