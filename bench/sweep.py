"""`sweep`: every irreducible of every catalog group up to order 48, as in
acceptance criterion 7, cut into six rounds of the same mix.

Each item is one quiver through every route: McKay matrix, column
eigenvectors, dual reversal, invariance under the dual group action,
the three component routes, walk counts of length 0..3 by both routes,
the reduced weighting of faithful quivers, and char poly plus
solvability per component.  The table's product cache is emptied before
each item, so an item's cost does not depend on which items ran before.

Set-up builds every table and its engine and computes each table's dual
group action once, as criterion 7 does.  The items are dealt to the
rounds by Galois class: the classes are listed table by table and their
members dealt round-robin, so every round holds a sixth of each class
(give or take one) and the same mix of cheap and costly quivers.  The
seed picks which conjugates fill a round's slots, and their order.
"""

from __future__ import annotations

import random

from mckayq import catalog, galois as gl, mckay as mk, quiver as qv

import oracle
from common import Item, Workload, galois_classes, galois_row_actions, seeded

MAX_ORDER = 48
# a round takes 13-19 CPU s here, so a 10 s run makes exactly one; with
# eight rounds (10-12 s) a fast spell of the host gave some runs a second
ROUNDS = 6


class Sweep(Workload):

    def __init__(self, seed: int):
        self.seed = seed
        self.tables = {}
        slots = []  # (spec, Galois class) per slot, in dealing order
        for spec in catalog.catalog_specs(MAX_ORDER):
            t = catalog.parse_group_spec(spec)
            t._engine()
            action = mk.dual_group_action(t)
            self.tables[spec] = (t, action)
            rng = seeded(seed, "sweep", spec)
            for orbit in galois_classes(galois_row_actions(t, spec), t.n_classes):
                members = list(orbit)
                rng.shuffle(members)
                slots.extend((spec, k) for k in members)
        self.rounds = [slots[r::ROUNDS] for r in range(ROUNDS)]
        self._numeric = {}

    def round(self, r: int) -> list[Item]:
        picks = list(self.rounds[r % ROUNDS])
        seeded(self.seed, "order", r).shuffle(picks)
        return [self._item(spec, k) for spec, k in picks]

    def _item(self, spec: str, k: int) -> Item:
        t, action = self.tables[spec]

        def run():
            t._engine().product_cache.clear()
            rho = tuple(int(i == k) for i in range(t.n_classes))
            m = mk.McKayQuiver(t, rho)
            A = m.matrix
            n = m.n_vertices
            out = {
                "matrix": A,
                "eigen": mk.eigen_check(m),
                "reversal": mk.dual_reversal_check(m),
                "invariant": all(A[p[i]][p[j]] == A[i][j]
                                 for p in action.values()
                                 for i in range(n) for j in range(n)),
                "parts": mk.component_partition(m),
                # both routes' matrices agree, and a digest of them; keeping
                # eight matrices per item would make peak RSS grow with
                # the number of items run
                "walks": [(w == mk.character_walk_matrix(m, L), hash(w))
                          for L in range(4) for w in [mk.walk_matrix(m, L)]],
                "faithful": m.is_faithful(),
            }
            q = m.to_quiver()
            out["weighting"] = qv.reduced_weight_vector(q) if out["faithful"] else None
            out["components"] = []
            for comp in out["parts"]:
                cp = qv.char_poly(q.induced(comp))
                out["components"].append((comp, cp.coeffs, gl.solvability(cp).status))
            return out

        return Item(f"{spec}/chi{k + 1}", run,
                    lambda out: self._check(spec, k, out))

    # -- checks ------------------------------------------------------------

    def _table_numbers(self, spec):
        if spec not in self._numeric:
            t, _ = self.tables[spec]
            num = oracle.numeric_table(t)
            self._numeric[spec] = (num, t.class_sizes, t.order,
                                   [round(row[0].real) for row in num])
        return self._numeric[spec]

    def _check(self, spec: str, k: int, out) -> bool:
        t, action = self.tables[spec]
        num, sizes, order, dims = self._table_numbers(spec)
        r = t.n_classes
        A = out["matrix"]
        if spec.startswith("C:"):
            # chi_k * chi_i = chi_(i+k): the shift-by-k permutation matrix
            expect = [[int(j == (i + k) % r) for j in range(r)] for i in range(r)]
            if [list(row) for row in A] != expect:
                return False
        rho_vals = [num[k][c] for c in range(r)]
        if not spec.startswith("C:") and not oracle.matrices_match(
                A, oracle.float_mckay(num, sizes, order, rho_vals)):
            return False
        if not (out["eigen"] and out["reversal"] and out["invariant"]):
            return False
        lins = sorted(l for l in range(r) if dims[l] == 1)
        if sorted(action) != lins or any(
                sorted(action[l][i] for l in lins) != lins for i in lins):
            return False
        kernel = oracle.kernel_count(rho_vals)
        parts = [tuple(p) for p in out["parts"]]
        if len(parts) != kernel or sorted(parts) != oracle.weak_blocks(A):
            return False
        for L, (same, digest) in enumerate(out["walks"]):
            if not same or digest != hash(oracle.int_matpow(A, L)):
                return False
        if out["faithful"] != (kernel == 1):
            return False
        if out["faithful"]:
            w = out["weighting"]
            if w is None or w.k != dims[k] or list(w.weights) != dims:
                return False
        rng = random.Random(k)
        for comp, coeffs, status in out["components"]:
            sub = [[A[i][j] for j in comp] for i in comp]
            if status == gl.NOT_SOLVABLE or not oracle.charpoly_matches(sub, coeffs, rng):
                return False
        return True

    def corrupt(self, item, out):
        bad = dict(out)
        A = [list(row) for row in out["matrix"]]
        A[0][0] += 1
        bad["matrix"] = tuple(tuple(row) for row in A)
        return bad
