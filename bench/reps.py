"""`reps`: reducible representations, mostly unfaithful, over a fixed set
of catalog groups and direct products.

Each item builds a McKayQuiver and runs eigen_check,
component_partition, principal_component (which builds the quotient
table and decomposes the representation there) and walk_multiplicity.
Set-up builds the tables and fills each table's per-irreducible product
cache, so the timed items assemble their matrices from products that are
already computed, as a long-lived caller would.

The mix is fixed: per table the natural representation, the regular
one, and six multiplicity vectors drawn once from a fixed generator,
four of them restricted to the irreducibles trivial on some normal
subgroup, so that most quivers are disconnected.  The seed twists every
vector by a Galois automorphism of the table and picks the walk's end
points, so two seeds run different representations of the same cost.
"""

from __future__ import annotations

import random

from mckayq import catalog, mckay as mk

import oracle
from common import Item, Workload, galois_row_actions, seeded, twist

SPECS = ("C:12", "BD:24", "BD:32", "2T", "2O", "2I", "C:2xBD:8", "C:2x2T",
         "C:3xBD:12", "C:4xC:6", "C:2xC:2xC:6", "Q8xC:3")
RANDOM_VECTORS = 6
WALK_LENGTH = 2


def _templates(t, num, rng: random.Random) -> list[tuple[str, tuple[int, ...]]]:
    r = t.n_classes
    out = [("natural", catalog.natural_rep(t)), ("regular", catalog.regular_rep(t))]
    kernels = [frozenset(c for c in range(r) if abs(num[i][c] - num[i][0]) < oracle.EPS)
               for i in range(1, r)]
    for v in range(RANDOM_VECTORS):
        rows = list(range(r))
        if v < 4:
            # irreducibles whose kernel contains that of a random row
            ker = rng.choice([k for k in kernels if len(k) > 1] or kernels)
            rows = [i for i in range(r)
                    if all(abs(num[i][c] - num[i][0]) < oracle.EPS for c in ker)]
        rho = [0] * r
        for k in rng.sample(rows, min(len(rows), 1 + v % 3)):
            rho[k] = rng.randint(1, 2)
        out.append((f"random{v + 1}", tuple(rho)))
    return out


class Reps(Workload):

    def __init__(self, seed: int):
        self.seed = seed
        template_rng = random.Random("reps-templates")
        self.tables = []
        for spec in SPECS:
            t = catalog.parse_group_spec(spec)
            for k in range(t.n_classes):
                mk._irr_matrix(t, k)
            num = oracle.numeric_table(t)
            self.tables.append((spec, t, num, galois_row_actions(t, spec),
                                _templates(t, num, template_rng)))

    def round(self, r: int) -> list[Item]:
        rng = seeded(self.seed, "reps", r)
        items = []
        for spec, t, num, perms, templates in self.tables:
            for name, rho in templates:
                rho = twist(rho, rng.choice(perms))
                i, j = rng.randrange(t.n_classes), rng.randrange(t.n_classes)
                items.append(self._item(spec, t, num, name, rho, i, j))
        rng.shuffle(items)
        return items

    def _item(self, spec, t, num, name, rho, i, j) -> Item:
        def run():
            m = mk.McKayQuiver(t, rho)
            eigen = mk.eigen_check(m)
            parts = mk.component_partition(m)
            pc = mk.principal_component(m)
            return {
                "matrix": m.matrix,
                "eigen": eigen,
                "parts": parts,
                "principal": pc.vertices,
                "quotient_order": pc.quotient.table.order,
                "quotient_matrix": pc.quotient.matrix,
                "quotient_rho": pc.quotient.rho,
                "walk": mk.walk_multiplicity(m, i, j, WALK_LENGTH),
            }

        return Item(f"{spec}/{name}", run,
                    lambda out: self._check(t, num, name, rho, i, j, out))

    def _check(self, t, num, name, rho, i, j, out) -> bool:
        r = t.n_classes
        sizes = t.class_sizes
        A = out["matrix"]
        vals = oracle.rep_values(num, rho)
        if not oracle.matrices_match(A, oracle.float_mckay(num, sizes, t.order, vals)):
            return False
        dims = [round(row[0].real) for row in num]
        if name == "regular" and [list(row) for row in A] != [
                [a * b for b in dims] for a in dims]:
            return False
        if not out["eigen"]:
            return False
        kernel = [c for c in range(r) if abs(vals[c] - vals[0]) < oracle.EPS]
        parts = sorted(tuple(p) for p in out["parts"])
        if len(parts) != len(kernel) or parts != oracle.weak_blocks(A):
            return False
        # the principal component is the quiver of rho on G/N, N = ker rho
        survivors = tuple(k for k in range(r)
                          if all(abs(num[k][c] - num[k][0]) < oracle.EPS for c in kernel))
        if tuple(out["principal"]) != survivors or survivors not in parts:
            return False
        if out["quotient_order"] * sum(sizes[c] for c in kernel) != t.order:
            return False
        if [list(row) for row in out["quotient_matrix"]] != [
                [A[a][b] for b in survivors] for a in survivors]:
            return False
        if list(out["quotient_rho"]) != [rho[k] for k in survivors]:
            return False
        return out["walk"] == oracle.int_matpow(A, WALK_LENGTH)[i][j]

    def corrupt(self, item, out):
        return dict(out, walk=out["walk"] + 1)
