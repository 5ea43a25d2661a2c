"""Built-in character tables.

Families: cyclic groups C:n, dicyclic (binary dihedral) groups BD:m of
order m (4 | m, m >= 8, with Q8 = BD:8), the binary tetrahedral (2T),
binary octahedral (2O) and binary icosahedral (2I) groups, and direct
products of any of these joined with "x", e.g. "C:2xC:6".

Every table puts the identity class and the trivial character first.
Catalog tables carry a `natural_multiplicities` attribute: the
distinguished 2-dimensional representation for the binary polyhedral and
dicyclic families, the faithful sum chi_1 + chi_{n-1} for C:n, and the
tensor product of the factors' choices for direct products.
"""

from __future__ import annotations

from math import lcm, prod

from .chartab import CharacterTable, ConjClass
from .cyclotomic import MAX_CONDUCTOR, Cyclotomic, E


# Largest group order a spec may name.  Table builds grow about as the
# cube of the order: on a 2-vCPU host, `mckayq table C:256` takes 1.5 s
# and 31 MB, C:4xC:64 1.1 s and 29 MB, and BD:508 (in-process) 8.5 s.
MAX_GROUP_ORDER = 256


class GroupSpecError(ValueError):
    """Unparseable or out-of-range group specification."""


# -- cyclic groups -----------------------------------------------------------


def cyclic_table(n: int) -> CharacterTable:
    if n < 1:
        raise GroupSpecError("cyclic order must be at least 1")
    classes = []
    for j in range(n):
        name = "1" if j == 0 else ("g" if j == 1 else f"g{j}")
        classes.append(ConjClass(name, 1, (2 * j) % n, (-j) % n))
    rows = [[Cyclotomic.zeta(n, (k * j) % n) for j in range(n)] for k in range(n)]
    t = CharacterTable(f"C{n}", n, classes, rows)
    nat = [0] * n
    nat[1 % n] += 1
    nat[(n - 1) % n] += 1
    t.natural_multiplicities = tuple(nat)
    return t


# -- dicyclic groups ----------------------------------------------------------
#
# Order 4n with presentation x, y | y^(2n) = 1, x^2 = y^n, x y x^-1 = y^-1.
# Classes: 1, -1 = y^n, the n elements x*y^even, the n elements x*y^odd,
# and the pairs {y^j, y^-j} for 0 < j < n.


def _dicyclic_two_dim_order(n: int) -> list[int]:
    # row order of the two-dimensional characters, by frequency index k
    if n == 3:
        return [2, 1]
    if n == 6:
        return [1, 5, 2, 4, 3]
    return list(range(1, n))


def dicyclic_table(order: int) -> CharacterTable:
    if order % 4 != 0 or order < 8:
        raise GroupSpecError(
            "dicyclic order must be a multiple of 4 and at least 8")
    n = order // 4
    classes = [ConjClass("1", 1, 0, 0), ConjClass("-1", 1, 0, 1)]
    x_inv, xy_inv = (2, 3) if n % 2 == 0 else (3, 2)
    classes.append(ConjClass("x", n, 1, x_inv))
    classes.append(ConjClass("-x" if n % 2 else "xy", n, 1, xy_inv))
    for j in range(1, n):
        m2 = (2 * j) % (2 * n)
        if m2 == 0:
            p2 = 0
        elif m2 == n:
            p2 = 1
        else:
            p2 = 3 + (m2 if m2 < n else 2 * n - m2)
        classes.append(ConjClass("y" if j == 1 else f"y{j}", 2, p2, 3 + j))

    rows: list[list] = []
    one = Cyclotomic.one()
    i4 = Cyclotomic.zeta(4, 1)
    if n % 2 == 1:
        pairs = [(one, one), (-one, one), (i4, -one), (-i4, -one)]
    else:
        pairs = [(one, one), (one, -one), (-one, -one), (-one, one)]
    for alpha, beta in pairs:
        row = [one, beta ** n, alpha, alpha * beta]
        row.extend(beta ** j for j in range(1, n))
        rows.append(row)
    korder = _dicyclic_two_dim_order(n)
    for k in korder:
        row = [Cyclotomic.from_rational(2),
               Cyclotomic.from_rational(2 if k % 2 == 0 else -2),
               Cyclotomic.zero(), Cyclotomic.zero()]
        row.extend(Cyclotomic.zeta(2 * n, (k * j) % (2 * n))
                   + Cyclotomic.zeta(2 * n, (-k * j) % (2 * n))
                   for j in range(1, n))
        rows.append(row)
    t = CharacterTable(f"BD{order}", order, classes, rows)
    nat = [0] * t.n_classes
    nat[4 + korder.index(1)] = 1
    t.natural_multiplicities = tuple(nat)
    return t


# -- binary polyhedral groups --------------------------------------------------


def _table_from_rows(name, order, class_data, rows, natural_index) -> CharacterTable:
    classes = [ConjClass(*cd) for cd in class_data]
    t = CharacterTable(name, order, classes, rows)
    nat = [0] * t.n_classes
    nat[natural_index] = 1
    t.natural_multiplicities = tuple(nat)
    return t


def binary_tetrahedral_table() -> CharacterTable:
    w = E(3)
    w2 = w * w
    one = Cyclotomic.one()
    return _table_from_rows(
        "2T", 24,
        [("1", 1, 0, 0), ("-1", 1, 0, 1), ("4a", 6, 1, 2),
         ("3a", 4, 4, 4), ("3b", 4, 3, 3), ("6a", 4, 4, 6), ("6b", 4, 3, 5)],
        [[1, 1, 1, 1, 1, 1, 1],
         [one, one, one, w, w2, w, w2],
         [one, one, one, w2, w, w2, w],
         [2, -2, 0, -1, -1, 1, 1],
         [2 * one, -2 * one, Cyclotomic.zero(), -w, -w2, w, w2],
         [2 * one, -2 * one, Cyclotomic.zero(), -w2, -w, w2, w],
         [3, 3, -1, 0, 0, 0, 0]],
        natural_index=3)


def binary_octahedral_table() -> CharacterTable:
    r2 = E(8) + E(8) ** 7  # sqrt(2)
    z = Cyclotomic.zero()
    return _table_from_rows(
        "2O", 48,
        [("1", 1, 0, 0), ("-1", 1, 0, 1), ("8a", 6, 4, 2), ("8b", 6, 4, 3),
         ("4a", 6, 1, 4), ("6a", 8, 6, 5), ("3a", 8, 6, 6), ("4b", 12, 1, 7)],
        [[1, 1, 1, 1, 1, 1, 1, 1],
         [1, 1, -1, -1, 1, 1, 1, -1],
         [2 * Cyclotomic.one(), -2 * Cyclotomic.one(), r2, -r2, z,
          Cyclotomic.one(), -Cyclotomic.one(), z],
         [2 * Cyclotomic.one(), -2 * Cyclotomic.one(), -r2, r2, z,
          Cyclotomic.one(), -Cyclotomic.one(), z],
         [2, 2, 0, 0, 2, -1, -1, 0],
         [3, 3, -1, -1, -1, 0, 0, 1],
         [3, 3, 1, 1, -1, 0, 0, -1],
         [4, -4, 0, 0, 0, -1, 1, 0]],
        natural_index=2)


def binary_icosahedral_table() -> CharacterTable:
    g = E(5) + E(5) ** 4          # (sqrt(5) - 1) / 2
    one = Cyclotomic.one()
    gp = one + g                  # golden ratio (1 + sqrt(5)) / 2
    gm = -g                       # its conjugate (1 - sqrt(5)) / 2
    z = Cyclotomic.zero()
    return _table_from_rows(
        "2I", 120,
        [("1", 1, 0, 0), ("-1", 1, 0, 1), ("4a", 30, 1, 2), ("3a", 20, 3, 3),
         ("6a", 20, 3, 4), ("5a", 12, 6, 5), ("5b", 12, 5, 6),
         ("10a", 12, 5, 7), ("10b", 12, 6, 8)],
        [[1, 1, 1, 1, 1, 1, 1, 1, 1],
         [2 * one, -2 * one, z, -one, one, -gm, -gp, gp, gm],
         [2 * one, -2 * one, z, -one, one, -gp, -gm, gm, gp],
         [3 * one, 3 * one, -one, z, z, gm, gp, gp, gm],
         [3 * one, 3 * one, -one, z, z, gp, gm, gm, gp],
         [4, 4, 0, 1, 1, -1, -1, -1, -1],
         [4, -4, 0, 1, -1, -1, -1, 1, 1],
         [5, 5, 1, -1, -1, 0, 0, 0, 0],
         [6, -6, 0, 0, 0, 1, 1, -1, -1]],
        natural_index=1)


# -- direct products ------------------------------------------------------------


def direct_product(t1: CharacterTable, t2: CharacterTable) -> CharacterTable:
    r2 = t2.n_classes
    classes = []
    for c1 in t1.classes:
        for c2 in t2.classes:
            classes.append(ConjClass(
                name=f"({c1.name},{c2.name})",
                size=c1.size * c2.size,
                power2=c1.power2 * r2 + c2.power2,
                inverse=c1.inverse * r2 + c2.inverse))
    products = {}  # each distinct v1 * v2 is computed once
    rows = []
    for row1 in t1.characters:
        for row2 in t2.characters:
            row = []
            for v1 in row1:
                for v2 in row2:
                    v = products.get((v1, v2))
                    if v is None:
                        v = products[v1, v2] = v1 * v2
                    row.append(v)
            rows.append(row)
    t = CharacterTable(f"{t1.name}x{t2.name}", t1.order * t2.order,
                       classes, rows)
    n1 = getattr(t1, "natural_multiplicities", None)
    n2 = getattr(t2, "natural_multiplicities", None)
    if n1 is not None and n2 is not None:
        # row i*r2 + j is chi_i x psi_j, so rho1 x rho2 has the outer
        # product of the multiplicities
        t.natural_multiplicities = tuple(a * b for a in n1 for b in n2)
    return t


# -- the group grammar -----------------------------------------------------------


def parse_group_spec(text: str) -> CharacterTable:
    """Build the table for a spec like "C:6", "BD:12", "Q8", "2T", "2O",
    "2I" or a product "C:2xBD:8".  A spec whose group exponent (the lcm
    of its factors' exponents) is above MAX_CONDUCTOR, or whose order is
    above MAX_GROUP_ORDER, is rejected before any table is built."""
    parts = [p.strip() for p in text.strip().split("x")]
    if any(not p for p in parts):
        raise GroupSpecError(f"empty factor in group spec {text!r}")
    atoms = [_parse_atom(p) for p in parts]
    exponent = lcm(*(e for e, _, _ in atoms))
    if exponent > MAX_CONDUCTOR:
        raise GroupSpecError(f"group spec {text!r} has exponent {exponent}, "
                             f"above {MAX_CONDUCTOR}")
    order = prod(n for _, n, _ in atoms)
    if order > MAX_GROUP_ORDER:
        raise GroupSpecError(f"group spec {text!r} has order {order}, "
                             f"above {MAX_GROUP_ORDER}")
    tables = [build() for _, _, build in atoms]
    out = tables[0]
    for t in tables[1:]:
        out = direct_product(out, t)
    return out


_NAMED = {"Q8": (4, 8, lambda: dicyclic_table(8)),
          "2T": (12, 24, binary_tetrahedral_table),
          "2O": (24, 48, binary_octahedral_table),
          "2I": (60, 120, binary_icosahedral_table)}


def _parse_atom(tok: str):
    """(exponent, order, builder) for one factor of a spec; nothing is
    built."""
    up = tok.upper()
    if up in _NAMED:
        return _NAMED[up]
    if up.startswith("C:"):
        body = up[2:]
        if not body.isdigit():
            raise GroupSpecError(f"bad cyclic order in {tok!r}")
        n = int(body)
        return n, n, lambda: cyclic_table(n)
    if up.startswith("BD:"):
        body = up[3:]
        if not body.isdigit():
            raise GroupSpecError(f"bad dicyclic order in {tok!r}")
        m = int(body)
        # BD:4n has elements of orders 2n and 4
        return lcm(m // 2, 4), m, lambda: dicyclic_table(m)
    raise GroupSpecError(
        f"unknown group {tok!r}; expected C:n, BD:m, Q8, 2T, 2O, 2I "
        f"or an x-product of these")


def natural_rep(t: CharacterTable) -> tuple[int, ...]:
    """Multiplicity vector of the table's distinguished representation."""
    nat = getattr(t, "natural_multiplicities", None)
    if nat is None:
        raise ValueError(
            f"table {t.name} does not carry a natural representation")
    return nat


def regular_rep(t: CharacterTable) -> tuple[int, ...]:
    """Multiplicity vector of the regular representation: each
    irreducible appears with multiplicity equal to its dimension."""
    return t.dims


def catalog_specs(max_order: int) -> list[str]:
    """Spec strings for every base catalog group of order <= max_order."""
    out = [f"C:{n}" for n in range(1, max_order + 1)]
    out.extend(f"BD:{m}" for m in range(8, max_order + 1, 4))
    for spec, order in (("2T", 24), ("2O", 48), ("2I", 120)):
        if order <= max_order:
            out.append(spec)
    return out
