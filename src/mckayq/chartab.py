"""Character tables of finite groups and class-function operations.

A table is the finite data the rest of the library runs on: conjugacy
classes (name, size, the squaring map c -> class of c^2, the inversion
map), and a square matrix of exact cyclotomic character values with the
trivial character first and the identity class first.

Deep consistency (orthogonality, dimension counts, map/value coherence)
is checked by verify_table, not by the constructor, so that suspect
tables can be loaded, inspected and reported on.  The constructor checks
shapes, class data, and that each value is an algebraic integer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cyclotomic import (
    Cyclotomic,
    MAX_CONDUCTOR,
    CyclotomicSyntaxError,
    _Field,
    parse_cyclotomic,
)
from .linalg import crt
from .polynomials import _crt_prime, cyclotomic_polynomial, prime_factors


class TableMismatch(ValueError):
    """Two class functions live on different tables."""


class NotACharacter(ValueError):
    """A class function is not a non-negative integer sum of irreducibles."""


class InvalidKernel(ValueError):
    """A class subset does not define a quotient table."""


class TableFormatError(ValueError):
    """Malformed table JSON."""


class TableValidationError(ValueError):
    """A loaded table failed verification; .report has the details."""

    def __init__(self, report: "VerificationReport"):
        super().__init__("table failed verification:\n" + str(report))
        self.report = report


@dataclass(frozen=True)
class ConjClass:
    name: str
    size: int
    power2: int   # index of the class containing the squares of members
    inverse: int  # index of the class containing the inverses of members


class CharacterTable:
    """Immutable character table; all values are Cyclotomic."""

    def __init__(self, name, order, classes, characters):
        classes = tuple(classes)
        r = len(classes)
        if r == 0:
            raise ValueError("a table needs at least one class")
        if type(order) is not int or order < 1:
            raise ValueError("order must be a positive integer")
        rows = []
        for row in characters:
            row = tuple(_as_cyclotomic(v) for v in row)
            if len(row) != r:
                raise ValueError("character rows must match the class count")
            rows.append(row)
        if len(rows) != r:
            raise ValueError("need exactly as many characters as classes")
        for v in {id(v): v for row in rows for v in row}.values():
            if any(c.denominator != 1 for c in v.coeffs):
                raise ValueError(f"{v} is not an algebraic integer, so no character value")
        for c in classes:
            if type(c.size) is not int or c.size < 1:
                raise ValueError(f"class {c.name!r} has a bad size")
            if not all(type(m) is int and 0 <= m < r for m in (c.power2, c.inverse)):
                raise ValueError(f"class {c.name!r} has out-of-range maps")
        self.name = str(name)
        self.order = order
        self.classes = classes
        self.class_sizes = tuple(c.size for c in classes)
        self.characters = tuple(rows)
        self._engine_cache = None

    # -- basic accessors -------------------------------------------------

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.classes)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(v.to_int() for v in (row[0] for row in self.characters))

    def row_names(self) -> tuple[str, ...]:
        return tuple(f"chi{i + 1}" for i in range(self.n_classes))

    def irreducible(self, i: int) -> "ClassFunction":
        return ClassFunction(self, self.characters[i])

    def trivial(self) -> "ClassFunction":
        return self.irreducible(0)

    def row_index(self, values) -> int | None:
        """Index of the irreducible with exactly these values, if any."""
        eng = self._engine()
        values = [_as_cyclotomic(v) for v in values]
        if any(eng.exponent % v.conductor for v in values):
            return None  # a value outside Q(zeta_E) is in no row
        return eng.row_of([v.terms(eng.exponent) for v in values])

    def dual_index(self, i: int) -> int:
        """Index of the complex conjugate of row i.

        Computed on the table engine: the row's conjugated exponent dicts
        (`conj_vals`) are recognised by `row_of`, with no Cyclotomic
        arithmetic.  `ClassFunction.conjugate` stays the Cyclotomic route
        to the same row.
        """
        eng = self._engine()
        j = eng.row_of(eng.conj_vals[i])
        if j is None:
            raise ValueError("table is not closed under complex conjugation")
        return j

    def _engine(self) -> "_TableEngine":
        if self._engine_cache is None:
            self._engine_cache = _TableEngine(self)
        return self._engine_cache

    def __repr__(self):
        return f"<CharacterTable {self.name}: order {self.order}, {self.n_classes} classes>"


def _as_cyclotomic(v) -> Cyclotomic:
    c = Cyclotomic._coerce(v)
    if c is NotImplemented:
        raise TypeError(f"not a cyclotomic value: {v!r}")
    return c


class ClassFunction:
    """A function on the classes of one table, valued in cyclotomics."""

    __slots__ = ("table", "values")

    def __init__(self, table: CharacterTable, values):
        values = tuple(_as_cyclotomic(v) for v in values)
        if len(values) != table.n_classes:
            raise ValueError("value count does not match the class count")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "values", values)

    def __setattr__(self, *a):
        raise AttributeError("ClassFunction is immutable")

    def _same(self, other: "ClassFunction"):
        if self.table is not other.table:
            raise TableMismatch("class functions on different tables")

    def __getitem__(self, c: int) -> Cyclotomic:
        return self.values[c]

    def __iter__(self):
        return iter(self.values)

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._same(other)
        return ClassFunction(self.table, [a + b for a, b in zip(self.values, other.values)])

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            self._same(other)
            return ClassFunction(self.table, [a * b for a, b in zip(self.values, other.values)])
        return ClassFunction(self.table, [v * other for v in self.values])

    __rmul__ = __mul__

    def conjugate(self) -> "ClassFunction":
        return ClassFunction(self.table, [v.conjugate() for v in self.values])

    def __eq__(self, other):
        return (isinstance(other, ClassFunction) and self.table is other.table
                and self.values == other.values)

    def __hash__(self):
        return hash((id(self.table), self.values))

    def __repr__(self):
        return "ClassFunction(" + ", ".join(str(v) for v in self.values) + ")"


# -- fast exact engine -------------------------------------------------------
#
# All table values live in one Q(zeta_E), E the lcm of their conductors,
# and the engine is that field: a `cyclotomic._Field` of conductor E that
# also holds the table's characters in exponent form.  A root of unity
# whose power-basis form has several terms is stored as the one-term dict
# {e: 1} (or {e: -1} for odd E), read off its coordinates against the
# reduction rows; a one-term form, whose exponent is below phi(E) and so
# cheaper to reduce, is kept.  Products are exponent additions,
# conjugation negates exponents, and one reduction mod Phi_E at the end
# turns an accumulated sum into canonical power-basis coordinates.
#
# Every row is recognised (`row_of`, `product_rows`) on an image of the
# table in Z/M: zeta_E -> g with Phi_E(g) = 0 mod M, M a product of
# primes p = 1 mod E below 2^61 (`polynomials._crt_prime`).  That is a
# ring map, so a miss proves that a class function x, or a product
# x * chi_i, is no row.  A hit is exact too.  The table's values are
# algebraic integers (the constructor checks it), and `row_of` turns
# away an x with a non-integer coefficient, which is no row.  Let N and
# L be the largest l1 norm of a dict of the table and of x.  For a
# difference delta from a row at one class, delta is in Z[zeta_E] and
# each embedding of it is at most B = (L + 1) * max(N, 1); the map's
# kernel has index M, so a hit makes M divide its norm, at most
# B^phi(E) < M, so delta = 0.  M grows when a larger B arrives.  Misses
# are split by exact `row_inner`; `verify_table`, `coords` and
# `mckay.eigen_check` stay on the exact arithmetic.


def _common_conductor(rows) -> int:
    """Least common multiple of the conductors of every value."""
    return math.lcm(*(v.conductor for row in rows for v in row))


class _TableEngine(_Field):
    """Q(zeta_E) with one table's rows (`vals`, `conj_vals`, `coords`),
    their image mod `modulus` (`row_images`, `image_rows`), the one
    route to recognise a row, and per-table results shared by `mckay`:
    `product_cache`, the McKay matrix of each irreducible, `dual_action`
    and `column_orbits`.  `units[j]` is the multiplicity vector of row j.

    Each distinct value object (catalog and JSON tables share them) is
    converted once, keyed by identity, so cells with one value share one
    dict and one tuple; nothing mutates a dict of `vals` or `conj_vals`."""

    def __init__(self, table: CharacterTable):
        super().__init__(_common_conductor(table.characters))
        self.table = table
        roots = {x: (e, 1) for e, x in enumerate(self.red)}
        if self.exponent % 2:  # for even E, -zeta^e is a power of zeta
            roots.update({tuple(-c for c in x): (e, -1) for e, x in enumerate(self.red)})
        forms = {}  # id(value) -> (exponent dict, coordinates, conjugate)
        for v in (v for row in table.characters for v in row):
            if id(v) not in forms:
                d = v.terms(self.exponent)
                x = self.reduce_dict(d)
                d = dict((roots[x],)) if len(d) > 1 and x in roots else d
                forms[id(v)] = (d, x, self.galois(d, -1))
        self.vals, self.coords, self.conj_vals = (
            [[forms[id(v)][k] for v in row] for row in table.characters] for k in range(3))
        self.norm = max(sum(map(abs, d.values())) for d, _, _ in forms.values())
        self.modulus = 1
        self.product_cache: dict[int, tuple] = {}
        self.dual_action: dict[int, tuple[int, ...]] | None = None

    @cached_property
    def units(self) -> tuple:
        r = len(self.vals)
        return tuple(tuple(int(i == j) for i in range(r)) for j in range(r))

    @cached_property
    def column_orbits(self) -> tuple:
        """Classes grouped by the exact relation "column c' = sigma_a(column
        c)", a in (Z/E)^*, least class first.  A column with all exponents
        multiples of E/m lies in Q(zeta_m): sigma_a depends on a mod m."""
        E, orbits, done = self.exponent, [], set()
        first = {col: c for c, col in reversed(list(enumerate(zip(*self.coords))))}
        for c, column in enumerate(zip(*self.vals)):
            if c not in done:
                m = E // math.gcd(E, *(e for d in column for e in d))
                units = {a % m: a for a in range(1, E + 1) if math.gcd(a, E) == 1}
                orbit = {c} | {first.get(tuple(self.reduce_dict(self.galois(d, a)) for d in column))
                               for a in units.values()}
                orbit = tuple(sorted(orbit - done - {None}))
                done.update(orbit)
                orbits.append(orbit)
        return tuple(orbits)

    def row_of(self, dicts) -> int | None:
        """Index of the row with these values (exponent dicts), or None."""
        if any(type(c) is not int for d in dicts for c in d.values()):
            return None  # not an algebraic integer, so no row
        key = tuple(self._images(dicts))  # first, as it may rebuild the image
        return self.image_rows.get(key)

    def multiplicities(self, dicts) -> tuple[int, ...]:
        """Multiplicities in the irreducible basis of the class function
        with these values (exponent dicts).

        A row of the table is recognised by `row_of` and answered with its
        shared unit vector; otherwise see `inner_multiplicities`.
        """
        j = self.row_of(dicts)
        return self.units[j] if j is not None else self.inner_multiplicities(dicts)

    def inner_multiplicities(self, dicts) -> tuple[int, ...]:
        """Each multiplicity as one `row_inner` against a conjugated row,
        divided by the order.  NotACharacter if one is not a non-negative
        integer."""
        order = self.table.order
        out = []
        for i, conj in enumerate(self.conj_vals):
            coords = self.row_inner(dicts, conj)
            m, rem = divmod(coords[0], order)
            if rem or m < 0 or any(coords[1:]):
                m = Cyclotomic(self.exponent, coords) * Fraction(1, order)
                raise NotACharacter(f"multiplicity of row {i + 1} is {m}")
            out.append(m)
        return tuple(out)

    def product_rows(self, left) -> list:
        """Per row i, the index of the row equal to left * chi_i (`left`
        one exponent dict per class), or None if that product is no row."""
        li = self._images(left)
        M, get = self.modulus, self.image_rows.get
        return [get(tuple([a * b % M for a, b in zip(li, row)]))
                for row in self.row_images]

    def _images(self, dicts) -> list[int]:
        """The images of one call's integral dicts x, once M passes
        B^phi(E) (see the comment above)."""
        L = max(sum(map(abs, d.values())) for d in dicts)
        target = ((L + 1) * max(self.norm, 1)) ** self.phi
        if target >= self.modulus:
            self._build_image(target)
        return [self.image(d) for d in dicts]

    def image(self, d: dict) -> int:
        """The image of an integral exponent dict mod M."""
        return sum(c * self.g_powers[e] for e, c in d.items()) % self.modulus

    def _build_image(self, target: int) -> None:
        """Make M the product of the first primes _crt_prime(i, E) that
        pass `target`, and rebuild the images."""
        n, M, g, i = self.exponent, 1, 0, 0
        while M <= target:
            p, i = _crt_prime(i, n), i + 1
            # a^((p-1)/n) has order n unless its (n/q)-th power is 1
            h = next(h for h in (pow(a, (p - 1) // n, p) for a in range(2, p))
                     if all(pow(h, n // q, p) != 1 for q in prime_factors(n)))
            (g,), M = crt([g], M, [h], p), M * p
        if sum(c * pow(g, k, M) for k, c in enumerate(cyclotomic_polynomial(n))) % M:
            raise ArithmeticError(f"Phi_{n}(g) is not 0 mod {M}")
        self.modulus, self.g, self.g_powers = M, g, [pow(g, e, M) for e in range(n)]
        self.row_images = [tuple(self.image(d) for d in row) for row in self.vals]
        # the first row with an image wins
        self.image_rows = {img: i for i, img in reversed(list(enumerate(self.row_images)))}

    def rep_dicts(self, mult) -> list[dict]:
        """Exponent dicts of the character sum_k mult[k] * chi_k, per class."""
        hot = [k for k, m in enumerate(mult) if m]
        if len(hot) == 1 and mult[hot[0]] == 1:
            return list(self.vals[hot[0]])
        return [self.combo(mult, column) for column in zip(*self.vals)]

    def rational_of_coords(self, coords) -> Fraction | None:
        if any(coords[1:]):
            return None
        return Fraction(coords[0])

    def row_inner(self, d_per_class_1, d_per_class_2_conj) -> tuple:
        """Coordinates of sum_c size_c * a_c * b_c (b already conjugated)."""
        return self.dot(self.table.class_sizes, d_per_class_1, d_per_class_2_conj)


# -- operations --------------------------------------------------------------


def _class_average(t: CharacterTable, values) -> Cyclotomic:
    total = Cyclotomic.zero()
    for size, v in zip(t.class_sizes, values):
        total = total + size * v
    return total * Fraction(1, t.order)


def inner_product(f: ClassFunction, g: ClassFunction) -> Cyclotomic:
    """(1/|G|) sum over classes of size * f * conj(g)."""
    f._same(g)
    return _class_average(f.table, (a * b.conjugate() for a, b in zip(f.values, g.values)))


def decompose(f: ClassFunction) -> tuple[int, ...]:
    """Multiplicities of f in the irreducible basis; NotACharacter if any
    multiplicity is negative or non-integral.

    Computed on the table engine: f's values are embedded in the table's
    field Q(zeta_E) and handed to `_TableEngine.multiplicities`.  A value
    outside Q(zeta_E) raises NotACharacter at once: every character of
    the table lies in that field, so some multiplicity of such an f is
    not an integer.  `inner_product` stays the independent route over
    Cyclotomic objects.
    """
    eng = f.table._engine()
    for c, v in enumerate(f.values):
        if eng.exponent % v.conductor:
            raise NotACharacter(
                f"value {v} at class {c + 1} is not in Q(zeta_{eng.exponent})")
    return eng.multiplicities([v.terms(eng.exponent) for v in f.values])


def character_of(t: CharacterTable, mult) -> ClassFunction:
    """The character sum_k mult[k] * chi_k, summed on the table engine."""
    eng = t._engine()
    return ClassFunction(t, [Cyclotomic(eng.exponent, eng.reduce_dict(d))
                             for d in eng.rep_dicts(mult)])


def dual(f: ClassFunction) -> ClassFunction:
    """Pointwise complex conjugate (the contragredient character)."""
    return f.conjugate()


def fs_indicator(f: ClassFunction) -> Fraction:
    """Frobenius-Schur indicator (1/|G|) sum size(c) * f(c^2)."""
    return _class_average(f.table, (f[c.power2] for c in f.table.classes)).to_rational()


def is_symplectic(multiplicities, t: CharacterTable) -> bool:
    """Whether the representation with these multiplicities admits a
    nondegenerate invariant antisymmetric form.

    Constituent criterion: indicator +1 parts need even multiplicity,
    indicator 0 parts must pair with their duals, indicator -1 parts are
    unconstrained.
    """
    mult = list(multiplicities)
    if len(mult) != t.n_classes:
        raise ValueError("multiplicity vector has the wrong length")
    for i, m in enumerate(mult):
        if m == 0:
            continue
        nu = fs_indicator(t.irreducible(i))
        if nu == 1 and m % 2 != 0:
            return False
        if nu == 0 and m != mult[t.dual_index(i)]:
            return False
    return True


def kernel_classes(f: ClassFunction) -> frozenset[int]:
    """Classes where the character takes its identity value."""
    decompose(f)  # validates that f is a genuine character
    return frozenset(c for c, v in enumerate(f.values) if v == f[0])


def proportional_on_classes(f: ClassFunction, g: ClassFunction, class_indices) -> bool:
    """Whether the restrictions to the given classes are scalar multiples."""
    f._same(g)
    idx = sorted(set(class_indices))
    fz = [f[c].is_zero for c in idx]
    gz = [g[c].is_zero for c in idx]
    if fz != gz:
        return False
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            ca, cb = idx[a], idx[b]
            if f[ca] * g[cb] != f[cb] * g[ca]:
                return False
    return True


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str = ""


class VerificationReport:
    def __init__(self, table_name: str, checks: list[CheckOutcome]):
        self.table_name = table_name
        self.checks = checks

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        lines = [f"verification of {self.table_name}:"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"  [{status}] {c.name}"
            if c.detail and not c.passed:
                line += f": {c.detail}"
            lines.append(line)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "table": self.table_name,
            "all_pass": self.all_pass,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
        }


def verify_table(t: CharacterTable) -> VerificationReport:
    """Run the standard consistency checks and report each outcome."""
    checks: list[CheckOutcome] = []
    r = t.n_classes
    eng = t._engine()

    # structure: identity class and trivial character up front, sane maps
    problems = []
    if t.classes[0].size != 1:
        problems.append("first class has size != 1")
    if any(not v == Cyclotomic.one() for v in t.characters[0]):
        problems.append("first character is not trivial")
    dims_ok = True
    for i in range(r):
        v = t.characters[i][0]
        if not (v.is_rational and v.to_rational() >= 1):  # integral, as every value is
            problems.append(f"row {i + 1} has a bad identity value {v}")
            dims_ok = False
    if t.classes[0].power2 != 0 or t.classes[0].inverse != 0:
        problems.append("identity class maps are wrong")
    if any(t.classes[t.classes[c].inverse].inverse != c for c in range(r)):
        problems.append("inverse map is not an involution")
    checks.append(CheckOutcome("structure", not problems, "; ".join(problems)))

    total = sum(t.class_sizes)
    checks.append(CheckOutcome(
        "class-sizes", total == t.order,
        f"sizes sum to {total}, order is {t.order}"))

    bad = next(((i, j) for i in range(r) for j in range(i, r)
                if eng.rational_of_coords(eng.row_inner(eng.vals[i], eng.conj_vals[j]))
                != (t.order if i == j else 0)), None)
    checks.append(CheckOutcome(
        "row-orthogonality", bad is None,
        "" if bad is None else f"<chi{bad[0] + 1}, chi{bad[1] + 1}> is off"))

    cols, conj_cols = list(zip(*eng.vals)), list(zip(*eng.conj_vals))
    bad = next(((c, c2) for c in range(r) for c2 in range(c, r)
                if eng.rational_of_coords(eng.dot([1] * r, cols[c], conj_cols[c2]))
                != (Fraction(t.order, t.classes[c].size) if c == c2 else 0)), None)
    checks.append(CheckOutcome(
        "column-orthogonality", bad is None,
        "" if bad is None else (
            f"column {bad[0] + 1} has the wrong norm" if bad[0] == bad[1]
            else f"columns {bad[0] + 1} and {bad[1] + 1} are off")))

    if dims_ok:
        sq = sum(int(t.characters[i][0].to_rational()) ** 2 for i in range(r))
        checks.append(CheckOutcome(
            "dimension-squares", sq == t.order,
            f"sum of squared dims is {sq}, order is {t.order}"))
    else:
        checks.append(CheckOutcome("dimension-squares", False, "dims not positive integers"))

    bad_ic = next((
        (i, c) for i in range(r) for c in range(r)
        if eng.coords[i][t.classes[c].inverse] != eng.reduce_dict(eng.conj_vals[i][c])),
        None)
    checks.append(CheckOutcome(
        "inverse-consistency", bad_ic is None,
        "" if bad_ic is None else
        f"chi{bad_ic[0] + 1} at class {bad_ic[1] + 1} is not conjugated by inversion"))

    # indicator of every row must come out rational and in {-1, 0, 1},
    # vanishing exactly for the non-real rows
    bad_p2 = None
    for i in range(r):
        squares = [eng.vals[i][cl.power2] for cl in t.classes]
        q = eng.rational_of_coords(eng.reduce_dict(eng.combo(t.class_sizes, squares)))
        nu = None if q is None else q / t.order
        real = eng.coords[i] == [eng.reduce_dict(d) for d in eng.conj_vals[i]]
        if nu not in (Fraction(-1), Fraction(0), Fraction(1)) or (nu == 0) == real:
            bad_p2 = i
            break
    checks.append(CheckOutcome(
        "power2-indicators", bad_p2 is None,
        "" if bad_p2 is None else f"row {bad_p2 + 1} has an inconsistent indicator"))

    return VerificationReport(t.name, checks)


# -- quotients ----------------------------------------------------------------


def quotient_table(t: CharacterTable, kernel) -> CharacterTable:
    """Character table of G/N where N is the union of the given classes.

    The classes must form the kernel of some character.  Rows whose kernel
    contains N survive; classes fuse when all surviving rows agree on them.
    """
    ker = sorted(set(kernel))
    if not ker or ker[0] != 0:
        raise InvalidKernel("kernel must contain the identity class")
    if any(not (0 <= c < t.n_classes) for c in ker):
        raise InvalidKernel("kernel has out-of-range class indices")
    n_size = sum(t.classes[c].size for c in ker)
    if t.order % n_size != 0:
        raise InvalidKernel(f"kernel size {n_size} does not divide the order")
    q_order = t.order // n_size

    survivors = [i for i in range(t.n_classes)
                 if all(t.characters[i][c] == t.characters[i][0] for c in ker)]
    if not survivors:
        raise InvalidKernel("no characters survive")

    # fuse classes that the surviving rows cannot tell apart
    sig_to_block: dict[tuple, list[int]] = {}
    for c in range(t.n_classes):
        sig = tuple(t.characters[i][c] for i in survivors)
        sig_to_block.setdefault(sig, []).append(c)
    blocks = sorted(sig_to_block.values(), key=lambda b: b[0])
    block_of = {}
    for bi, b in enumerate(blocks):
        for c in b:
            block_of[c] = bi
    if blocks[0] != ker:
        raise InvalidKernel("given classes are not the kernel of the survivors")
    if len(blocks) != len(survivors):
        raise InvalidKernel("class fusion does not match the surviving characters")

    classes = []
    for b in blocks:
        size_sum = sum(t.classes[c].size for c in b)
        if size_sum % n_size != 0:
            raise InvalidKernel("fused class size is not divisible by the kernel size")
        p2 = {block_of[t.classes[c].power2] for c in b}
        inv = {block_of[t.classes[c].inverse] for c in b}
        if len(p2) != 1 or len(inv) != 1:
            raise InvalidKernel("power or inverse maps do not descend")
        classes.append(ConjClass(
            name="+".join(t.classes[c].name for c in b),
            size=size_sum // n_size,
            power2=p2.pop(),
            inverse=inv.pop(),
        ))

    characters = [[t.characters[i][b[0]] for b in blocks] for i in survivors]
    qt = CharacterTable(
        name=f"{t.name}/({'+'.join(t.classes[c].name for c in ker)})",
        order=q_order, classes=classes, characters=characters)
    report = verify_table(qt)
    if not report.all_pass:
        raise InvalidKernel("quotient table fails verification:\n" + str(report))
    qt.surviving_rows = tuple(survivors)
    qt.block_representatives = tuple(b[0] for b in blocks)
    return qt


# -- JSON ---------------------------------------------------------------------


def table_to_json(t: CharacterTable) -> dict:
    return {
        "name": t.name,
        "order": t.order,
        "classes": [{"name": c.name, "size": c.size, "power2": c.power2,
                     "inverse": c.inverse} for c in t.classes],
        "characters": [[str(v) for v in row] for row in t.characters],
    }


def table_from_json(data, force: bool = False) -> CharacterTable:
    """Build a table from its JSON form; verification failures raise
    TableValidationError unless force is set.  The report of that one
    verification is kept on the table as `verification`.  Each distinct
    value string is parsed once, and the table is rejected as soon as
    the conductors parsed so far have a common multiple above
    MAX_CONDUCTOR."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except (json.JSONDecodeError, RecursionError) as ex:
            raise TableFormatError(f"not valid JSON: {ex}") from ex
    if not isinstance(data, dict):
        raise TableFormatError("table JSON must be an object")
    parsed: dict[str, Cyclotomic] = {}
    E = 1

    def value(s):
        nonlocal E
        if type(s) is int:
            return Cyclotomic.from_rational(s)
        if type(s) is not str:
            raise TypeError(f"a value must be a string or an integer, not {s!r}")
        if s not in parsed:
            parsed[s] = v = parse_cyclotomic(s)
            E = math.lcm(E, v.conductor)
            if E > MAX_CONDUCTOR:
                raise TableFormatError(
                    f"the table's values need conductor {E}, above {MAX_CONDUCTOR}")
        return parsed[s]

    def name(s):
        if type(s) is not str:
            raise TypeError(f"a name must be a string, not {s!r}")
        return s

    try:
        classes = [ConjClass(name=name(c["name"]), size=c["size"],
                             power2=c["power2"], inverse=c["inverse"])
                   for c in data["classes"]]
        rows = [[value(s) for s in row] for row in data["characters"]]
        t = CharacterTable(name(data["name"]), data["order"], classes, rows)
    except (KeyError, TypeError, ValueError, CyclotomicSyntaxError) as ex:
        if isinstance(ex, TableFormatError):
            raise
        raise TableFormatError(f"malformed table JSON: {ex}") from ex
    report = verify_table(t)
    if not report.all_pass and not force:
        raise TableValidationError(report)
    t.verification = report
    return t


def render_table_text(t: CharacterTable) -> str:
    """Plain text grid of a table."""
    headers = ["", "size"] + list(t.class_names)
    rows = []
    for i, name in enumerate(t.row_names()):
        rows.append([name, ""] + [str(v) for v in t.characters[i]])
    size_row = ["", ""] + [str(c.size) for c in t.classes]
    grid = [headers, size_row] + rows
    widths = [max(len(r[c]) for r in grid) for c in range(len(headers))]
    out = [f"{t.name} (order {t.order})"]
    for r in grid:
        out.append("  ".join(s.rjust(w) for s, w in zip(r, widths)).rstrip())
    return "\n".join(out)
