"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is stored in the power basis 1, z, ..., z^(phi(n)-1) of its
minimal conductor n, with Fraction coefficients, reduced mod the n-th
cyclotomic polynomial.  Every operation re-minimizes the conductor, so
equality, hashing and printing are canonical.  `_minimize` does this
with the trace to each subfield Q(zeta_(n/p)), a closed-form map on
exponents, and no linear algebra.  No floating point.

All arithmetic runs through one kernel, `_Field(n)`, which holds
Q(zeta_n) in exponent form: a dict {e: c}, 0 <= e < n, stands for
sum c * zeta_n^e.  Products add exponents mod n, the Galois map
zeta -> zeta^a multiplies them by a, and `_Field.reduce_dict` is the one
place where exponents are reduced mod Phi_n into power-basis
coordinates.  `Cyclotomic` objects and the character-table engine
(`chartab._TableEngine`, the field of a table's conductor) share it.

Text form follows the E(n) grammar: E(12)^7-E(12)^5, 1/2*E(4)+3, etc.
Parsed conductors are bounded by MAX_CONDUCTOR and parsed powers of
values other than E(n) by MAX_POWER and MAX_POWER_BITS.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .polynomials import _terms_text, cyclotomic_polynomial, prime_factors

# Largest conductor the parser accepts, for E(n) and for the value as a
# whole.  Arithmetic in Q(zeta_n) keeps n x phi(n) reduction rows: at the
# largest prime below this bound, E(1021), they add about 6.5 MB and 20 ms;
# E(2048) adds 15 MB, and E(100003) would need about 10^10 entries.
MAX_CONDUCTOR = 1024

# Largest |k| the parser takes in x^k for a value x other than E(n) (which
# is a root of unity, so any k is fine).  Repeated squaring makes the size
# of x^k grow linearly in k: (2)^100000000 is 13 bytes of input and a
# 100-million-bit integer.  MAX_POWER_BITS bounds |k| times the bit length
# of x's largest numerator or denominator, so that a power of a power,
# ((2)^1024)^1024, is rejected before it builds a million-bit integer.
MAX_POWER = 1024
MAX_POWER_BITS = 1 << 16


class NotRational(ValueError):
    """Raised when a cyclotomic that is not in Q is converted to Rational."""


class CyclotomicSyntaxError(ValueError):
    """Parse failure; .position is the 0-based offset in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    for p in prime_factors(n):
        result = result // p * (p - 1)
    return result


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row e is the power-basis coordinate vector of zeta_n^e, 0 <= e < n."""
    phi = euler_phi(n)
    mod = cyclotomic_polynomial(n)
    rows = [(1,) + (0,) * (phi - 1)]
    cur = list(rows[0])
    for _ in range(1, n):
        top = cur[phi - 1]
        cur = [0] + cur[:-1]
        if top:
            for k in range(phi):
                cur[k] -= top * mod[k]
        rows.append(tuple(cur))
    return tuple(rows)


@lru_cache(maxsize=None)
def _sparse_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row e >= phi(n) is the nonzero (index, value) pairs of
    _reduction_rows(n)[e]; the rows below, basis vectors, are left empty."""
    phi = euler_phi(n)
    return ((),) * phi + tuple(tuple((t, x) for t, x in enumerate(row) if x)
                               for row in _reduction_rows(n)[phi:])


class _Field:
    """Q(zeta_n) in exponent form: the arithmetic kernel of the library.

    A dict {e: c} with 0 <= e < n stands for sum c * zeta_n^e.  `mul`,
    `galois`, `combo` and `dot` work on exponents and never reduce;
    `reduce_dict` turns a dict, or a dense list indexed by exponent, into
    power-basis coordinates mod Phi_n, through the nonzero entries of each
    reduction row (`sparse`); the dense rows (`red`) are what its one-term
    fast path returns.  Coefficients may be int or Fraction.
    """

    def __init__(self, n: int):
        self.exponent = n
        self.phi = euler_phi(n)
        self.red = _reduction_rows(n)
        self.sparse = _sparse_rows(n)

    def mul(self, d1: dict, d2: dict) -> dict:
        n = self.exponent
        out: dict = {}
        for e1, c1 in d1.items():
            for e2, c2 in d2.items():
                e = e1 + e2
                if e >= n:
                    e -= n
                out[e] = out.get(e, 0) + c1 * c2
        return out

    def galois(self, d: dict, a: int) -> dict:
        """The automorphism zeta_n -> zeta_n^a; a = -1 is conjugation."""
        n = self.exponent
        return {a * e % n: c for e, c in d.items()}

    def combo(self, weights, dicts) -> dict:
        """Linear combination sum(w * d for w, d in zip(weights, dicts))."""
        out: dict = {}
        for w, d in zip(weights, dicts):
            if w:
                for e, c in d.items():
                    out[e] = out.get(e, 0) + w * c
        return {e: c for e, c in out.items() if c}

    def dot(self, weights, dicts1, dicts2) -> tuple:
        """Coordinates of sum_k w_k * a_k * b_k over paired exponent dicts."""
        n = self.exponent
        acc = [0] * n
        for w, d1, d2 in zip(weights, dicts1, dicts2):
            for e1, c1 in d1.items():
                wc1 = w * c1
                for e2, c2 in d2.items():
                    e = e1 + e2
                    if e >= n:
                        e -= n
                    acc[e] += wc1 * c2
        return self.reduce_dict(acc)

    def reduce_dict(self, d) -> tuple:
        """Power-basis coordinates of an exponent dict or a dense list."""
        red = self.red
        if isinstance(d, dict):
            if len(d) == 1:
                # monomial fast path; returning the cached row by reference
                # lets callers compare repeated reductions with `is` first
                (e, c), = d.items()
                if c == 1:
                    return red[e]
                return tuple(c * x for x in red[e])
            d = d.items()
        else:
            d = enumerate(d)
        phi, sparse = self.phi, self.sparse
        out = [0] * phi
        for e, c in d:
            if not c:
                continue
            if e < phi:
                # zeta^e is itself a basis vector
                out[e] += c
                continue
            for t, x in sparse[e]:
                out[t] += c * x
        return tuple(out)


def _project(n: int, p: int, coeffs) -> dict:
    """Exponent form in Q(zeta_m), m = n/p for a prime p | n, of the trace
    of sum coeffs[k] zeta_n^k to Q(zeta_m) divided by the degree.

    When p^2 | n, zeta_n^e goes to zeta_m^(e/p) if p | e and to 0
    otherwise; when p does not divide m, to zeta_m^(e/p mod m), times 1 if
    p | e and -1/(p-1) otherwise (Breuer 1997, AAECC 8).  The map fixes
    Q(zeta_m) and no other element.
    """
    m = n // p
    if m % p == 0:
        return {k // p: c for k, c in enumerate(coeffs) if c and k % p == 0}
    inv, w = pow(p, -1, m), Fraction(-1, p - 1)
    proj: dict = {}
    for k, c in enumerate(coeffs):
        if c:
            j = k * inv % m
            proj[j] = proj.get(j, 0) + (c if k % p == 0 else w * c)
    return proj


def _minimize(n: int, coeffs) -> tuple[int, tuple[Fraction, ...]]:
    """Minimal conductor and Fraction coordinates of sum coeffs[k] zeta_n^k.

    The value descends from n to m = n/p exactly when its projection to
    Q(zeta_m), embedded back by zeta_m -> zeta_n^p, reproduces it.
    """
    coeffs = tuple(coeffs)
    while any(coeffs[1:]):
        F = _Field(n)
        for p in prime_factors(n):
            proj = _project(n, p, coeffs)
            if F.reduce_dict({j * p: c for j, c in proj.items()}) == coeffs:
                n //= p
                coeffs = tuple(c if type(c) is Fraction else Fraction(c)
                               for c in _Field(n).reduce_dict(proj))
                break
        else:
            return n, coeffs
    return 1, coeffs[:1]


def _q_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        f = a[k + len(b) - 1] * inv
        q[k] = f
        if f:
            for i, bc in enumerate(b):
                a[k + i] -= f * bc
    while a and not a[-1]:
        a.pop()
    return q, a


def _poly_xgcd(f: list[Fraction], g: list[Fraction]):
    """Half of the extended gcd over Q[x]: (gcd, u) with u*f = gcd mod g.
    Each remainder is made monic, and its cofactor scaled with it, before
    it divides: unnormalised remainders over Q grow coefficients whose
    size explodes with the degree."""
    r0, r1 = list(f), list(g)
    while r0 and not r0[-1]:
        r0.pop()
    u0, u1 = [Fraction(1)], []
    while r1:
        q, r = _q_divmod(r0, r1)
        # u0 - q*u1
        u = u0 + [Fraction(0)] * max(0, len(q) + len(u1) - 1 - len(u0))
        for i, qi in enumerate(q):
            for j, uj in enumerate(u1):
                u[i + j] -= qi * uj
        if r:
            inv = 1 / r[-1]
            r, u = [c * inv for c in r], [c * inv for c in u]
        r0, r1 = r1, r
        u0, u1 = u1, u
    return r0, u0


class Cyclotomic:
    """An element of some Q(zeta_n), canonically represented."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        # normalizing constructor; coeffs is any sequence of Fractions of
        # length phi(conductor), already reduced mod Phi_conductor
        n, cs = _minimize(conductor, [Fraction(c) for c in coeffs])
        object.__setattr__(self, "conductor", n)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(q) -> "Cyclotomic":
        return Cyclotomic(1, (Fraction(q),))

    @staticmethod
    def zero() -> "Cyclotomic":
        return _ZERO

    @staticmethod
    def one() -> "Cyclotomic":
        return _ONE

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclotomic":
        if n < 1:
            raise ValueError("conductor must be >= 1")
        return _zeta_cached(n, k % n)

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.conductor == 1 and self.coeffs[0] == 0

    @property
    def is_rational(self) -> bool:
        return self.conductor == 1

    def to_rational(self) -> Fraction:
        if self.conductor != 1:
            raise NotRational(f"{self} is not rational")
        return self.coeffs[0]

    def to_int(self) -> int:
        q = self.to_rational()
        if q.denominator != 1:
            raise NotRational(f"{self} is not an integer")
        return q.numerator

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.from_rational(x)
        return NotImplemented

    def terms(self, n: int) -> dict:
        """Exponent form of self in Q(zeta_n), for a multiple n of the
        conductor, with int coefficients where they are integral."""
        step = n // self.conductor
        return {k * step: c.numerator if c.denominator == 1 else c
                for k, c in enumerate(self.coeffs) if c}

    def _plus(self, other, w: int):
        """self + w * other: one combo and one descent, for w = 1 or -1."""
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = math.lcm(self.conductor, other.conductor)
        F = _Field(n)
        return Cyclotomic(n, F.reduce_dict(F.combo((1, w), (self.terms(n), other.terms(n)))))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.conductor == 1:
            q = other.coeffs[0]
            return Cyclotomic(self.conductor, [c * q for c in self.coeffs])
        if self.conductor == 1:
            q = self.coeffs[0]
            return Cyclotomic(other.conductor, [c * q for c in other.coeffs])
        n = math.lcm(self.conductor, other.conductor)
        F = _Field(n)
        return Cyclotomic(n, F.reduce_dict(F.mul(self.terms(n), other.terms(n))))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero:
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.conductor == 1:
            return Cyclotomic(1, (1 / self.coeffs[0],))
        n = self.conductor
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(n)]
        g, u = _poly_xgcd(list(self.coeffs), phi_poly)
        if len(g) != 1:
            raise ArithmeticError("element not invertible mod Phi_n")
        scale = 1 / g[0]
        # u has degree below phi(n); reduce_dict pads it to the basis
        return Cyclotomic(n, _Field(n).reduce_dict([c * scale for c in u]))

    def __truediv__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugate: zeta -> zeta^(-1)."""
        return self.galois(-1)

    def galois(self, a: int) -> "Cyclotomic":
        """The Galois automorphism zeta_n -> zeta_n^a, gcd(a, n) = 1."""
        n = self.conductor
        a %= n
        if n == 1:
            return self
        if math.gcd(a, n) != 1:
            raise ValueError(f"{a} is not coprime to the conductor {n}")
        F = _Field(n)
        return Cyclotomic(n, F.reduce_dict(F.galois(self.terms(n), a)))

    # -- canonical text form ----------------------------------------------

    def __eq__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.conductor, self.coeffs))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        return _terms_text(self.coeffs, f"E({self.conductor})")

    def __repr__(self):
        return f"Cyclotomic({self})"


@lru_cache(maxsize=None)
def _zeta_cached(n: int, e: int) -> Cyclotomic:
    # zeta_n^e is zeta_d^f, d = n/gcd(n, e), and for d = 2h with h odd that
    # is -zeta_h^(f(h+1)/2); d is then the conductor, so nothing descends
    g = math.gcd(n, e)
    d, f, sign = n // g, e // g, 1
    if d % 4 == 2:
        d //= 2
        f, sign = f * (d + 1) // 2 % d, -1
    z = object.__new__(Cyclotomic)
    object.__setattr__(z, "conductor", d)
    object.__setattr__(z, "coeffs", tuple(map(Fraction, _Field(d).reduce_dict({f: sign}))))
    return z


_ZERO = Cyclotomic(1, (Fraction(0),))
_ONE = Cyclotomic(1, (Fraction(1),))


def E(n: int, k: int = 1) -> Cyclotomic:
    """The root of unity zeta_n^k (GAP-style shorthand)."""
    return Cyclotomic.zeta(n, k)


# -- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.lcm = 1  # of every E(n) read so far

    def error(self, message: str, pos: int | None = None):
        raise CyclotomicSyntaxError(message, self.pos if pos is None else pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if not (self.pos < len(self.text) and self.text[self.pos].isdigit()):
            self.error("expected an integer", start)
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])

    def expr(self) -> Cyclotomic:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Cyclotomic:
        value = self.factor()
        while self.peek() == "*":
            self.pos += 1
            value = value * self.factor()
        return value

    def factor(self) -> Cyclotomic:
        if self.peek() == "-":
            self.pos += 1
            return -self.factor()
        if self.peek() == "E":
            # E(n)^k is the root of unity zeta_n^k itself, for any integer k
            n = self.conductor()
            k = 1
            if self.peek() == "^":
                self.pos += 1
                k = self.integer()
            return Cyclotomic.zeta(n, k)
        value = self.primary()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            kpos = self.pos
            k = self.integer()
            if abs(k) > MAX_POWER:
                self.error(f"exponent {k} is above {MAX_POWER} in absolute value", kpos)
            bits = max(max(abs(c.numerator), c.denominator).bit_length() for c in value.coeffs)
            if abs(k) * bits > MAX_POWER_BITS:
                self.error(f"x^{k} of a {bits}-bit x is above {MAX_POWER_BITS} bits", kpos)
            if k < 0 and value.is_zero:
                self.error("zero to a negative power", kpos)
            value = value ** k
        return value

    def primary(self) -> Cyclotomic:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            self.take(")")
            return value
        if ch.isdigit():
            num = self.integer()
            if self.peek() == "/":
                self.pos += 1
                dpos = self.pos
                den = self.integer()
                if den == 0:
                    self.error("zero denominator", dpos)
                return Cyclotomic.from_rational(Fraction(num, den))
            return Cyclotomic.from_rational(num)
        self.error("expected a number, E(n) or '('")

    def conductor(self) -> int:
        """Read E(n) and return n, bounded before anything is built for it."""
        self.pos += 1
        self.take("(")
        npos = self.pos
        n = self.integer()
        if n < 1:
            self.error("E(n) needs n >= 1", npos)
        self.lcm = math.lcm(self.lcm, n)
        if self.lcm > MAX_CONDUCTOR:
            self.error(f"conductor {self.lcm} is above {MAX_CONDUCTOR}", npos)
        self.take(")")
        return n


def parse_cyclotomic(text: str) -> Cyclotomic:
    """Parse the E(n) grammar; raises CyclotomicSyntaxError with a position.

    E(n)^k evaluates directly to the root of unity zeta_n^k, for any k;
    any other x^k with |k| above MAX_POWER, or |k| times the bit length
    of x's largest numerator or denominator above MAX_POWER_BITS, is
    rejected at the position of k.  An n, or a conductor of the whole
    value, above MAX_CONDUCTOR is rejected at the position of that n,
    before any arithmetic in Q(zeta_n) is set up."""
    p = _Parser(text)
    value = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return value
