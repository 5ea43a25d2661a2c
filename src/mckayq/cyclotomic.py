"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is stored in the power basis 1, z, ..., z^(phi(n)-1) of its
minimal conductor n, with Fraction coefficients, reduced mod the n-th
cyclotomic polynomial.  Every operation re-minimizes the conductor, so
equality, hashing and printing are canonical.  No floating point.

Text form follows the E(n) grammar: E(12)^7-E(12)^5, 1/2*E(4)+3, etc.
Parsed conductors are bounded by MAX_CONDUCTOR.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

Rational = Fraction

# Largest conductor the parser accepts, for E(n) and for the value as a
# whole.  Arithmetic in Q(zeta_n) keeps n x phi(n) reduction rows: at the
# largest prime below this bound, E(1021), they add about 6.5 MB and 20 ms;
# E(2048) adds 15 MB, and E(100003) would need about 10^10 entries.
MAX_CONDUCTOR = 1024


class NotRational(ValueError):
    """Raised when a cyclotomic that is not in Q is converted to Rational."""


class CyclotomicSyntaxError(ValueError):
    """Parse failure; .position is the 0-based offset in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    for p in prime_factors(n):
        result = result // p * (p - 1)
    return result


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant term first, monic."""
    if n == 1:
        return (-1, 1)
    # divide x^n - 1 by Phi_d for every proper divisor d
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        q = cyclotomic_polynomial(d)
        poly = _exact_div_int(poly, list(q))
    return tuple(poly)


def _exact_div_int(num: list[int], den: list[int]) -> list[int]:
    # long division of integer polynomials, exact by construction
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    out = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num[dd + k]
        if c % den[dd] != 0:
            raise ArithmeticError("non-exact polynomial division")
        c //= den[dd]
        out[k] = c
        if c:
            for i, b in enumerate(den):
                num[k + i] -= c * b
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


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
def _subfield_basis(n: int, m: int):
    """Solver data expressing elements of Q(zeta_n) in the zeta_m basis, m | n.

    Returns (pivot_rows, inverse) where inverse is the Fraction inverse of
    the square submatrix of the embedding matrix on pivot_rows.
    """
    phi_n, phi_m = euler_phi(n), euler_phi(m)
    red = _reduction_rows(n)
    step = n // m
    cols = [red[(j * step) % n] for j in range(phi_m)]
    # matrix rows: coordinate index in Q(zeta_n); columns: zeta_m powers
    orig = [[Fraction(cols[j][i]) for j in range(phi_m)] for i in range(phi_n)]
    work = [row[:] for row in orig]
    rowidx = list(range(phi_n))
    pivots: list[int] = []
    col = 0
    for r in range(phi_n):
        if col >= phi_m:
            break
        if work[r][col] == 0:
            for r2 in range(r + 1, phi_n):
                if work[r2][col] != 0:
                    work[r], work[r2] = work[r2], work[r]
                    rowidx[r], rowidx[r2] = rowidx[r2], rowidx[r]
                    break
            else:
                continue
        pivots.append(rowidx[r])
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for r2 in range(phi_n):
            if r2 != r and work[r2][col] != 0:
                f = work[r2][col]
                work[r2] = [a - f * b for a, b in zip(work[r2], work[r])]
        col += 1
    if len(pivots) != phi_m:
        raise ArithmeticError("subfield basis is degenerate")
    # invert the square submatrix on the pivot rows (original indices)
    sub = [orig[i][:] for i in pivots]
    inv = _invert_fraction_matrix(sub)
    return tuple(pivots), inv


def _invert_fraction_matrix(m: list[list[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    k = len(m)
    aug = [m[i][:] + [Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for c in range(k):
        piv = next(r for r in range(c, k) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        f = 1 / aug[c][c]
        aug[c] = [x * f for x in aug[c]]
        for r in range(k):
            if r != c and aug[r][c] != 0:
                g = aug[r][c]
                aug[r] = [a - g * b for a, b in zip(aug[r], aug[c])]
    return tuple(tuple(row[k:]) for row in aug)


def _apply_galois(n: int, coeffs, a: int) -> list[Fraction]:
    red = _reduction_rows(n)
    phi = euler_phi(n)
    out = [Fraction(0)] * phi
    for k, c in enumerate(coeffs):
        if c:
            row = red[(a * k) % n]
            for i in range(phi):
                if row[i]:
                    out[i] += c * row[i]
    return out


def _minimize(n: int, coeffs: list[Fraction]) -> tuple[int, tuple[Fraction, ...]]:
    while n > 1:
        if not any(coeffs[1:]):
            return 1, (coeffs[0],)
        for p in prime_factors(n):
            m = n // p
            subgroup = [a for a in range(2, n) if a % m == 1 % m and math.gcd(a, n) == 1]
            if all(_apply_galois(n, coeffs, a) == coeffs for a in subgroup):
                pivots, inv = _subfield_basis(n, m)
                y = [sum(inv[i][j] * coeffs[pivots[j]] for j in range(len(pivots)))
                     for i in range(len(pivots))]
                # confirm the projection reproduces the element exactly
                red = _reduction_rows(n)
                step = n // m
                check = [Fraction(0)] * euler_phi(n)
                for j, cj in enumerate(y):
                    if cj:
                        row = red[(j * step) % n]
                        for i in range(len(check)):
                            if row[i]:
                                check[i] += cj * row[i]
                if check != coeffs:
                    raise ArithmeticError("conductor descent produced a mismatch")
                n, coeffs = m, y
                break
        else:
            break
    if n == 1:
        return 1, (coeffs[0],)
    return n, tuple(coeffs)


def _poly_xgcd(f: list[Fraction], g: list[Fraction]):
    """Extended gcd over Q[x]: returns (gcd, u, v) with u*f + v*g = gcd."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    r0, r1 = trim(list(f)), trim(list(g))
    u0, u1 = [Fraction(1)], []
    v0, v1 = [], [Fraction(1)]

    def sub_scaled(a, b, c, shift):
        # a -= c * x^shift * b
        if len(a) < len(b) + shift:
            a += [Fraction(0)] * (len(b) + shift - len(a))
        for i, bi in enumerate(b):
            if bi:
                a[i + shift] -= c * bi
        return trim(a)

    while r1:
        q_acc: list[tuple[Fraction, int]] = []
        while len(r0) >= len(r1) and r0:
            c = r0[-1] / r1[-1]
            shift = len(r0) - len(r1)
            q_acc.append((c, shift))
            r0 = sub_scaled(r0, r1, c, shift)
        for c, shift in q_acc:
            u0 = sub_scaled(u0, u1, c, shift)
            v0 = sub_scaled(v0, v1, c, shift)
        r0, r1 = r1, r0
        u0, u1 = u1, u0
        v0, v1 = v1, v0
    return r0, u0, v0


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

    def _embed(self, big: int) -> list[Fraction]:
        """Coordinates of self in the power basis of Q(zeta_big)."""
        phi = euler_phi(big)
        if big == self.conductor:
            return list(self.coeffs)
        red = _reduction_rows(big)
        step = big // self.conductor
        out = [Fraction(0)] * phi
        for k, c in enumerate(self.coeffs):
            if c:
                row = red[(k * step) % big]
                for i in range(phi):
                    if row[i]:
                        out[i] += c * row[i]
        return out

    def __add__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = _lcm(self.conductor, other.conductor)
        a, b = self._embed(n), other._embed(n)
        return Cyclotomic(n, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

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
        n = _lcm(self.conductor, other.conductor)
        a, b = self._embed(n), other._embed(n)
        phi = euler_phi(n)
        red = _reduction_rows(n)
        out = [Fraction(0)] * phi
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                e = i + j
                if e < phi:
                    out[e] += ai * bj
                else:
                    row = red[e % n]
                    c = ai * bj
                    for t in range(phi):
                        if row[t]:
                            out[t] += c * row[t]
        return Cyclotomic(n, out)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero:
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.conductor == 1:
            return Cyclotomic(1, (1 / self.coeffs[0],))
        n = self.conductor
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(n)]
        g, u, _ = _poly_xgcd(list(self.coeffs), phi_poly)
        if len(g) != 1:
            raise ArithmeticError("element not invertible mod Phi_n")
        scale = 1 / g[0]
        phi = euler_phi(n)
        coeffs = [c * scale for c in u] + [Fraction(0)] * max(0, phi - len(u))
        # u may exceed the basis length; reduce mod Phi_n
        red = _reduction_rows(n)
        out = [Fraction(0)] * phi
        for e, c in enumerate(coeffs):
            if c:
                if e < phi:
                    out[e] += c
                else:
                    row = red[e % n]
                    for t in range(phi):
                        if row[t]:
                            out[t] += c * row[t]
        return Cyclotomic(n, out)

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
        return Cyclotomic(n, _apply_galois(n, self.coeffs, a))

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
        if self.conductor == 1:
            return str(self.coeffs[0])
        parts = []
        n = self.conductor
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                base = f"E({n})" if k == 1 else f"E({n})^{k}"
                body = base if mag == 1 else f"{mag}*{base}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("-" if c < 0 else "+") + body)
        return "".join(parts) if parts else "0"

    def __repr__(self):
        return f"Cyclotomic({self})"


@lru_cache(maxsize=None)
def _zeta_cached(n: int, e: int) -> Cyclotomic:
    phi = euler_phi(n)
    if e < phi:
        coeffs = [Fraction(0)] * phi
        coeffs[e] = Fraction(1)
    else:
        coeffs = [Fraction(c) for c in _reduction_rows(n)[e]]
    return Cyclotomic(n, coeffs)


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


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
            value = value ** self.integer()
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
        self.lcm = _lcm(self.lcm, n)
        if self.lcm > MAX_CONDUCTOR:
            self.error(f"conductor {self.lcm} is above {MAX_CONDUCTOR}", npos)
        self.take(")")
        return n


def parse_cyclotomic(text: str) -> Cyclotomic:
    """Parse the E(n) grammar; raises CyclotomicSyntaxError with a position.

    E(n)^k evaluates directly to the root of unity zeta_n^k.  An n, or a
    conductor of the whole value, above MAX_CONDUCTOR is rejected at the
    position of that n, before any arithmetic in Q(zeta_n) is set up."""
    p = _Parser(text)
    value = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return value
