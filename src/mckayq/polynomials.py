"""Exact integer polynomial arithmetic and factorization over Q.

Coefficients are stored constant-first.  Factorization runs in three
stages: a squarefree split (Yun); exact division of each squarefree part
by every cyclotomic polynomial Phi_d of small enough degree (Phi_d is
irreducible, so each quotient found is a final factor); and classical
Zassenhaus on what is left: distinct-degree and equal-degree
factorization modulo a good odd prime, Hensel lifting to a Mignotte
coefficient bound, then subset recombination.  The char polys of McKay
quivers are mostly products of Phi_d, so most of them never reach
Zassenhaus.  Everything is deterministic: the equal-degree stage draws
its randomness from a seed folded out of the polynomial and the prime.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from functools import lru_cache

MAX_FACTOR_DEGREE = 64


class PolynomialSyntaxError(ValueError):
    """Unparseable polynomial text."""


class BadPrime(ValueError):
    """The prime divides the leading coefficient or the reduction is not
    squarefree, so it says nothing about the factor pattern."""


def _zmul(a, b):
    """Schoolbook product of two coefficient lists over Z."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _terms_text(coeffs, atom: str) -> str:
    """sum coeffs[k] * atom^k, highest power first and with no unit
    coefficient: the text of IntPolynomial (x) and Cyclotomic (E(n))."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        m = -c if c < 0 else c  # abs() would build a new Fraction for every c
        if k == 0:
            body = str(m)
        else:
            base = atom if k == 1 else f"{atom}^{k}"
            body = base if m == 1 else f"{m}*{base}"
        parts.append(sign + body)
    return "".join(parts) if parts else "0"


class IntPolynomial:
    """Dense univariate polynomial over Z, coefficients constant-first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("IntPolynomial is immutable")

    # -- construction ---------------------------------------------------

    @staticmethod
    def zero() -> "IntPolynomial":
        return IntPolynomial(())

    @staticmethod
    def one() -> "IntPolynomial":
        return IntPolynomial((1,))

    @staticmethod
    def x() -> "IntPolynomial":
        return IntPolynomial((0, 1))

    # -- basics ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return self.lc == 1

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        return IntPolynomial(_zmul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntPolynomial":
        if e < 0:
            raise ValueError("negative power")
        out = IntPolynomial.one()
        for _ in range(e):
            out = out * self
        return out

    def evaluate(self, v):
        out = 0
        for c in reversed(self.coeffs):
            out = out * v + c
        return out

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPolynomial":
        """Content removed and leading coefficient made positive."""
        if self.is_zero:
            return self
        c = self.content()
        if self.lc < 0:
            c = -c
        return IntPolynomial([k // c for k in self.coeffs])

    def try_divide(self, g: "IntPolynomial") -> "IntPolynomial | None":
        """Exact quotient self/g over Z, or None."""
        if g.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return IntPolynomial(())
        if g.degree > self.degree:
            return None
        rem = list(self.coeffs)
        q = [0] * (self.degree - g.degree + 1)
        glc = g.lc
        for k in range(len(q) - 1, -1, -1):
            c = rem[k + g.degree]
            if c % glc != 0:
                return None
            q[k] = c // glc
            if q[k]:
                for i, gc in enumerate(g.coeffs):
                    rem[k + i] -= q[k] * gc
        if any(rem):
            return None
        return IntPolynomial(q)

    # -- text form ---------------------------------------------------------

    def __str__(self):
        return _terms_text(self.coeffs, "x")

    __repr__ = __str__


_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)\s*(?:"
    r"(?P<coeff>\d+)\s*(?:\*\s*(?P<xc>x)(?:\s*\^\s*(?P<ec>\d+))?)?"
    r"|(?P<x>x)(?:\s*\^\s*(?P<e>\d+))?"
    r")\s*")


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse forms like "x^5+2*x^4-44*x^3-40*x^2+400*x+128"."""
    s = text.strip()
    if not s:
        raise PolynomialSyntaxError("empty polynomial text")
    pos = 0
    terms: dict[int, int] = {}
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise PolynomialSyntaxError(f"bad polynomial syntax at position {pos + 1}")
        sign = m.group("sign")
        if not first and not sign:
            raise PolynomialSyntaxError(f"missing sign at position {pos + 1}")
        sg = -1 if sign == "-" else 1
        if m.group("coeff") is not None:
            c = int(m.group("coeff"))
            if m.group("xc"):
                e = int(m.group("ec")) if m.group("ec") else 1
            else:
                e = 0
        else:
            c = 1
            e = int(m.group("e")) if m.group("e") else (1 if m.group("x") else 0)
        terms[e] = terms.get(e, 0) + sg * c
        pos = m.end()
        first = False
    out = [0] * (max(terms) + 1)
    for e, c in terms.items():
        out[e] = c
    return IntPolynomial(out)


# -- gcd and squarefree machinery -------------------------------------------


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """The primitive part of the pseudo-remainder of a by b, over Z:
    a is scaled by lc(b) before each cancellation of its top term."""
    r = list(a)
    lb, db = b[-1], len(b) - 1
    while len(r) > db:
        c, shift = r[-1], len(r) - 1 - db
        if lb != 1:
            r = [x * lb for x in r]
        for i, bc in enumerate(b):
            r[i + shift] -= c * bc
        while r and r[-1] == 0:
            r.pop()
    g = math.gcd(*r)
    return [x // g for x in r] if r else r


def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Z with positive leading coefficient, by a
    primitive pseudo-remainder sequence (integers only)."""
    a, b = list(f.primitive().coeffs), list(g.primitive().coeffs)
    while b:
        a, b = b, _pseudo_rem(a, b)
    return IntPolynomial(a).primitive()


def squarefree_part(f: IntPolynomial) -> IntPolynomial:
    """Product of the distinct irreducible factors, primitive, lc > 0."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no squarefree part")
    f = f.primitive()
    if f.degree < 1:
        return IntPolynomial.one()
    g = poly_gcd(f, f.derivative())
    q = f.try_divide(g)
    assert q is not None  # Gauss: the quotient of primitives is integral
    return q.primitive()


def squarefree_decomposition(f: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Yun's algorithm on the primitive part: [(g_i, i)] with f ~ prod g_i^i."""
    f = f.primitive()
    out = []
    if f.degree < 1:
        return out
    g = poly_gcd(f, f.derivative())
    if g.degree == 0:
        return [(f, 1)]
    a = f.try_divide(g)
    b = f.derivative().try_divide(g)
    i = 1
    while True:
        c = b - a.derivative()
        d = poly_gcd(a, c)
        if d.degree > 0:
            out.append((d.primitive(), i))
        a2 = a.try_divide(d)
        b2 = c.try_divide(d)
        assert a2 is not None and b2 is not None
        a, b = a2, b2
        i += 1
        if a.degree == 0:
            return out


# -- primes ---------------------------------------------------------------


def primes_below(n: int) -> list[int]:
    if n <= 2:
        return []
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [i for i, b in enumerate(sieve) if b]


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# this bound (Sorenson & Webster 2015, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality for n below MR_BOUND (about 3.3e24);
    raises ValueError above it rather than guess."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n >= MR_BOUND:
        raise ValueError(f"{n} is above the deterministic primality bound")
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _crt_prime(i: int, n: int = 2) -> int:
    """The (i+1)-th largest prime p = 1 mod n below 2^61; callers ask for
    i = 0, 1, ... in turn, so the cache holds as many primes per n as the
    largest bound met."""
    p = _crt_prime(i - 1, n) if i else ((1 << 61) - 2) // n * n + 1 + n
    p -= n
    while not is_prime(p):
        p -= n
    return p


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


# -- cyclotomic polynomials -------------------------------------------------


def _at_power(coeffs, k: int) -> IntPolynomial:
    """f(x^k) from the coefficients of f."""
    out = [0] * ((len(coeffs) - 1) * k + 1)
    out[::k] = coeffs
    return IntPolynomial(out)


@lru_cache(maxsize=256)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant term first, monic."""
    if n < 1:
        raise ValueError("Phi_n needs n >= 1")
    f = IntPolynomial((-1, 1))
    rad = 1
    for p in prime_factors(n):
        # Phi_{mp}(x) = Phi_m(x^p) / Phi_m(x) for a prime p not dividing m
        f = _at_power(f.coeffs, p).try_divide(f)
        rad *= p
    # Phi_n(x) = Phi_rad(n)(x^(n / rad(n)))
    return _at_power(f.coeffs, n // rad).coeffs


@lru_cache(maxsize=1)
def _cyclotomic_candidates() -> tuple[tuple[int, int, int], ...]:
    """(phi(d), d, Phi_d(2)) for every d with phi(d) <= MAX_FACTOR_DEGREE,
    sorted; built on first use.

    phi is multiplicative with phi(p^a) = (p-1)*p^(a-1), so the d are the
    products of prime powers with p <= n+1 whose phis multiply to at most n.
    Phi_d(2) is the product over the subsets S of the distinct primes of d
    of (2^(d/prod S) - 1)^((-1)^|S|), so no Phi_d is built here."""
    n = MAX_FACTOR_DEGREE
    found = [(1, 1, ())]
    for p in primes_below(n + 2):
        for d, phi, ps in list(found):
            q, f = p, phi * (p - 1)
            while f <= n:
                found.append((d * q, f, ps + (p,)))
                q *= p
                f *= p
    out = []
    for d, phi, ps in found:
        num = den = 1
        for mask in range(1 << len(ps)):
            e = d
            for i, p in enumerate(ps):
                if mask >> i & 1:
                    e //= p
            if bin(mask).count("1") % 2:
                den *= (1 << e) - 1
            else:
                num *= (1 << e) - 1
        out.append((phi, d, num // den))
    return tuple(sorted(out))


def cyclotomic_index(f: IntPolynomial) -> int | None:
    """The d with f = Phi_d, or None (always None above degree
    MAX_FACTOR_DEGREE)."""
    if f.degree < 1 or not f.is_monic:
        return None
    at2 = f.evaluate(2)
    for phi, d, value in _cyclotomic_candidates():
        if phi > f.degree:
            break
        if phi == f.degree and value == at2 and cyclotomic_polynomial(d) == f.coeffs:
            return d
    return None


def _split_cyclotomic(g: IntPolynomial):
    """([Phi_d dividing g], g divided by them) for a squarefree g.

    Phi_d | g forces Phi_d(2) | g(2), an integer test that discards most
    candidates before the exact division."""
    found = []
    at2 = g.evaluate(2)
    for phi, d, value in _cyclotomic_candidates():
        if phi > g.degree:
            break
        if at2 % value:
            continue
        phi_d = IntPolynomial(cyclotomic_polynomial(d))
        q = g.try_divide(phi_d)
        if q is not None:
            found.append(phi_d)
            g = q
            at2 //= value
    return found, g


def _odd_primes():
    yield 3
    n = 5
    while True:
        if is_prime(n):
            yield n
        n += 2


# -- arithmetic in Fp[x]: lists of ints, constant-first -------------------


def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_from(f: IntPolynomial, p: int) -> list[int]:
    return _fp_trim([c % p for c in f.coeffs])


def _fp_sub(a, b, p):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _fp_trim(out)


def _fp_mul(a, b, p):
    return _fp_trim([c % p for c in _zmul(a, b)])


def _fp_scale(a, k, p):
    return _fp_trim([(c * k) % p for c in a])


def _fp_monic(a, p):
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return _fp_scale(a, inv, p)


def _fp_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    for k in range(len(a) - len(b), -1, -1):
        f = (a[k + len(b) - 1] * inv) % p
        q[k] = f
        if f:
            for i, bc in enumerate(b):
                a[k + i] = (a[k + i] - f * bc) % p
    return _fp_trim(q), _fp_trim(a)


def _fp_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        _, r = _fp_divmod(a, b, p)
        a, b = b, r
    return _fp_monic(a, p)


def _fp_xgcd(a, b, p):
    """(g, s, t) monic with s*a + t*b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _fp_sub(s0, _fp_mul(q, s1, p), p)
        t0, t1 = t1, _fp_sub(t0, _fp_mul(q, t1, p), p)
    if not r0:
        return [], s0, t0
    inv = pow(r0[-1], -1, p)
    return _fp_scale(r0, inv, p), _fp_scale(s0, inv, p), _fp_scale(t0, inv, p)


def _fp_powmod(base, e: int, mod, p):
    _, base = _fp_divmod(base, mod, p)
    out = [1]
    while e:
        if e & 1:
            out = _fp_divmod(_fp_mul(out, base, p), mod, p)[1]
        base = _fp_divmod(_fp_mul(base, base, p), mod, p)[1]
        e >>= 1
    return out


def _fp_derivative(a, p):
    return _fp_trim([(i * c) % p for i, c in enumerate(a)][1:])


# -- distinct- and equal-degree factorization mod p ------------------------


def _ddf_blocks(f: IntPolynomial, p: int) -> list[tuple[int, list[int]]] | None:
    """[(d, product of the irreducible factors of degree d)] of f mod p,
    p not dividing lc(f), made monic; None when it is not squarefree."""
    v = _fp_monic(_fp_from(f, p), p)
    if len(_fp_gcd(v, _fp_derivative(v, p), p)) > 1:
        return None
    blocks = []
    h = [0, 1]  # x
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = _fp_powmod(h, p, v, p)
        g = _fp_gcd(_fp_sub(h, [0, 1], p), v, p)
        if g and len(g) > 1:
            blocks.append((d, g))
            v, r = _fp_divmod(v, g, p)[0], None
            _, h = _fp_divmod(h, v, p)
    if len(v) > 1:
        blocks.append((len(v) - 1, v))
    return blocks


def ddf_pattern(f: IntPolynomial, p: int) -> tuple[int, ...]:
    """Degrees (with multiplicity) of the irreducible factors of f mod p.

    When f is squarefree mod p this is the cycle type of the Frobenius
    element at p acting on the roots.  Raises BadPrime when p divides the
    leading coefficient or f mod p is not squarefree.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    if f.lc % p == 0:
        raise BadPrime(f"{p} divides the leading coefficient")
    blocks = _ddf_blocks(f, p)
    if blocks is None:
        raise BadPrime(f"not squarefree modulo {p}")
    pattern = []
    for d, block in blocks:
        pattern.extend([d] * ((len(block) - 1) // d))
    return tuple(sorted(pattern))


def _edf(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Split a monic product of degree-d irreducibles mod odd p."""
    if len(g) - 1 == d:
        return [g]
    exp = (p ** d - 1) // 2
    while True:
        r = [rng.randrange(p) for _ in range(len(g) - 1)]
        r = _fp_trim(r)
        if len(r) < 2:
            continue
        h = _fp_powmod(r, exp, g, p)
        u = _fp_gcd(_fp_sub(h, [1], p), g, p)
        if len(u) > 1 and len(u) < len(g):
            w = _fp_divmod(g, u, p)[0]
            return _edf(u, d, p, rng) + _edf(w, d, p, rng)


# -- Hensel lifting ---------------------------------------------------------


def _sym(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _sym_poly(coeffs, m) -> list[int]:
    return [_sym(c, m) for c in coeffs]


def _lift_pair(F, g, h, s, t, p, pK):
    """Lift F = g*h (mod p) with s*g + t*h = 1 (mod p) to modulus pK;
    F, g, h monic.  Returns (G, H) with symmetric coefficients."""
    gl = list(g)
    hl = list(h)
    gp, hp = list(g), list(h)  # images mod p, fixed
    m = p
    while m < pK:
        prod = _zmul(gl, hl)
        e = [0] * len(F)
        for i in range(len(F)):
            pi = prod[i] if i < len(prod) else 0
            e[i] = ((F[i] - pi) // m) % p
        e = _fp_trim(e)
        te = _fp_mul(t, e, p)
        _, u = _fp_divmod(te, gp, p)
        ve = _fp_sub(e, _fp_mul(u, hp, p), p)
        v, rem = _fp_divmod(ve, gp, p)
        assert not rem
        m2 = m * p
        gl = [a + m * b for a, b in
              itertools.zip_longest(gl, u, fillvalue=0)]
        hl = [a + m * b for a, b in
              itertools.zip_longest(hl, v, fillvalue=0)]
        gl = _sym_poly(gl, m2)
        hl = _sym_poly(hl, m2)
        gl[-1] = 1  # symmetric reduction never touches a monic lead
        hl[-1] = 1
        m = m2
    return gl, hl


def _lift_tree(F: list[int], mods: list[list[int]], p: int, pK: int) -> list[list[int]]:
    if len(mods) == 1:
        return [_sym_poly(F, pK)]
    half = len(mods) // 2
    left, right = mods[:half], mods[half:]
    g = [1]
    for ml in left:
        g = _fp_mul(g, ml, p)
    h = [1]
    for mr in right:
        h = _fp_mul(h, mr, p)
    one, s, t = _fp_xgcd(g, h, p)
    assert one == [1]
    G, H = _lift_pair(F, g, h, s, t, p, pK)
    return _lift_tree(G, left, p, pK) + _lift_tree(H, right, p, pK)


# -- Zassenhaus --------------------------------------------------------------


def _zassenhaus_monic(F: IntPolynomial) -> list[IntPolynomial]:
    """Irreducible monic factors of a monic squarefree F, F(0) != 0."""
    n = F.degree
    best = None
    tried = 0
    for p in _odd_primes():
        blocks = _ddf_blocks(F, p)
        if blocks is None:
            continue
        count = sum((len(b) - 1) // d for d, b in blocks)
        if count == 1:
            return [F]
        if best is None or count < best[0]:
            best = (count, p, blocks)
        tried += 1
        if tried >= 6:
            break
    count, p, blocks = best
    rng = random.Random(str(("edf-seed", p, F.coeffs)))
    mods = []
    for d, block in blocks:
        mods.extend(_edf(block, d, p, rng))
    mods.sort()

    norm = math.isqrt(sum(c * c for c in F.coeffs)) + 1
    bound = 2 * (2 ** n) * norm + 1
    pK = p
    while pK < bound:
        pK *= p
    lifted = _lift_tree(list(F.coeffs), mods, p, pK)

    out = []
    rem = F
    s = 1
    while 2 * s <= len(lifted):
        hit = False
        for combo in itertools.combinations(range(len(lifted)), s):
            if sum(len(lifted[i]) - 1 for i in combo) > rem.degree:
                continue
            c0 = 1
            for i in combo:
                c0 = _sym(c0 * lifted[i][0], pK)
            if c0 == 0 or rem.constant % c0 != 0:
                continue
            prod = [1]
            for i in combo:
                prod = _sym_poly(_zmul(prod, lifted[i]), pK)
            cand = IntPolynomial(prod)
            q = rem.try_divide(cand)
            if q is not None:
                out.append(cand)
                rem = q
                lifted = [m for i, m in enumerate(lifted) if i not in combo]
                hit = True
                break
        if not hit:
            s += 1
    if rem.degree > 0:
        out.append(rem)
    return out


def _factor_squarefree(g: IntPolynomial) -> list[IntPolynomial]:
    out = []
    while g.degree >= 1 and g.constant == 0:
        out.append(IntPolynomial.x())
        g = g.try_divide(IntPolynomial.x())
    cyclotomic, g = _split_cyclotomic(g)
    out += cyclotomic
    if g.degree < 1:
        return out
    if g.degree == 1:
        return out + [g]
    L = g.lc
    if L == 1:
        monics = _zassenhaus_monic(g)
        return out + monics
    # monic associate: G(x) = L^(n-1) g(x/L), factors map back by x -> L*x
    n = g.degree
    G = IntPolynomial([c * L ** (n - 1 - k) for k, c in enumerate(g.coeffs)])
    for H in _zassenhaus_monic(G):
        back = IntPolynomial([c * L ** k for k, c in enumerate(H.coeffs)])
        out.append(back.primitive())
    return out


def factor_over_Q(f: IntPolynomial) -> tuple[IntPolynomial, ...]:
    """Irreducible factors of f over Q, primitive with positive leading
    coefficients, repeated by multiplicity, sorted by degree then
    coefficients.  Content and sign are discarded."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.degree > MAX_FACTOR_DEGREE:
        raise ValueError(
            f"degree {f.degree} is above the supported bound {MAX_FACTOR_DEGREE}")
    out: list[IntPolynomial] = []
    for g, mult in squarefree_decomposition(f):
        for h in _factor_squarefree(g):
            out.extend([h] * mult)
    out.sort(key=lambda h: (h.degree, h.coeffs))
    return tuple(out)
