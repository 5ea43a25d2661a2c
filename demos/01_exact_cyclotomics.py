"""
Exact arithmetic with roots of unity
====================================

Everything downstream (character tables, quiver matrices) rests on the
Cyclotomic type: elements of Q(zeta_n) stored on an integral basis, so
equality is equality and nothing is ever rounded.
"""

from fractions import Fraction

from mckayq import Cyclotomic, E, cyclotomic_polynomial, parse_cyclotomic

# E(n) is the root of unity exp(2*pi*i/n)
i = E(4)
print("E(4)         =", i)
print("E(4)^2       =", i * i)                      # exactly -1

# arithmetic stays in the smallest field that holds the value
z6 = E(6)
print("E(6)^3       =", z6 ** 3, " (conductor", (z6 ** 3).conductor, ")")

# sqrt(2) as a sum of 8th roots, squared on the nose
sqrt2 = E(8) - E(8) ** 3
print("sqrt2        =", sqrt2)
print("sqrt2^2      =", sqrt2 * sqrt2)

# the golden ratio lives in Q(zeta_5)
phi = -(E(5) ** 2) - E(5) ** 3
print("golden ratio =", phi)
print("phi^2 - phi  =", phi * phi - phi)            # = 1, its minimal polynomial

# rational values come back out as plain rationals
print("as rational  :", (phi * phi - phi).to_rational() == Fraction(1))

# character values are algebraic integers, so there is no field division;
# phi is a unit all the same: phi - 1 is its inverse in Z[zeta_5]
print("phi - 1      =", phi - 1)
print("phi*(phi-1)  =", phi * (phi - 1))            # = 1 on the nose
# only a root of unity has negative powers: its inverse is its conjugate
print("E(8)^-1      =", E(8) ** -1, " (conjugate:", E(8) ** -1 == E(8).conjugate(), ")")

# strings round-trip through the parser
text = str(2 * E(3) + 1)
print("parsed back  :", parse_cyclotomic(text) == 2 * E(3) + 1)

# minimal polynomials of primitive roots: Phi_12 = x^4 - x^2 + 1
print("Phi_12 coeffs:", cyclotomic_polynomial(12))
total = sum((E(5) ** k for k in range(1, 5)), Cyclotomic.zero())
print("sum of primitive 5th roots =", total)        # -1, the trace
