"""
A tour of exact p-adic scalar arithmetic
========================================

Every scalar is p^v * u with the unit u tracked modulo p^12, so field
operations are exact as long as twelve digits remain certified.
"""

from fractions import Fraction

from padlab import PadicContext, PadicScalar
from padlab.errors import PrecisionExhausted
from padlab.matrix import hensel_roots

ctx = PadicContext(3)

# rationals embed exactly; the valuation reads off powers of p
x = ctx.from_rational(Fraction(45, 7))
print("45/7 in Q_3:", x)
print("  valuation:", x.valuation(), " norm:", x.norm())

# the ultrametric: |x + y| = max when the norms differ
y = ctx.from_rational(Fraction(1, 9))
print("45/7 + 1/9 has norm", (x + y).norm(), "= max(", x.norm(), ",", y.norm(), ")")

# field inverse is exact to the working precision
inv = x.inverse()
print("x * x^-1 == 1:", (x * inv) == ctx.one())

# subtraction cancels certified digits; the bookkeeping is visible
a = ctx.from_rational(1 + 3**6)
b = ctx.from_rational(1)
d = a - b
print("(1 + 3^6) - 1:", d, " valuation:", d.valuation(), " digits left:", d.digits)

# cancelling past every certified digit leaves the zero O(3^4), known only
# modulo 3^4; it is not the exact zero, and reading it as an output refuses
u = PadicScalar(ctx, 0, 1 + 3**2, 4)  # only 4 digits certified
v = PadicScalar(ctx, 0, 1 + 3**2 + 3**4, 4)  # same 4 leading digits
w = u - v
print("u - v:", w, " times 9:", w * ctx.from_rational(9), " exact zero:", not w)
try:
    w.as_rational()
except PrecisionExhausted as err:
    print("reading u - v as a rational refuses:", err)

# Hensel lifting: factor x^2 - x - 6 = (x - 3)(x + 2) over Q_3.
# as_rational returns the canonical lift, so -2 prints as 3^12 - 2 = 531439
roots = hensel_roots([ctx.from_rational(c) for c in (-6, -1, 1)])
for root, mult in roots:
    print("root", root.as_rational(), "multiplicity", mult, "digits", root.digits)
