"""
Decay rates and the headline constant
=====================================

The Harish-Chandra function controls matrix-coefficient decay; stacking it
over Cartan data gives the Oh-style bound, and feeding mixing parameters
through the geometric series gives the constant in the main inequality.
"""

import math

from padlab import PadicContext, PadicMatrix
from padlab.spectral import (
    ConstantsBundle,
    cartan_valuations,
    equidistribution_bound,
    kappa,
    oh_bound,
    xi_pgl2,
)

# Xi(p^k) = p^(-k/2) (k(p-1) + p + 1) / (p + 1): value 1 at k = 0, then
# strictly decaying like k p^(-k/2)
print("k    Xi(2^k)      Xi(3^k)")
for k in range(0, 7):
    print(f"{k}    {xi_pgl2(2, k):.9f}  {xi_pgl2(3, k):.9f}")

# Cartan data of a matrix: sorted valuations of its elementary divisors
ctx = PadicContext(3)
g = PadicMatrix.from_rationals(ctx, [[9, 1], [3, 1]])
exps = cartan_valuations(g)
print("cartan exponents of [[9,1],[3,1]]:", exps)
print("decay bound for that element:", oh_bound(3, exps, 1, 1))

# identity Cartan data leaves only the dimension factor
print("trivial cartan, dims (2, 3):", oh_bound(3, [0, 0], 2, 3), "= sqrt(6)")

# the headline constant and the per-step equidistribution decay
bundle = ConstantsBundle(
    c=1.0,
    alpha=1.0,
    delta=1.0,
    p=2,
    d=1,
    entropy_nats=0.0,
    base_ball_measure=1.0,
    a_norm=2.0,
    nu_total=1,
)
print("kappa for the reference bundle:", kappa(bundle), "= 8 sqrt(2)")
bounds = [equidistribution_bound(bundle, 0, n) for n in range(1, 5)]
print("equidistribution bounds n=1..4:", [f"{b:.6f}" for b in bounds])
ratios = [bounds[i + 1] / bounds[i] for i in range(3)]
print("consecutive ratios (= ||a||^-delta):", [f"{r:.12f}" for r in ratios])
print("entropy enters exponentially: h -> h + ln 3 multiplies kappa by",
      math.exp((3 * 1.0 + 1) * math.log(3)), "= 3^4")
