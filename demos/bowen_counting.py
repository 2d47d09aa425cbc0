"""
Bowen balls of a diagonal flow, counted two ways
================================================

The flow a = diag(1/3, 3) acts on sl2(Q_3) by conjugation; its eigenvalue
valuations split the algebra into unstable, neutral, and stable lines.
Bowen windows shrink only along the unstable line, and their volumes can be
counted exactly from the lattice of each window.
"""

from fractions import Fraction

from padlab import GroupSpec, PadicContext, PadicMatrix, decompose
from padlab.dynamics import (
    atom_representatives,
    bowen_ball,
    bowen_count_oracle,
    bowen_volume_ratio,
    entropy,
)

ctx = PadicContext(3)
spec = GroupSpec.sl(ctx, 2)
a = PadicMatrix.from_rationals(ctx, [[Fraction(1, 3), 0], [0, 3]])
dec = decompose(a, spec)

print("eigenvalue valuations nu:", dec.nu)
print("line classes:           ", dec.classes)
print("total expansion |nu|:   ", dec.nu_total)
print("entropy:                ", entropy(dec), "nats =", dec.nu_total, "* ln 3")

# a Bowen window at base level k = 4: the unstable line tightens with n
for n in (1, 2, 3):
    levels = bowen_ball(dec, 4, n)
    print(f"window n={n}: levels {levels}  volume ratio {bowen_volume_ratio(dec, n)}")

# FULL counts K_4/K_7's window points by the index of their lattice, from
# integer window maps built from a alone (a and a^-1 cleared of their
# denominators conjugate the basis, never the eigendata), and refuses only a
# level at which some window's count is undefined; FACTORED multiplies
# per-line digit counts instead
full = bowen_count_oracle(dec, 4, 2, 7, "FULL")
factored = bowen_count_oracle(dec, 4, 3, 9, "FACTORED")
print("FULL lattice counts (level 7):", full.counts, "ratios", full.ratios)
print("FACTORED counts (level 9):    ", factored.counts, "ratios", factored.ratios)
print("match p^(-(n-1)|nu|):",
      factored.ratios == tuple(Fraction(1, 9) ** (m - 1) for m in (1, 2, 3)))

# partition atoms of K_2 / K_4 along the unstable direction
reps = atom_representatives(dec, 4)
print("atoms of the level-4 partition:", len(reps))
print("first three representatives:")
for rep in reps[:3]:
    print(" ", rep)
