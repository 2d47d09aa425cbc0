"""
From a Markov measure to an effective equidistribution bound
============================================================

Pipeline: a shift-invariant Markov measure on p^|nu| symbols yields an
entropy gap; Pinsker turns the gap into an l1 bound; the telescoping
estimate controls integrals of cylinder functions; and the headline
constant converts the gap into the distance-from-Haar bound.
"""

import math

from padlab.entropylab import (
    CylinderFunction,
    MarkovMeasure,
    entropy_gap,
    entropy_rate,
    pinsker_check,
    telescope_bound_check,
)
from padlab.spectral import ConstantsBundle, kappa, theorem1_rhs

# a biased chain on 3 = 3^1 symbols (p = 3, |nu| = 1)
mu = MarkovMeasure.bernoulli([0.5, 0.25, 0.25])
print("stationary law:", mu.stationary.weights)
print("entropy rate:  ", entropy_rate(mu), "nats (max is ln 3 =", math.log(3), ")")

gap = entropy_gap(mu, 1, 3)
print("entropy gap:   ", gap.entropy_side)
print("phi identity:  ", gap.phi_side, "(two routes agree within 1e-10)")

# Pinsker: how far the rows sit from uniform in l1
rep = pinsker_check([1 / 3] * 3, [0.5, 0.25, 0.25])
print("pinsker: l1 =", rep.l1, " bound sqrt(2 phi) =", math.sqrt(rep.bound), " holds:", rep.holds)

# telescoping control of a cylinder function of the first coordinate
f = CylinderFunction(1, 3, [1.0, 0.0, 0.0])
report = telescope_bound_check(f, mu)
print("mu(f) =", report.mu_f, " uniform mean =", report.mean_f)
print("defect |mu(f) - mean| =", report.total_defect,
      "<= sum of deltas =", report.delta_sum, ":", report.telescoping_holds)
print("per-step bounds hold:", report.per_step_hold)

# the same gap drives the distance-from-Haar bound
bundle = ConstantsBundle(
    c=1.0,
    alpha=1.0,
    delta=1.0,
    p=3,
    d=3,
    entropy_nats=math.log(3),
    base_ball_measure=1 / 9,
    a_norm=3.0,
    nu_total=1,
)
k = kappa(bundle)
rhs = theorem1_rhs(bundle, 0, 1.0, gap.entropy_side)
print("kappa =", k)
print("bound kappa ||f|| sqrt(gap) =", rhs)
# the phi route is exactly zero on a uniform chain, so the bound collapses
uniform_gap = entropy_gap(MarkovMeasure.uniform(3), 1, 3)
print("a perfectly uniform chain gives bound 0:",
      theorem1_rhs(bundle, 0, 1.0, uniform_gap.phi_side))
