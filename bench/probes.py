"""Layer probes: the ROADMAP aim-1 layer list, timed in isolation.

Each probe times a fixed number of calls in each of ROUNDS rounds and
reports the fastest round (min-of-N) per call, with the spread
(median - min) / min of the rounds.  Probes run untraced, after the traced
passes, and feed per-layer metrics only.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

ROUNDS = 7
# metric name -> unit, in report order; each also reports "<name>.spread"
PROBES = {
    "scalar.add_ns": "ns", "scalar.mul_ns": "ns",
    "matrix.matmul2_us": "us", "matrix.matmul3_us": "us",
    "liegroup.exp_sl2_us": "us", "liegroup.log_sl2_us": "us",
    "liegroup.bch_direct_sl2_us": "us", "liegroup.bch_dynkin_sl2_us": "us",
    "matrix.char_poly_hensel_us": "us",
    "dynamics.decompose_sl2_us": "us", "dynamics.decompose_sl3_us": "us",
    "dynamics.full_probe_ns_per_point": "ns",
    "entropylab.stationary_us": "us", "entropylab.telescope_us": "us",
}


def _time_per_call(fn, calls: int) -> tuple[float, float]:
    fn()  # warm-up: first-call effects are not the steady per-call cost
    per_call = []
    for _ in range(ROUNDS):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter_ns() - start) / calls)
    best = min(per_call)
    return best, (statistics.median(per_call) - best) / best


def run_probes() -> dict[str, float]:
    """{metric name: value} for every probe and its spread."""
    import padlab

    rng = random.Random(20260819)
    ctx3 = padlab.PadicContext(3)
    sl2 = padlab.GroupSpec.sl(ctx3, 2)
    sl3 = padlab.GroupSpec.sl(ctx3, 3)
    units = [ctx3.from_rational(rng.randint(1, 3**10) * 3 + 1) for _ in range(2)]
    a, b = units

    def mat(d):
        return padlab.PadicMatrix.from_rationals(
            ctx3, [[rng.randint(1, 10**6) for _ in range(d)] for _ in range(d)])

    m2, n2, m3, n3 = mat(2), mat(2), mat(3), mat(3)

    def deep(spec):
        x = padlab.PadicMatrix.zeros(ctx3, spec.dim)
        for basis in spec.lie_basis:
            x = x + basis.scale(ctx3.from_rational(9 * rng.randint(1, 3**5)))
        return x

    x, y = deep(sl2), deep(sl2)
    g = padlab.exp(x)
    a2 = padlab.PadicMatrix.from_rationals(ctx3, [[Fraction(1, 3), 0], [0, 3]])
    a3 = padlab.PadicMatrix.from_rationals(
        ctx3, [[Fraction(1, 3), 0, 0], [0, 1, 0], [0, 0, 3]])
    dec2 = padlab.decompose(a2, sl2)
    ad3 = padlab.PadicMatrix(ctx3, _adjoint(a3, sl3))
    chain = [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]]
    measure = padlab.MarkovMeasure(chain)
    f = padlab.CylinderFunction(2, 3, [rng.uniform(-1, 1) for _ in range(9)])
    full_points = 3 ** 9  # sl2, k=4, n=2, level 7

    calls = {  # name -> (factor from ns per call to the unit, calls per round, call)
        "scalar.add_ns": (1.0, 20000, lambda: a + b),
        "scalar.mul_ns": (1.0, 20000, lambda: a * b),
        "matrix.matmul2_us": (1e-3, 2000, lambda: m2 @ n2),
        "matrix.matmul3_us": (1e-3, 1000, lambda: m3 @ n3),
        "liegroup.exp_sl2_us": (1e-3, 100, lambda: padlab.exp(x)),
        "liegroup.log_sl2_us": (1e-3, 100, lambda: padlab.log(g)),
        "liegroup.bch_direct_sl2_us": (1e-3, 40, lambda: padlab.bch(x, y, mode="direct")),
        "liegroup.bch_dynkin_sl2_us": (1e-3, 3, lambda: padlab.bch(x, y, mode="dynkin")),
        "matrix.char_poly_hensel_us": (1e-3, 10, lambda: padlab.hensel_roots(ad3.char_poly())),
        "dynamics.decompose_sl2_us": (1e-3, 20, lambda: padlab.decompose(a2, sl2)),
        "dynamics.decompose_sl3_us": (1e-3, 3, lambda: padlab.decompose(a3, sl3)),
        "dynamics.full_probe_ns_per_point": (
            1.0 / full_points, 2, lambda: padlab.bowen_count_oracle(dec2, 4, 2, 7, "FULL")),
        "entropylab.stationary_us": (1e-3, 50, lambda: padlab.MarkovMeasure(chain)),
        "entropylab.telescope_us": (1e-3, 50, lambda: padlab.telescope_bound_check(f, measure)),
    }
    out: dict[str, float] = {}
    for name in PROBES:
        scale, n, fn = calls[name]
        best, spread = _time_per_call(fn, n)
        out[name] = best * scale
        out[name + ".spread"] = spread
    return out


def _adjoint(a, spec):
    """Ad(a) on spec's algebra in its basis coordinates (the decompose input)."""
    a_inv = a.inverse()
    cols = [spec.algebra_coordinates(a @ b @ a_inv) for b in spec.lie_basis]
    n = len(cols)
    return [[cols[j][i] for j in range(n)] for i in range(n)]
