"""Fixtures the ops of each workload reuse.

Kept free of package imports at module level, so that a fresh interpreter
can import this module first and then time ``import padlab`` plus
``build(workload)`` as the workload's set-up.
"""

from __future__ import annotations

from fractions import Fraction

PRIMES = (2, 3, 5)


def build(workload: str) -> dict:
    """Set-up shared by every op of the workload (one fresh copy per call)."""
    import padlab

    if workload == "series":
        specs = {}
        decs = {}
        for p in PRIMES:
            ctx = padlab.PadicContext(p)
            for d in (2, 3):
                specs[p, d] = padlab.GroupSpec.sl(ctx, d)
            a = padlab.PadicMatrix.from_rationals(ctx, [[Fraction(1, p), 0], [0, p]])
            decs[p] = padlab.decompose(a, specs[p, 2])
        return {"specs": specs, "decs": decs}
    if workload == "oracle":
        specs = {}
        for p in PRIMES:
            ctx = padlab.PadicContext(p)
            specs["sl", p, 2] = padlab.GroupSpec.sl(ctx, 2)
            specs["sl", p, 3] = padlab.GroupSpec.sl(ctx, 3)
            specs["gl", p, 3] = padlab.GroupSpec.gl(ctx, 3)
        return {"specs": specs}
    if workload == "cli":
        import padlab.cli  # noqa: F401  (every cli call builds its own state)

        return {}
    raise ValueError(f"unknown workload {workload!r}")
