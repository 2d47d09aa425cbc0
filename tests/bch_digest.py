"""The BCH digest: both bch modes on 1,296 seeded pairs.

For each family (sl or gl), size d in {2, 3}, p in {2, 3, 5} and k in
{2, 3, 4}, in that order, one random.Random(f"bch digest {family}{d} {p} {k}")
draws 36 pairs, x before y.  Each element is a sum of the group's lie_basis
matrices with coefficients p^k times [-p^3, p^3], drawn again until its least
entry valuation is exactly k; then, with probability 0.3, each of its nonzero
entries is cut to a random 1 .. 12 digits.

Run as a script, it prints for each mode the pairs, the refusals by error
class, the output entries, the exact and the O(p^c) zeros among them and
those that carry all N digits, and a SHA-256 over every entry's valuation,
absolute precision, digit count and stored unit (or the refusal), in draw
order.  A change to either mode that leaves its outputs alone leaves its
digest alone:

    PYTHONPATH=src python tests/bch_digest.py
"""

from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter

from padlab import GroupSpec, PadicContext, PadicMatrix, PadicScalar, PadlabError, bch

PAIRS = 36
CUT_SHARE = 0.3


def draw_element(spec: GroupSpec, rng: random.Random, k: int) -> PadicMatrix:
    """A deep element at valuation exactly k, maybe cut to fewer digits."""
    ctx = spec.ctx
    p = ctx.p
    while True:
        x = PadicMatrix.zeros(ctx, spec.dim)
        for b in spec.lie_basis:
            c = rng.randint(-(p**3), p**3) * p**k
            if c:
                x = x + b.scale(ctx.from_rational(c))
        if x.min_valuation() == k:
            break
    if rng.random() >= CUT_SHARE:
        return x
    return PadicMatrix(ctx, [
        [e if e.is_zero else PadicScalar(ctx, e.v, e.unit, rng.randint(1, ctx.precision)) for e in r]
        for r in x.rows
    ])


def draw_pairs() -> list[tuple[PadicMatrix, PadicMatrix]]:
    pairs = []
    for family in ("sl", "gl"):
        for d in (2, 3):
            for p in (2, 3, 5):
                spec = GroupSpec(PadicContext(p), family, d)
                for k in (2, 3, 4):
                    rng = random.Random(f"bch digest {family}{d} {p} {k}")
                    pairs += [tuple(draw_element(spec, rng, k) for _ in range(2)) for _ in range(PAIRS)]
    return pairs


def digest(pairs: list, mode: str) -> tuple[Counter, str]:
    """The tallies of one mode over the pairs, and the SHA-256 of its lines
    "pair entries", pairs numbered from 0."""
    tally, sha = Counter(), hashlib.sha256()
    for i, (x, y) in enumerate(pairs):
        tally["pairs"] += 1
        try:
            z = bch(x, y, mode=mode)
        except PadlabError as err:
            tally[f"refused: {type(err).__name__}"] += 1
            sha.update(f"{i} {type(err).__name__}: {err}\n".encode())
            continue
        entries = z.flat()
        tally["entries"] += len(entries)
        tally["exact zeros"] += sum(not e for e in entries)
        tally["O(p^c) zeros"] += sum(e.is_zero and bool(e) for e in entries)
        tally["all N digits"] += sum(e.digits == z.ctx.precision for e in entries)
        sha.update(f"{i} {[(e.v, e.abs_precision(), e.digits, e.unit) for e in entries]}\n".encode())
    return tally, sha.hexdigest()


def main() -> int:
    pairs = draw_pairs()
    for mode in ("dynkin", "direct"):
        tally, sha = digest(pairs, mode)
        print(f"{mode}: " + ", ".join(f"{key} {n}" for key, n in tally.items()))
        print(f"  sha256 of every entry's (v, abs precision, digits, unit): {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
