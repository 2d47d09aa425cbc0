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
digest alone.  With --check it then compares both digests with the values
pinned in PINNED and exits 1, naming each one that differs:

    PYTHONPATH=src python tests/bch_digest.py --check
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from collections import Counter

from padlab import GroupSpec, PadicContext, PadicMatrix, PadicScalar, PadlabError, bch

PAIRS = 36
CUT_SHARE = 0.3
# the digest of each mode
PINNED = {
    "dynkin": "52936738ea69036381f5c50c121e96c5987d38ac3853459b41cebc3974448b24",
    "direct": "270db4082852b59c63200bed7ecaf5ee17abeca49c03be6974d6c5c59101b38a",
}


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


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="The BCH digest (see the module docstring).")
    parser.add_argument("--check", action="store_true", help="compare both digests with PINNED")
    args = parser.parse_args(argv)
    pairs, bad = draw_pairs(), []
    for mode in ("dynkin", "direct"):
        tally, sha = digest(pairs, mode)
        print(f"{mode}: " + ", ".join(f"{key} {n}" for key, n in tally.items()))
        print(f"  sha256 of every entry's (v, abs precision, digits, unit): {sha}")
        if sha != PINNED[mode]:
            bad.append(f"check: {mode}: {sha} differs from the pinned {PINNED[mode]}")
    if not args.check:
        return 0
    print("\n".join(bad) or "check: both digests match their pinned values")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
