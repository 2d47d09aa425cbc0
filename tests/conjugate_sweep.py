"""The conjugate sweep: decompose and factor on seeded conjugated flows.

Each flow is drawn from one random.Random(seed), in this order: the family
(sl or gl), the size d in {2, 3} and p in {2, 3, 5}; exponents e_i in
[-2, 2], drawn again until they are not all equal and, on sl, sum to 0; the
entries above the diagonal of an upper unitriangular u, in [-3, 3]; and the
entries of X, p^2 times [-3, 3], the last diagonal one then set so that the
trace is 0 on sl.  The flow is a = u diag(p^e) u^-1, and the factor input is
g = exp(X) at k = 2.

A second family, the non-split one (`draw_non_split_flow`), draws 120 GL4
flows from random.Random(5): their characteristic polynomials do not split
over Q_p, but their adjoint spectra are rational.  A third, the dense one
(`draw_dense_flow`), draws 600 flows from random.Random(11) as the seed
flows are drawn, but with every entry of u in [-3, 3], drawn again until
det u != 0: such a u need not lie in GL_d(Z_p), so the eigenlines may
span a lattice of positive index (lattice_defect > 0) or be dependent at
working precision.

Each flow is decomposed at the default precision N = 12; |nu| must be the
sum of |e_i - e_j| over i < j.  Each factorization F H of g is checked by
F H = g mod p^8, which may also be undecidable at the digits F H carries.

Each seed flow and each dense flow that decomposes also gets three Bowen
oracle windows, FULL at n = 1, 2, 3 with the least ball level k and the
lattice level k + (n - 1) max|nu| + 1 + lattice_defect, the least one at
defect 0.  Their ratios must lie in the oracle's bracket
closed_m p^-lattice_defect <= ratio_m <= closed_m around the closed-form
volume ratios closed_m = p^(-(m-1)|nu|), and their counts must equal
FACTORED's when lattice_defect is 0.

Run as a script, it prints, for each seed given (7 if none) and then for the
non-split and the dense families, the decompositions and the wrong |nu|
among them, the refusals by error class and raising function, the
factorizations by the outcome of their check, and a SHA-256 of every
decomposition (each eigenvalue and line entry as v, unit and digits, and the
lattice_defect) or refusal message; for each seed and for the dense family,
the oracle windows by outcome, and a SHA-256 of every window's counts or
refusal message.  With --check it then compares every printed digest with
the value pinned in PINNED and exits 1, naming each one that differs or has
no pin:

    PYTHONPATH=src python tests/conjugate_sweep.py 7 8 --check
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from collections import Counter
from fractions import Fraction

from padlab import (
    GroupSpec,
    PadicContext,
    PadicMatrix,
    PadlabError,
    bowen_count_oracle,
    bowen_volume_ratio,
    decompose,
    exp,
)
from padlab.errors import PrecisionExhausted
from padlab.liegroup import horospherical_factor

FLOWS = 600
NON_SPLIT_SEED, NON_SPLIT_FLOWS = 5, 120
DENSE_SEED = 11
CHECK_DIGITS = 8
ORACLE_LENGTHS = (1, 2, 3)
# every digest `main` prints, by its title
PINNED = {
    "seed 7": "25cd21513eb91fdaa4851b53e9cea6a20c56f34d7fd5e14448e187911a1b6dc2",
    "seed 7 oracle": "86f590f7f31257979a9d960c71ae00c4c8d294cd58cb097b22c339b3b0799f1c",
    "seed 8": "234ca43df166e4b40cd82a2144be817bdc219f351fbd9147fac3fd2277b59de2",
    "seed 8 oracle": "f5632552543a06db0b47d2c1f584d1185c7653c6fb0fdd64cb6088a63929de3e",
    f"non-split seed {NON_SPLIT_SEED}": "80ec28f9abf9aad00835098018dab46002c775c1842f69c2defdd5b5d1a0e8fa",
    f"dense seed {DENSE_SEED}": "48bf9c3e68a09f15f0265232a6beec77e5e7043859a6d0298c6ad3857ca08437",
    f"dense seed {DENSE_SEED} oracle": "793539c16d42d76c74e484328e8ded39c0843e1df7e71068a885b38e3d902265",
}


def _inverse(u: list[list[Fraction]]):
    """u^-1 over Q by Gauss-Jordan elimination, or None when det u = 0."""
    d = len(u)
    aug = [row + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(u)]
    for c in range(d):
        r = next((r for r in range(c, d) if aug[r][c]), None)
        if r is None:
            return None
        aug[c], aug[r] = aug[r], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(d):
            if i != c and aug[i][c]:
                aug[i] = [x - aug[i][c] * y for x, y in zip(aug[i], aug[c])]
    return [row[d:] for row in aug]


def _unitriangular(rng: random.Random, d: int) -> list[list[Fraction]]:
    """Upper unitriangular u, the entries above its diagonal drawn row by row
    in [-3, 3]."""
    return [[Fraction(int(i == j) if j <= i else rng.randint(-3, 3)) for j in range(d)]
            for i in range(d)]


def _dense(rng: random.Random, d: int) -> list[list[Fraction]]:
    """u with every entry drawn row by row in [-3, 3], drawn again until
    det u != 0."""
    while True:
        u = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
        if _inverse(u) is not None:
            return u


def _conjugate(u: list[list[Fraction]], middle: list[list[Fraction]]) -> list[list[Fraction]]:
    """u middle u^-1, exactly."""
    d, u_inv = len(middle), _inverse(u)
    um = [[sum(u[i][k] * middle[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    return [[sum(um[i][k] * u_inv[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


def _algebra_point(rng: random.Random, p: int, d: int) -> list[list[int]]:
    """X with entries p^2 times [-3, 3], row by row."""
    return [[p * p * rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]


def draw_flow(rng: random.Random, conjugator=_unitriangular):
    """(family, p, exponents, a as Fraction rows, X as int rows), u drawn by
    `conjugator`."""
    family = rng.choice(["sl", "gl"])
    d = rng.choice([2, 3])
    p = rng.choice([2, 3, 5])
    while True:
        exps = [rng.randint(-2, 2) for _ in range(d)]
        if len(set(exps)) > 1 and (family == "gl" or sum(exps) == 0):
            break
    a = _conjugate(conjugator(rng, d), [[Fraction(p) ** e if i == j else Fraction(0)
                                         for j, e in enumerate(exps)] for i in range(d)])
    x = _algebra_point(rng, p, d)
    if family == "sl":
        x[-1][-1] = -sum(x[i][i] for i in range(d - 1))
    return family, p, exps, a, x


def draw_dense_flow(rng: random.Random):
    """A flow of the dense family: draw_flow with u drawn by `_dense`."""
    return draw_flow(rng, _dense)


def draw_non_split_flow(rng: random.Random):
    """A flow of the non-split family, in draw_flow's form.

    p in {3, 5}; e_1 != e_2 in [-2, 2]; the GL4 flow
    a = u blockdiag([[0, 2 p^(2 e_1)], [1, 0]], [[0, 2 p^(2 e_2)], [1, 0]]) u^-1.
    2 is not a square mod 3 or 5, so the characteristic polynomial of a does
    not split over Q_p, but every Ad(a) eigenvalue, +-1 or +-p^(e_i - e_j),
    is rational.  The exponents are the valuations (e_1, e_1, e_2, e_2) of
    a's eigenvalues +-sqrt(2) p^(e_i), so |nu| = 4 |e_1 - e_2|.
    """
    p = rng.choice([3, 5])
    while True:
        e1, e2 = rng.randint(-2, 2), rng.randint(-2, 2)
        if e1 != e2:
            break
    middle = [[Fraction(0)] * 4 for _ in range(4)]
    for k, e in enumerate((e1, e2)):
        middle[2 * k][2 * k + 1] = 2 * Fraction(p) ** (2 * e)
        middle[2 * k + 1][2 * k] = Fraction(1)
    a = _conjugate(_unitriangular(rng, 4), middle)
    return "gl", p, [e1, e1, e2, e2], a, _algebra_point(rng, p, 4)


def _raiser(err: Exception) -> str:
    """The function whose frame raised err."""
    tb = err.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code.co_name


def _decompose(flow):
    family, p, exps, a, _ = flow
    ctx = PadicContext(p)
    spec = GroupSpec.sl(ctx, len(exps)) if family == "sl" else GroupSpec.gl(ctx, len(exps))
    return decompose(PadicMatrix.from_rationals(ctx, a), spec)


def decomposition_text(dec) -> str:
    """Every eigenvalue, then every line entry row by row, as v,unit,digits,
    and the lattice_defect last."""
    entries = [*dec.eigenvalues, *(x for b in dec.basis for x in b.flat())]
    return " ".join([*(f"{x.v},{x.unit},{x.digits}" for x in entries), str(dec.lattice_defect)])


def run_flow(flow) -> tuple:
    """(outcome, text).  The outcome is ("refused", error class, raising
    function) when decompose refuses, or ("decomposed", |nu| correct, factor
    outcome), the factor outcome being "PASS", "FAIL", "UNDECIDED" or (error
    class, raising function); the text is the refusal message or the
    decomposition_text."""
    _, p, exps, _, x = flow
    try:
        dec = _decompose(flow)
    except PadlabError as err:
        return ("refused", type(err).__name__, _raiser(err)), f"{type(err).__name__}: {err}"
    text = decomposition_text(dec)
    nu_ok = dec.nu_total == sum(abs(e - f) for i, e in enumerate(exps) for f in exps[i + 1:])
    g = exp(PadicMatrix.from_rationals(dec.ctx, x))
    try:
        res = horospherical_factor(g, 2, dec)
    except PadlabError as err:
        return ("decomposed", nu_ok, (type(err).__name__, _raiser(err))), text
    try:
        held = (res.unstable @ res.bounded).congruent_mod(g, CHECK_DIGITS)
    except PrecisionExhausted:
        return ("decomposed", nu_ok, "UNDECIDED"), text
    return ("decomposed", nu_ok, "PASS" if held else "FAIL"), text


def sweep(seed: int, flows: int = FLOWS, draw=draw_flow) -> tuple[Counter, str]:
    """Outcome counts of the first `flows` flows of a seed, and the SHA-256
    of their lines "flow text" (see run_flow), flows numbered from 0."""
    rng = random.Random(seed)
    outcomes, digest = Counter(), hashlib.sha256()
    for i in range(flows):
        outcome, text = run_flow(draw(rng))
        outcomes[outcome] += 1
        digest.update(f"{i} {text}\n".encode())
    return outcomes, digest.hexdigest()


def oracle_window(dec, n: int) -> tuple:
    """(outcome, text) of FULL at window length n, the least k and the level
    k + (n - 1) max|nu| + 1 + lattice_defect.  outcome is the error class of
    a refusal, or (the bracket around the closed form held, FACTORED held or
    None when lattice_defect > 0); text is the refusal message or the
    counts."""
    k = max(2, dec.max_exponent() + 2)
    level = k + (n - 1) * dec.max_exponent() + 1 + dec.lattice_defect
    try:
        full = bowen_count_oracle(dec, k, n, level, "FULL")
    except PadlabError as err:
        return type(err).__name__, f"{type(err).__name__}: {err}"
    least = Fraction(1, dec.ctx.p**dec.lattice_defect)
    bracket = all(c * least <= r <= c for r, c in
                  zip(full.ratios, (bowen_volume_ratio(dec, m) for m in range(1, n + 1))))
    factored = None if dec.lattice_defect else (
        full.counts == bowen_count_oracle(dec, k, n, level, "FACTORED").counts)
    return (bracket, factored), repr(full.counts)


def oracle_sweep(seed: int, flows: int = FLOWS, draw=draw_flow) -> tuple[Counter, str]:
    """Outcome counts of the oracle windows of a seed's decomposed flows, and
    the SHA-256 of their lines "flow n text", flows numbered from 0."""
    rng = random.Random(seed)
    outcomes, digest = Counter(), hashlib.sha256()
    for i in range(flows):
        try:
            dec = _decompose(draw(rng))
        except PadlabError:
            continue
        for n in ORACLE_LENGTHS:
            outcome, text = oracle_window(dec, n)
            outcomes[outcome] += 1
            digest.update(f"{i} {n} {text}\n".encode())
    return outcomes, digest.hexdigest()


def summary(counts: Counter) -> dict:
    """Totals of a sweep: decompositions, wrong |nu|, refusals and checks."""
    out = {"decomposed": 0, "wrong_nu": 0, "refused": Counter(), "factor": Counter()}
    for outcome, n in counts.items():
        if outcome[0] == "refused":
            out["refused"][outcome[1:]] += n
            continue
        out["decomposed"] += n
        out["wrong_nu"] += n * (not outcome[1])
        out["factor"][outcome[2]] += n
    return out


def _report(title: str, counts: Counter, digest: str) -> tuple[str, str]:
    s = summary(counts)
    print(f"{title}: {sum(counts.values())} flows, {s['decomposed']} decomposed, "
          f"{s['wrong_nu']} with a wrong |nu|")
    for (cls, where), n in sorted(s["refused"].items()):
        print(f"  decompose refused: {cls} in {where}: {n}")
    checks = s["factor"]
    print(f"  factor: {sum(checks[k] for k in ('PASS', 'FAIL', 'UNDECIDED'))} returned; "
          f"F H = g mod p^{CHECK_DIGITS}: PASS {checks['PASS']}, FAIL {checks['FAIL']}, "
          f"UNDECIDED {checks['UNDECIDED']}")
    for key, n in sorted((k, n) for k, n in checks.items() if isinstance(k, tuple)):
        print(f"  factor refused: {key[0]} in {key[1]}: {n}")
    print(f"  sha256 of every decomposition or refusal: {digest}")
    return title, digest


def _report_oracle(title: str, outcomes: Counter, digest: str) -> tuple[str, str]:
    counted = {o: n for o, n in outcomes.items() if isinstance(o, tuple)}
    compared = sum(n for (_, factored), n in counted.items() if factored is not None)
    print(f"{title}: {sum(outcomes.values())} windows at n in {set(ORACLE_LENGTHS)}, "
          f"{sum(counted.values())} counted; bracket held "
          f"{sum(n for (bracket, _), n in counted.items() if bracket)}; FACTORED held "
          f"{sum(n for (_, factored), n in counted.items() if factored)} of {compared}")
    for cls, n in sorted((o, n) for o, n in outcomes.items() if isinstance(o, str)):
        print(f"  FULL refused: {cls}: {n}")
    print(f"  sha256 of every window's counts or refusal: {digest}")
    return title, digest


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="The conjugate sweep (see the module docstring).")
    parser.add_argument("seeds", nargs="*", type=int, default=[7])
    parser.add_argument("--check", action="store_true", help="compare every digest with PINNED")
    args = parser.parse_args(argv)
    printed = []
    for seed in args.seeds:
        printed.append(_report(f"seed {seed}", *sweep(seed)))
        printed.append(_report_oracle(f"seed {seed} oracle", *oracle_sweep(seed)))
    printed.append(_report(f"non-split seed {NON_SPLIT_SEED}",
                           *sweep(NON_SPLIT_SEED, NON_SPLIT_FLOWS, draw_non_split_flow)))
    printed.append(_report(f"dense seed {DENSE_SEED}", *sweep(DENSE_SEED, FLOWS, draw_dense_flow)))
    printed.append(_report_oracle(f"dense seed {DENSE_SEED} oracle",
                                  *oracle_sweep(DENSE_SEED, FLOWS, draw_dense_flow)))
    return check(printed) if args.check else 0


def check(printed: list[tuple[str, str]]) -> int:
    """0 when every (title, digest) printed matches its pin in PINNED; else
    1, after naming each digest that differs or has no pin."""
    bad = [(title, digest) for title, digest in printed if PINNED.get(title) != digest]
    for title, digest in bad:
        print(f"check: {title}: {digest} " + (f"differs from the pinned {PINNED[title]}"
                                              if title in PINNED else "has no pinned value"))
    if not bad:
        print(f"check: all {len(printed)} digests match their pinned values")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
