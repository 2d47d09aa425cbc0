"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Every check restates its own contract inline: sweep sizes, pinned
tolerances, and wall-clock budgets.  The verdict lines print through the
capture so a full run reads as a ten-line report; a failing check still
prints its line before the assertion surfaces.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from padlab import GroupSpec, PadicContext, PadicMatrix, bch, decompose, exp, log
from padlab.dynamics import bowen_count_oracle
from padlab.entropylab import (
    CylinderFunction,
    MarkovMeasure,
    entropy_gap,
    pinsker_check,
    telescope_bound_check,
)
from padlab.liegroup import ball_membership, horospherical_factor
from padlab.spectral import (
    ConstantsBundle,
    equidistribution_bound,
    kappa,
    oh_bound,
    theorem1_rhs,
    xi_pgl2,
)

from cli_cases import EXIT_CASES, GOLDEN_CASES, GOLDEN_DIR, SUBCOMMANDS, run_cli

PRECISION = 12


def random_deep_element(spec: GroupSpec, rng: random.Random) -> PadicMatrix:
    """Algebra element with every basis coefficient at valuation >= 2."""
    ctx = spec.ctx
    p = ctx.p
    while True:
        x = PadicMatrix.zeros(ctx, spec.dim)
        for b in spec.lie_basis:
            c = rng.randint(-(p**5), p**5) * p ** rng.randint(2, 4)
            if c:
                x = x + b.scale(ctx.from_rational(c))
        if x.min_valuation() >= 2 and x.min_valuation() != float("inf"):
            return x


def random_chain(rng: random.Random, s: int) -> MarkovMeasure:
    rows = []
    for _ in range(s):
        w = [rng.uniform(0.05, 1.0) for _ in range(s)]
        t = sum(w)
        rows.append([x / t for x in w])
    return MarkovMeasure(rows)


def _verdict(capsys, tag: str, ok: bool, started: float, text: str) -> None:
    elapsed = time.monotonic() - started
    with capsys.disabled():
        print(f"[{tag}] {'PASS' if ok else 'FAIL'} {text} ({elapsed:.2f}s)")


def test_ac01_exp_log_inverse_isometry(capsys):
    # 1000 deep algebra elements across p in {2,3,5} and dims {2,3}:
    # log(exp x) == x at full working precision, and exp moves the deep ball
    # isometrically: ||exp x - 1|| == ||x|| as exact rationals.  Budget 10s.
    started = time.monotonic()
    ok = False
    try:
        specs = [GroupSpec.sl(PadicContext(p), d) for p in (2, 3, 5) for d in (2, 3)]
        rng = random.Random(20260819)
        for i in range(1000):
            spec = specs[i % len(specs)]
            x = random_deep_element(spec, rng)
            g = exp(x)
            assert log(g).congruent_mod(x, PRECISION)
            diff = g - PadicMatrix.identity(spec.ctx, spec.dim)
            assert diff.max_norm() == x.max_norm()
        assert time.monotonic() - started < 10.0
        ok = True
    finally:
        _verdict(capsys, "AC1", ok, started,
                 "1000 deep elements: log(exp x) = x at precision 12 and "
                 "||exp x - 1|| = ||x|| exactly")


def test_ac02_bch_series_agreement(capsys):
    # Two independent BCH evaluations (log of the product vs the Dynkin
    # commutator series) agree mod 3^10 on 200 random deep sl2 pairs, and
    # reproduce the terminating closed form x + y + [x,y]/2 exactly on
    # strictly upper triangular sl3 input.  Budget 10s.
    started = time.monotonic()
    ok = False
    try:
        ctx = PadicContext(3)
        spec = GroupSpec.sl(ctx, 2)
        rng = random.Random(402)
        for _ in range(200):
            x = random_deep_element(spec, rng)
            y = random_deep_element(spec, rng)
            assert bch(x, y, mode="dynkin").congruent_mod(bch(x, y, mode="direct"), 10)
        x = PadicMatrix.from_rationals(ctx, [[0, 9, 0], [0, 0, 0], [0, 0, 0]])
        y = PadicMatrix.from_rationals(ctx, [[0, 0, 0], [0, 0, 9], [0, 0, 0]])
        half = ctx.from_rational(Fraction(1, 2))
        closed_form = x + y + (x @ y - y @ x).scale(half)
        for mode in ("direct", "dynkin"):
            assert bch(x, y, mode=mode).congruent_mod(closed_form, PRECISION)
        assert time.monotonic() - started < 10.0
        ok = True
    finally:
        _verdict(capsys, "AC2", ok, started,
                 "Dynkin series matches log(exp x exp y) mod 3^10 on 200 sl2 "
                 "pairs and the nilpotent sl3 closed form at precision 12")


def test_ac03_horospherical_factorization(capsys):
    # 500 random elements of the level-2 ball of SL2(Q_3), a = diag(1/3, 3):
    # g = f h with f purely unstable and h carrying no unstable component,
    # both in the level-2 ball, remultiplying to g within 3^-12, in at most
    # 6 peeling rounds.  Budget 20s.
    started = time.monotonic()
    ok = False
    try:
        ctx = PadicContext(3)
        spec = GroupSpec.sl(ctx, 2)
        a = PadicMatrix.from_rationals(ctx, [[Fraction(1, 3), 0], [0, 3]])
        dec = decompose(a, spec)
        rng = random.Random(403)
        for _ in range(500):
            g = exp(random_deep_element(spec, rng))
            f, h, rounds = horospherical_factor(g, 2, dec)
            assert rounds <= 6
            assert ball_membership(f, spec, 2)
            assert ball_membership(h, spec, 2)
            assert f.rows[1][0].is_zero or f.rows[1][0].valuation() >= PRECISION
            assert f.rows[0][0].congruent_mod(ctx.one(), PRECISION)
            assert f.rows[1][1].congruent_mod(ctx.one(), PRECISION)
            assert h.rows[0][1].is_zero or h.rows[0][1].valuation() >= PRECISION
            assert (f @ h).congruent_mod(g, PRECISION)
        assert time.monotonic() - started < 20.0
        ok = True
    finally:
        _verdict(capsys, "AC3", ok, started,
                 "500 level-2 elements of SL2(Q_3) split as unstable times "
                 "bounded within 3^-12 in at most 6 rounds")


def test_ac04_bowen_counting_oracle(capsys):
    # Lattice counts from a alone against the volume closed form, with zero
    # tolerance on the exact rational ratios.  FULL index counts for sl2 with
    # a = diag(1/p, p) (|nu| = 2, k = max nu + 2 = 4) at the minimal
    # resolving level k + (n-1) max(nu) + 1 for n = 1, 2, 3; FACTORED
    # product counts for sl3 with a = diag(1/p, 1, p) (|nu| = 4).  p in
    # {2, 3} throughout.  Budget 60s.
    started = time.monotonic()
    ok = False
    try:
        for p in (2, 3):
            ctx = PadicContext(p)
            spec = GroupSpec.sl(ctx, 2)
            a = PadicMatrix.from_rationals(ctx, [[Fraction(1, p), 0], [0, p]])
            dec = decompose(a, spec)
            assert dec.nu_total == 2
            for n in (1, 2, 3):
                level = 4 + (n - 1) * 2 + 1
                got = bowen_count_oracle(dec, 4, n, level, "FULL")
                want = tuple(Fraction(1, p ** (2 * (m - 1))) for m in range(1, n + 1))
                assert got.ratios == want
        for p in (2, 3):
            ctx = PadicContext(p)
            spec = GroupSpec.sl(ctx, 3)
            rows = [[Fraction(1, p), 0, 0], [0, 1, 0], [0, 0, p]]
            dec = decompose(PadicMatrix.from_rationals(ctx, rows), spec)
            assert dec.nu_total == 4
            for n in (1, 2, 3):
                level = 4 + (n - 1) * 2 + 1
                got = bowen_count_oracle(dec, 4, n, level, "FACTORED")
                want = tuple(Fraction(1, p ** (4 * (m - 1))) for m in range(1, n + 1))
                assert got.ratios == want
        assert time.monotonic() - started < 60.0
        ok = True
    finally:
        _verdict(capsys, "AC4", ok, started,
                 "Bowen counts from a alone equal p^(-(n-1)|nu|) exactly: FULL "
                 "sl2 and FACTORED sl3, p in {2,3}, n up to 3")


def test_ac05_expansion_exponent_bookkeeping(capsys):
    # 20 random diagonal flows with entries p^(+-j) in SL2 and SL3: the
    # decomposition's |nu| equals the combinatorial sum of positive exponent
    # differences, as exact integers computed by two independent routes.
    started = time.monotonic()
    ok = False
    try:
        rng = random.Random(405)
        for trial in range(20):
            p = rng.choice([2, 3, 5])
            dim = 2 if trial % 2 == 0 else 3
            if dim == 2:
                j = rng.choice([1, -1]) * rng.randint(1, 4)
                exps = [j, -j]
            else:
                e1 = e2 = 0
                while (e1, e2) == (0, 0):
                    e1, e2 = rng.randint(-3, 3), rng.randint(-3, 3)
                exps = [e1, e2, -e1 - e2]
            ctx = PadicContext(p)
            spec = GroupSpec.sl(ctx, dim)
            rows = [
                [Fraction(p) ** exps[i] if i == j else Fraction(0) for j in range(dim)]
                for i in range(dim)
            ]
            dec = decompose(PadicMatrix.from_rationals(ctx, rows), spec)
            hand = sum(
                abs(exps[i] - exps[j])
                for i in range(dim)
                for j in range(i + 1, dim)
            )
            assert dec.nu_total == hand
        ok = True
    finally:
        _verdict(capsys, "AC5", ok, started,
                 "20 diagonal flows: decomposition |nu| equals the exponent "
                 "difference sum as exact integers")


def test_ac06_pinsker_inequality_sweep(capsys):
    # 10^4 probability vector pairs in dimensions 2..10: the l1 distance
    # satisfies l1^2 <= 2 phi + 1e-12, and phi vanishes exactly iff the
    # pair is equal (every 10th pair is an injected exact duplicate; for
    # visibly distinct pairs phi must exceed 1e-12).
    started = time.monotonic()
    ok = False
    try:
        rng = random.Random(406)
        injected = 0
        for i in range(10_000):
            s = rng.randint(2, 10)
            ref = [rng.uniform(0.01, 1.0) for _ in range(s)]
            t = sum(ref)
            ref = [x / t for x in ref]
            if i % 10 == 0:
                obs = list(ref)
                injected += 1
            else:
                obs = [rng.uniform(0.0, 1.0) for _ in range(s)]
                t = sum(obs)
                obs = [x / t for x in obs]
            rep = pinsker_check(ref, obs)
            assert rep.l1 * rep.l1 <= rep.bound + 1e-12
            if obs == ref:
                assert rep.bound == 0.0 and rep.l1 == 0.0
            elif rep.l1 > 1e-6:
                assert rep.bound > 1e-12
        assert injected == 1000
        ok = True
    finally:
        _verdict(capsys, "AC6", ok, started,
                 "10000 vector pairs in dims 2..10: l1^2 <= 2 phi + 1e-12 "
                 "and phi = 0 exactly iff equal")


def test_ac07_entropy_gap_identity(capsys):
    # 100 random Markov chains over s = p^|nu| in {2, 3, 4, 9} symbols:
    # |nu| ln p - h_mu equals the stationary average of phi against the
    # uniform row, within 1e-10.
    started = time.monotonic()
    ok = False
    try:
        rng = random.Random(407)
        combos = [(1, 2), (1, 3), (2, 2), (2, 3)]  # (|nu|, p) -> s = 2, 3, 4, 9
        for i in range(100):
            nu_total, p = combos[i % 4]
            mu = random_chain(rng, p**nu_total)
            ident = entropy_gap(mu, nu_total, p)
            assert ident.phi_side >= -1e-15
            assert abs(ident.entropy_side - ident.phi_side) < 1e-10
        ok = True
    finally:
        _verdict(capsys, "AC7", ok, started,
                 "100 chains over 2/3/4/9 symbols: entropy deficit equals "
                 "the stationary phi average within 1e-10")


def test_ac08_telescoping_defect_bounds(capsys):
    # 100 random (chain, cylinder function) pairs with depth <= 3: each
    # telescoping defect satisfies delta_n <= sqrt(2)||f_n|| sqrt(gap) and
    # the deltas sum to at least |mean f - mu(f)|, both with 1e-12 slack.
    # Uniform chains give bit-exact zero deltas.  Budget 10s.
    started = time.monotonic()
    ok = False
    try:
        rng = random.Random(408)
        for _ in range(100):
            s = rng.choice([2, 3, 4])
            depth = rng.randint(1, 3)
            mu = random_chain(rng, s)
            f = CylinderFunction(
                depth, s, [rng.uniform(-2.0, 2.0) for _ in range(s**depth)]
            )
            report = telescope_bound_check(f, mu)
            for delta, bound in zip(report.deltas, report.per_step_bounds):
                assert delta <= bound + 1e-12
            assert report.total_defect <= report.delta_sum + 1e-12
        for s in (2, 3, 4, 9):
            f = CylinderFunction(2, s, [rng.uniform(-2.0, 2.0) for _ in range(s**2)])
            report = telescope_bound_check(f, MarkovMeasure.uniform(s))
            assert report.deltas == (0.0,) * len(report.deltas)
        assert time.monotonic() - started < 10.0
        ok = True
    finally:
        _verdict(capsys, "AC8", ok, started,
                 "100 (chain, f) pairs satisfy both defect bounds; uniform "
                 "chains give exactly zero deltas")


def test_ac09_spectral_constants(capsys):
    # Harish-Chandra endpoints frozen to 1e-6, strict decay through k = 40,
    # the trivial-Cartan decay bound collapsing to sqrt(dim Kv dim Kw)
    # exactly, the consecutive-n equidistribution ratio ||a||^-delta to
    # 1e-12, and both headline constants against factor-by-factor
    # recomputation to relative 1e-12 on a 3^4 parameter grid.
    started = time.monotonic()
    ok = False
    try:
        for p in (2, 3, 5, 7):
            assert xi_pgl2(p, 0) == 1.0
            values = [xi_pgl2(p, k) for k in range(1, 41)]
            assert values[0] < 1.0
            assert all(a > b for a, b in zip(values, values[1:]))
        assert abs(xi_pgl2(3, 1) - 0.866025) < 1e-6
        assert abs(xi_pgl2(2, 2) - 0.833333) < 1e-6
        for dkv, dkw in ((1, 1), (1, 4), (2, 3), (5, 5)):
            for p, m in ((2, 2), (3, 3), (5, 4)):
                assert oh_bound(p, [0] * m, dkv, dkw) == math.sqrt(dkv * dkw)
        h = 4 * math.log(3)
        for c in (0.5, 1.0, 2.0):
            for alpha in (0.5, 1.0, 2.0):
                for delta in (0.5, 1.0, 2.0):
                    for a_norm in (1.5, 2.0, 4.0):
                        bundle = ConstantsBundle(
                            c=c,
                            alpha=alpha,
                            delta=delta,
                            p=3,
                            d=2,
                            entropy_nats=h,
                            base_ball_measure=0.25,
                            a_norm=a_norm,
                            nu_total=4,
                        )
                        for n in (1, 5):
                            ratio = equidistribution_bound(bundle, 2, n + 1) / (
                                equidistribution_bound(bundle, 2, n)
                            )
                            assert abs(ratio - a_norm**-delta) < 1e-12
                        got = kappa(bundle)
                        by_factors = (
                            math.sqrt(2.0)
                            * c
                            * 3.0 ** (2.0 * alpha)
                            * 0.25**-0.5
                            * (1.0 - a_norm**-delta) ** -1.0
                            * math.exp((3.0 * alpha + 2.0) * h)
                        )
                        assert got == pytest.approx(by_factors, rel=1e-12)
                        rhs = theorem1_rhs(bundle, 2, 1.5, 0.36)
                        by_hand = (
                            got * 3.0 ** ((2.0 * alpha + 1.0) * 2.0) * 1.5 * math.sqrt(0.36)
                        )
                        assert rhs == pytest.approx(by_hand, rel=1e-12)
        ok = True
    finally:
        _verdict(capsys, "AC9", ok, started,
                 "Harish-Chandra values, decay bounds, and headline constants "
                 "match independent recomputation (81-point grid, rel 1e-12)")


def test_ac10_cli_contract(capsys):
    # Every subcommand reproduces its golden transcript byte for byte, the
    # counting oracle reports AGREE, and every documented exit code is
    # observed on a concrete fixture.
    started = time.monotonic()
    ok = False
    try:
        assert {argv[0] for _, argv in GOLDEN_CASES} == SUBCOMMANDS
        for name, argv in GOLDEN_CASES:
            code, out, err = run_cli(argv)
            assert code == 0 and err == "", name
            assert out == (GOLDEN_DIR / name).read_text(), name
        for name in ("oracle_full_sl2.json", "oracle_factored_sl3.json"):
            assert '"verdict": "AGREE"' in (GOLDEN_DIR / name).read_text()
        for argv, want in EXIT_CASES:
            code, out, _ = run_cli(argv)
            assert code == want and out == ""
        assert sorted({want for _, want in EXIT_CASES}) == [
            1, 2, 3, 4, 5, 6, 8, 10, 11, 13, 15, 16, 17, 18,
        ]
        ok = True
    finally:
        _verdict(capsys, "AC10", ok, started,
                 "all 15 subcommands reproduce their goldens byte for byte; "
                 "every reachable documented exit code observed")
