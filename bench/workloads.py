"""The benchmark's three workloads: seeded inputs, ops and their checks.

A workload is a sequence of cycles.  Every cycle has the same shape (the
same number of ops of each kind, at the same sizes, in the same slot
order); the seed only chooses the values inside that shape, so runs at
different seeds measure the same mix.  ``cycle(rng, gen, variants)`` makes
one cycle as ``variants`` lists of ops: slot i of every list has the same
shape, and no two lists hold the same input in a slot.  An op runs the
program on its inputs (timed) and then checks the result against an
independent route (untimed).

The mix of each workload follows one stated rule, given next to it.  The
repository has no usage data, so no mix is checked against real traffic.

All package calls go through module attributes (``padlab.exp``,
``padlab.cli.main``) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np

import padlab
import padlab.cli

PRECISION = 12
OK = None


class Op:
    """One closed-loop request: ``run(fixtures)`` is timed, ``check`` is not.

    ``check(result)`` returns None when verified, else ``(status, label)``
    with status "failed" (the program refused: a PadlabError or the exit
    code of one where refusing is expected) or "mismatch" (a wrong answer,
    or any other error).
    """

    __slots__ = ("kind", "tags", "run", "check")

    def __init__(self, kind: str, run, check, tags: dict | None = None):
        self.kind = kind
        self.run = run
        self.check = check
        self.tags = tags or {}


def _mismatch(kind: str, what: str):
    return ("mismatch", f"{kind}: {what}")


def outcome(op: Op, result, error):
    """None when verified, else (status, label); see Op.  Only a PadlabError
    raised by the program is a refusal; any other exception, and one raised
    by a check, is a wrong answer."""
    if isinstance(error, padlab.PadlabError):
        return ("failed", type(error).__name__)
    if error is not None:
        return _mismatch(op.kind, f"raised {type(error).__name__}: {error}")
    try:
        return op.check(result)
    except Exception as err:
        return _mismatch(op.kind, f"check raised {type(err).__name__}: {err}")


# ---- series ---------------------------------------------------------------

# Mix rule: one weight per op kind and prime.  Each of the four op kinds
# (exp->log on sl2, exp->log on sl3, a bch pair on sl2, a factor on sl2)
# gets three ops per prime and cycle.  A bch pair's cost depends on its
# valuation (the series cutoff does), so the three valuations are dealt out
# per slot rather than left to chance, in thirds rounded to the share the
# deep-element generator gives pairs of valuation 2: about 0.64 at p=2,
# 0.76 at p=3 and 0.86 at p=5 (600 draws each).
BCH_VALUATIONS = {2: (2, 2, 3), 3: (2, 2, 3), 5: (2, 2, 2)}


def random_deep_element(spec, rng: random.Random, least: int = 2, exact: bool = False):
    """Algebra element with every basis coefficient at valuation >= 2 (AC1-AC3),
    drawn until its valuation is >= least (== least if exact)."""
    ctx = spec.ctx
    p = ctx.p
    while True:
        x = padlab.PadicMatrix.zeros(ctx, spec.dim)
        for b in spec.lie_basis:
            c = rng.randint(-(p**5), p**5) * p ** rng.randint(2, 4)
            if c:
                x = x + b.scale(ctx.from_rational(c))
        v = x.min_valuation()
        if v != math.inf and (v == least if exact else v >= least):
            return x


def _explog_op(p: int, d: int, x) -> Op:
    def run(fx):
        g = padlab.exp(x)
        return g, padlab.log(g)

    def check(result):
        g, back = result
        if not back.congruent_mod(x, PRECISION):
            return _mismatch("explog", "log(exp x) != x")
        diff = g - padlab.PadicMatrix.identity(x.ctx, x.dim)
        if diff.max_norm() != x.max_norm():
            return _mismatch("explog", "||exp x - 1|| != ||x||")
        return OK

    return Op(f"explog_sl{d}", run, check, {"p": p})


def _bch_op(p: int, x, y) -> Op:
    def run(fx):
        return padlab.bch(x, y, mode="direct"), padlab.bch(x, y, mode="dynkin")

    def check(result):
        direct, dynkin = result
        if not dynkin.congruent_mod(direct, 10):
            return _mismatch("bch", "dynkin != direct mod p^10")
        return OK

    return Op("bch_sl2", run, check, {"p": p})


def _factor_op(p: int, g) -> Op:
    def run(fx):
        return padlab.horospherical_factor(g, 2, fx["decs"][p])

    def check(result):
        if not (result.unstable @ result.bounded).congruent_mod(g, PRECISION):
            return _mismatch("factor", "f h != g mod p^12")
        return OK

    return Op("factor_sl2", run, check, {"p": p})


def series_cycle(rng: random.Random, gen: dict, variants: int) -> list[list[Op]]:
    return [_series_ops(rng, gen) for _ in range(variants)]


def _series_ops(rng: random.Random, gen: dict) -> list[Op]:
    ops = []
    for p in (2, 3, 5):
        spec2, spec3 = gen["specs"][p, 2], gen["specs"][p, 3]
        for v in BCH_VALUATIONS[p]:
            ops.append(_explog_op(p, 2, random_deep_element(spec2, rng)))
            ops.append(_explog_op(p, 3, random_deep_element(spec3, rng)))
            x = random_deep_element(spec2, rng, v, exact=True)
            ops.append(_bch_op(p, x, random_deep_element(spec2, rng, v)))
            ops.append(_factor_op(p, padlab.exp(random_deep_element(spec2, rng))))
    return ops


# ---- oracle ---------------------------------------------------------------

# Mix rule: every job of the grid below whose lattice has at most
# POINT_CAP points, each once per cycle.  The grid is
#   sl2 flows diag(p^-e, p^e): p in {2,3,5}, e in {1,2}, n in {1,2,3},
#       at the minimal resolving level or one above it;
#   dim-3 flows diag(p^-1, 1, p) on sl3 and gl3: p in {2,3,5}, n = 1, at
#       the minimal level.
# That gives 25 jobs of 8 to 531441 points.  Jobs above the cap (2M points
# and more, the AC4 case p=3, n=3 of 14.3M among them) last 1 to 13 s, too
# long to repeat in a run, and one run of each moved the workload's figures
# by +-20% with the host's speed.  The seed picks the order of the sl2
# exponents; the dim-3 exponent order is fixed, because decompose on sl3 at
# p=2 costs 31 to 65 ms depending on it.  The variants of a job raise the
# ball level k (and the lattice level with it) by 0, 1, 2, ... and, on sl2,
# also swap the exponents: the same count of points on inputs no other
# variant has.  On sl2 the shift stays at most 2, since at p=5, e=2 a larger
# k needs a conjugation modulus beyond the oracle's 2^20.  The flows
# themselves form a finite set, so decompose sees each of them again in
# every cycle.
POINT_CAP = 3**12


def _oracle_grid() -> list[tuple]:
    """(family, dim, p, e, n, levels above the minimal one, points)"""
    jobs = []
    for p in (2, 3, 5):
        for e in (1, 2):
            for n in (1, 2, 3):
                jobs += [("sl", 2, p, e, n, extra) for extra in (0, 1)]
        jobs += [(family, 3, p, 1, 1, 0) for family in ("sl", "gl")]
    out = []
    for family, dim, p, e, n, extra in jobs:
        dim_g = dim * dim - (1 if family == "sl" else 0)
        points = p ** (dim_g * ((n - 1) * 2 * e + 1 + extra))
        if points <= POINT_CAP:
            out.append((family, dim, p, e, n, extra, points))
    return out


ORACLE_JOBS = _oracle_grid()


def _oracle_op(family, dim, p, e, n, extra, points, swap: bool, shift: int) -> Op:
    exps = ([e, -e] if swap else [-e, e]) if dim == 2 else [-e, 0, e]
    rows = [[Fraction(p) ** exps[i] if i == j else Fraction(0) for j in range(dim)]
            for i in range(dim)]
    spread = max(exps) - min(exps)  # largest |v_p| of an Ad eigenvalue
    k = spread + 2 + shift
    level = k + (n - 1) * spread + 1 + extra
    a = padlab.PadicMatrix.from_rationals(padlab.PadicContext(p), rows)

    def run(fx):
        dec = padlab.decompose(a, fx["specs"][family, p, dim])
        return dec, padlab.bowen_count_oracle(dec, k, n, level, "FULL")

    def check(result):
        dec, full = result
        if full.counts[0] != points:
            return _mismatch("oracle", f"enumerated {full.counts[0]} of {points} points")
        factored = padlab.bowen_count_oracle(dec, k, n, level, "FACTORED")
        if full.counts != factored.counts:
            return _mismatch("oracle", "FULL counts != FACTORED counts")
        closed = tuple(padlab.bowen_volume_ratio(dec, m) for m in range(1, n + 1))
        if full.ratios != closed:
            return _mismatch("oracle", "FULL ratios != closed-form volume ratios")
        return OK

    return Op(f"full_{family}{dim}", run, check,
              {"p": p, "n": n, "points": points})


def oracle_cycle(rng: random.Random, gen: dict, variants: int) -> list[list[Op]]:
    sl2 = [(swap, shift) for shift in range(3) for swap in (False, True)]
    assert variants <= len(sl2)
    out = [[] for _ in range(variants)]
    for job in ORACLE_JOBS:
        # the seed picks which distinct inputs the variants get
        picks = rng.sample(sl2 if job[1] == 2 else [(False, v) for v in range(variants)], variants)
        for ops, (swap, shift) in zip(out, picks):
            ops.append(_oracle_op(*job, swap, shift))
    return out


# ---- cli ------------------------------------------------------------------

# Mix rule: one weight per subcommand.  Each of the eight generated
# subcommands gets CALLS calls per cycle, next to every golden and every
# exit case once.  Inside a subcommand, shapes are dealt out evenly and only
# values are random (a run has too few of the slow ones to leave their mix
# to chance):
# - analyze: every (p, family, dim) for p in {2,3,5}, sl/gl, dims 2-3, once
#   on a diagonal flow and once on its D1 conjugate u D u^-1 (ROADMAP D1):
#   the two input families get the same weight, so half are conjugates;
# - gap and telescope: CALLS / 4 rounds over the four chain sizes; the
#   first round of each cycle is slowly mixing, the stated minority: one
#   chain in six, one per size, subcommand and cycle;
# - telescope depths cycle through 1..3 (1..2 for s = 9).
CALLS = 24
SLOW_LEAK = 0.001
GAP_SHAPES = ((1, 2), (1, 3), (2, 2), (2, 3))  # (|nu|, p): s = 2, 3, 4, 9
# exit codes of documented refusals; 1 (parse and validation) is not one
REFUSALS = frozenset(code for code in padlab.cli.EXIT_CODES.values() if code != 1)


def call_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = padlab.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_op(kind: str, argv: list[str], verify, tags: dict | None = None,
            may_refuse: bool = False) -> Op:
    """verify(doc) checks a successful JSON answer.  A nonzero exit is a
    refusal only if may_refuse and the code is a documented refusal; any
    other nonzero exit is a wrong answer."""

    def check(result):
        code, out, err = result
        if code != 0:
            if may_refuse and code in REFUSALS:
                return ("failed", f"exit {code}")
            return _mismatch(kind, f"exit {code}: {err.strip()}")
        try:
            return verify(json.loads(out))
        except (ValueError, KeyError, TypeError) as err:
            return _mismatch(kind, f"unreadable output: {err}")

    return Op(kind, lambda fx: call_cli(argv), check, tags)


def _golden_op(name: str, argv: list[str], want: str) -> Op:
    def check(result):
        code, out, err = result
        if code != 0 or out != want or err:
            return _mismatch("golden", f"{name} output differs from its golden")
        return OK

    return Op("golden", lambda fx: call_cli(argv), check, {"name": name})


def _exit_op(argv: list[str], want: int) -> Op:
    def check(result):
        code, out, err = result
        if code != want or out or not err:
            return _mismatch("exit_case", f"{argv[:1]} gave exit {code}, documented {want}")
        return OK

    return Op("exit_case", lambda fx: call_cli(argv), check, {"want": want})


def _matrix_arg(rows) -> str:
    return json.dumps([[str(Fraction(x)) for x in row] for row in rows])


def _matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _analyze_op(rng: random.Random, p: int, family: str, dim: int, conjugate: bool) -> Op:
    while True:
        if family == "sl" and dim == 2:
            j = rng.choice((1, -1)) * rng.randint(1, 3)
            exps = [j, -j]
        elif family == "sl":
            e1, e2 = rng.randint(-2, 2), rng.randint(-2, 2)
            exps = [e1, e2, -e1 - e2]
        else:
            exps = [rng.randint(-2, 2) for _ in range(dim)]
        if len(set(exps)) > 1:
            break
    rows = [[Fraction(p) ** exps[i] if i == j else Fraction(0) for j in range(dim)]
            for i in range(dim)]
    if conjugate:
        u = [[Fraction(int(i == j)) if j <= i else Fraction(rng.randint(-3, 3))
              for j in range(dim)] for i in range(dim)]
        if all(u[i][j] == 0 for i in range(dim) for j in range(i + 1, dim)):
            u[0][dim - 1] = Fraction(1)
        # u = 1 + N with N strictly upper triangular: u^-1 = sum (-N)^k
        nil = [[u[i][j] - int(i == j) for j in range(dim)] for i in range(dim)]
        inv = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
        power = inv
        for k in range(1, dim):
            power = _matmul(power, nil)
            sign = -1 if k % 2 else 1
            inv = [[inv[i][j] + sign * power[i][j] for j in range(dim)] for i in range(dim)]
        rows = _matmul(_matmul(u, rows), inv)
    # AC5: |nu| is the sum of positive exponent differences, conjugation-invariant
    hand = sum(abs(exps[i] - exps[j]) for i in range(dim) for j in range(i + 1, dim))
    argv = ["analyze", "--p", str(p), "--group", family, "--dim", str(dim),
            "--element", _matrix_arg(rows)]

    def verify(doc):
        if doc["nu_total"] != hand:
            return _mismatch("analyze", f"|nu| {doc['nu_total']} != {hand}")
        return OK

    # D1: at seed, decompose refuses most conjugates (exit 7)
    return _cli_op("analyze", argv, verify, {"conjugate": conjugate, "family": family},
                   may_refuse=conjugate)


def _random_rows(rng: random.Random, s: int, slow: bool) -> list[list[float]]:
    rows = []
    half = (s + 1) // 2
    for i in range(s):
        w = [rng.uniform(0.05, 1.0) for _ in range(s)]
        if slow:
            # two blocks joined by little cross mass, SLOW_LEAK from the first
            # and three times that from the second: the stationary mass of the
            # blocks (3:1) differs from the uniform start, and the spectral
            # gap is about 4 SLOW_LEAK, so power iteration needs ~3 10^4 rounds
            same = [j for j in range(s) if (j < half) == (i < half)]
            other = [j for j in range(s) if j not in same]
            leak = SLOW_LEAK if i < half else 3 * SLOW_LEAK
            ts, to = sum(w[j] for j in same), sum(w[j] for j in other)
            for j in same:
                w[j] *= (1.0 - leak) / ts
            for j in other:
                w[j] *= leak / to
        t = math.fsum(w)
        row = [x / t for x in w]
        row[-1] = 1.0 - math.fsum(row[:-1])
        rows.append(row)
    return rows


def _stationary(rows) -> np.ndarray:
    """pi T = pi, sum pi = 1, by a direct linear solve (not power iteration)."""
    t = np.asarray(rows, dtype=float)
    s = t.shape[0]
    a = t.T - np.eye(s)
    a[-1, :] = 1.0
    b = np.zeros(s)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def _close(got: str | float, want: float, tol: float = 1e-8) -> bool:
    return abs(float(got) - want) <= tol * max(1.0, abs(want))


def _gap_op(rng: random.Random, nu: int, p: int, slow: bool) -> Op:
    rows = _random_rows(rng, p**nu, slow)
    argv = ["gap", "--p", str(p), "--nu", str(nu),
            "--markov", json.dumps({"s": p**nu, "transition": rows})]

    def verify(doc):
        pi = _stationary(rows)
        h = sum(pi[i] * -sum(t * math.log(t) for t in row if t > 0)
                for i, row in enumerate(rows))
        if not all(_close(g, w) for g, w in zip(doc["stationary"], pi)):
            return _mismatch("gap", "stationary vector differs from the direct solve")
        if not _close(doc["entropy_side"], nu * math.log(p) - h):
            return _mismatch("gap", "entropy side differs")
        if not _close(doc["phi_side"], nu * math.log(p) - h):
            return _mismatch("gap", "phi side differs from the entropy deficit")
        return OK

    return _cli_op("gap", argv, verify, {"slow": slow})


def _telescope_op(rng: random.Random, s: int, slow: bool, depth: int) -> Op:
    rows = _random_rows(rng, s, slow)
    values = [rng.uniform(-2.0, 2.0) for _ in range(s**depth)]
    argv = ["telescope", "--markov", json.dumps({"s": s, "transition": rows}),
            "--f", json.dumps({"depth": depth, "values": values})]

    def verify(doc):
        pi = _stationary(rows)
        # mu(w_0..w_r) = pi(w_r) T[w_r, w_r-1] ... T[w_1, w_0]; index sum w_t s^t
        mu_f = 0.0
        for idx, f in enumerate(values):
            word = [(idx // s**t) % s for t in range(depth)]
            m = pi[word[-1]]
            for t in range(depth - 1, 0, -1):
                m *= rows[word[t]][word[t - 1]]
            mu_f += m * f
        if not _close(doc["mu_f"], mu_f):
            return _mismatch("telescope", "mu(f) differs from the word sum")
        if not _close(doc["mean_f"], math.fsum(values) / len(values)):
            return _mismatch("telescope", "mean(f) differs")
        if not (doc["per_step_hold"] and doc["telescoping_holds"]):
            return _mismatch("telescope", "bound reported as violated")
        return OK

    return _cli_op("telescope", argv, verify, {"slow": slow})


def _prob(rng: random.Random, s: int) -> list[float]:
    w = [rng.uniform(0.01, 1.0) for _ in range(s)]
    t = math.fsum(w)
    out = [x / t for x in w]
    out[-1] = 1.0 - math.fsum(out[:-1])
    return out


def _pinsker_op(rng: random.Random) -> Op:
    s = rng.randint(2, 10)
    ref, obs = _prob(rng, s), _prob(rng, s)
    argv = ["pinsker", "--ref", json.dumps(ref), "--obs", json.dumps(obs)]

    def verify(doc):
        l1 = sum(abs(a - b) for a, b in zip(ref, obs))
        kl = sum(q * math.log(q / r) for r, q in zip(ref, obs))
        if not (_close(doc["l1"], l1) and _close(doc["bound"], 2 * kl)):
            return _mismatch("pinsker", "l1 or 2 phi differs")
        if doc["holds"] is not True:
            return _mismatch("pinsker", "Pinsker reported as violated")
        return OK

    return _cli_op("pinsker", argv, verify)


def _bundle(rng: random.Random):
    b = {"p": rng.choice((2, 3, 5)), "c": rng.uniform(0.5, 2.0),
         "alpha": rng.uniform(0.25, 2.0), "delta": rng.uniform(0.25, 2.0),
         "d": rng.randint(1, 3), "base": rng.uniform(0.1, 1.0),
         "a_norm": rng.uniform(1.5, 4.0), "h": rng.uniform(0.0, 2.0)}
    argv = ["--p", str(b["p"]), "--c", repr(b["c"]), "--alpha", repr(b["alpha"]),
            "--delta", repr(b["delta"]), "--d", str(b["d"]), "--base", repr(b["base"]),
            "--a-norm", repr(b["a_norm"]), "--entropy-nats", repr(b["h"])]
    kap = (math.sqrt(2.0) * b["c"] * b["p"] ** (2.0 * b["alpha"]) / math.sqrt(b["base"])
           / (1.0 - b["a_norm"] ** -b["delta"]) * math.exp((3.0 * b["alpha"] + b["d"]) * b["h"]))
    return b, argv, kap


def _kappa_op(rng: random.Random) -> Op:
    _, argv, kap = _bundle(rng)

    def verify(doc):
        return OK if _close(doc["kappa"], kap) else _mismatch("kappa", "kappa differs")

    return _cli_op("kappa", ["kappa"] + argv, verify)


def _bound_op(rng: random.Random) -> Op:
    b, argv, kap = _bundle(rng)
    lf, fnorm, gap = rng.randint(0, 3), rng.uniform(0.1, 2.0), rng.uniform(0.0, 1.0)
    rhs = kap * b["p"] ** ((2.0 * b["alpha"] + b["d"] / 2.0) * lf) * fnorm * math.sqrt(gap)
    argv = ["bound"] + argv + ["--lf", str(lf), "--f-norm", repr(fnorm), "--gap", repr(gap)]

    def verify(doc):
        return OK if _close(doc["rhs"], rhs) else _mismatch("bound", "rhs differs")

    return _cli_op("bound", argv, verify)


def _xi(p: int, k: int) -> float:
    # spherical function of PGL2: p^(-k/2) (1 + k (p-1)/(p+1))
    return p ** (-k / 2.0) * (1.0 + k * (p - 1) / (p + 1))


def _oh_op(rng: random.Random, with_element: bool) -> Op:
    p = rng.choice((2, 3, 5))
    kv, kw = rng.randint(1, 4), rng.randint(1, 4)
    if with_element:
        e = rng.randint(0, 3)
        u = rng.randint(-5, 5)
        # diag(p^e, p^-e) times an integral unipotent: Cartan list (e, -e)
        rows = [[Fraction(p) ** e, u * Fraction(p) ** e], [0, Fraction(p) ** -e]]
        cartan = [e, -e]
        source = ["--element", _matrix_arg(rows)]
    else:
        cartan = sorted((rng.randint(-3, 3) for _ in range(rng.randint(2, 4))), reverse=True)
        source = ["--cartan", json.dumps(cartan)]
    m = len(cartan)
    want = math.sqrt(kv * kw) * math.prod(
        _xi(p, cartan[i] - cartan[m - 1 - i]) for i in range(m // 2))
    argv = ["oh", "--p", str(p), "--dimkv", str(kv), "--dimkw", str(kw)] + source

    def verify(doc):
        if doc["cartan"] != cartan:
            return _mismatch("oh", f"Cartan list {doc['cartan']} != {cartan}")
        return OK if _close(doc["value"], want) else _mismatch("oh", "bound differs")

    return _cli_op("oh", argv, verify)


def _xi_op(rng: random.Random) -> Op:
    p, k = rng.choice((2, 3, 5, 7)), rng.randint(0, 12)

    def verify(doc):
        return OK if _close(doc["value"], _xi(p, k)) else _mismatch("xi", "value differs")

    return _cli_op("xi", ["xi", "--p", str(p), "--k", str(k)], verify)


def cli_cycle(rng: random.Random, gen: dict, variants: int) -> list[list[Op]]:
    return [_cli_ops(rng, gen) for _ in range(variants)]


def _cli_ops(rng: random.Random, gen: dict) -> list[Op]:
    ops = [_golden_op(name, argv, gen["goldens"][name]) for name, argv in gen["golden_cases"]]
    ops += [_exit_op(argv, want) for argv, want in gen["exit_cases"]]
    ops += [_analyze_op(rng, p, family, dim, conjugate)
            for family in ("sl", "gl") for dim in (2, 3) for p in (2, 3, 5)
            for conjugate in (False, True)]
    rounds = CALLS // 4
    ops += [_gap_op(rng, nu, p, slow=i == 0) for i in range(rounds) for nu, p in GAP_SHAPES]
    ops += [_telescope_op(rng, s, slow=i == 0, depth=1 + i % (2 if s == 9 else 3))
            for i in range(rounds) for s in (2, 3, 4, 9)]
    ops += [_pinsker_op(rng) for _ in range(CALLS)]
    ops += [_kappa_op(rng) for _ in range(CALLS)]
    ops += [_bound_op(rng) for _ in range(CALLS)]
    ops += [_oh_op(rng, i % 2 == 1) for i in range(CALLS)]
    ops += [_xi_op(rng) for _ in range(CALLS)]
    return ops


def cli_generation_state(root: Path) -> dict:
    """Golden argv tables and transcripts, read from the repository's tests."""
    import cli_cases  # tests/ is on sys.path

    goldens = {name: (root / "tests" / "goldens" / name).read_text()
               for name, _ in cli_cases.GOLDEN_CASES}
    return {"golden_cases": cli_cases.GOLDEN_CASES, "exit_cases": cli_cases.EXIT_CASES,
            "goldens": goldens}


# name -> (cycle generator, the layers its ops load)
WORKLOADS = {
    "series": (series_cycle, ["scalar", "matrix", "liegroup"]),
    "oracle": (oracle_cycle, ["matrix", "liegroup", "dynamics"]),
    "cli": (cli_cycle, ["cli", "matrix", "liegroup", "dynamics", "entropylab", "spectral", "scalar"]),
}
