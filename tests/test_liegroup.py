"""Exponential, logarithm, BCH and horospherical factorization.

The deep-ball hypothesis ||X|| <= p^-2 makes exp and log mutually inverse
isometries, so round trips and norm preservation can be asserted exactly.
"""

import random
from fractions import Fraction
from math import comb, factorial
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlab import GroupSpec, PadicContext, PadicMatrix, PadicScalar, bch, decompose, exp, log
from padlab.errors import DomainError, PrecisionExhausted
from padlab.liegroup import (
    FactorResult,
    _bch_dynkin,
    _certified,
    _dynkin_plan,
    _floor_log,
    _reps,
    _require_deep,
    _series_plan,
    _tail_floor,
    _term_floor,
    _vp_factorial,
    _weights,
    ball_membership,
    horospherical_factor,
)
from padlab.matrix import combine

from bch_digest import digest, draw_pairs


def random_deep_element(spec: GroupSpec, rng: random.Random, exact=None) -> PadicMatrix:
    """Algebra element with every coefficient at valuation >= 2 (and the
    matrix at valuation `exact`, if given)."""
    ctx = spec.ctx
    p = ctx.p
    while True:
        x = PadicMatrix.zeros(ctx, spec.dim)
        for b in spec.lie_basis:
            c = rng.randint(-(p**5), p**5) * p ** rng.randint(2, 4)
            if c:
                x = x + b.scale(ctx.from_rational(c))
        v = x.min_valuation()
        if v >= 2 and v != float("inf") and exact in (None, v):
            return x


@pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (3, 3), (5, 2)])
def test_exp_log_round_trip(p, d):
    ctx = PadicContext(p)
    spec = GroupSpec.sl(ctx, d)
    rng = random.Random(p * 100 + d)
    for _ in range(25):
        x = random_deep_element(spec, rng)
        g = exp(x)
        assert log(g).congruent_mod(x, ctx.precision)
        # exp is an isometry of the deep ball onto the deep congruence ball
        diff = g - PadicMatrix.identity(ctx, d)
        assert diff.max_norm() == x.max_norm()
        assert ball_membership(g, spec, 2)


def test_exp_log_other_direction():
    ctx = PadicContext(3)
    spec = GroupSpec.sl(ctx, 2)
    rng = random.Random(7)
    for _ in range(25):
        g = exp(random_deep_element(spec, rng))
        assert exp(log(g)).congruent_mod(g, ctx.precision)


def test_exp_of_zero_is_identity():
    ctx = PadicContext(3)
    z = PadicMatrix.zeros(ctx, 2)
    assert exp(z) == PadicMatrix.identity(ctx, 2)
    assert log(PadicMatrix.identity(ctx, 2)).min_valuation() == float("inf")


def test_shallow_arguments_rejected():
    ctx = PadicContext(3)
    e12 = PadicMatrix.from_rationals(ctx, [[0, 1], [0, 0]])
    with pytest.raises(DomainError):
        exp(e12)  # valuation 0
    with pytest.raises(DomainError):
        exp(e12.scale(ctx.from_rational(3)))  # valuation 1 still too shallow
    with pytest.raises(DomainError):
        log(PadicMatrix.from_rationals(ctx, [[1, 3], [0, 1]]))


def test_exp_homomorphism_on_commuting_elements():
    ctx = PadicContext(3)
    x = PadicMatrix.from_rationals(ctx, [[9, 0], [0, -9]])
    y = PadicMatrix.from_rationals(ctx, [[18, 0], [0, -18]])
    assert (exp(x) @ exp(y)).congruent_mod(exp(x + y), ctx.precision)
    for mode in ("direct", "dynkin"):
        assert bch(x, y, mode=mode).congruent_mod(x + y, ctx.precision)


@pytest.mark.parametrize("p", [3, 5])
def test_bch_modes_agree(p):
    ctx = PadicContext(p)
    spec = GroupSpec.sl(ctx, 2)
    rng = random.Random(31 + p)
    for _ in range(15):
        x = random_deep_element(spec, rng)
        y = random_deep_element(spec, rng)
        direct = bch(x, y, mode="direct")
        dynkin = bch(x, y, mode="dynkin")
        assert direct.congruent_mod(dynkin, 10)
        # both satisfy the defining property
        assert exp(direct).congruent_mod(exp(x) @ exp(y), 10)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_dynkin_returns_on_deep_sl3_pairs(p):
    # building ad(x) with strict subtraction refused pairs whose diagonal
    # entries carry fewer than N digits (27 of these 120 before)
    spec = GroupSpec.sl(PadicContext(p), 3)
    rng = random.Random(2000 + p)
    for _ in range(40):
        x = random_deep_element(spec, rng)
        y = random_deep_element(spec, rng)
        assert bch(x, y, mode="dynkin").congruent_mod(bch(x, y, mode="direct"), 10)


def _vp_fraction(q: Fraction, p: int) -> int:
    num, den, v = q.numerator, q.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _lift(m: PadicMatrix, ctx: PadicContext) -> PadicMatrix:
    """The same representatives in another context."""
    return PadicMatrix.from_rationals(ctx, [[e.as_rational() for e in r] for r in m.rows])


def _check_claimed_digits(got: PadicMatrix, ref: PadicMatrix) -> int:
    """Assert that each entry of got agrees with ref in every digit it claims
    (an exact zero claims all N); return the number of nonzero entries."""
    p, n_prec = got.ctx.p, got.ctx.precision
    checked = 0
    for z, z_ref in zip(got.flat(), ref.flat()):
        if z.is_zero:
            assert z_ref.valuation() >= n_prec
            continue
        diff = z.as_rational() - z_ref.as_rational()
        assert diff == 0 or _vp_fraction(diff, p) >= z.abs_precision()
        checked += 1
    return checked


@pytest.mark.parametrize("p", [2, 3, 5])
def test_dynkin_never_overstates_certified_digits(p):
    # the reference is DIRECT at 48 digits on the same representatives, so
    # every digit the Dynkin result claims must match it
    ctx, deep = PadicContext(p), PadicContext(p, 48)
    sl2, sl3 = GroupSpec.sl(ctx, 2), GroupSpec.sl(ctx, 3)
    rng = random.Random(1000 + p)
    pairs = [
        (random_deep_element(sl2, rng, v), random_deep_element(sl2, rng, v))
        for v in (2, 3)
        for _ in range(6)
    ]
    pairs += [(random_deep_element(sl2, rng, 2), random_deep_element(sl2, rng, 3))
              for _ in range(3)]
    pairs += [(random_deep_element(sl3, rng), random_deep_element(sl3, rng))
              for _ in range(3)]
    pairs.append((PadicMatrix.zeros(ctx, 2), pairs[0][1]))
    pairs.append((pairs[0][0], PadicMatrix.zeros(ctx, 2)))
    # gl pairs have a trace, carried apart from the traceless coordinates
    pairs += [(random_deep_element(gl, rng), random_deep_element(gl, rng))
              for gl in (GroupSpec.gl(ctx, 2), GroupSpec.gl(ctx, 3))
              for _ in range(3)]
    if p == 2:
        # at k = 2 DYNKIN keeps 12 of the 16 degrees whose term floor is <= N
        pairs += [(random_deep_element(spec, rng, 2), random_deep_element(spec, rng, 2))
                  for spec in (sl3, GroupSpec.gl(ctx, 3))
                  for _ in range(3)]
    checked = 0
    for x, y in pairs:
        ref = bch(_lift(x, deep), _lift(y, deep), mode="direct")
        checked += _check_claimed_digits(bch(x, y, mode="dynkin"), ref)
    assert checked > 100


# ---- DYNKIN against its reference program ------------------------------------


def _reference_dynkin_weights(p: int, n_max: int, room: int) -> tuple[int, int, dict]:
    """_weights of (-1)^(m-1) / (m deg deg!), keyed by (m, deg)."""
    keys = [(m, deg) for deg in range(1, n_max + 1) for m in range(1, deg + 1)]
    big_d, mod, weights = _weights(p, [(-1) ** (m - 1) * m * deg * factorial(deg) for m, deg in keys], room)
    return big_d, mod, dict(zip(keys, weights))


def _ad_int(x: list[list[int]], mod: int) -> list[list[int]]:
    """ad(x) on row-major flattened matrices: row (i, j), column (k, l) holds
    (x E_kl - E_kl x)_ij."""
    d = len(x)
    return [
        [
            ((x[i][k] if j == l else 0) - (x[l][j] if i == k else 0)) % mod
            for k in range(d)
            for l in range(d)
        ]
        for i in range(d)
        for j in range(d)
    ]


def reference_bch_dynkin(x: PadicMatrix, y: PadicMatrix, k: int, n_max: int | None = None) -> PadicMatrix:
    """DYNKIN scaled by deg! instead of divided, on all d^2 coordinates:

        V_1(1) = x + y,   V_1(deg) = deg ad(x)^(deg-1) y,
        V_m(deg) = sum_s C(deg, s) O'_s V_(m-1)(deg - s),
        O'_s = sum_P C(s, P) ad(x)^P ad(y)^(s-P),
        z = sum (-1)^(m-1) V_m(deg) / (m deg deg!)   (deg <= n_max),

    mod p^(cert + N + D) with D the largest v_p(m deg deg!), and no division
    before the last.  n_max defaults to the program's kept degrees."""
    ctx, d = x.ctx, x.dim
    p, n_prec = ctx.p, ctx.precision
    kept, cert = _dynkin_plan(p, k, n_prec, min(e.abs_precision() for e in x.flat() + y.flat()))
    if n_max is None:
        n_max = kept
    if n_max < 1:
        return PadicMatrix.from_flat(ctx, d, [ctx.zero(cert)] * (d * d))
    big_d, mod, weights = _reference_dynkin_weights(p, n_max, cert + n_prec)
    xi, yi = _reps(x), _reps(y)
    adx, ady = _ad_int(xi, mod), _ad_int(yi, mod)
    # O'_s = s! sum_{P+q=s} ad(x)^P ad(y)^q / (P! q!) is the s-th derivative
    # of e^(t ad x) e^(t ad y) at 0, so O'_(s+1) = ad(x) O'_s + O'_s ad(y).
    # wide[i] is row i of [O'_1 | O'_2 | ... | O'_(n_max - 1)].
    ady_cols = list(zip(*ady))
    op = [[(a + b) % mod for a, b in zip(ra, rb)] for ra, rb in zip(adx, ady)]
    wide = [list(r) for r in op]
    for _ in range(2, n_max):
        cols = list(zip(*op))
        op = [
            [(sum(map(mul, ra, c)) + sum(map(mul, ro, cb))) % mod for c, cb in zip(cols, ady_cols)]
            for ra, ro in zip(adx, op)
        ]
        for w, r in zip(wide, op):
            w.extend(r)
    # V_1(1) = x + y, V_1(deg) = deg ad(x)^(deg-1) y
    layer = {1: [(u + w) % mod for ru, rw in zip(xi, yi) for u, w in zip(ru, rw)]}
    vec = [w for r in yi for w in r]
    for deg in range(2, n_max + 1):
        vec = [sum(map(mul, r, vec)) % mod for r in adx]
        layer[deg] = [deg * w % mod for w in vec]
    terms = []
    for m in range(1, n_max + 1):
        terms.extend((weights[m, deg], vm) for deg, vm in layer.items())
        # V_(m+1)(deg) = sum_s C(deg, s) O'_s V_m(deg - s): one dot product per
        # row of `wide` against the stacked, binomial-scaled V_m
        nxt = {}
        for deg in range(m + 1, n_max + 1):
            stacked = [comb(deg, s) * u for s in range(1, deg - m + 1) for u in layer[deg - s]]
            nxt[deg] = [sum(map(mul, w, stacked)) % mod for w in wide]
        layer = nxt
    cs = [c for c, _ in terms]
    total = [sum(map(mul, cs, col)) % mod for col in zip(*(v for _, v in terms))]
    return PadicMatrix.from_flat(ctx, d, [_certified(t // p**big_d, cert, ctx) for t in total])


def _dynkin_sweep() -> list:
    """Pairs at valuation exactly k for sl and gl, d in {2, 3}, p in {2, 3, 5},
    k in {2, 3, 4}, every other pair with entries certified to 3..12 digits;
    and a gl2 pair at p = 2 with v_2(tr(x + y)) = 2, the least a trace has
    at k = 2, so that halving it to split off the trace would lose a digit."""
    pairs = []
    for family in ("sl", "gl"):
        for d in (2, 3):
            for p in (2, 3, 5):
                ctx = PadicContext(p)
                spec = GroupSpec(ctx, family, d)
                rng = random.Random(f"dynkin {family}{d} {p}")
                for k in (2, 3, 4):
                    scale = ctx.from_rational(p ** (k - 2))
                    for i in range(4):
                        x, y = (random_deep_element(spec, rng, 2).scale(scale) for _ in range(2))
                        pairs.append((_fewer_digits(x, rng, 3), _fewer_digits(y, rng, 3)) if i % 2 else (x, y))
    ctx = PadicContext(2)
    pairs.append((PadicMatrix.from_rationals(ctx, [[4, 8], [-12, 8]]),
                  PadicMatrix.from_rationals(ctx, [[-8, 16], [4, 16]])))
    return pairs


def test_dynkin_matches_its_reference_program():
    # each entry's valuation, unit and absolute precision
    zeros = short = 0
    seen_k = set()
    for x, y in _dynkin_sweep():
        k = min(_require_deep(x, "bch"), _require_deep(y, "bch"))
        got, want = _bch_dynkin(x, y, k), reference_bch_dynkin(x, y, k)
        assert [(e.v, e.unit, e.abs_precision()) for e in got.flat()] == \
            [(e.v, e.unit, e.abs_precision()) for e in want.flat()]
        zeros += sum(e.is_zero for e in got.flat())
        short += any(e.digits is not None and e.digits < x.ctx.precision for e in x.flat() + y.flat())
        seen_k.add((x.ctx.p, k))
    assert zeros > 20 and short > 60
    assert seen_k == {(p, k) for p in (2, 3, 5) for k in (2, 3, 4)}
    x, y = _dynkin_sweep()[-1]
    trace = sum(r[i] for i, r in enumerate(_reps(x + y)))
    assert trace % 4 == 0 and trace % 8 != 0


def _cutoff(p: int, k: int, n_prec: int) -> int:
    """n_N = max{n : b(n) <= N}, the term-floor cutoff, which keeps every
    degree whose terms can touch N digits."""
    return max((n for n in range(1, 8 * n_prec + 33) if _term_floor(p, k, n) <= n_prec), default=0)


def test_dynkin_drops_only_degrees_past_its_certificate():
    # against the reference at the term-floor cutoff max{n : b(n) <= N}, which
    # keeps every degree: each entry's valuation and absolute precision, and
    # its unit in every certified digit
    ctx = PadicContext(2)
    rng = random.Random("dynkin full cutoff")
    pairs = _dynkin_sweep() + [
        tuple(random_deep_element(spec, rng, 2) for _ in range(2))
        for spec in (GroupSpec.sl(ctx, 3), GroupSpec.gl(ctx, 3))
        for _ in range(3)
    ]
    dropped = 0
    for x, y in pairs:
        k = min(_require_deep(x, "bch"), _require_deep(y, "bch"))
        p = x.ctx.p
        cutoff = _cutoff(p, k, x.ctx.precision)
        least = min(e.abs_precision() for e in x.flat() + y.flat())
        dropped += _dynkin_plan(p, k, x.ctx.precision, least)[0] < cutoff
        got, want = _bch_dynkin(x, y, k), reference_bch_dynkin(x, y, k, cutoff)
        for e, f in zip(got.flat(), want.flat()):
            assert (e.v, e.abs_precision()) == (f.v, f.abs_precision())
            if not e.is_zero:
                assert e.unit % p**e.digits == f.unit % p**f.digits
    assert dropped > 20


def test_bch_digests_are_pinned():
    # both modes on the 1,296 seeded pairs of tests/bch_digest.py, bit for
    # bit: a change that means to alter these outputs updates the digests
    pairs = draw_pairs()
    assert digest(pairs, "dynkin")[1] == (
        "52936738ea69036381f5c50c121e96c5987d38ac3853459b41cebc3974448b24")
    assert digest(pairs, "direct")[1] == (
        "270db4082852b59c63200bed7ecaf5ee17abeca49c03be6974d6c5c59101b38a")


def _degree_floor(p: int, k: int, n: int) -> int:
    """b'(n) = n k - v_p(n!) - floor(log_p n), the floor of z_n."""
    return n * k - _vp_factorial(p, n) - _floor_log(p, n)


def test_dynkin_kept_degrees_never_exceed_the_term_floor_cutoff():
    # at full precision (least = 2 + N), p = 2 and k = 2 keeps 12 of the
    # cutoff's 16 degrees; over a grid of (p, k, least) cert is the module
    # docstring's, and the kept n_max is the largest of all degrees with
    # b'(n) < cert, and never past the cutoff
    assert _cutoff(2, 2, 12) == 16
    assert _dynkin_plan(2, 2, 12, 14) == (12, 13)
    for p in (2, 3, 5, 7):
        for k in range(2, 15):
            cutoff = _cutoff(p, k, 12)
            floors = [_term_floor(p, k, n) for n in range(1, 8 * 12 + 33)]
            for least in range(k, k + 14):
                kept, cert = _dynkin_plan(p, k, 12, least)
                assert cert == min(least + min(floors[:cutoff], default=k) - k, min(floors[cutoff:]))
                assert kept <= cutoff
                assert kept == max((n for n in range(1, 8 * 12 + 33) if _degree_floor(p, k, n) < cert),
                                   default=0)


_SERIES = {
    "exp": lambda x, y: exp(x),
    "log": lambda x, y: log(x + PadicMatrix.identity(x.ctx, x.dim)),
    "direct": lambda x, y: bch(x, y, mode="direct"),
}
_SWEEP = [(name, p) for name in _SERIES for p in (2, 3, 5)]


def _series_cases(name: str, p: int) -> list:
    """The overstatement sweep: 25 sl2 and 25 sl3 elements for exp and log
    (325 entries), 25 sl2 pairs for DIRECT (100 entries)."""
    ctx = PadicContext(p)
    rng = random.Random(900 + p)
    elements = [random_deep_element(GroupSpec.sl(ctx, d), rng) for d in (2, 3) for _ in range(25)]
    sl2 = GroupSpec.sl(ctx, 2)
    pairs = [(random_deep_element(sl2, rng), random_deep_element(sl2, rng)) for _ in range(25)]
    return pairs if name == "direct" else [(x, x) for x in elements]


@pytest.mark.parametrize("name,p", _SWEEP)
def test_series_never_overstate_certified_digits(name, p):
    # exp, log and DIRECT against themselves at 48 digits on the same
    # representatives: the truncated tail must be charged to the digits
    deep = PadicContext(p, 48)
    series = _SERIES[name]
    checked = sum(
        _check_claimed_digits(series(x, y), series(_lift(x, deep), _lift(y, deep)))
        for x, y in _series_cases(name, p)
    )
    assert checked > 90


# ---- the per-scalar series, the reference route ------------------------------


def _absorb(a: PadicScalar, b: PadicScalar) -> PadicScalar:
    """a + b, the way the reference routes were written to sum: a full
    cancellation at floor >= N is the exact zero, a coarser one refuses."""
    s = a + b
    if s.is_zero and s:
        if s.abs_precision() < s.ctx.precision:
            raise PrecisionExhausted(f"sum cancelled to O(p^{s.abs_precision()})")
        return s.ctx.zero()
    return s


def _strict(a: PadicScalar, b: PadicScalar) -> PadicScalar:
    """a + b, refusing every full cancellation but a mirror-image one."""
    s = a + b
    if s.is_zero and s:
        raise PrecisionExhausted(f"sum cancelled to O(p^{s.abs_precision()})")
    return s


def _add(a: PadicMatrix, b: PadicMatrix, add) -> PadicMatrix:
    rows = zip(a.rows, b.rows)
    return PadicMatrix(a.ctx, [[add(x, y) for x, y in zip(ra, rb)] for ra, rb in rows])


def _matmul(a: PadicMatrix, b: PadicMatrix, add) -> PadicMatrix:
    """a @ b with each dot product summed in index order by `add`."""
    zero = a.ctx.zero()

    def dot(row, col):
        acc = zero
        for x, y in zip(row, col):
            if x and y:
                acc = add(acc, x * y)
        return acc

    cols = list(zip(*b.rows))
    return PadicMatrix(a.ctx, [[dot(r, c) for c in cols] for r in a.rows])


def _reference_charge_tail(m: PadicMatrix, floor: int) -> PadicMatrix:
    """m with every entry certified at most modulo p^floor; an entry at or past
    the floor (which exceeds N) becomes the exact zero."""
    ctx = m.ctx

    def cap(e: PadicScalar) -> PadicScalar:
        if e.is_zero or e.v + e.digits <= floor:
            return e
        if e.v >= floor:
            return ctx.zero()
        return PadicScalar._raw(ctx, e.v, e.unit, floor - e.v)

    return PadicMatrix(ctx, [[cap(e) for e in r] for r in m.rows])


def reference_exp(x: PadicMatrix) -> PadicMatrix:
    """exp on PadicScalar arithmetic summed by `_absorb`, with the same
    cutoff; each entry is capped at the tail floor unless a term came out
    exactly zero."""
    ctx, k = x.ctx, x.min_valuation()
    acc = term = PadicMatrix.identity(ctx, x.dim)
    if k == float("inf"):
        return acc
    n = 1
    while n * (k * (ctx.p - 1) - 1) <= ctx.precision * (ctx.p - 1):
        term = _matmul(term, x, _absorb).scale(ctx.from_rational(1, n))
        if term.min_valuation() == float("inf"):
            return acc
        acc = _add(acc, term, _absorb)
        n += 1
    return _reference_charge_tail(acc, _tail_floor(ctx.p, k, n, True))


def reference_log(g: PadicMatrix) -> PadicMatrix:
    """log in the model of reference_exp."""
    ctx = g.ctx
    y = _add(g, -PadicMatrix.identity(ctx, g.dim), _strict)
    k = y.min_valuation()
    out = PadicMatrix.zeros(ctx, y.dim)
    if k == float("inf"):
        return out
    power = PadicMatrix.identity(ctx, y.dim)
    n = 1
    while n * k - _floor_log(ctx.p, n) <= ctx.precision:
        power = _matmul(power, y, _absorb)
        if power.min_valuation() == float("inf"):
            return out
        out = _add(out, power.scale(ctx.from_rational(1 if n % 2 else -1, n)), _absorb)
        n += 1
    return _reference_charge_tail(out, _tail_floor(ctx.p, k, n, False))


_REFERENCE = {
    "exp": lambda x, y: reference_exp(x),
    "log": lambda x, y: reference_log(x + PadicMatrix.identity(x.ctx, x.dim)),
    "direct": lambda x, y: reference_log(_matmul(reference_exp(x), reference_exp(y), _strict)),
}


def _agree(got: PadicMatrix, want: PadicMatrix) -> None:
    """Assert the two results agree modulo the smaller claim of each entry."""
    for a, b in zip(got.flat(), want.flat()):
        level = min(a.abs_precision(), b.abs_precision())
        assert a.congruent_mod(b, got.ctx.precision if level == float("inf") else level)


# entries of the sweep that claim one digit fewer than the reference route.
# The five log entries are sl2 entries at p=2 off the diagonal of y^2 =
# tr(y) y - det(y): g - e keeps only the N absolute digits of g, so tr(y) is
# known mod 2^12, and the halved second-order term caps them one digit below
# what the reference's absorbed trace claims.  The DIRECT entry is the one
# the reference overstated by halving an absorbed zero.
_DIGITS_LOST = {("log", 2): 5, ("direct", 2): 1}


@pytest.mark.parametrize("name,p", _SWEEP)
def test_series_routes_agree_on_the_sweep(name, p):
    lost = 0
    for x, y in _series_cases(name, p):
        got, want = _SERIES[name](x, y), _REFERENCE[name](x, y)
        _agree(got, want)
        for a, b in zip(got.flat(), want.flat()):
            assert a.abs_precision() >= b.abs_precision() - 1
            lost += a.abs_precision() < b.abs_precision()
    assert lost == _DIGITS_LOST.get((name, p), 0)


def _fewer_digits(x: PadicMatrix, rng: random.Random, least: int) -> PadicMatrix:
    """x with each nonzero entry certified to a random number >= least of digits."""
    ctx = x.ctx
    return PadicMatrix(ctx, [
        [e if e.is_zero else PadicScalar(ctx, e.v, e.unit, rng.randint(least, ctx.precision))
         for e in r]
        for r in x.rows
    ])


def _low_digit_cases(name: str, p: int, rng: random.Random, count: int, least: int) -> list:
    """count pairs of sl2 or sl3 elements (sl2 for DIRECT) with at least
    `least` digits per entry."""
    ctx = PadicContext(p)
    dims = (2,) if name == "direct" else (2, 3)
    return [
        tuple(_fewer_digits(random_deep_element(spec, rng), rng, least) for _ in range(2))
        for spec in (GroupSpec.sl(ctx, rng.choice(dims)) for _ in range(count))
    ]


def _answer(series, x, y):
    """series(x, y), or None where it refuses for want of digits."""
    try:
        return series(x, y)
    except PrecisionExhausted:
        return None


@pytest.mark.parametrize("name", _SERIES)
def test_series_routes_agree_on_low_digit_inputs(name):
    # the reference cancels whole sums of low-digit products and refuses
    # most of these; where both answer they agree
    refused = {"new": 0, "reference": 0}
    for p in (2, 3, 5):
        for x, y in _low_digit_cases(name, p, random.Random(700 + p), 20, 3):
            got = _answer(_SERIES[name], x, y)
            want = _answer(_REFERENCE[name], x, y)
            refused["new"] += got is None
            refused["reference"] += want is None
            if got is not None and want is not None:
                _agree(got, want)
    assert refused["new"] < refused["reference"]


def _perturbed(x: PadicMatrix, deep: PadicContext, rng: random.Random) -> PadicMatrix:
    """A representative of x in `deep` moved by a random multiple of each
    entry's certified precision; exact zeros stay put."""
    p = deep.p
    return PadicMatrix.from_rationals(deep, [
        [0 if e.is_zero else e.as_rational() + p ** e.abs_precision() * rng.randrange(p**8)
         for e in r]
        for r in x.rows
    ])


@pytest.mark.parametrize("name,p", _SWEEP)
def test_series_digits_hold_on_every_input_within_its_digits(name, p):
    # an input known mod p^(v + digits) stands for every value in that ball,
    # so each claimed output digit must survive moving the inputs inside it
    # (the reference route fails this for exp and log at p = 2 and 3)
    deep = PadicContext(p, 48)
    rng = random.Random(500 + p)
    checked = 0
    for i, (x, y) in enumerate(_low_digit_cases(name, p, rng, 24, 6)):
        if i % 2:
            x, y = _lift(x, PadicContext(p)), _lift(y, PadicContext(p))  # full digits
        got = _SERIES[name](x, y)
        for _ in range(2):
            ref = _SERIES[name](_perturbed(x, deep, rng), _perturbed(y, deep, rng))
            checked += _check_claimed_digits(got, ref)
    assert checked > 150


def test_nilpotent_exit_is_sound():
    # y = g - e has trace 2^15 and det of valuation 9, so y^6 = 0 mod p^M on
    # the representatives: the loop stops there, and entry (0, 1) keeps 15
    # digits, past the cutoff's tail floor of 13; the second-order term
    # (tr(y) known mod 2^12, times y_01 at 2^4, halved) caps it there
    ctx, deep = PadicContext(2), PadicContext(2, 48)
    g = PadicMatrix.from_rationals(ctx, [[217, 48], [16340, 32553]])
    z = log(g)
    assert [e.abs_precision() for e in z.flat()] == [12, 15, 13, 12]
    assert _series_plan(2, 2, 12, False)[1] == 13
    rng = random.Random(17)
    for _ in range(20):
        _check_claimed_digits(z, log(_perturbed(g, deep, rng)))
    # x^2 = 0 at p = 3, and x^2 = 0 mod 3^14 on the representatives (-9 is
    # 9 (3^12 - 1)): exp(x) is e + x with every digit, and log(e + x) is
    # y = (e + x) - e, whose diagonal keeps the 10 digits e + x leaves it
    ctx = PadicContext(3)
    x = PadicMatrix.from_rationals(ctx, [[9, 9], [-9, -9]])
    ident = PadicMatrix.identity(ctx, 2)
    g = exp(x)
    assert g == ident + x
    assert all(e.digits == ctx.precision for e in g.flat())
    y = g - ident
    assert y.congruent_mod(x, ctx.precision)
    z = log(g)
    assert z == y
    assert [e.digits for e in z.flat()] == [e.digits for e in y.flat()] == [10, 12, 12, 10]


def test_series_structural_zeros_stay_exact():
    # upper triangular with 4- and 5-digit diagonal entries: every series
    # entry is certified mod 3^7 only, and the strictly lower ones lie
    # outside the support closure, so they are exact zeros, not refusals
    ctx = PadicContext(3)
    zero, nine = ctx.zero(), ctx.from_rational(9)
    x = PadicMatrix(ctx, [[PadicScalar(ctx, 2, 1, 5), nine, ctx.from_rational(27)],
                          [zero, PadicScalar(ctx, 3, 2, 4), nine],
                          [zero, zero, PadicScalar(ctx, 2, 3**12 - 1, 5)]])
    for z in (exp(x), log(x + PadicMatrix.identity(ctx, 3))):
        for i, row in enumerate(z.rows):
            assert all(e.is_zero for e in row[:i])
            assert not any(e.is_zero for e in row[i:])


def test_series_precision_follows_the_input_digits():
    # the diagonal carries 5 digits at valuation 2: E = 7 there and 14 off
    # it, so the uniform bound is 7 + 3, the second-order term 2 + 7 = 9
    # everywhere, and each entry is certified mod 3^min(E_ij, 9); the
    # reference route refuses, since x^2 cancels off the diagonal at 3^9
    ctx = PadicContext(3)
    nine = ctx.from_rational(9)
    x = PadicMatrix(ctx, [[PadicScalar(ctx, 2, 1, 5), nine],
                          [nine, PadicScalar(ctx, 2, 3**12 - 1, 5)]])
    exact = PadicMatrix.from_rationals(ctx, [[9, 9], [9, -9]])
    for name in ("exp", "log"):
        z = _SERIES[name](x, x)
        assert [e.abs_precision() for e in z.flat()] == [7, 9, 9, 7]
        assert z.congruent_mod(_SERIES[name](exact, exact), 7)
        with pytest.raises(PrecisionExhausted):
            _REFERENCE[name](x, x)
    # the corner of exp is x_02 + (x^2)_02 / 2 = 0: with 5-digit entries it
    # is certified mod 3^9 only, the zero O(3^9), which no output may print;
    # with full digits it is O(3^16), which prints as 0
    zero = ctx.zero()
    corner = ctx.from_rational(Fraction(-81, 2))
    for digits, floor in ((5, 9), (12, 16)):
        a = PadicScalar(ctx, 2, 1, digits)
        x = PadicMatrix(ctx, [[zero, a, corner], [zero, zero, a], [zero, zero, zero]])
        z = exp(x).rows[0][2]
        assert z.is_zero and z.abs_precision() == floor
        if floor < ctx.precision:
            with pytest.raises(PrecisionExhausted):
                z.as_rational()
        else:
            assert z.as_rational() == 0


def test_dynkin_precision_follows_the_least_input_digits():
    # x carries 5 digits at valuation 2, so the output is certified mod 3^7
    # only; an entry that vanishes mod 3^7 cannot be certified zero
    ctx = PadicContext(3)
    zero = ctx.zero()
    x = PadicMatrix(ctx, [[PadicScalar(ctx, 2, 1, 5), zero],
                          [zero, PadicScalar(ctx, 2, 3**12 - 1, 5)]])
    y = PadicMatrix.from_rationals(ctx, [[0, 9], [9, 0]])
    z = bch(x, y, mode="dynkin")
    assert [e.abs_precision() for e in z.flat()] == [7] * 4
    exact = bch(PadicMatrix.from_rationals(ctx, [[9, 0], [0, -9]]), y, mode="dynkin")
    assert z.congruent_mod(exact, 7)
    # the lower corner vanishes mod 3^7: the zero O(3^7), not the exact zero
    corner = bch(x, PadicMatrix.from_rationals(ctx, [[0, 9], [0, 0]]), mode="dynkin").rows[1][0]
    assert corner.is_zero and corner.abs_precision() == 7


def test_dynkin_with_no_degree_kept_returns_its_certificate():
    # no degree reaches p^cert: every entry is O(p^cert), never the exact zero.
    # At p = 3 the entries sit at 3^13, past N = 12, so b(1) = 13 > N; the
    # true entries are +-3^13 and 3^13
    ctx = PadicContext(3)
    x = PadicMatrix.from_rationals(ctx, [[3**13, 0], [0, -3**13]])
    y = PadicMatrix.from_rationals(ctx, [[0, 3**13], [0, 0]])
    z = bch(x, y, mode="dynkin")
    assert all(e.is_zero and e.abs_precision() == 13 for e in z.flat())
    # at p = 2 one digit at valuation 2 gives cert = 3 - 1 = 2 = b'(1), so
    # no degree is kept: the entries at 2^2 are known as O(2^2) only
    ctx = PadicContext(2)
    zero = ctx.zero()
    x = PadicMatrix(ctx, [[PadicScalar(ctx, 2, 1, 1), zero],
                          [zero, PadicScalar(ctx, 2, 2**12 - 1, 1)]])
    y = PadicMatrix.from_rationals(ctx, [[0, 4], [0, 0]])
    z = bch(x, y, mode="dynkin")
    assert all(e.is_zero and e.abs_precision() == 2 for e in z.flat())


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="D11: DIRECT's exp(x)_00 - 1 cancels to the exact zero by the mirror-image rule")
def test_direct_bch_agrees_with_dynkin_past_n_digits():
    # at p = 3 DYNKIN certifies 3^12 and -3^12 at (0, 0) and (1, 1) to 12
    # digits; DIRECT, which claims the exact zero there, must agree with them
    # modulo the smaller claim of each entry
    ctx = PadicContext(3)
    x = PadicMatrix.from_rationals(ctx, [[3**12, 0], [0, -3**12]])
    y = PadicMatrix.from_rationals(ctx, [[0, 3**12], [0, 0]])
    dynkin, direct = bch(x, y, mode="dynkin"), bch(x, y, mode="direct")
    for i in (0, 1):
        assert dynkin.rows[i][i].congruent_mod(ctx.from_rational((-1) ** i * 3**12), 24)
    _agree(direct, dynkin)


def test_bch_nilpotent_is_exact():
    # strictly upper triangular 3x3: all triple commutators vanish, so the
    # series is the polynomial x + y + [x,y]/2 and both modes must hit it
    ctx = PadicContext(3)
    x = PadicMatrix.from_rationals(ctx, [[0, 9, 18], [0, 0, 0], [0, 0, 0]])
    y = PadicMatrix.from_rationals(ctx, [[0, 0, 27], [0, 0, 9], [0, 0, 0]])
    half = ctx.from_rational(1, 2)
    expected = x + y + (x @ y - y @ x).scale(half)
    for mode in ("direct", "dynkin"):
        got = bch(x, y, mode=mode)
        assert got.congruent_mod(expected, ctx.precision)


def test_bch_rejects_unknown_mode():
    ctx = PadicContext(3)
    x = PadicMatrix.from_rationals(ctx, [[9, 0], [0, -9]])
    with pytest.raises(ValueError):
        bch(x, x, mode="magic")


def test_ball_membership_levels():
    ctx = PadicContext(3)
    spec = GroupSpec.sl(ctx, 2)
    ident = PadicMatrix.identity(ctx, 2)
    assert ball_membership(ident, spec, 12)
    g = exp(PadicMatrix.from_rationals(ctx, [[0, 9], [0, 0]]))
    assert ball_membership(g, spec, 2)
    assert not ball_membership(g, spec, 3)  # ||g - e|| = 3^-2 exactly
    # right norm, wrong determinant
    h = PadicMatrix.from_rationals(ctx, [[10, 0], [0, 1]])
    assert not ball_membership(h, spec, 2)
    with pytest.raises(ValueError):
        ball_membership(ident, spec, -1)


def test_ball_membership_refuses_levels_beyond_certified_digits():
    # g[0][0] = 1 + 3^5 is known only mod 3^3: g = e mod 3^3 is certified,
    # mod 3^10 the digits cannot decide
    ctx = PadicContext(3)
    spec = GroupSpec.gl(ctx, 2)
    g = PadicMatrix(ctx, [[PadicScalar(ctx, 0, 1 + 3**5, digits=3), ctx.zero()],
                          [ctx.zero(), ctx.one()]])
    assert ball_membership(g, spec, 3)
    with pytest.raises(PrecisionExhausted):
        ball_membership(g, spec, 10)


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(PadicContext(3), "custom", 2)  # only sl and gl have membership rules


def reference_lie_basis(spec: GroupSpec) -> tuple:
    """lie_basis as it was built by hand before `element` built it: E_ij
    (i < j), H_k, E_ij (i > j, column by column) on sl, all E_ij on gl."""
    ctx, d = spec.ctx, spec.dim
    one, zero = ctx.one(), ctx.zero()

    def mat(entries: dict) -> PadicMatrix:  # keyed by flat index, zero elsewhere
        return PadicMatrix.from_flat(ctx, d, [entries.get(m, zero) for m in range(d * d)])

    if spec.family == "gl":
        return tuple(mat({m: one}) for m in range(d * d))
    return tuple(
        [mat({i * d + j: one}) for i in range(d) for j in range(i + 1, d)]
        + [mat({k * (d + 1): one, (k + 1) * (d + 1): -one}) for k in range(d - 1)]
        + [mat({i * d + j: one}) for j in range(d) for i in range(j + 1, d)]
    )


GROUP_CASES = [(family, d, p) for family in ("sl", "gl") for d in (1, 2, 3, 4) for p in (2, 3, 5)]


@pytest.mark.parametrize("family,d,p", GROUP_CASES, ids=[f"{f}{d}-p{p}" for f, d, p in GROUP_CASES])
def test_algebra_coordinates_detect_outsiders(family, d, p):
    ctx = PadicContext(p)
    spec = getattr(GroupSpec, family)(ctx, d)
    assert len(spec.lie_basis) == spec.dim_g == d * d - (family == "sl")
    # lie_basis[j] is the hand-built basis matrix field for field (digits
    # None marks the exact zero), and reads off as the unit vector e_j
    for j, (b, want) in enumerate(zip(spec.lie_basis, reference_lie_basis(spec), strict=True)):
        assert _fields(b.flat()) == _fields(want.flat())
        unit_vector = [ctx.one() if i == j else ctx.zero() for i in range(len(spec.lie_basis))]
        assert spec.algebra_coordinates(b) == unit_vector
    rng = random.Random(1000 * p + 10 * d + (family == "sl"))
    for _ in range(5):
        # a seeded integral element of the algebra
        x = PadicMatrix.zeros(ctx, d)
        for b in spec.lie_basis:
            x = x + b.scale(ctx.from_rational(rng.randint(-(p**3), p**3)))
        coords = spec.algebra_coordinates(x)
        assert coords is not None and len(coords) == len(spec.lie_basis)
        if spec.lie_basis:
            assert combine(spec.lie_basis, coords).congruent_mod(x, ctx.precision)
        assert spec.element(coords).congruent_mod(x, ctx.precision)
    # nonzero trace lies outside sl_d, for d = 1 outside the empty basis
    trace_one = PadicMatrix.zeros(ctx, d).rows
    trace_one[0][0] = ctx.one()
    coords = spec.algebra_coordinates(PadicMatrix(ctx, trace_one))
    assert (coords is None) == (family == "sl")
    # a matrix of another size is refused, by the empty basis of sl_1 too
    with pytest.raises(ValueError, match=f"{d}x{d} and a {d + 2}x{d + 2}"):
        spec.algebra_coordinates(PadicMatrix.zeros(ctx, d + 2))


def _fields(xs) -> list:
    return [(x.v, x.unit, x.digits) for x in xs]


@pytest.mark.parametrize("family,d,count", [("sl", 3, 7), ("sl", 3, 9), ("gl", 2, 3), ("gl", 2, 5)])
def test_element_needs_dim_g_coordinates(family, d, count):
    # sl3 took 7 coordinates to a bare StopIteration and 9 to a matrix that
    # dropped one; every family now refuses a wrong count
    spec = getattr(GroupSpec, family)(PadicContext(3), d)
    with pytest.raises(ValueError, match=f"{count} coordinates on an algebra of dimension {spec.dim_g}"):
        spec.element([spec.ctx.one()] * count)


@st.composite
def algebra_points(draw):
    """(spec, coordinates): sl or gl, d = 1..4, p in {2, 3, 5}; each
    coordinate the exact zero, an O(p^c), or p^v u certified to some digits."""
    family, d, p = draw(st.sampled_from(GROUP_CASES))
    ctx = PadicContext(p)
    spec = getattr(GroupSpec, family)(ctx, d)
    n = ctx.precision
    scalars = st.one_of(
        st.just(ctx.zero()),
        st.integers(-4, n + 2).map(ctx.zero),
        st.builds(lambda v, u, r, k: PadicScalar(ctx, v, u * p + r, k), st.integers(-4, 6),
                  st.integers(0, p ** (n - 1) - 1), st.integers(1, p - 1), st.integers(1, n)),
    )
    dim_g = len(spec.lie_basis)
    return spec, draw(st.lists(scalars, min_size=dim_g, max_size=dim_g))


@settings(max_examples=400)
@given(algebra_points())
def test_element_writes_the_coordinates_on_the_entries(case):
    # element is combine over lie_basis in value, valuation and digits, and
    # algebra_coordinates reads its coordinates back: on gl and off the sl
    # diagonal exactly; an sl partial sum s_k, re-added from the diagonal
    # differences, claims the digits of the coarsest s_1 .. s_k and agrees
    # with s_k at every digit both claim (it may claim more: D11's mirror-image
    # rule makes 1 + (O(2^12) - 1) the exact zero)
    spec, coords = case
    x = spec.element(coords)
    if spec.lie_basis:
        assert _fields(x.flat()) == _fields(combine(spec.lie_basis, coords).flat())
    else:
        assert _fields(x.flat()) == _fields([spec.ctx.zero()])
    back = spec.algebra_coordinates(x)
    start = spec.dim * (spec.dim - 1) // 2
    sums = range(start, start + spec.dim - 1) if spec.family == "sl" else range(0)
    for i, (y, c) in enumerate(zip(back, coords, strict=True)):
        if i not in sums:
            assert _fields([y]) == _fields([c])
            continue
        assert y.abs_precision() >= min(z.abs_precision() for z in coords[start:i + 1])
        assert y.congruent_mod(c, min(y.abs_precision(), c.abs_precision()))


# ---- horospherical factorization --------------------------------------------


def sl2_flow(p: int):
    ctx = PadicContext(p)
    spec = GroupSpec.sl(ctx, 2)
    a = PadicMatrix.from_rationals(ctx, [[Fraction(1, p), 0], [0, p]])
    return spec, decompose(a, spec)


def test_factorization_shape_and_accuracy():
    spec, dec = sl2_flow(3)
    ctx = spec.ctx
    rng = random.Random(271)
    for _ in range(40):
        g = exp(random_deep_element(spec, rng))
        res = horospherical_factor(g, 2, dec)
        assert isinstance(res, FactorResult)
        f, h, rounds = res
        assert rounds <= 6
        # unstable part is unipotent upper triangular for a = diag(1/3, 3)
        assert f.rows[1][0].is_zero or f.rows[1][0].valuation() >= ctx.precision
        assert f.rows[0][0].congruent_mod(ctx.one(), ctx.precision)
        assert f.rows[1][1].congruent_mod(ctx.one(), ctx.precision)
        # bounded part carries no unstable component
        assert h.rows[0][1].is_zero or h.rows[0][1].valuation() >= ctx.precision
        assert (f @ h).congruent_mod(g, ctx.precision)
        assert ball_membership(f, spec, 2)
        assert ball_membership(h, spec, 2)


def test_factorization_rejects_shallow_elements():
    spec, dec = sl2_flow(3)
    shallow = PadicMatrix.from_rationals(spec.ctx, [[1, 1], [0, 1]])
    with pytest.raises(DomainError):
        horospherical_factor(shallow, 2, dec)
    with pytest.raises(DomainError):
        horospherical_factor(shallow, 1, dec)  # level below 2 refused outright


def test_factorization_of_pure_parts_is_trivial():
    spec, dec = sl2_flow(3)
    ctx = spec.ctx
    # already unstable: one round peels everything
    f_only = exp(PadicMatrix.from_rationals(ctx, [[0, 9], [0, 0]]))
    res = horospherical_factor(f_only, 2, dec)
    assert res.unstable.congruent_mod(f_only, ctx.precision)
    assert res.bounded.congruent_mod(PadicMatrix.identity(ctx, 2), ctx.precision)
    # identity needs no rounds at all
    res = horospherical_factor(PadicMatrix.identity(ctx, 2), 2, dec)
    assert res.rounds == 0
