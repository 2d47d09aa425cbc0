"""Exponential, logarithm, BCH and horospherical factorization.

The deep-ball hypothesis ||X|| <= p^-2 makes exp and log mutually inverse
isometries, so round trips and norm preservation can be asserted exactly.
"""

import random
from fractions import Fraction

import pytest

from padlab import GroupSpec, PadicContext, PadicMatrix, PadicScalar, bch, decompose, exp, log
from padlab.errors import DomainError, PrecisionExhausted
from padlab.liegroup import (
    FactorResult,
    _floor_log,
    _series_plan,
    _tail_floor,
    ball_membership,
    horospherical_factor,
)
from padlab.matrix import add_absorb


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
    checked = 0
    for x, y in pairs:
        ref = bch(_lift(x, deep), _lift(y, deep), mode="direct")
        checked += _check_claimed_digits(bch(x, y, mode="dynkin"), ref)
    assert checked > 60


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
    """exp on PadicScalar arithmetic under the absorb policy, with the same
    cutoff; each entry is capped at the tail floor unless a term came out
    exactly zero."""
    ctx, k = x.ctx, x.min_valuation()
    acc = term = PadicMatrix.identity(ctx, x.dim)
    if k == float("inf"):
        return acc
    n = 1
    while n * (k * (ctx.p - 1) - 1) <= ctx.precision * (ctx.p - 1):
        term = term.matmul(x, add_absorb).scale(ctx.from_rational(1, n))
        if term.min_valuation() == float("inf"):
            return acc
        acc = acc.add(term, add_absorb)
        n += 1
    return _reference_charge_tail(acc, _tail_floor(ctx.p, k, n, True))


def reference_log(g: PadicMatrix) -> PadicMatrix:
    """log in the model of reference_exp."""
    ctx = g.ctx
    y = g - PadicMatrix.identity(ctx, g.dim)
    k = y.min_valuation()
    out = PadicMatrix.zeros(ctx, y.dim)
    if k == float("inf"):
        return out
    power = PadicMatrix.identity(ctx, y.dim)
    n = 1
    while n * k - _floor_log(ctx.p, n) <= ctx.precision:
        power = power.matmul(y, add_absorb)
        if power.min_valuation() == float("inf"):
            return out
        out = out.add(power.scale(ctx.from_rational(1 if n % 2 else -1, n)), add_absorb)
        n += 1
    return _reference_charge_tail(out, _tail_floor(ctx.p, k, n, False))


_REFERENCE = {
    "exp": lambda x, y: reference_exp(x),
    "log": lambda x, y: reference_log(x + PadicMatrix.identity(x.ctx, x.dim)),
    "direct": lambda x, y: reference_log(reference_exp(x) @ reference_exp(y)),
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
    # is certified mod 3^9 only and cannot be called zero; with full digits
    # it is mod 3^16, and the exact zero
    zero = ctx.zero()
    corner = ctx.from_rational(Fraction(-81, 2))
    for digits, exact_zero in ((5, False), (12, True)):
        a = PadicScalar(ctx, 2, 1, digits)
        x = PadicMatrix(ctx, [[zero, a, corner], [zero, zero, a], [zero, zero, zero]])
        if exact_zero:
            assert exp(x).rows[0][2].is_zero
        else:
            with pytest.raises(PrecisionExhausted):
                exp(x)


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
    with pytest.raises(PrecisionExhausted):
        bch(x, PadicMatrix.from_rationals(ctx, [[0, 9], [0, 0]]), mode="dynkin")


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
    ctx = PadicContext(3)
    e = PadicMatrix.from_rationals(ctx, [[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        GroupSpec(ctx, "custom", 2, (e, e))  # dependent
    with pytest.raises(ValueError):
        GroupSpec(ctx, "custom", 2, (e.scale(ctx.from_rational(3)),))  # content 1


def test_algebra_coordinates_detect_outsiders():
    ctx = PadicContext(3)
    spec = GroupSpec.sl(ctx, 2)
    inside = PadicMatrix.from_rationals(ctx, [[2, 5], [7, -2]])
    coords = spec.algebra_coordinates(inside)
    assert coords is not None
    rebuilt = PadicMatrix.zeros(ctx, 2)
    for c, b in zip(coords, spec.lie_basis):
        if not c.is_zero:
            rebuilt = rebuilt + b.scale(c)
    assert rebuilt.congruent_mod(inside, ctx.precision)
    # nonzero trace lies outside sl_2
    outside = PadicMatrix.from_rationals(ctx, [[1, 0], [0, 0]])
    assert spec.algebra_coordinates(outside) is None


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
