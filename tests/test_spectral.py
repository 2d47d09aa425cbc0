"""Spectral constants: frozen closed-form values and exact scaling laws."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlab import PadicContext, PadicMatrix
from padlab.errors import (
    DivergentSeries,
    NegativeExponent,
    NegativeGap,
    SingularAtPrecision,
)
from padlab.spectral import (
    ConstantsBundle,
    ball_measure_at,
    cartan_valuations,
    equidistribution_bound,
    kappa,
    mixing_bound,
    oh_bound,
    theorem1_rhs,
    xi_pgl2,
)

# aliased so pytest does not collect the library function as a test
from padlab.spectral import test_vector_norm as vector_norm_bound


def bundle(**overrides) -> ConstantsBundle:
    base = dict(
        c=1.0,
        alpha=1.0,
        delta=1.0,
        p=2,
        d=1,
        entropy_nats=0.0,
        base_ball_measure=1.0,
        a_norm=2.0,
        nu_total=1,
    )
    base.update(overrides)
    return ConstantsBundle(**base)


# ---- Harish-Chandra function -------------------------------------------------


def test_xi_frozen_values():
    assert xi_pgl2(3, 0) == 1.0
    assert xi_pgl2(2, 0) == 1.0
    # 3^(-1/2) * (2 + 4) / 4 = 1.5 / sqrt(3)
    assert xi_pgl2(3, 1) == pytest.approx(0.8660254037844386, abs=1e-15)
    # 2^(-1) * (2 + 3) / 3
    assert xi_pgl2(2, 2) == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_xi_monotone_decay():
    for p in (2, 3, 5, 7):
        values = [xi_pgl2(p, k) for k in range(41)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[40] < p ** -10
    with pytest.raises(ValueError):
        xi_pgl2(3, -1)


# ---- Cartan valuations -------------------------------------------------------


def test_cartan_of_diagonal():
    ctx = PadicContext(3)
    g = PadicMatrix.from_rationals(ctx, [[3, 0], [0, Fraction(1, 3)]])
    assert cartan_valuations(g) == [1, -1]
    swapped = PadicMatrix.from_rationals(ctx, [[Fraction(1, 3), 0], [0, 3]])
    assert cartan_valuations(swapped) == [1, -1]  # descending either way


def test_cartan_unimodular_is_zero():
    ctx = PadicContext(5)
    g = PadicMatrix.from_rationals(ctx, [[2, 3], [3, 7]])  # det 5... not a unit
    # det(2*7-9) = 5: one elementary divisor picks up the 5
    assert cartan_valuations(g) == [1, 0]
    h = PadicMatrix.from_rationals(ctx, [[1, 2], [3, 7]])  # det 1
    assert cartan_valuations(h) == [0, 0]


def test_cartan_recovers_sandwiched_diagonal():
    # k1 diag(9, 1, 1/27) k2 with unimodular k1, k2 (dets 5 and 2)
    ctx = PadicContext(3)
    k1 = PadicMatrix.from_rationals(ctx, [[1, 2, 0], [0, 1, 5], [1, 1, 0]])
    k2 = PadicMatrix.from_rationals(ctx, [[1, 1, 1], [1, 2, 0], [0, 1, 1]])
    d = PadicMatrix.from_rationals(
        ctx, [[9, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 27)]]
    )
    assert cartan_valuations(k1 @ d @ k2) == [2, 0, -3]


def test_cartan_random_diagonal_recovery():
    rng = random.Random(44)
    ctx = PadicContext(3)
    k1 = PadicMatrix.from_rationals(ctx, [[1, 2, 0], [0, 1, 5], [1, 1, 0]])
    k2 = PadicMatrix.from_rationals(ctx, [[1, 1, 1], [1, 2, 0], [0, 1, 1]])
    for _ in range(15):
        exps = sorted((rng.randint(-4, 4) for _ in range(3)), reverse=True)
        d = PadicMatrix.from_rationals(
            ctx,
            [
                [Fraction(3) ** exps[i] if i == j else 0 for j in range(3)]
                for i in range(3)
            ],
        )
        assert cartan_valuations(k1 @ d @ k2) == exps


def test_cartan_rejects_singular():
    ctx = PadicContext(3)
    with pytest.raises(SingularAtPrecision):
        cartan_valuations(PadicMatrix.from_rationals(ctx, [[1, 2], [2, 4]]))


@pytest.mark.parametrize("rows", [
    [[1, 1], [1, 1]],
    [[-1, 1], [1, -1]],
    [[2, -4], [-1, 2]],
], ids=["positive", "negative", "mixed"])
def test_cartan_rejects_singular_with_negative_entries(rows):
    # -1 embeds as p^N - 1, so the lifted matrix has a divisor at valuation
    # N that the certified digits do not determine
    with pytest.raises(SingularAtPrecision):
        cartan_valuations(PadicMatrix.from_rationals(PadicContext(3), rows))



@pytest.mark.parametrize("precision,rows,expected", [
    (12, [[Fraction(3) ** 6, 0], [0, Fraction(1, 3**6)]], [6, -6]),
    (12, [[Fraction(3) ** 12, 0], [0, 1]], [12, 0]),
    (4, [[9, 0], [0, Fraction(1, 9)]], [2, -2]),
], ids=["diag-6-6", "diag-12-0", "diag-2-2-at-N4"])
def test_cartan_of_divisors_beyond_the_least_entry_precision(precision, rows, expected):
    # 3^-6 is certified only modulo 3^6, yet every matrix within each
    # entry's own precision has these divisors
    ctx = PadicContext(3, precision)
    assert cartan_valuations(PadicMatrix.from_rationals(ctx, rows)) == expected

# ---- decay bound from Cartan data ---------------------------------------------


def test_oh_bound_frozen():
    # one pair, difference 2: Xi(3^2) = (1/3)(4 + 4)/4 = 2/3
    assert oh_bound(3, [1, -1], 1, 1) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert oh_bound(3, [1, -1], 4, 9) == pytest.approx(4.0, abs=1e-14)
    # odd m: the middle entry is unpaired
    assert oh_bound(3, [2, 0, -3], 1, 1) == pytest.approx(
        xi_pgl2(3, 5), abs=1e-15
    )
    assert oh_bound(2, [3, 1, 0, -1], 1, 1) == pytest.approx(
        xi_pgl2(2, 4) * xi_pgl2(2, 1), abs=1e-15
    )


def test_oh_bound_validation():
    with pytest.raises(ValueError):
        oh_bound(3, [0], 1, 1)
    with pytest.raises(ValueError):
        oh_bound(3, [1, -1], 0, 1)
    with pytest.raises(NegativeExponent):
        oh_bound(3, [-1, 1], 1, 1)  # ascending list


# ---- envelopes ----------------------------------------------------------------


def test_mixing_bound():
    b = bundle()  # c = alpha = delta = 1, p = 2, ||a|| = 2
    assert mixing_bound(b, 1, 1, 3) == pytest.approx(0.5, abs=1e-15)
    assert mixing_bound(b, 1, 1, 0) == pytest.approx(4.0, abs=1e-15)
    with pytest.raises(ValueError):
        mixing_bound(b, 1, 1, -1)
    with pytest.raises(ValueError):
        mixing_bound(bundle(a_norm=1.0), 1, 1, 2)


def test_ball_measure_levels():
    assert ball_measure_at(bundle(base_ball_measure=0.25, d=3), 2) == 0.25
    assert ball_measure_at(bundle(d=2, p=3), 4) == pytest.approx(3.0**-4, abs=1e-18)
    with pytest.raises(ValueError):
        ball_measure_at(bundle(d=2, p=3), 1)


def test_vector_norm_bound_values():
    b = bundle(p=3, nu_total=2)
    # p^(d (l_f + nu)/2) = 3^(3/2) at d = 1, l_f = 1, nu = 2
    assert vector_norm_bound(b, 1) == pytest.approx(3 ** 1.5, abs=1e-12)
    quarter = bundle(base_ball_measure=0.25)
    assert vector_norm_bound(quarter, 0) == pytest.approx(
        2 * 2 ** 0.5, abs=1e-12
    )
    with pytest.raises(ValueError):
        vector_norm_bound(b, -1)


def test_equidistribution_frozen_and_ratio():
    b = bundle()
    # (alpha + d/2) nu + 2 alpha = 3.5 at the base point
    assert equidistribution_bound(b, 0, 0) == pytest.approx(2.0**3.5, abs=1e-12)
    for n in range(6):
        ratio = equidistribution_bound(b, 1, n + 1) / equidistribution_bound(b, 1, n)
        assert ratio == pytest.approx(b.a_norm**-b.delta, rel=1e-12)
    with pytest.raises(ValueError):
        equidistribution_bound(b, -1, 0)
    with pytest.raises(ValueError):
        equidistribution_bound(b, 0, -1)


# ---- the headline constant -----------------------------------------------------


def test_kappa_frozen():
    # sqrt(2) * 1 * 2^2 * 1 * (1 - 1/2)^(-1) * e^0 = 8 sqrt(2)
    assert kappa(bundle()) == pytest.approx(11.313708498984761, abs=1e-12)


def test_kappa_divergent_series():
    with pytest.raises(DivergentSeries):
        kappa(bundle(a_norm=1.0))
    with pytest.raises(DivergentSeries):
        kappa(bundle(a_norm=0.5))


def test_kappa_entropy_scaling():
    # exp((3 alpha + d) h) is the only h-dependent factor
    lo = kappa(bundle(entropy_nats=0.0))
    hi = kappa(bundle(entropy_nats=math.log(3)))
    assert hi / lo == pytest.approx(3.0**4, rel=1e-12)


def test_bundle_validation():
    with pytest.raises(ValueError):
        bundle(p=1)
    with pytest.raises(ValueError, match="prime"):
        bundle(p=4)
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        bundle(p=10**25 + 13)
    with pytest.raises(ValueError):
        bundle(d=0)
    with pytest.raises(ValueError):
        bundle(entropy_nats=-0.5)
    with pytest.raises(ValueError):
        bundle(base_ball_measure=0.0)
    with pytest.raises(ValueError):
        bundle(base_ball_measure=1.5)
    with pytest.raises(ValueError):
        bundle(a_norm=0.0)
    with pytest.raises(ValueError):
        bundle(nu_total=-1)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("x", NON_FINITE, ids=["nan", "inf", "minus-inf"])
def test_non_finite_reals_are_refused(x):
    # x < 0 and x <= 0 are both false for NaN, so sign checks alone let it in
    for field in ("c", "alpha", "delta"):
        with pytest.raises(ValueError, match="finite"):
            bundle(**{field: x})
    for field in ("entropy_nats", "base_ball_measure", "a_norm"):
        with pytest.raises(ValueError):
            bundle(**{field: x})
    for i in (1, 2):  # the norm, the gap
        args = [0, 1.0, 0.25]
        args[i] = x
        with pytest.raises(ValueError, match="finite"):
            theorem1_rhs(bundle(), *args)


def test_theorem1_rhs():
    # frozen: kappa = 8 sqrt(2), l_f = 0, unit norm, gap 1/4 gives 4 sqrt(2)
    b = bundle()
    assert theorem1_rhs(b, 0, 1.0, 0.25) == pytest.approx(5.656854249492381, abs=1e-12)
    assert theorem1_rhs(b, 0, 1.0, 0.0) == 0.0
    # p^((2 alpha + d/2) l_f) = 2^3 at d = 2, l_f = 1; norm 2, sqrt(gap) 1/2
    d2 = bundle(d=2)
    assert theorem1_rhs(d2, 1, 2.0, 0.25) == pytest.approx(8.0 * kappa(d2), rel=1e-12)
    # sqrt scaling in the gap
    a = theorem1_rhs(b, 1, 1.0, 0.01)
    c = theorem1_rhs(b, 1, 1.0, 0.04)
    assert c / a == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(NegativeGap):
        theorem1_rhs(b, 0, 1.0, -1e-9)
    with pytest.raises(ValueError):
        theorem1_rhs(b, -1, 1.0, 0.1)
    with pytest.raises(ValueError):
        theorem1_rhs(b, 0, -1.0, 0.1)
    with pytest.raises(DivergentSeries):
        theorem1_rhs(bundle(a_norm=1.0), 0, 1.0, 0.25)


def test_loose_setups_are_refused_where_the_bundle_is_built():
    # loose arguments let ball_measure_at(4, -1.0, 1, 3) return -1/9, and
    # theorem1_rhs combine a kappa computed at one p with another p
    with pytest.raises(ValueError, match="base ball measure"):
        bundle(base_ball_measure=-1.0, d=1, p=3)
    with pytest.raises(ValueError, match="prime"):
        bundle(p=6)
    for p in (2, 3):
        b = bundle(p=p)
        assert theorem1_rhs(b, 0, 1.0, 0.25) == kappa(b) * 0.5


# ---- every constant reads the bundle ------------------------------------------


@st.composite
def bundles(draw) -> ConstantsBundle:
    return ConstantsBundle(
        c=draw(st.floats(0.01, 100.0)),
        alpha=draw(st.floats(0.01, 3.0)),
        delta=draw(st.floats(0.01, 3.0)),
        p=draw(st.sampled_from([2, 3, 5, 7, 11, 101, 10007])),
        d=draw(st.integers(1, 8)),
        entropy_nats=draw(st.floats(0.0, 5.0)),
        base_ball_measure=draw(st.floats(1e-6, 1.0)),
        a_norm=draw(st.floats(1.5, 100.0)),
        nu_total=draw(st.integers(0, 6)),
    )


@settings(max_examples=200)
@given(bundles(), st.integers(0, 4), st.integers(0, 4), st.integers(0, 20),
       st.integers(2, 8), st.floats(0.0, 10.0), st.floats(0.0, 4.0))
def test_constants_equal_their_closed_forms(b, l_f, l_h, n, k, norm, gap):
    decay = b.a_norm ** (-b.delta * n)
    assert mixing_bound(b, l_f, l_h, n) == pytest.approx(
        b.c * b.p ** (b.alpha * (l_f + l_h)) * decay, rel=1e-12)
    assert ball_measure_at(b, k) == pytest.approx(
        b.base_ball_measure / b.p ** (b.d * (k - 2)), rel=1e-12)
    kappa_by_hand = (math.sqrt(2.0) * b.c * b.p ** (2.0 * b.alpha)
                     / math.sqrt(b.base_ball_measure) / (1.0 - b.a_norm ** -b.delta)
                     * math.exp((3.0 * b.alpha + b.d) * b.entropy_nats))
    assert theorem1_rhs(b, l_f, norm, gap) == pytest.approx(
        kappa_by_hand * b.p ** ((2.0 * b.alpha + b.d / 2.0) * l_f) * norm * math.sqrt(gap),
        rel=1e-12)


NON_POSITIVE = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf])
OUT_OF_RANGE = {
    "c": NON_POSITIVE,
    "alpha": NON_POSITIVE,
    "delta": NON_POSITIVE,
    "p": st.one_of(st.integers(-3, 1),
                   st.tuples(st.integers(2, 10**6), st.integers(2, 10**6))
                   .map(lambda t: t[0] * t[1])),
    "d": st.integers(-3, 0),
    "entropy_nats": st.sampled_from([-1e-9, -1.0, math.nan, math.inf]),
    "base_ball_measure": st.one_of(st.floats(max_value=0.0), st.just(math.nan),
                                   st.floats(min_value=1.0, exclude_min=True)),
    "a_norm": NON_POSITIVE,
    "nu_total": st.integers(-5, -1),
}


@pytest.mark.parametrize("field", sorted(OUT_OF_RANGE))
@settings(max_examples=40)
@given(b=bundles(), data=st.data())
def test_bundle_refuses_each_field_out_of_range(field, b, data):
    bad = data.draw(OUT_OF_RANGE[field])
    with pytest.raises(ValueError):
        dataclasses.replace(b, **{field: bad})
