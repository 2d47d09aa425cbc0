"""Spectral constants: frozen closed-form values and exact scaling laws."""

import math
import random
from fractions import Fraction

import pytest

from padlab import PadicContext, PadicMatrix
from padlab.errors import (
    DivergentSeries,
    NegativeExponent,
    NegativeGap,
    SingularAtPrecision,
)
from padlab.spectral import (
    ConstantsBundle,
    MixingParams,
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
        mixing=MixingParams(c=1.0, alpha=1.0, delta=1.0),
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
    assert oh_bound(3, 2, [1, -1], 1, 1) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert oh_bound(3, 2, [1, -1], 4, 9) == pytest.approx(4.0, abs=1e-14)
    # odd m: the middle entry is unpaired
    assert oh_bound(3, 3, [2, 0, -3], 1, 1) == pytest.approx(
        xi_pgl2(3, 5), abs=1e-15
    )
    assert oh_bound(2, 4, [3, 1, 0, -1], 1, 1) == pytest.approx(
        xi_pgl2(2, 4) * xi_pgl2(2, 1), abs=1e-15
    )


def test_oh_bound_validation():
    with pytest.raises(ValueError):
        oh_bound(3, 1, [0], 1, 1)
    with pytest.raises(ValueError):
        oh_bound(3, 2, [1, 0, -1], 1, 1)
    with pytest.raises(ValueError):
        oh_bound(3, 2, [1, -1], 0, 1)
    with pytest.raises(NegativeExponent):
        oh_bound(3, 2, [-1, 1], 1, 1)  # ascending list


# ---- envelopes ----------------------------------------------------------------


def test_mixing_bound():
    params = MixingParams(c=1.0, alpha=1.0, delta=1.0)
    assert mixing_bound(params, 2, 1, 1, 2.0, 3) == pytest.approx(0.5, abs=1e-15)
    assert mixing_bound(params, 2, 1, 1, 2.0, 0) == pytest.approx(4.0, abs=1e-15)
    with pytest.raises(ValueError):
        mixing_bound(params, 2, 1, 1, 2.0, -1)
    with pytest.raises(ValueError):
        mixing_bound(params, 2, 1, 1, 1.0, 2)
    with pytest.raises(ValueError):
        MixingParams(c=0.0, alpha=1.0, delta=1.0)


def test_ball_measure_levels():
    assert ball_measure_at(2, 0.25, 3, 2) == 0.25
    assert ball_measure_at(4, 1.0, 2, 3) == pytest.approx(3.0**-4, abs=1e-18)
    with pytest.raises(ValueError):
        ball_measure_at(1, 0.5, 2, 3)


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
        assert ratio == pytest.approx(b.a_norm**-b.mixing.delta, rel=1e-12)
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
            MixingParams(**{"c": 1.0, "alpha": 1.0, "delta": 1.0, field: x})
    for field in ("entropy_nats", "base_ball_measure", "a_norm"):
        with pytest.raises(ValueError):
            bundle(**{field: x})
    k = kappa(bundle())
    for i in (0, 2, 5, 6):  # kappa, alpha, the norm, the gap
        args = [k, 2, 1.0, 1, 0, 1.0, 0.25]
        args[i] = x
        with pytest.raises(ValueError, match="finite"):
            theorem1_rhs(*args)


def test_theorem1_rhs():
    # frozen: kappa = 8 sqrt(2), l_f = 0, unit norm, gap 1/4 gives 4 sqrt(2)
    k = kappa(bundle())
    assert theorem1_rhs(k, 2, 1.0, 1, 0, 1.0, 0.25) == pytest.approx(
        5.656854249492381, abs=1e-12
    )
    assert theorem1_rhs(k, 2, 1.0, 1, 0, 1.0, 0.0) == 0.0
    assert theorem1_rhs(1.0, 2, 1.0, 2, 1, 2.0, 0.25) == pytest.approx(8.0, abs=1e-12)
    # sqrt scaling in the gap
    a = theorem1_rhs(k, 2, 1.0, 1, 1, 1.0, 0.01)
    b = theorem1_rhs(k, 2, 1.0, 1, 1, 1.0, 0.04)
    assert b / a == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(NegativeGap):
        theorem1_rhs(k, 2, 1.0, 1, 0, 1.0, -1e-9)
    with pytest.raises(ValueError):
        theorem1_rhs(k, 2, 1.0, 1, -1, 1.0, 0.1)
    with pytest.raises(ValueError):
        theorem1_rhs(k, 2, 1.0, 1, 0, -1.0, 0.1)
