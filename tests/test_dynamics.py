"""Adjoint eigenline decomposition, Bowen balls and lattice point counting.

The sl_2 flow a = diag(1/p, p) is small enough to know everything about in
closed form, so most assertions here are exact integers and Fractions.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlab import GroupSpec, PadicContext, PadicMatrix, decompose, exp
from padlab.dynamics import (
    atom_representatives,
    bowen_ball,
    bowen_count_oracle,
    bowen_volume_ratio,
    entropy,
    min_partition_level,
    mod_character,
)
from padlab.errors import (
    BudgetExceeded,
    DomainError,
    LevelTooSmall,
    NoHyperbolicity,
    NotDiagonalizable,
    PrecisionExhausted,
)
from padlab.liegroup import ball_membership


def sl_flow(p: int, diag):
    ctx = PadicContext(p)
    spec = GroupSpec.sl(ctx, len(diag))
    rows = [[Fraction(x) if i == j else 0 for j, x in enumerate(diag)] for i in range(len(diag))]
    a = PadicMatrix.from_rationals(ctx, [[rows[i][j] for j in range(len(diag))] for i in range(len(diag))])
    return spec, decompose(a, spec)


def test_sl2_standard_flow():
    spec, dec = sl_flow(3, [Fraction(1, 3), 3])
    assert dec.nu == (-2, 0, 2)
    assert dec.classes == ("UNSTABLE", "NEUTRAL", "STABLE")
    assert dec.nu_total == 2
    assert dec.lattice_defect == 0
    assert [lam.as_rational() for lam in dec.eigenvalues] == [Fraction(1, 9), 1, 9]
    assert entropy(dec) == pytest.approx(2 * math.log(3), rel=1e-15)
    assert mod_character(dec) == 9
    assert min_partition_level(dec) == 4
    assert dec.max_exponent() == 2
    # eigenlines are integral with content 0 and genuinely eigen
    for lam, b, v in zip(dec.eigenvalues, dec.basis, dec.nu):
        assert b.min_valuation() == 0
        image = dec.a @ b @ dec.a.inverse()
        assert image.congruent_mod(b.scale(lam), 10)


def test_sl3_bicontracting_flow():
    _, dec = sl_flow(3, [Fraction(1, 9), 1, 9])
    assert dec.nu == (-4, -2, -2, 0, 0, 2, 2, 4)
    assert dec.nu_total == 8
    assert sum(dec.nu) == 0
    assert dec.lattice_defect == 0


def test_sl3_mixed_units_flow():
    # unit factors -1 do not disturb the valuation ladder
    _, dec = sl_flow(3, [Fraction(-3), 1, Fraction(-1, 3)])
    assert dec.nu == (-2, -1, -1, 0, 0, 1, 1, 2)
    assert dec.nu_total == 4
    assert dec.max_exponent() == 2


def test_no_hyperbolicity():
    ctx = PadicContext(3)
    spec = GroupSpec.sl(ctx, 2)
    with pytest.raises(NoHyperbolicity):
        decompose(PadicMatrix.identity(ctx, 2), spec)
    # 2 is a 3-adic unit: diag(2, 1/2) moves nothing transversally
    unit_diag = PadicMatrix.from_rationals(ctx, [[2, 0], [0, Fraction(1, 2)]])
    with pytest.raises(NoHyperbolicity):
        decompose(unit_diag, spec)


def test_unipotent_not_diagonalizable():
    ctx = PadicContext(3)
    spec = GroupSpec.sl(ctx, 2)
    shear = PadicMatrix.from_rationals(ctx, [[1, 1], [0, 1]])
    with pytest.raises(NotDiagonalizable):
        decompose(shear, spec)


def test_conjugated_flow_has_lattice_defect():
    # a = g diag(1/3, 3) g^-1 with g = [[1, 1/3], [0, 1]]: same spectrum,
    # but the eigenlattice no longer spans the integral algebra
    ctx = PadicContext(3)
    spec = GroupSpec.sl(ctx, 2)
    a = PadicMatrix.from_rationals(ctx, [[Fraction(1, 3), Fraction(8, 9)], [0, 3]])
    dec = decompose(a, spec)
    assert sorted(dec.nu) == [-2, 0, 2]
    assert dec.nu_total == 2
    assert dec.lattice_defect == 3
    with pytest.raises(DomainError):
        bowen_count_oracle(dec, 4, 2, 9, "FACTORED")


def test_random_diagonal_contraction_bookkeeping():
    # |nu| computed from stable valuations equals the log of the product of
    # the expanding norms, for random diagonal flows in SL2 and SL3
    rng = random.Random(52)
    for p in (2, 3, 5):
        ctx = PadicContext(p)
        for d in (2, 3):
            spec = GroupSpec.sl(ctx, d)
            for _ in range(10):
                exps = [rng.randint(-3, 3) for _ in range(d - 1)]
                exps.append(-sum(exps))
                if all(e == 0 for e in exps):
                    continue
                diag = [Fraction(p) ** e for e in exps]
                a = PadicMatrix.from_rationals(
                    ctx, [[diag[i] if i == j else 0 for j in range(d)] for i in range(d)]
                )
                try:
                    dec = decompose(a, spec)
                except NoHyperbolicity:
                    assert len(set(exps)) == 1
                    continue
                expanding = Fraction(1)
                for lam, cls in zip(dec.eigenvalues, dec.classes):
                    if cls == "UNSTABLE":
                        expanding *= lam.norm()
                assert expanding == Fraction(p) ** dec.nu_total
                assert sum(dec.nu) == 0
                assert mod_character(dec) == p**dec.nu_total


def test_stable_lines_contract_under_conjugation():
    spec, dec = sl_flow(3, [Fraction(1, 3), 3])
    ctx = spec.ctx
    k = 5
    scale = ctx.from_rational(3**k)
    for b, v, cls in zip(dec.basis, dec.nu, dec.classes):
        conj = dec.a @ b.scale(scale) @ dec.a.inverse()
        assert conj.min_valuation() == k + v


# ---- Bowen balls -------------------------------------------------------------


def test_bowen_ball_levels_and_membership():
    spec, dec = sl_flow(3, [Fraction(1, 3), 3])
    ctx = spec.ctx
    ball = bowen_ball(dec, 4, 2)
    assert ball.levels == (8, 4, 4)

    e12 = PadicMatrix.from_rationals(ctx, [[0, 1], [0, 0]])
    e21 = PadicMatrix.from_rationals(ctx, [[0, 0], [1, 0]])
    deep = e12.scale(ctx.from_rational(3**8))
    shallow = e12.scale(ctx.from_rational(3**7))
    assert ball.contains_algebra(deep)
    assert not ball.contains_algebra(shallow)
    # stable direction only needs level k
    assert ball.contains_algebra(e21.scale(ctx.from_rational(3**4)))
    assert not ball.contains_algebra(e21.scale(ctx.from_rational(3**3)))
    assert ball.contains_group(exp(deep))
    assert not ball.contains_group(exp(shallow))

    with pytest.raises(LevelTooSmall):
        bowen_ball(dec, 3, 2)  # needs k >= max |nu| + 2 = 4
    with pytest.raises(DomainError):
        bowen_ball(dec, 4, 0)


def test_bowen_volume_ratio_closed_form():
    _, dec = sl_flow(3, [Fraction(1, 3), 3])
    assert bowen_volume_ratio(dec, 1) == 1
    assert bowen_volume_ratio(dec, 2) == Fraction(1, 9)
    assert bowen_volume_ratio(dec, 3) == Fraction(1, 81)
    _, dec3 = sl_flow(2, [Fraction(1, 4), 1, 4])
    assert bowen_volume_ratio(dec3, 2) == Fraction(1, 2**8)


def test_oracle_full_matches_factored():
    spec, dec = sl_flow(2, [Fraction(1, 2), 2])
    full = bowen_count_oracle(dec, 4, 2, 9, "FULL")
    fact = bowen_count_oracle(dec, 4, 2, 9, "FACTORED")
    assert full.counts == fact.counts
    assert full.ratios == fact.ratios
    assert full.ratios[0] == 1
    assert full.ratios[1] == bowen_volume_ratio(dec, 2)


def test_oracle_factored_closed_form():
    # levels (k + (m-1)|nu|, k, k) against modulus level L give the counts
    # p^(L-k-(m-1)|nu|) * p^(L-k) * p^(L-k) directly
    _, dec = sl_flow(3, [Fraction(1, 3), 3])
    res = bowen_count_oracle(dec, 4, 3, 9, "FACTORED")
    assert res.counts == (3**15, 3**13, 3**11)
    assert res.ratios == (1, Fraction(1, 9), Fraction(1, 81))


def test_oracle_preconditions():
    _, dec = sl_flow(3, [Fraction(1, 3), 3])
    with pytest.raises(LevelTooSmall):
        bowen_count_oracle(dec, 4, 2, 6, "FULL")  # level must exceed k + (n-1)|nu|
    with pytest.raises(ValueError):
        bowen_count_oracle(dec, 4, 2, 9, "SIDEWAYS")
    _, dec3 = sl_flow(3, [Fraction(1, 9), 1, 9])
    with pytest.raises(BudgetExceeded):
        # 8 coordinates with 4 free digits each blows the 2^25 point budget
        bowen_count_oracle(dec3, 6, 1, 10, "FULL")


def test_atom_representatives_partition():
    spec, dec = sl_flow(3, [Fraction(1, 3), 3])
    reps = atom_representatives(dec, 4)
    assert len(reps) == 9  # p^|nu|
    for g in reps:
        assert ball_membership(g, spec, 2)
    # pairwise distinct modulo the level-4 ball
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not ball_membership(reps[i] @ reps[j].inverse(), spec, 4)
    with pytest.raises(LevelTooSmall):
        atom_representatives(dec, 3)


@st.composite
def conjugated_flows(draw):
    """(p, family, exponents, u D u^-1): D = diag(p^e_i) not scalar, u unipotent."""
    family, d = draw(st.sampled_from([("sl", 2), ("sl", 3), ("gl", 3)]))
    p = draw(st.sampled_from([2, 3, 5]))
    exps = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    if family == "sl":
        exps[-1] = -sum(exps[:-1])
    if len(set(exps)) == 1:
        exps[0] += 1
        if family == "sl":
            exps[-1] -= 1
    u = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    u_inv = [row[:] for row in u]
    for i in range(d):
        for j in range(i + 1, d):
            u[i][j] = Fraction(draw(st.integers(-3, 3)))
    # back substitution for the unitriangular inverse
    for j in range(d):
        for i in reversed(range(j)):
            u_inv[i][j] = -sum(u[i][k] * u_inv[k][j] for k in range(i + 1, j + 1))
    a = [[sum(u[i][k] * Fraction(p) ** exps[k] * u_inv[k][j] for k in range(d))
          for j in range(d)] for i in range(d)]
    return p, family, exps, a


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(conjugated_flows())
def test_conjugated_flows_decompose_or_refuse(case):
    # either the exact |nu| of the diagonal flow, or an honest precision refusal
    p, family, exps, a = case
    ctx = PadicContext(p)
    spec = GroupSpec.sl(ctx, len(exps)) if family == "sl" else GroupSpec.gl(ctx, len(exps))
    try:
        dec = decompose(PadicMatrix.from_rationals(ctx, a), spec)
    except PrecisionExhausted:
        return
    assert dec.nu_total == sum(abs(x - y) for i, x in enumerate(exps) for y in exps[i + 1:])
    # Ad(u D u^-1) has the eigenvalues p^(e_i - e_j) of Ad(D), the unit 1 once
    # fewer on sl: each returned eigenvalue must agree with its exact value in
    # every claimed digit, with the exact multiplicities
    expected = Counter(x - y for x in exps for y in exps)
    if family == "sl":
        expected[0] -= 1
    assert Counter(lam.valuation() for lam in dec.eigenvalues) == expected
    for lam in dec.eigenvalues:
        assert lam.unit % p**lam.digits == 1

