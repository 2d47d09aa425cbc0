"""Adjoint eigenline decomposition, Bowen balls and lattice point counting.

The sl_2 flow a = diag(1/p, p) is small enough to know everything about in
closed form, so most assertions here are exact integers and Fractions.
"""

import math
import operator
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from padlab import GroupSpec, PadicContext, PadicMatrix, decompose, exp
from padlab.dynamics import (
    _BLOCK,
    ORACLE_POINT_BUDGET,
    BowenCounts,
    _integerize,
    _lift_mod,
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
from padlab.matrix import _invert, fraction_val


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


def test_coordinates_refuse_a_matrix_of_another_size():
    # unchecked, the sl2 eigenbasis would read a 3x3 at its pivot positions
    # (diag(9, 9, -18) as [0, 9, 0]) and a 1x1 past its end
    _, dec = sl_flow(3, [Fraction(1, 3), 3])
    for rows in ([[9, 0, 0], [0, 9, 0], [0, 0, -18]], [[1]]):
        x = PadicMatrix.from_rationals(dec.ctx, rows)
        for verify in (False, True):
            with pytest.raises(ValueError, match="matrix"):
                dec.coordinates(x, verify)


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
    # the sl3 case has 2^24 points; its lines of eigenvalue 2^-1 lie strictly
    # between the unit and the widest expansion, so a window power off by
    # one shows there, where on sl2 it cancels against the scaling by p^shift
    for diag, level in (([Fraction(1, 2), 2], 9), ([Fraction(1, 2), 1, 2], 7)):
        spec, dec = sl_flow(2, diag)
        full = bowen_count_oracle(dec, 4, 2, level, "FULL")
        fact = bowen_count_oracle(dec, 4, 2, level, "FACTORED")
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


def _flow_exponents(draw, family: str, d: int) -> list[int]:
    """Exponents e_i in [-2, 2] of a non-scalar diag(p^e_i), summing to 0 on sl."""
    exps = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    if family == "sl":
        exps[-1] = -sum(exps[:-1])
    if len(set(exps)) == 1:
        exps[0] += 1
        if family == "sl":
            exps[-1] -= 1
    return exps


def _unipotent_conjugate(draw, diag: list[Fraction]) -> list[list[Fraction]]:
    """u diag(diag) u^-1 for u integral unitriangular, entries in [-3, 3]."""
    d = len(diag)
    u = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    u_inv = [row[:] for row in u]
    for i in range(d):
        for j in range(i + 1, d):
            u[i][j] = Fraction(draw(st.integers(-3, 3)))
    # back substitution for the unitriangular inverse
    for j in range(d):
        for i in reversed(range(j)):
            u_inv[i][j] = -sum(u[i][k] * u_inv[k][j] for k in range(i + 1, j + 1))
    return [[sum(u[i][k] * diag[k] * u_inv[k][j] for k in range(d))
             for j in range(d)] for i in range(d)]


@st.composite
def conjugated_flows(draw):
    """(p, family, exponents, u D u^-1): D = diag(p^e_i) not scalar, u unipotent."""
    family, d = draw(st.sampled_from([("sl", 2), ("sl", 3), ("gl", 3)]))
    p = draw(st.sampled_from([2, 3, 5]))
    exps = _flow_exponents(draw, family, d)
    return p, family, exps, _unipotent_conjugate(draw, [Fraction(p) ** e for e in exps])


@settings(max_examples=120)
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


# ---- the FULL oracle against its reference kernel ----------------------------


def reference_count_full(dec, k, n, level) -> BowenCounts:
    """FULL by conjugating every point: digit extraction, a product with the
    flattened basis, and two batched int64 products per window."""
    ctx = dec.ctx
    p, d = ctx.p, dec.a.dim
    spec = dec.group
    dim_g = len(spec.lie_basis)
    radius = p ** (level - k)
    total = radius**dim_g
    if total > ORACLE_POINT_BUDGET:
        raise BudgetExceeded(
            f"full oracle needs {total} points, budget {ORACLE_POINT_BUDGET}"
        )

    a_frac = [[x.as_rational() for x in row] for row in dec.a.rows]
    a_num, s_a = _integerize(a_frac, p)
    inv_frac = _invert(a_frac, Fraction(0), Fraction(1), operator.add, fraction_val(p))
    if inv_frac is None:
        raise DomainError("matrix is singular over the rationals")
    inv_num, s_inv = _integerize(inv_frac, p)
    shift = s_a + s_inv
    mod_exp = k + (n - 1) * shift
    if mod_exp > level:
        raise LevelTooSmall(
            f"window conjugation needs p^{mod_exp} resolution, lattice has p^{level}"
        )
    modulus = p**mod_exp
    if modulus > 1 << 20 or d * d * modulus * modulus > 1 << 62:
        raise BudgetExceeded("conjugation modulus too large for 64-bit counting")

    basis_flat = np.array(
        [[_lift_mod(x.as_rational(), modulus) for x in b.flat()] for b in spec.lie_basis],
        dtype=np.int64,
    )  # (dim_g, d*d)
    a_arr = np.array([[_lift_mod(x, modulus) for x in r] for r in a_num], dtype=np.int64)
    inv_arr = np.array([[_lift_mod(x, modulus) for x in r] for r in inv_num], dtype=np.int64)

    counts = np.zeros(n, dtype=np.int64)
    pk = p**k
    # chunks of at most 2^18 points, split evenly
    n_chunks = (total + (1 << 18) - 1) >> 18
    chunk = (total + n_chunks - 1) // n_chunks
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = np.empty((idx.size, dim_g), dtype=np.int64)
        rest = idx.copy()
        for j in range(dim_g):
            digits[:, j] = rest % radius
            rest //= radius
        # reduced in place, so that a chunk holds few (points, d, d) arrays at once
        z = (digits @ basis_flat).reshape(-1, d, d)  # X / p^k
        z %= modulus
        z *= pk  # X, mod p^mod_exp
        z %= modulus
        alive = np.ones(idx.size, dtype=bool)
        counts[0] += idx.size  # window m=1 is the whole level-k lattice
        for m in range(2, n + 1):
            # reduce between the two products: each stays below d * m^2
            z = a_arr @ z
            z %= modulus
            z = z @ inv_arr
            z %= modulus
            need = p ** (k + (m - 1) * shift)
            alive &= np.all(z % need == 0, axis=(1, 2))
            counts[m - 1] += int(alive.sum())
    out = tuple(int(c) for c in counts)
    ratios = tuple(Fraction(c, out[0]) for c in out)
    return BowenCounts("FULL", level, out, ratios)


ORACLE_CASE_POINTS = 3**10


@st.composite
def oracle_jobs(draw):
    """(family, p, a, k, n, level, points): FULL jobs of at most
    ORACLE_CASE_POINTS points on u S D u^-1, with D = diag(p^e_i) in either
    exponent order, S a diagonal of signs and u unipotent as in
    conjugated_flows; k and the level run up to 3 above their minima.
    The drawn n drops to the largest window length that fits the cap."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    # only sl2 has windows n >= 2 within the cap
    family, d = draw(st.sampled_from([("sl", 2)] + [
        (f, 3) for f in ("sl", "gl") if n == 1 and p ** (9 - (f == "sl")) <= ORACLE_CASE_POINTS
    ]))
    dim_g = d * d - (family == "sl")
    exps = _flow_exponents(draw, family, d)
    spread = max(exps) - min(exps)  # the largest |v_p| of an Ad eigenvalue

    def fits(digits: int) -> bool:
        return p ** (dim_g * digits) <= ORACLE_CASE_POINTS

    while not fits((n - 1) * spread + 1):
        n -= 1
    digits = (n - 1) * spread + 1
    digits += draw(st.integers(0, max(x for x in range(4) if fits(digits + x))))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d))
    if family == "sl":
        signs[-1] = math.prod(signs[:-1])
    a = _unipotent_conjugate(draw, [s * Fraction(p) ** e for s, e in zip(signs, exps)])
    k = spread + 2 + draw(st.integers(0, 3))
    return family, p, a, k, n, k + digits, p ** (dim_g * digits)


@settings(max_examples=120)
@given(oracle_jobs())
def test_full_oracle_matches_reference_factored_and_closed_form(job):
    family, p, a, k, n, level, points = job
    ctx = PadicContext(p)
    spec = GroupSpec.sl(ctx, len(a)) if family == "sl" else GroupSpec.gl(ctx, len(a))
    try:
        dec = decompose(PadicMatrix.from_rationals(ctx, a), spec)
    except PrecisionExhausted:
        reject()  # a D1 refusal; see test_conjugated_flows_decompose_or_refuse
    full = bowen_count_oracle(dec, k, n, level, "FULL")
    try:
        reference = reference_count_full(dec, k, n, level)
    except BudgetExceeded:
        # the reference refuses moduli past 2^20, even where it tests no window
        assert n == 1
    else:
        assert full == reference
    assert full.counts[0] == points
    # an integral unipotent u keeps the level-k lattice, so the volume law
    # holds exactly for every conjugate
    assert full.ratios == tuple(bowen_volume_ratio(dec, m) for m in range(1, n + 1))
    if dec.lattice_defect == 0:
        assert full.counts == bowen_count_oracle(dec, k, n, level, "FACTORED").counts


def test_full_oracle_working_set_is_bounded_by_the_block():
    # 2^21 points: the kernel holds the low table and one block's arrays,
    # each at most _BLOCK int64 entries per matrix entry, never the lattice
    _, dec = sl_flow(2, [Fraction(1, 2), 2])
    entries = 4
    cap = 2 * _BLOCK * entries * 8
    assert 2**21 * entries * 8 > cap  # an unchunked outer sum cannot fit
    tracemalloc.start()
    try:
        full = bowen_count_oracle(dec, 4, 2, 11, "FULL")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert full.counts == (2**21, 2**19)
    assert peak < cap
