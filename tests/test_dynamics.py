"""Adjoint eigenline decomposition, Bowen balls and lattice point counting.

The sl_2 flow a = diag(1/p, p) is small enough to know everything about in
closed form, so most assertions here are exact integers and Fractions.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from padlab import GroupSpec, PadicContext, PadicMatrix, PadlabError, decompose, dynamics
from padlab.dynamics import (
    BowenCounts,
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
    SingularAtPrecision,
)
from padlab.liegroup import ball_membership
from padlab.matrix import _invert, _vp, fraction_val

from conjugate_sweep import (
    DENSE_SEED,
    NON_SPLIT_FLOWS,
    NON_SPLIT_SEED,
    draw_dense_flow,
    draw_flow,
    draw_non_split_flow,
    oracle_sweep,
    summary,
    sweep,
)


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
    # unchecked, the sl2 read-off would take a 3x3's upper-left 2x2 entries
    # (diag(9, 9, -18) as [0, 9, 0]) and a 1x1 past its end
    _, dec = sl_flow(3, [Fraction(1, 3), 3])
    for rows in ([[9, 0, 0], [0, 9, 0], [0, 0, -18]], [[1]]):
        x = PadicMatrix.from_rationals(dec.ctx, rows)
        with pytest.raises(ValueError, match="matrix"):
            dec.coordinates(x)


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


# D12's repro: a gl4 flow at p = 5 whose Ad(a) splits over Q although its
# characteristic polynomial does not
NON_SPLIT_FLOW = [
    [0, Fraction(2, 625), Fraction(-1244, 625), Fraction(-56, 625)],
    [1, 0, 4, Fraction(44, 25)],
    [0, 0, 0, Fraction(2, 25)],
    [0, 0, 1, 0],
]


def test_non_split_flow_keeps_its_kernel_vectors_as_eigenlines():
    ctx = PadicContext(5)
    dec = decompose(PadicMatrix.from_rationals(ctx, NON_SPLIT_FLOW), GroupSpec.gl(ctx, 4))
    # the answer the same flow gives at working precision 24
    assert (dec.nu_total, dec.lattice_defect) == (4, 14)
    assert Counter(dec.nu) == {-1: 4, 0: 8, 1: 4}


# a gl4 flow at p = 3 whose eigenlines are dependent at working precision;
# at working precision 24 it decomposes with |nu| = 8
DEPENDENT_EIGENLINES = [
    [2, Fraction(-34, 9), Fraction(-37, 3), Fraction(202, 9)],
    [1, -2, -10, -61],
    [0, 0, 0, 18],
    [0, 0, 1, 0],
]


def test_no_eigenbasis_at_working_precision_is_not_diagonalizable():
    # every eigenspace has its multiplicity, but the eigenlines are dependent
    # at working precision
    ctx = PadicContext(3)
    a = PadicMatrix.from_rationals(ctx, DEPENDENT_EIGENLINES)
    with pytest.raises(NotDiagonalizable, match="no eigenbasis at working precision"):
        decompose(a, GroupSpec.gl(ctx, 4))


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
    _, dec = sl_flow(3, [Fraction(1, 3), 3])
    # the unstable line needs k + n |nu|, the others level k
    assert bowen_ball(dec, 4, 2) == (8, 4, 4)

    with pytest.raises(LevelTooSmall):
        bowen_ball(dec, 3, 2)  # needs k >= max |nu| + 2 = 4
    with pytest.raises(DomainError):
        bowen_ball(dec, 4, 0)


def test_bowen_volume_ratio_closed_form():
    _, dec = sl_flow(3, [Fraction(1, 3), 3])
    assert bowen_volume_ratio(dec, 1) == 1
    assert bowen_volume_ratio(dec, 2) == Fraction(1, 9)
    assert bowen_volume_ratio(dec, 3) == Fraction(1, 81)
    with pytest.raises(DomainError, match="window length must be >= 1"):
        bowen_volume_ratio(dec, 0)
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


def _window_rule_flows():
    """The diagonal sl2, sl3 and gl3 flows, then the flows of the sweep slice
    whose eigenbasis spans the integral lattice."""
    for p, family, diag in ((3, "sl", [Fraction(1, 3), 3]), (2, "sl", [Fraction(1, 2), 1, 2]),
                            (3, "gl", [Fraction(1, 3), 1, 9])):
        ctx = PadicContext(p)
        spec = getattr(GroupSpec, family)(ctx, len(diag))
        yield decompose(PadicMatrix.from_rationals(ctx, [
            [x if i == j else 0 for j in range(len(diag))] for i, x in enumerate(diag)]), spec)
    rng = random.Random(7)
    for _ in range(60):
        family, p, exps, a, _ = draw_flow(rng)
        ctx = PadicContext(p)
        try:
            dec = decompose(PadicMatrix.from_rationals(ctx, a), getattr(GroupSpec, family)(ctx, len(exps)))
        except PadlabError:
            continue
        if dec.lattice_defect == 0:
            yield dec


def test_one_window_rule_for_balls_and_oracle_windows():
    # bowen_ball(dec, k, n) covers times 0..n and oracle window n + 1 times
    # 0..n: at a level resolving every line, the FACTORED count of window
    # n + 1 is the number of residues of the ball of length n
    flows = 0
    for dec in _window_rule_flows():
        p, k = dec.ctx.p, dec.max_exponent() + 2
        for n in (1, 2):
            level = k + n * dec.max_exponent() + 1
            expected = math.prod(p ** max(0, level - lvl) for lvl in bowen_ball(dec, k, n))
            counts = bowen_count_oracle(dec, k, n + 1, level, "FACTORED").counts
            assert counts[n] == expected
        flows += 1
    assert flows > 3


def test_oracle_preconditions():
    _, dec = sl_flow(3, [Fraction(1, 3), 3])
    with pytest.raises(LevelTooSmall):
        bowen_count_oracle(dec, 4, 2, 6, "FULL")  # level must exceed k + (n-1)|nu|
    with pytest.raises(ValueError):
        bowen_count_oracle(dec, 4, 2, 9, "SIDEWAYS")
    _, dec3 = sl_flow(3, [Fraction(1, 9), 1, 9])
    # 8 coordinates with 4 free digits each, past any enumeration
    assert bowen_count_oracle(dec3, 6, 1, 10, "FULL").counts == (3**32,)


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


def test_conjugate_sweep_slice():
    # the first 60 flows of seed 7 of the conjugate sweep: every one
    # decomposes with the right |nu|, and no returned factorization fails
    # F H = g mod p^8 or leaves it open
    counts, digest = sweep(7, 60)
    s = summary(counts)
    assert (s["decomposed"], s["wrong_nu"]) == (60, 0)
    assert s["factor"]["FAIL"] == s["factor"]["UNDECIDED"] == 0
    # every decomposition, bit for bit (see tests/conjugate_sweep.py)
    assert digest == "1616de664fc5ebceaffde7b9183962c99a505632bcd453ea4143731aeb4b25ec"


def test_oracle_sweep_slice():
    # the oracle windows of the same 60 flows, n = 1, 2, 3: FULL counts every
    # one, each in the closed form's bracket and equal to FACTORED's counts
    outcomes, digest = oracle_sweep(7, 60)
    assert outcomes == Counter({(True, True): 180})
    assert digest == "644ae417710dfb25bb4cad165724f5f29e90bd6cf4b1eed5b6f2a9a6e208e80b"


def test_non_split_sweep():
    # the non-split GL4 family of the conjugate sweep, whose characteristic
    # polynomials do not split over Q_p: every decomposition has the right
    # |nu|, and every refusal is NotDiagonalizable, from the Ad path
    # (`_ad_lines`) or, for dependent lines, from the decomposition's
    # construction
    counts, digest = sweep(NON_SPLIT_SEED, NON_SPLIT_FLOWS, draw_non_split_flow)
    s = summary(counts)
    assert (s["decomposed"], s["wrong_nu"]) == (39, 0)
    assert s["refused"] == {("NotDiagonalizable", "_ad_lines"): 63,
                            ("NotDiagonalizable", "__post_init__"): 18}
    assert digest == "80ec28f9abf9aad00835098018dab46002c775c1842f69c2defdd5b5d1a0e8fa"


def test_dense_sweep_slice():
    # the first 255 flows of the dense family, whose conjugators need not lie
    # in GL_d(Z_p): every decomposition has the right |nu|; the refusals are
    # the dependent lines that the construction (flows 22, 56, 109 and 228)
    # and the eigendata path (flow 254, an eigenspace that saturates short)
    # find, and a flow singular at working precision (18).  On flows 56 and
    # 228 Berkowitz keeps no certified digit of chi_a's constant coefficient,
    # which is read off det a instead, so a diagonalizes and the lines it
    # gives are dependent at working precision
    counts, digest = sweep(DENSE_SEED, 255, draw_dense_flow)
    s = summary(counts)
    assert (s["decomposed"], s["wrong_nu"]) == (249, 0)
    assert s["refused"] == {("NotDiagonalizable", "__post_init__"): 4,
                            ("NotDiagonalizable", "_eigendata_lines"): 1,
                            ("SingularAtPrecision", "decompose"): 1}
    assert s["factor"] == {"PASS": 143, ("DomainError", "horospherical_factor"): 55,
                           ("PrecisionExhausted", "horospherical_factor"): 51}
    assert digest == "f928f64a2d13c20f92f8ecbe5d58071296e10dfef22f57b15b24bb074f3b0708"


def test_dense_oracle_sweep_slice():
    # the oracle windows of the same 255 flows at the level k + (n - 1)
    # max|nu| + 1 + lattice_defect: FULL counts every one, in the closed
    # form's bracket, and equal to FACTORED's counts at defect 0
    outcomes, digest = oracle_sweep(DENSE_SEED, 255, draw_dense_flow)
    assert outcomes == Counter({(True, True): 576, (True, None): 171})
    assert digest == "4565be2df85bf7ba3e2c8339a2d338ccd03da9ada8606b2eea62d342102e3b3b"


def test_chi_a_constant_coefficient_is_read_off_det_a():
    # dense flow 563, u diag(4, 1, 1/4) u^-1 on sl3 at p = 2: Berkowitz
    # cancels every certified digit of chi_a(0) = -det a, which comes out
    # O(2^0), where the pivots of `eliminate` certify det a = 1 to 5 digits;
    # read off det a, chi_a splits and the flow decomposes instead of
    # refusing on the Ad path
    ctx = PadicContext(2)
    a = PadicMatrix.from_rationals(ctx, [["4", "3/2", "9/2"], ["15/4", "37/16", "99/16"],
                                         ["-5/4", "-7/16", "-17/16"]])
    chi, det = a.char_poly(), a.det()
    assert chi[0].is_zero and chi[0].abs_precision() == 0
    assert (det.v, det.digits, det.unit % 2**5) == (0, 5, 1)
    dec = decompose(a, GroupSpec.sl(ctx, 3))
    assert (dec.nu_total, sorted(dec.nu)) == (8, [-4, -2, -2, 0, 0, 2, 2, 4])
    assert dec.lattice_defect == 12


@settings(max_examples=300)
@given(st.sampled_from([draw_flow, draw_dense_flow]), st.integers(0, 2**32 - 1))
def test_decompose_returns_a_usable_decomposition_or_refuses_as_documented(draw, seed):
    # flows of both conjugator families, p in {2, 3, 5}: a decomposition
    # answers its lattice defect and the coordinates of every lie_basis
    # element, and a refusal is one of the three decompose documents for a
    # flow that normalizes the algebra
    family, p, exps, a, _ = draw(random.Random(seed))
    ctx = PadicContext(p)
    spec = GroupSpec(ctx, family, len(exps))
    try:
        dec = decompose(PadicMatrix.from_rationals(ctx, a), spec)
    except PadlabError as err:
        assert type(err) in (SingularAtPrecision, NotDiagonalizable, NoHyperbolicity)
        return
    assert dec.lattice_defect >= 0
    for b in spec.lie_basis:
        assert len(dec.coordinates(b)) == spec.dim_g


def _char_poly_sizes(monkeypatch) -> list:
    """The sizes of the matrices whose characteristic polynomials are taken
    from here on: d alone on the eigendata path, d then dim_g on the Ad path."""
    sizes, char_poly = [], PadicMatrix.char_poly

    def wrapper(m):
        sizes.append(m.dim)
        return char_poly(m)

    monkeypatch.setattr(PadicMatrix, "char_poly", wrapper)
    return sizes


def test_split_flow_takes_the_eigendata_path(monkeypatch):
    # a gl3 conjugate of diag(1/3, 1, 3): chi_a splits with simple roots, so
    # no 9 x 9 Ad(a) is built, and every eigenvalue carries all 12 digits
    sizes = _char_poly_sizes(monkeypatch)
    ctx = PadicContext(3)
    a = [[Fraction(1, 3), 1, 2], [0, 1, -1], [0, 0, 3]]
    dec = decompose(PadicMatrix.from_rationals(ctx, a), GroupSpec.gl(ctx, 3))
    assert sizes == [3]
    assert dec.nu == (-2, -1, -1, 0, 0, 0, 1, 1, 2)
    assert {lam.digits for lam in dec.eigenvalues} == {12}


def test_non_split_flow_takes_the_ad_path(monkeypatch):
    # the first non-split sweep flow that decomposes: chi_a does not split
    # over Q_3 or Q_5, so the 16 x 16 Ad(a) is built and its roots taken
    rng = random.Random(NON_SPLIT_SEED)
    sizes = _char_poly_sizes(monkeypatch)
    while True:
        _, p, exps, a, _ = draw_non_split_flow(rng)
        ctx = PadicContext(p)
        sizes.clear()
        try:
            dec = decompose(PadicMatrix.from_rationals(ctx, a), GroupSpec.gl(ctx, 4))
        except NotDiagonalizable:
            continue
        break
    assert sizes == [4, 16]
    assert dec.nu_total == 4 * abs(exps[0] - exps[2])


def _lines_per_eigenvalue(dec, other) -> list:
    """For each eigenvalue of dec, its lines in dec and the lines of `other`
    whose eigenvalue differs from it by a zero."""
    return [(dec.eigenvalues.count(lam), sum((lam - mu).is_zero for mu in other.eigenvalues))
            for lam in dict.fromkeys(dec.eigenvalues)]


def _ad_decomposition(a, spec):
    """The decomposition of a built on the Ad path, whichever path
    decompose would take."""
    eigenvalues, lines = dynamics._ad_lines(a, spec)
    return dynamics.HorosphericalDecomposition(a, spec, tuple(eigenvalues), tuple(map(tuple, lines)))


def _assert_paths_agree(eig, ad):
    """The same |nu| per line, the same lattice defect and the same count of
    lines per eigenvalue, read from either side."""
    assert (eig.nu, eig.lattice_defect) == (ad.nu, ad.lattice_defect)
    for ours, theirs in _lines_per_eigenvalue(eig, ad) + _lines_per_eigenvalue(ad, eig):
        assert ours == theirs


def _decompose_slice_and_conjugates() -> list:
    """Decompositions of the first 60 flows of seed 7, then of conjugates by
    unitriangular matrices with p in their denominators, whose lines only
    saturation makes a Z_p-basis (lattice defects 3, 0, 20 and 20)."""
    rng = random.Random(7)
    flows = [(family, p, a) for family, p, _, a, _ in (draw_flow(rng) for _ in range(60))]
    flows += [("sl", 3, [[Fraction(1, 3), Fraction(8, 9)], [0, 3]]),
              ("gl", 3, [[Fraction(1, 3), Fraction(8, 3)], [0, 3]])]
    flows += [(family, 2, [[Fraction(1, 2), Fraction(1, 4), Fraction(-1, 16)],
                           [0, 1, Fraction(1, 4)], [0, 0, 2]]) for family in ("sl", "gl")]
    return [decompose(PadicMatrix.from_rationals(PadicContext(p), a),
                      GroupSpec(PadicContext(p), family, len(a))) for family, p, a in flows]


def test_eigendata_path_agrees_with_the_ad_path_on_the_sweep_slice():
    # the sweep slice and the four conjugates, each rebuilt on the Ad path
    eigendata = _decompose_slice_and_conjugates()
    assert [dec.lattice_defect for dec in eigendata[-4:]] == [3, 0, 20, 20]
    for eig in eigendata:
        _assert_paths_agree(eig, _ad_decomposition(eig.a, eig.group))


def test_eigendata_path_agrees_with_the_ad_path_on_the_dense_slice():
    # the first 255 dense flows, whose conjugators need not lie in GL_d(Z_p),
    # so that the lattice defect can be positive: wherever both paths
    # decompose they agree, and no flow decomposes on the Ad path alone
    rng = random.Random(DENSE_SEED)
    tally = Counter()
    for _ in range(255):
        family, p, _, a, _ = draw_dense_flow(rng)
        ctx = PadicContext(p)
        spec, flow = GroupSpec(ctx, family, len(a)), PadicMatrix.from_rationals(ctx, a)
        decs = []
        for build in (decompose, _ad_decomposition):
            try:
                decs.append(build(flow, spec))
            except PadlabError:
                decs.append(None)
        eig, ad = decs
        if eig is not None and ad is not None:
            _assert_paths_agree(eig, ad)
            tally["both", eig.lattice_defect > 0] += 1
        else:
            tally["eigendata only" if eig else "Ad only" if ad else "neither"] += 1
    assert tally == {("both", False): 185, ("both", True): 23, "eigendata only": 41, "neither": 6}


def test_lattice_defect_sums_the_pivots_of_the_inverse():
    # the pivots decompose takes from its lines' coordinate rows alone are
    # those the [A | I] inverse picks: their valuations sum alike
    for dec in _decompose_slice_and_conjugates():
        inverse, pivots = _invert(dec.lines, dec.ctx.zero(), dec.ctx.one())
        assert inverse is not None
        assert dec.lattice_defect == sum(x.v for x in pivots)


def test_basis_writes_the_stored_lines_on_the_entries():
    # a decomposition stores its lines as lie_basis coordinate rows, on both
    # paths, and basis[i] is group.element(lines[i]) field for field
    def fields(m):
        return [(x.v, x.unit, x.digits) for x in m.flat()]

    decs = _decompose_slice_and_conjugates()
    for dec in decs + [_ad_decomposition(dec.a, dec.group) for dec in decs]:
        assert all(type(row) is tuple and len(row) == dec.group.dim_g for row in dec.lines)
        for b, row in zip(dec.basis, dec.lines, strict=True):
            assert fields(b) == fields(dec.group.element(row))


def test_decompose_inverts_no_eigenbasis_until_coordinates_are_read(monkeypatch):
    # decompose and lattice_defect take pivots alone: the only inverse is the
    # 3 x 3 U^-1; the first coordinates call builds the 9 x 9 inverse, and
    # later calls reuse it
    sizes, invert = [], dynamics._invert

    def counted(rows, *args):
        sizes.append(len(rows))
        return invert(rows, *args)

    monkeypatch.setattr(dynamics, "_invert", counted)
    ctx = PadicContext(3)
    a = [[Fraction(1, 3), 1, 2], [0, 1, -1], [0, 0, 3]]
    dec = decompose(PadicMatrix.from_rationals(ctx, a), GroupSpec.gl(ctx, 3))
    assert dec.lattice_defect == 0
    assert sizes == [3]
    x = PadicMatrix.from_rationals(ctx, [[9, 3, 0], [0, 9, 27], [1, 0, 0]])
    first = dec.coordinates(x)
    assert sizes == [3, 9]
    assert dec.coordinates(x) == first
    assert dec.coordinates(dec.basis[0])[0] == ctx.one()
    assert sizes == [3, 9]


def test_a_decomposition_refuses_dependent_lines():
    # the sl2 lines (E12, H, E12) are dependent: no decomposition is built,
    # so no lattice defect or coordinate is ever asked of them
    ctx = PadicContext(3)
    spec = GroupSpec.sl(ctx, 2)
    e12, h, _ = _unit_rows(spec)
    lams = tuple(ctx.from_rational(x) for x in (Fraction(1, 9), 1, 9))
    a = PadicMatrix.from_rationals(ctx, [[Fraction(1, 3), 0], [0, 3]])
    with pytest.raises(NotDiagonalizable,
                       match="no eigenbasis at working precision: the eigenlines are dependent"):
        dynamics.HorosphericalDecomposition(a, spec, lams, (e12, h, e12))


def _unit_rows(spec):
    """The lie_basis coordinate rows of lie_basis itself."""
    one, zero = spec.ctx.one(), spec.ctx.zero()
    return [tuple(one if i == m else zero for i in range(spec.dim_g)) for m in range(spec.dim_g)]


def test_a_decomposition_needs_dim_g_lines_and_as_many_eigenvalues():
    # the sl2 lines (E12, H) span no eigenbasis of the 3-dimensional algebra:
    # they used to give lattice_defect 0 and coordinates(E21) = [0, 0, 0]
    ctx = PadicContext(3)
    spec = GroupSpec.sl(ctx, 2)
    e12, h, e21 = _unit_rows(spec)
    a = PadicMatrix.from_rationals(ctx, [[Fraction(1, 3), 0], [0, 3]])
    lams = tuple(ctx.from_rational(x) for x in (Fraction(1, 9), 1, 9))
    with pytest.raises(ValueError, match="2 lines and 2 eigenvalues on an algebra of dimension 3"):
        dynamics.HorosphericalDecomposition(a, spec, lams[:2], (e12, h))
    with pytest.raises(ValueError, match="3 lines and 2 eigenvalues"):
        dynamics.HorosphericalDecomposition(a, spec, lams[:2], (e12, h, e21))
    with pytest.raises(ValueError, match="2 lines and 3 eigenvalues"):
        dynamics.HorosphericalDecomposition(a, spec, lams, (e12, h))
    # a line is a row of dim_g lie_basis coordinates
    for bad in (e12[:2], e12 + (ctx.zero(),)):
        with pytest.raises(ValueError, match=f"a line of {len(bad)} coordinates on an algebra of dimension 3"):
            dynamics.HorosphericalDecomposition(a, spec, lams, (bad, h, e21))
    assert dynamics.HorosphericalDecomposition(a, spec, lams, (e12, h, e21)).lattice_defect == 0


@st.composite
def unit_scaled_flows(draw):
    """(p, family, u D u^-1): D = diag(c_i p^e_i) not scalar, the c_i units
    in [-4, 4] or p^8 away from one of an equal exponent, u unipotent."""
    family, d = draw(st.sampled_from([("sl", 2), ("sl", 3), ("gl", 2), ("gl", 3)]))
    p = draw(st.sampled_from([2, 3, 5]))
    exps = _flow_exponents(draw, family, d)
    units = [draw(st.sampled_from([c for c in range(-4, 5) if c % p])) for _ in range(d)]
    # c_i = c_j + p^8 beside an equal exponent makes a cluster of eigenvalues
    # that a 12-digit char poly cannot tell apart
    for i in range(1, d):
        j = draw(st.integers(0, i))
        if j < i and exps[j] == exps[i]:
            units[i] = units[j] + p**8
    return p, family, _unipotent_conjugate(draw, [c * Fraction(p) ** e for c, e in zip(units, exps)])


@settings(max_examples=80)
@given(unit_scaled_flows())
@example((2, "gl", [[1, 0, 0], [0, 1 + 2**8, 0], [0, 0, 2]]))
def test_eigendata_eigenvalues_claim_no_digit_they_lack(case):
    # every eigenvalue at 12 digits agrees with the eigenvalues of a 48-digit
    # decomposition at each digit it claims, as many of them as it has lines;
    # a cluster that 12 digits cannot split may be refused, which claims none
    p, family, a = case
    decs = []
    for precision in (12, 48):
        ctx = PadicContext(p, precision)
        try:
            decs.append(decompose(PadicMatrix.from_rationals(ctx, a), GroupSpec(ctx, family, len(a))))
        except (PrecisionExhausted, NotDiagonalizable):
            reject()
    low, high = decs
    for lam in dict.fromkeys(low.eigenvalues):
        agree = [mu for mu in high.eigenvalues if mu.v == lam.v and mu.digits >= lam.digits
                 and (mu.unit - lam.unit) % p**lam.digits == 0]
        assert len(agree) == low.eigenvalues.count(lam)


def test_eigen_shift_equals_subtracting_a_scaled_identity(monkeypatch):
    # the Ad path subtracts each eigenvalue on the diagonal of Ad(a) alone; on
    # the non-split flows, whose characteristic polynomials do not split, so
    # that decompose takes that path, it must give Ad(a) - lam I entry for
    # entry, in value, valuation and digits: an exact zero times lam is the
    # exact zero, and x plus the exact zero is x
    char_poly, roots_of, kernel = PadicMatrix.char_poly, dynamics.hensel_roots, dynamics.nullspace

    def record(key, fn):
        def wrapper(arg):
            seen[key].append(arg)
            return fn(arg)
        return wrapper

    def record_roots(poly):
        seen["roots"] = roots_of(poly)
        return seen["roots"]

    monkeypatch.setattr(PadicMatrix, "char_poly", record("ad", char_poly))
    monkeypatch.setattr(dynamics, "hensel_roots", record_roots)
    monkeypatch.setattr(dynamics, "nullspace", record("shifted", kernel))

    def entries(m):
        return [[(x.unit, x.v, x.digits) for x in row] for row in m.rows]

    rng = random.Random(NON_SPLIT_SEED)
    shifts = 0
    for _ in range(NON_SPLIT_FLOWS):
        _, p, _, a, _ = draw_non_split_flow(rng)
        ctx = PadicContext(p)
        seen = {"ad": [], "roots": [], "shifted": []}
        try:
            decompose(PadicMatrix.from_rationals(ctx, a), GroupSpec.gl(ctx, 4))
        except PadlabError:
            pass
        # chi_a does not split, so Ad(a) is built: 16 x 16 on gl4
        flow, ad = seen["ad"]
        assert (flow.dim, ad.dim) == (4, 16)
        for (lam, _), shifted in zip(seen["roots"], seen["shifted"]):
            assert entries(shifted) == entries(ad - PadicMatrix.identity(ctx, ad.dim).scale(lam))
            shifts += 1
    assert shifts > 200


# ---- the FULL oracle against its reference kernel ----------------------------

# the most points reference_count_full enumerates
ORACLE_POINT_BUDGET = 1 << 25


def _integerize(mat: list[list[Fraction]], p: int) -> tuple[list[list[Fraction]], int]:
    """Write mat = p^-s * M with M p-integral, minimizing s over p-powers.

    Only the p-part of each denominator sets s: the prime-to-p part stays in
    M and is inverted modulo the conjugation modulus (see `_lift_mod`).
    """
    s = max(_vp(x.denominator, p) for row in mat for x in row)
    return [[x * p**s for x in row] for row in mat], s


def _lift_mod(fr: Fraction, modulus: int) -> int:
    """The p-integral rational fr modulo a power of p."""
    return fr.numerator * pow(fr.denominator, -1, modulus) % modulus


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
    inv_frac, _ = _invert(a_frac, Fraction(0), Fraction(1), fraction_val(p))
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
    return BowenCounts("FULL", level, tuple(int(c) for c in counts))


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
    assert all(type(c) is int for c in full.counts)
    # an integral unipotent u keeps the level-k lattice, so the volume law
    # holds exactly for every conjugate
    assert full.ratios == tuple(bowen_volume_ratio(dec, m) for m in range(1, n + 1))
    if dec.lattice_defect == 0:
        assert full.counts == bowen_count_oracle(dec, k, n, level, "FACTORED").counts


def _conjugate_flow(family, p, diag):
    """u diag(x, y) u^-1 with u = [[1, 1], [1, 2]]: no row of its window maps
    vanishes, unlike a diagonal or triangular flow's."""
    ctx = PadicContext(p)
    spec = GroupSpec.sl(ctx, 2) if family == "sl" else GroupSpec.gl(ctx, 2)
    x, y = map(Fraction, diag)
    a = [[2 * x - y, y - x], [2 * x - 2 * y, 2 * y - x]]
    return decompose(PadicMatrix.from_rationals(ctx, a), spec)


def _full_agrees(dec, k, n, level):
    """FULL against the reference kernel, FACTORED and the closed form."""
    full = bowen_count_oracle(dec, k, n, level, "FULL")
    assert all(type(c) is int for c in full.counts)
    assert full == reference_count_full(dec, k, n, level)
    assert dec.lattice_defect == 0
    assert full.counts == bowen_count_oracle(dec, k, n, level, "FACTORED").counts
    assert full.ratios == tuple(bowen_volume_ratio(dec, m) for m in range(1, n + 1))
    return full.counts


def test_full_oracle_at_p_2():
    # 2^15 points in three windows, on a conjugate with no vanishing rows; the
    # x_dd row is minus the sum of the other diagonal rows on sl, so it
    # changes no elementary divisor
    dec = _conjugate_flow("sl", 2, [Fraction(1, 2), 2])
    assert _full_agrees(dec, 4, 3, 9) == (2**15, 2**13, 2**11)


def test_full_oracle_at_p_5():
    # 5^9 points in two windows
    dec = _conjugate_flow("sl", 5, [Fraction(1, 5), 5])
    assert _full_agrees(dec, 4, 2, 7) == (5**9, 5**7)


def test_full_oracle_at_window_length_4():
    # 2^21 points; windows 3 and 4 stack two and three window maps
    dec = _conjugate_flow("sl", 2, [Fraction(1, 2), 2])
    assert _full_agrees(dec, 4, 4, 11) == (2**21, 2**19, 2**17, 2**15)


def test_full_oracle_on_gl2():
    # gl2 has four rows and four digits; diag(1, 3) has |nu| = 1
    dec = _conjugate_flow("gl", 3, [1, 3])
    assert _full_agrees(dec, 3, 3, 6) == (3**12, 3**11, 3**10)


def _conjugate_flow3(family, p, diag):
    """u diag u^-1 with u = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]."""
    ctx = PadicContext(p)
    u = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    u_inv = [[1, -1, 0], [0, 1, -1], [0, 0, 1]]
    ud = [[Fraction(x) * y for x, y in zip(row, diag)] for row in u]
    a = [[sum(ud[i][t] * u_inv[t][j] for t in range(3)) for j in range(3)] for i in range(3)]
    return decompose(PadicMatrix.from_rationals(ctx, a), getattr(GroupSpec, family)(ctx, 3))


def test_full_oracle_on_gl3_splits_digits_unevenly():
    # gl3 has nine digits in base 4; of the map's nine rows two survive the
    # drop of vanishing rows
    dec = _conjugate_flow3("gl", 2, [1, 1, 2])
    assert _full_agrees(dec, 3, 2, 5) == (2**18, 2**16)


@pytest.mark.parametrize("family,p,n,level", [
    ("sl", 2, 2, 8), ("sl", 3, 3, 9), ("gl", 2, 3, 9), ("gl", 3, 2, 7)])
def test_full_oracle_counts_windows_past_any_enumeration(family, p, n, level):
    # 2^32 to 3^45 points, beyond the reference enumerator's budget: the
    # window lattices' indices still give FACTORED's counts and the closed form
    dec = _conjugate_flow3(family, p, [Fraction(1, p), 1, p])
    k = 4
    full = bowen_count_oracle(dec, k, n, level, "FULL")
    assert full.counts[0] == p ** (len(dec.group.lie_basis) * (level - k)) > ORACLE_POINT_BUDGET
    assert dec.lattice_defect == 0
    assert full.counts == bowen_count_oracle(dec, k, n, level, "FACTORED").counts
    assert full.ratios == tuple(bowen_volume_ratio(dec, m) for m in range(1, n + 1))


def test_full_oracle_brackets_the_closed_form_at_a_positive_defect():
    # the entry lattice is not adapted to this flow's eigenbasis (defect 3):
    # the counts are the reference's, their ratio below the closed form
    ctx = PadicContext(2)
    a = [[Fraction(1, 2), Fraction(1, 4)], [0, 1]]
    dec = decompose(PadicMatrix.from_rationals(ctx, a), GroupSpec.gl(ctx, 2))
    assert dec.lattice_defect == 3
    full = bowen_count_oracle(dec, 3, 2, 6, "FULL")
    assert full == reference_count_full(dec, 3, 2, 6)
    closed = [bowen_volume_ratio(dec, m) for m in (1, 2)]
    assert all(c / 8 <= r <= c for r, c in zip(full.ratios, closed))
    assert list(full.ratios) != closed
    # off the eigenbasis the time-2 map alone would leave 2^20 points of
    # window 3: the time-1 map cuts too.  reference_count_full gives the
    # same counts, enumerating 2^24 points in seconds
    assert bowen_count_oracle(dec, 3, 3, 9, "FULL").counts == (2**24, 2**21, 2**19)


def test_full_oracle_refuses_exactly_below_the_resolution_of_a_window():
    # a = [[1/2, 2^-10], [0, 1]], a^-1 = [[2, -2^-9], [0, 1]]: with x = X/2^3,
    # window 2 asks z = 0 mod 2^9 and x - w + z/2^9 - 2^9 y = 0 mod 2^10, a
    # lattice of index 2^19 that holds 2^19 Z^4 and not 2^18 Z^4.  So the
    # count is defined from level 3 + 19 on, far past the deepest line's 4
    ctx = PadicContext(2)
    a = [[Fraction(1, 2), Fraction(1, 1024)], [0, 1]]
    dec = decompose(PadicMatrix.from_rationals(ctx, a), GroupSpec.gl(ctx, 2))
    assert dec.lattice_defect == 27
    with pytest.raises(LevelTooSmall, match=r"p\^22 resolution"):
        bowen_count_oracle(dec, 3, 2, 21, "FULL")
    full = bowen_count_oracle(dec, 3, 2, 22, "FULL")
    assert full.counts == (2**76, 2**57)
    # 2^76 points are past the reference enumerator, which refuses both levels
    for level in (21, 22):
        with pytest.raises(BudgetExceeded):
            reference_count_full(dec, 3, 2, level)
    closed = [bowen_volume_ratio(dec, m) for m in (1, 2)]
    assert all(c / 2**27 <= r <= c for r, c in zip(full.ratios, closed))


def test_full_oracle_counts_every_point_when_no_row_constrains():
    # a = 1 conjugates nothing, so every window map vanishes mod its need;
    # FULL reads only a, whatever eigendata the decomposition carries
    spec, dec = sl_flow(2, [Fraction(1, 2), 2])
    fixed = dynamics.HorosphericalDecomposition(
        PadicMatrix.identity(dec.ctx, 2), spec, dec.eigenvalues, dec.lines)
    assert bowen_count_oracle(fixed, 4, 3, 11, "FULL").counts == (2**21,) * 3


def test_full_oracle_on_a_diagonal_flow_whose_window_maps_keep_one_row():
    # 2^21 points on the diagonal flow, whose window maps keep one row
    _, dec = sl_flow(2, [Fraction(1, 2), 2])
    assert _full_agrees(dec, 4, 2, 11) == (2**21, 2**19)


def test_full_oracle_at_a_deep_level_where_no_window_map_row_vanishes():
    # 2^21 points at n = 3, on a flow none of whose window-map rows vanish
    # (three rows on sl2)
    dec = _conjugate_flow("sl", 2, [Fraction(1, 2), 2])
    assert _full_agrees(dec, 4, 3, 11) == (2**21, 2**19, 2**17)
