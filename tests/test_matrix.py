"""Matrix algebra and root finding against exact rational oracles.

Random matrices are drawn with exact Fraction shadows, so determinants,
inverses and characteristic polynomials can all be recomputed independently
and compared at the precision each entry claims.
"""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlab import PadicContext, PadicMatrix, PadicScalar, matrix
from padlab.errors import NotSplitAtPrecision, PrecisionExhausted, SingularAtPrecision
from padlab.matrix import (
    combine,
    eliminate,
    fraction_val,
    hensel_roots,
    _invert,
    nullspace,
    _residue_mult,
    _residue_roots,
    _taylor_shift,
    poly_eval,
    zp_module_basis,
)


def vp(fr: Fraction, p: int):
    if fr == 0:
        return math.inf
    v = 0
    num, den = fr.numerator, fr.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def check_entry(got: PadicScalar, exact: Fraction) -> None:
    assert vp(got.as_rational() - exact, got.ctx.p) >= got.abs_precision()


def random_fraction_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    return [
        [Fraction(rng.randint(-60, 60), rng.randint(1, 40)) for _ in range(n)]
        for _ in range(n)
    ]


def frac_det(m: list[list[Fraction]]) -> Fraction:
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * frac_det(minor)
    return total


def frac_inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    work = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(m)]
    for col in range(n):
        piv = next(i for i in range(col, n) if work[i][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return [row[n:] for row in work]


def frac_char_poly(m: list[list[Fraction]]) -> list[Fraction]:
    """Ascending coefficients of det(xI - A) by direct expansion, n <= 3."""
    n = len(m)
    if n == 1:
        return [-m[0][0], Fraction(1)]
    if n == 2:
        return [frac_det(m), -(m[0][0] + m[1][1]), Fraction(1)]
    tr = m[0][0] + m[1][1] + m[2][2]
    # sum of principal 2x2 minors
    s2 = Fraction(0)
    for i in range(3):
        for j in range(i + 1, 3):
            s2 += m[i][i] * m[j][j] - m[i][j] * m[j][i]
    return [-frac_det(m), s2, -tr, Fraction(1)]


# ---- ring operations --------------------------------------------------------


@pytest.mark.parametrize("p,n", [(2, 2), (3, 3), (5, 2), (3, 2)])
def test_matmul_and_det_match_fractions(p, n):
    ctx = PadicContext(p)
    rng = random.Random(100 * p + n)
    for _ in range(40):
        fa = random_fraction_matrix(rng, n)
        fb = random_fraction_matrix(rng, n)
        a = PadicMatrix.from_rationals(ctx, fa)
        b = PadicMatrix.from_rationals(ctx, fb)
        prod = a @ b
        for i in range(n):
            for j in range(n):
                exact = sum(fa[i][k] * fb[k][j] for k in range(n))
                if prod.rows[i][j].is_zero:
                    assert exact == 0
                else:
                    check_entry(prod.rows[i][j], exact)
        try:
            d = a.det()
        except PrecisionExhausted:
            continue
        exact = frac_det(fa)
        if d.is_zero:
            assert vp(exact, p) >= ctx.precision + a.min_valuation()
        else:
            check_entry(d, exact)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (7, 3)])
def test_inverse_matches_fractions(p, n):
    ctx = PadicContext(p)
    rng = random.Random(31 * p + n)
    done = 0
    while done < 30:
        fm = random_fraction_matrix(rng, n)
        if frac_det(fm) == 0:
            continue
        done += 1
        m = PadicMatrix.from_rationals(ctx, fm)
        try:
            inv = m.inverse()
        except PrecisionExhausted:
            continue
        exact = frac_inverse(fm)
        for i in range(n):
            for j in range(n):
                got = inv.rows[i][j]
                if got.is_zero:
                    # a zero only where the true entry sits below resolution
                    assert exact[i][j] == 0 or vp(exact[i][j], p) >= ctx.precision
                else:
                    check_entry(got, exact[i][j])


def test_exactly_singular():
    ctx = PadicContext(3)
    m = PadicMatrix.from_rationals(ctx, [[1, 2], [2, 4]])
    assert m.det().is_zero
    with pytest.raises(SingularAtPrecision):
        m.inverse()


@pytest.mark.parametrize("p,n", [(2, 2), (3, 3), (5, 3)])
def test_char_poly_matches_cofactor_expansion(p, n):
    ctx = PadicContext(p)
    rng = random.Random(55 * p + n)
    for _ in range(25):
        fm = random_fraction_matrix(rng, n)
        m = PadicMatrix.from_rationals(ctx, fm)
        try:
            got = m.char_poly()
        except PrecisionExhausted:
            continue
        exact = frac_char_poly(fm)
        assert len(got) == n + 1
        for g, e in zip(got, exact):
            if g.is_zero:
                assert e == 0 or vp(e, p) >= ctx.precision + m.min_valuation()
            else:
                check_entry(g, e)


def test_char_poly_keeps_the_floor_of_a_cancelled_sum():
    # Berkowitz's first dot R C = u - u, u = 3 * 5 to 11 digits, cancels at
    # floor 12 = N: the coefficient of x is the zero O(3^12), not the exact
    # zero, and the others stay exact
    ctx = PadicContext(3)
    u, zero, one = PadicScalar(ctx, 1, 5, 11), ctx.zero(), ctx.one()
    m = PadicMatrix(ctx, [[zero, zero, one], [zero, zero, one], [u, -u, zero]])
    coeffs = m.char_poly()
    assert all(c.is_zero for c in coeffs[:3]) and coeffs[3] == one
    assert [c.abs_precision() for c in coeffs[:3]] == [math.inf, 12, math.inf]


def test_trace_transpose_flat():
    ctx = PadicContext(5)
    m = PadicMatrix.from_rationals(ctx, [[1, 2], [3, 4]])
    again = PadicMatrix.from_flat(ctx, 2, m.flat())
    assert again == m
    assert m.max_norm() == Fraction(1)
    assert m.min_valuation() == 0
    shifted = m.scale(ctx.from_rational(1, 25))
    assert shifted.min_valuation() == -2
    assert shifted.max_norm() == Fraction(25)
    # from_flat takes its rows unchecked, so it counts the entries itself
    for count in (3, 5):
        with pytest.raises(ValueError, match=f"{count} entries for a 2x2 matrix"):
            PadicMatrix.from_flat(ctx, 2, (m.flat() * 2)[:count])


def test_congruent_mod_matrices():
    ctx = PadicContext(3)
    a = PadicMatrix.from_rationals(ctx, [[1, 0], [0, 1]])
    b = PadicMatrix.from_rationals(ctx, [[1 + 3**7, 0], [3**7, 1]])
    assert a.congruent_mod(b, 7)
    assert not a.congruent_mod(b, 8)


def test_congruent_mod_refuses_another_size():
    # through zip alone, I2 and I3 would agree mod 3^5 on their common corner
    ctx = PadicContext(3)
    small, big = PadicMatrix.identity(ctx, 2), PadicMatrix.identity(ctx, 3)
    for x, y in ((small, big), (big, small)):
        with pytest.raises(ValueError):
            x.congruent_mod(y, 5)


# ---- Hensel root finding ----------------------------------------------------


def ascending(ctx, *coeffs):
    return [ctx.from_rational(Fraction(c)) for c in coeffs]


def match_roots(found, truth, p):
    """Pair claimed roots with exact rationals and verify the certificates."""
    assert sorted(m for _, m in found) == sorted(m for _, m in truth)
    used = set()
    for root, mult in found:
        hit = None
        for idx, (exact, emult) in enumerate(truth):
            if idx in used or emult != mult:
                continue
            if vp(root.as_rational() - exact, p) >= root.abs_precision():
                hit = idx
                break
        assert hit is not None, f"no exact root matches {root!r}"
        used.add(hit)


def test_hensel_simple_split():
    ctx = PadicContext(7)
    # (x-1)(x-2)(x-4), distinct residues, full lift
    roots = hensel_roots(ascending(ctx, -8, 14, -7, 1))
    assert [(r.as_rational(), m) for r, m in roots] == [(1, 1), (2, 1), (4, 1)]
    assert all(r.digits == 12 for r, _ in roots)


def test_hensel_valuation_split():
    ctx = PadicContext(3)
    # (x - 3)(x - 1/3): one root per Newton slope
    roots = hensel_roots(ascending(ctx, 1, Fraction(-10, 3), 1))
    assert [r.valuation() for r, _ in roots] == [-1, 1]
    match_roots(roots, [(Fraction(1, 3), 1), (Fraction(3), 1)], 3)


def test_hensel_zero_roots():
    ctx = PadicContext(5)
    roots = hensel_roots(ascending(ctx, 0, 0, -1, 1))  # x^2 (x - 1)
    # sorted by valuation, so the exact zero (infinite valuation) comes last
    assert roots[0][0] == ctx.one() and roots[0][1] == 1
    assert roots[1][0].is_zero and roots[1][1] == 2
    with pytest.raises(ValueError, match="zero polynomial"):
        hensel_roots(ascending(ctx, 0, 0))


def test_hensel_triple_root():
    ctx = PadicContext(3)
    roots = hensel_roots(ascending(ctx, 1, 3, 3, 1))  # (x+1)^3
    assert len(roots) == 1
    root, mult = roots[0]
    assert mult == 3
    assert root.congruent_mod(ctx.from_rational(-1), 4)
    assert root.digits == 4


def test_hensel_double_plus_simple():
    ctx = PadicContext(3)
    # (x-1)(x+1)^2: residues 1 and -1 are distinct mod 3
    roots = hensel_roots(ascending(ctx, -1, -1, 1, 1))
    match_roots(roots, [(Fraction(1), 1), (Fraction(-1), 2)], 3)
    by_mult = {m: r for r, m in roots}
    assert by_mult[1].digits == 12
    assert by_mult[2].digits == 6  # double roots certify half the digits


def test_hensel_quadruple_root():
    ctx = PadicContext(3)
    roots = hensel_roots(ascending(ctx, 1, -4, 6, -4, 1))  # (x-1)^4
    assert len(roots) == 1
    root, mult = roots[0]
    assert mult == 4
    assert root.digits == 3
    assert root.congruent_mod(ctx.one(), 3)


def test_hensel_near_collision_simple_roots():
    ctx = PadicContext(3)
    # roots 1 and 82 share residues through 3^4; both are simple, and
    # f'(r) = -+81 leaves 12 - 4 = 8 certified digits each
    roots = hensel_roots(ascending(ctx, 82, -83, 1))
    match_roots(roots, [(Fraction(1), 1), (Fraction(82), 1)], 3)
    assert sorted(r.digits for r, _ in roots) == [8, 8]
    # f + 3^12 equals f at 12 digits; solved at 24, both roots move at 3^8
    moved = hensel_roots(ascending(PadicContext(3, 24), 82 + 3**12, -83, 1))
    for root, _ in roots:
        assert max(vp(root.as_rational() - q.as_rational(), 3) for q, _ in moved) == root.digits


def test_hensel_cluster_double_and_simple():
    ctx = PadicContext(3)
    # (x+1)^2 (x-26): 26 = -1 + 27, all three roots share residue 2 mod 3.
    # The double root keeps ceil((12 - v(c_2)) / 2) = 5 digits, c_2 = -27;
    # the simple root keeps 12 - v(f'(26)) = 12 - 6 = 6.
    roots = hensel_roots(ascending(ctx, -26, -51, -24, 1))
    match_roots(roots, [(Fraction(-1), 2), (Fraction(26), 1)], 3)
    assert sorted((m, r.digits) for r, m in roots) == [(1, 6), (2, 5)]
    # f + 3^12 splits the double root into a ramified pair, so perturb c_0 by
    # 3 * 3^12, which also equals f at 12 digits: solved at 24 digits, each
    # claimed root still agrees with perturbed roots of its multiplicity
    moved = hensel_roots(ascending(PadicContext(3, 24), -26 + 3**13, -51, -24, 1))
    for root, mult in roots:
        near = [mq for q, mq in moved if vp(root.as_rational() - q.as_rational(), 3) >= root.digits]
        assert sum(near) == mult


def test_hensel_q2_with_denominator():
    ctx = PadicContext(2)
    # (3x+1)^2 (x-2) expanded, monic-normalized by the leading 9
    roots = hensel_roots(ascending(ctx, -2, -11, -12, 9))
    match_roots(roots, [(Fraction(-1, 3), 2), (Fraction(2), 1)], 2)
    by_mult = {m: r for r, m in roots}
    assert by_mult[2].digits == 6
    assert by_mult[1].digits == 12


def test_hensel_residual_certificates():
    # every returned root satisfies the polynomial to its certified depth
    ctx = PadicContext(3)
    coeffs = ascending(ctx, -26, -51, -24, 1)
    for root, mult in hensel_roots(coeffs):
        try:
            val = poly_eval(coeffs, root)
        except PrecisionExhausted:
            continue  # cancelled past every certified digit: zero at depth
        assert val.is_zero or val.valuation() >= mult * root.digits - 1


def test_hensel_refuses_ramified():
    ctx = PadicContext(3)
    with pytest.raises(NotSplitAtPrecision):
        hensel_roots(ascending(ctx, -3, 0, 1))  # x^2 - 3, slope 1/2


def test_hensel_refuses_unramified_extension():
    ctx = PadicContext(2)
    with pytest.raises(NotSplitAtPrecision):
        hensel_roots(ascending(ctx, 1, 1, 1))  # x^2 + x + 1 irreducible mod 2


def test_hensel_refuses_an_o_p_c_leading_coefficient():
    # 3^6 x^2 + x - 6 agrees with these coefficients and has a second root,
    # of valuation -6; only an exact zero top coefficient is trimmed
    ctx = PadicContext(3)
    with pytest.raises(NotSplitAtPrecision, match="coefficient 2 is O\\(3\\^5\\): the roots near infinity"):
        hensel_roots([ctx.from_rational(-6), ctx.one(), ctx.zero(5)])
    roots = hensel_roots([ctx.from_rational(-6), ctx.one(), ctx.zero()])
    assert [(r.as_rational(), m) for r, m in roots] == [(6, 1)]


def test_hensel_random_split_products():
    # random monic products of distinct-residue linear factors fully recover
    for p in (3, 5):
        ctx = PadicContext(p)
        rng = random.Random(400 + p)
        for _ in range(20):
            k = rng.randint(2, min(3, p - 1))
            residues = rng.sample(range(1, p), k)
            roots_exact = [Fraction(r + p * rng.randint(0, 20)) for r in residues]
            coeffs = [Fraction(1)]
            for r in roots_exact:
                coeffs = [a - r * b for a, b in zip(coeffs + [Fraction(0)], [Fraction(0)] + coeffs)]
            coeffs.reverse()
            found = hensel_roots([ctx.from_rational(c) for c in coeffs])
            match_roots(found, [(r, 1) for r in roots_exact], p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_residue_mult_is_the_first_nonzero_taylor_index(p):
    # random products of repeated linear factors and a random cofactor, mod p:
    # the deflation count equals the Taylor shift's first nonzero index
    rng = random.Random(p)
    for _ in range(40):
        coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 4))]
        coeffs[-1] = rng.randrange(1, p)
        for mult in [rng.randint(2, 4)] + [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]:
            r = rng.randrange(p)
            for _ in range(mult):
                coeffs = [(a - r * b) % p for a, b in zip([0] + coeffs, coeffs + [0])]
        for y0 in range(p):
            taylor = _taylor_shift(coeffs, y0, p)
            assert _residue_mult(coeffs, y0, p) == next(i for i, a in enumerate(taylor) if a)


@pytest.mark.parametrize("p", [67, 101, 257, 499, 997])
def test_residue_roots_are_the_roots_a_scan_finds(p):
    # a random cofactor times repeated linear factors, root 0 among them;
    # the split visits each root once, the scan every residue
    rng = random.Random(p)
    for _ in range(60):
        coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 5))]
        coeffs[-1] = rng.randrange(1, p)
        for _ in range(rng.randint(0, 5)):
            r = rng.choice([0, rng.randrange(p)])
            for _ in range(rng.randint(1, 3)):
                coeffs = [(a - r * b) % p for a, b in zip([0] + coeffs, coeffs + [0])]
        assert _residue_roots(coeffs, p) == [y for y in range(p) if _residue_mult(coeffs, y, p)]


@pytest.mark.parametrize("p", [67, 131, 997])
def test_hensel_roots_split_residues_as_the_scan_does(p, monkeypatch):
    # integer roots with repeats, near-collisions r, r + p^j and positive
    # valuations: every class of the descent finds the scan's roots, each
    # route forced by the threshold whatever p is
    rng = random.Random(p)
    ctx = PadicContext(p, 8)
    for _ in range(12):
        roots = []
        for _ in range(rng.randint(1, 4)):
            r = rng.randrange(p**2) * p ** rng.randint(0, 1)
            roots += [r] * rng.randint(1, 3) + [r + p ** rng.randint(1, 3)] * rng.randint(0, 1)
        coeffs = [Fraction(1)]
        for r in roots:
            coeffs = [a - r * b for a, b in zip([Fraction(0)] + coeffs, coeffs + [Fraction(0)])]
        poly = [ctx.from_rational(c) for c in coeffs]

        def found(split_from):
            monkeypatch.setattr(matrix, "_SPLIT_FROM", split_from)
            return [(r.v, r.unit, r.abs_precision(), m) for r, m in hensel_roots(poly)]

        assert found(3) == found(math.inf)


@st.composite
def unit_root_products(draw):
    """(p, N, {unit integer root: multiplicity}), with repeated roots and
    near-collisions r, r + p^j that share j digits."""
    p = draw(st.sampled_from([2, 3, 5]))
    n_prec = draw(st.integers(4, 12))
    roots: dict[int, int] = {}
    for _ in range(draw(st.integers(1, 3))):
        r = p * draw(st.integers(0, p**4)) + draw(st.integers(1, p - 1))
        roots[r] = roots.get(r, 0) + draw(st.integers(1, 3))
        if draw(st.booleans()):
            near = r + p ** draw(st.integers(1, n_prec + 2))
            roots[near] = roots.get(near, 0) + draw(st.integers(1, 2))
    return p, n_prec, roots


@settings(max_examples=300)
@given(unit_root_products())
def test_hensel_digits_match_closed_form(case):
    # the closed form: a root r of multiplicity mu, with the other roots r_j of
    # multiplicities mu_j, has v(f'(r)) (mu = 1) or v(c_mu) (mu >= 2) equal to
    # sum mu_j v(r - r_j), and keeps N - that (mu = 1) or ceil((N - that) / mu)
    # digits whenever it is separated from every r_j at those digits
    p, n_prec, roots = case
    ctx = PadicContext(p, n_prec)
    coeffs = [1]
    for r, mult in roots.items():
        for _ in range(mult):
            coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    found = hensel_roots([ctx.from_rational(c) for c in coeffs])
    assert sum(m for _, m in found) == len(coeffs) - 1
    for root, mult in found:
        # sound: the exact roots within the claimed digits carry the multiplicity
        inside = sum(m for r, m in roots.items() if (root.unit - r) % p**root.digits == 0)
        assert inside >= mult
    for r, mult in roots.items():
        gaps = [vp(Fraction(r - s), p) for s in roots if s != r]
        lost = sum(m * vp(Fraction(r - s), p) for s, m in roots.items() if s != r)
        digits = n_prec - lost if mult == 1 else -(-(n_prec - lost) // mult)
        if digits <= max(gaps, default=0):
            continue  # r shares its claimed class with another root
        hits = [(root.digits, m) for root, m in found if (root.unit - r) % p**root.digits == 0]
        assert hits == [(digits, mult)]


# ---- kernels and lattice bases ----------------------------------------------


def test_nullspace_rank_one():
    ctx = PadicContext(3)
    m = PadicMatrix.from_rationals(ctx, [[1, 2], [2, 4]])
    basis = nullspace(m)
    assert len(basis) == 1
    vec = basis[0]
    assert min(x.valuation() for x in vec) == 0  # content-normalized
    image = [sum((m.rows[i][j] * vec[j] for j in range(2)), ctx.zero()) for i in range(2)]
    assert all(x.is_zero or x.valuation() >= 10 for x in image)


def test_nullspace_full_rank_empty():
    ctx = PadicContext(5)
    m = PadicMatrix.from_rationals(ctx, [[1, 1], [0, 1]])
    assert nullspace(m) == []


def test_nullspace_rank_two_of_three():
    ctx = PadicContext(2)
    rows = [[1, 0, 1], [0, 1, 1], [1, 1, 2]]
    basis = nullspace(PadicMatrix.from_rationals(ctx, rows))
    assert len(basis) == 1
    m = PadicMatrix.from_rationals(ctx, rows)
    vec = basis[0]
    for i in range(3):
        try:
            x = sum((m.rows[i][j] * vec[j] for j in range(3)), ctx.zero())
        except PrecisionExhausted:
            continue  # cancelled below resolution, which is null enough
        assert x.is_zero or x.valuation() >= 10


@st.composite
def low_rank_matrices(draw):
    """A d x d rational matrix B C of rank at most r < d, the entries of B and
    C p-powers in [-3, 3] times integers in [-4, 4]."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(2, 5))
    r = draw(st.integers(0, d - 1))
    entry = st.builds(lambda e, n: Fraction(p) ** e * n, st.integers(-3, 3), st.integers(-4, 4))
    b = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=d, max_size=d))
    c = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=r, max_size=r))
    return p, r, [[sum((b[i][k] * c[k][j] for k in range(r)), Fraction(0)) for j in range(d)]
                  for i in range(d)]


@settings(max_examples=150)
@given(low_rank_matrices())
def test_nullspace_is_a_zp_basis_of_the_integral_kernel(case):
    # each vector has an exact 1 at its own free column, the exact zero at the
    # other free columns, and integral entries: the integral kernel vectors
    # are exactly the integral combinations
    p, rank, rows = case
    ctx = PadicContext(p)
    m = PadicMatrix.from_rationals(ctx, rows)
    work = [list(r) for r in m.rows]
    pivot_cols = {c for _, c in eliminate(work, ctx.zero())}
    free = [j for j in range(m.dim) if j not in pivot_cols]
    basis = nullspace(m)
    assert len(basis) == len(free) >= m.dim - rank
    one, zero = (ctx.one().v, 1, ctx.precision), (None, 0, None)
    for vec, j in zip(basis, free):
        assert [(vec[i].v, vec[i].unit, vec[i].digits) for i in free] == [
            one if i == j else zero for i in free
        ]
        assert all(x.valuation() >= 0 for x in vec)


@settings(max_examples=100)
@given(low_rank_matrices())
def test_zp_module_basis_takes_the_nullspace_form(case):
    # one row per pivot of `eliminate`, in pivot-column order: an exact 1 at
    # its own pivot column, the exact zero at the other pivot columns, and
    # integral entries
    p, rank, rows = case
    ctx = PadicContext(p)
    vectors = PadicMatrix.from_rationals(ctx, rows).rows
    pivot_cols = sorted(c for _, c in eliminate([list(r) for r in vectors], ctx.zero()))
    basis = zp_module_basis(vectors)
    assert len(basis) == len(pivot_cols) <= rank
    one, zero = (ctx.one().v, 1, ctx.precision), (None, 0, None)
    for vec, j in zip(basis, pivot_cols):
        assert [(vec[i].v, vec[i].unit, vec[i].digits) for i in pivot_cols] == [
            one if i == j else zero for i in pivot_cols
        ]
        assert all(x.valuation() >= 0 for x in vec)


def test_zp_module_basis_unit_pivots():
    ctx = PadicContext(3)
    vin = [
        [ctx.from_rational(3), ctx.from_rational(3)],
        [ctx.zero(), ctx.from_rational(9)],
    ]
    basis = zp_module_basis(vin)
    assert len(basis) == 2
    for vec in basis:
        assert min(x.valuation() for x in vec if not x.is_zero) == 0
    # the input span is all of Q_p^2, so the integral basis has unit det
    det = basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0]
    assert det.valuation() == 0


def test_operands_of_different_sizes_raise():
    # zip would otherwise truncate the larger operand to the smaller's size
    ctx = PadicContext(3)
    small, big = PadicMatrix.identity(ctx, 2), PadicMatrix.identity(ctx, 3)
    for x, y in ((small, big), (big, small)):
        for op in (operator.add, operator.sub, operator.matmul):
            with pytest.raises(ValueError):
                op(x, y)


def test_zp_module_basis_of_no_vectors_and_of_ragged_ones():
    ctx = PadicContext(3)
    assert zp_module_basis([]) == []
    with pytest.raises(ValueError, match="ragged vector list"):
        zp_module_basis([[ctx.one(), ctx.one()], [ctx.one()]])


def test_zp_module_basis_drops_dependent_rows():
    ctx = PadicContext(3)
    one = ctx.one()
    vin = [[one, one], [ctx.from_rational(2), ctx.from_rational(2)]]
    basis = zp_module_basis(vin)
    assert len(basis) == 1


# ---- the hand-written dot products, the reference routes -----------------------


def reference_matmul(a: PadicMatrix, b: PadicMatrix) -> PadicMatrix:
    """The product as matmul summed it before the shared dot product."""
    n = a.dim
    cols = [[b.rows[k][j] for k in range(n)] for j in range(n)]
    out = []
    for i in range(n):
        ri = a.rows[i]
        row = []
        for j in range(n):
            cj = cols[j]
            acc = a.ctx.zero()
            for k in range(n):
                t = ri[k] * cj[k]
                if t:
                    acc = acc + t
            row.append(acc)
        out.append(row)
    return PadicMatrix(a.ctx, out)


def reference_char_poly(m: PadicMatrix) -> list[PadicScalar]:
    """Berkowitz with its three hand-written loops."""
    ctx = m.ctx
    n = m.dim
    a = m.rows
    poly = [ctx.one()]
    for r in range(1, n + 1):
        diag = a[r - 1][r - 1]
        row = a[r - 1][: r - 1]
        col = [a[i][r - 1] for i in range(r - 1)]
        t = [ctx.one(), -diag]
        w = col
        while len(t) < r + 1:
            acc = ctx.zero()
            for x, y in zip(row, w):
                s = x * y
                if s:
                    acc = acc + s
            t.append(-acc)
            if len(t) == r + 1:
                break
            w2 = []
            for i in range(r - 1):
                acc = ctx.zero()
                for j in range(r - 1):
                    s = a[i][j] * w[j]
                    if s:
                        acc = acc + s
                w2.append(acc)
            w = w2
        new = []
        for i in range(r + 1):
            acc = ctx.zero()
            lo = max(0, i - (len(t) - 1))
            for j in range(lo, min(i, r - 1) + 1):
                s = t[i - j] * poly[j]
                if s:
                    acc = acc + s
            new.append(acc)
        poly = new
    poly.reverse()
    return poly


def reference_combine(mats, coords) -> PadicMatrix:
    """sum_i coords[i] * mats[i] through a scaled matrix per coordinate."""
    acc = PadicMatrix.zeros(mats[0].ctx, mats[0].dim)
    for c, b in zip(coords, mats):
        if c:
            acc = acc + b.scale(c)
    return acc


def outcome(call):
    """("ok", (v, unit, digits) of every entry) or ("raise", class, message)."""
    try:
        got = call()
    except (PrecisionExhausted, ValueError) as err:
        return ("raise", type(err), str(err))
    if got is None:
        return ("ok", None)
    entries = got.flat() if isinstance(got, PadicMatrix) else got
    return ("ok", [(e.v, e.unit, e.digits) for e in entries])


@st.composite
def low_digit_cases(draw):
    """(a, b, mats, coords) over one Q_p: d x d matrices whose entries are
    exact zeros, zeros O(p^c) or p^v u with 3-12 certified digits."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(2, 4))
    ctx = PadicContext(p)

    def entry(code: int) -> PadicScalar:
        # one draw per entry: a fifth are exact zeros, a fifth zeros O(p^c),
        # two fifths carry one of the units +-1, +-(1 + p), so sums often
        # cancel, and a fifth any unit
        code, kind = divmod(code, 5)
        code, v = divmod(code, 3)
        code, digits = divmod(code, 10)
        if kind == 0:
            return ctx.zero()
        if kind == 4:
            return ctx.zero(v + digits + 2)
        a, r = divmod(code, p - 1)
        unit = p * a + r + 1 if kind == 3 else (-1) ** code * (1 + p * (code // 2 % 2))
        return PadicScalar(ctx, v - 1, unit, digits + 3)

    entries = st.integers(0, 150 * p**12).map(entry)
    matrix = st.lists(entries, min_size=d * d, max_size=d * d).map(
        lambda flat: PadicMatrix.from_flat(ctx, d, flat)
    )
    mats = draw(st.lists(matrix, min_size=1, max_size=4))
    coords = draw(st.lists(entries, min_size=len(mats), max_size=len(mats)))
    return draw(matrix), draw(matrix), mats, coords


@settings(max_examples=200)
@given(low_digit_cases())
def test_dot_product_matches_the_reference_loops(case):
    a, b, mats, coords = case
    assert outcome(lambda: a @ b) == outcome(lambda: reference_matmul(a, b))
    assert outcome(a.char_poly) == outcome(lambda: reference_char_poly(a))
    # combine finishes one output entry before the next, where the reference
    # adds one term to every entry at a time; each entry still sums its terms
    # in the same order, and no sum refuses
    assert outcome(lambda: combine(mats, coords)) == outcome(
        lambda: reference_combine(mats, coords)
    )


def reference_eliminate(rows, zero, width=None, val=operator.attrgetter("v")):
    """`eliminate` building each better pivot as a (v, i, j) tuple, and
    inverting every step's pivot whether or not a row is cleared."""
    free_rows = list(range(len(rows)))
    free_cols = list(range(len(rows[0]) if width is None else width)) if rows else []
    pivots = []
    while True:
        best = None
        for i in free_rows:
            for j in free_cols:
                v = val(rows[i][j])
                if v is not None and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            return pivots
        _, pi, pj = best
        free_rows.remove(pi)
        free_cols.remove(pj)
        pivots.append((pi, pj))
        prow = rows[pi]
        pivot = prow[pj]
        neg_inv = -(pivot.inverse() if isinstance(pivot, PadicScalar) else 1 / pivot)
        cols = [j for j, b in enumerate(prow) if j != pj and b]
        for i, row in enumerate(rows):
            f = row[pj]
            if i == pi or not f:
                continue
            mult = f * neg_inv
            for j in cols:
                row[j] = row[j] + mult * prow[j]
            row[pj] = zero


def reference_zp_module_basis(vectors):
    """`zp_module_basis` scaling every entry of a pivot row, exact zeros too."""
    ctx = vectors[0][0].ctx
    work = [list(v) for v in vectors]
    basis = []
    for r, c in sorted(reference_eliminate(work, ctx.zero()), key=operator.itemgetter(1)):
        inv = work[r][c].inverse()
        basis.append([x * inv for x in work[r]])
        basis[-1][c] = ctx.one()
    return basis


def reference_invert(rows, zero, one, val=operator.attrgetter("v")):
    """`_invert` scaling every entry of the inverse, exact zeros too."""
    n = len(rows)
    aug = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    at = reference_eliminate(aug, zero, n, val)
    pivots = [aug[r][c] for r, c in at]
    if len(at) < n:
        return None, pivots
    out = [None] * n
    for r, c in at:
        inv = one / aug[r][c]
        out[c] = [x * inv for x in aug[r][n:]]
    return out, pivots


def fields(rows):
    """(v, unit, digits) of every scalar of a list of rows, None kept."""
    if rows is None:
        return None
    return [[(e.v, e.unit, e.digits) for e in r] for r in rows]


@st.composite
def mixed_rows(draw):
    """(p, rows, square) over Q_p at 6 digits: 1-4 rows of 1-4 entries and a
    1-4 square, each entry an exact zero, a zero O(p^c) or p^v u with v in
    [-2, 3], so that pivots sit off valuation 0 and O(p^c) times their
    inverse moves its floor."""
    p = draw(st.sampled_from([2, 3, 5]))
    ctx = PadicContext(p, 6)
    entry = st.one_of(
        st.just(ctx.zero()),
        st.integers(-2, 8).map(ctx.zero),
        st.builds(lambda v, u, d: PadicScalar(ctx, v, u * p + 1 + u % (p - 1), d),
                  st.integers(-2, 3), st.integers(0, p**6), st.integers(1, 6)),
    )

    def matrix(height, width):
        return st.lists(st.lists(entry, min_size=width, max_size=width), min_size=height, max_size=height)

    n = draw(st.integers(1, 4))
    return p, draw(matrix(draw(st.integers(1, 4)), draw(st.integers(1, 4)))), draw(matrix(n, n))


@settings(max_examples=300)
@given(mixed_rows())
def test_exact_zero_skips_match_the_references_that_multiply_every_entry(case):
    # zp_module_basis and _invert pass an exact zero over unmultiplied, and
    # eliminate inverts no pivot that clears no row; x * inv of the exact
    # zero returns it, so every field agrees with the references, and an
    # O(p^c) is still multiplied
    p, rows, square = case
    ctx = rows[0][0].ctx
    work, ref = [list(r) for r in rows], [list(r) for r in rows]
    assert eliminate(work, ctx.zero()) == reference_eliminate(ref, ctx.zero())
    assert fields(work) == fields(ref)
    assert fields(zp_module_basis(rows)) == fields(reference_zp_module_basis(rows))
    inverse, pivots = _invert(square, ctx.zero(), ctx.one())
    ref_inverse, ref_pivots = reference_invert(square, ctx.zero(), ctx.one())
    assert (fields(inverse), fields([pivots])) == (fields(ref_inverse), fields([ref_pivots]))
    # the same entries as Fractions, O(p^c) read as 0
    fracs = [[Fraction(0) if e.is_zero else e.as_rational() for e in r] for r in square]
    zero, one, val = Fraction(0), Fraction(1), fraction_val(p)
    assert _invert(fracs, zero, one, val) == reference_invert(fracs, zero, one, val)


def test_taylor_shift_at_0_is_f_mod_m():
    for f, m in (([5, -3, 0, 7], 8), ([1], 3), ([-10, 4, 27], 9), ([0, 0, 1], 25)):
        assert _taylor_shift(f, 0, m) == [c % m for c in f]
