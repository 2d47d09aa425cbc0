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

from padlab import PadicContext, PadicMatrix, PadicScalar
from padlab.errors import NotSplitAtPrecision, PrecisionExhausted, SingularAtPrecision
from padlab.matrix import (
    Basis,
    add_absorb,
    add_rank,
    combine,
    hensel_roots,
    nullspace,
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
                    # only absorbed when the true entry sits below resolution
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


def test_char_poly_sums_with_strict_plus():
    # Berkowitz's first dot R C = u - u, u = 3 * 5 to 11 digits, cancels at
    # floor 12 = N: add_absorb would return the exact zero, strict + refuses
    ctx = PadicContext(3)
    u, zero, one = PadicScalar(ctx, 1, 5, 11), ctx.zero(), ctx.one()
    m = PadicMatrix(ctx, [[zero, zero, one], [zero, zero, one], [u, -u, zero]])
    with pytest.raises(PrecisionExhausted, match="cancelled all 11"):
        m.char_poly()


def test_trace_transpose_flat():
    ctx = PadicContext(5)
    m = PadicMatrix.from_rationals(ctx, [[1, 2], [3, 4]])
    assert m.trace() == ctx.from_rational(5)
    assert m.transpose().rows[0][1] == ctx.from_rational(3)
    again = PadicMatrix.from_flat(ctx, 2, m.flat())
    assert again == m
    assert m.max_norm() == Fraction(1)
    assert m.min_valuation() == 0
    shifted = m.scale(ctx.from_rational(1, 25))
    assert shifted.min_valuation() == -2
    assert shifted.max_norm() == Fraction(25)


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
        with pytest.raises(ValueError):
            x.add(y, add_absorb)
        with pytest.raises(ValueError):
            x.matmul(y, add_absorb)


def test_basis_coordinates_and_index():
    ctx = PadicContext(3)
    e12 = PadicMatrix.from_rationals(ctx, [[0, 1], [0, 0]])
    e21 = PadicMatrix.from_rationals(ctx, [[0, 0], [1, 0]])
    basis = Basis(ctx, (e12, e21.scale(ctx.from_rational(9))))
    assert basis.index == 2  # the span holds 9 Z_3 E21, not Z_3 E21
    x = PadicMatrix.from_rationals(ctx, [[0, 5], [18, 0]])
    assert basis.coordinates(x, True) == [ctx.from_rational(5), ctx.from_rational(2)]
    assert basis.coordinates(e21, True) == [ctx.zero(), ctx.from_rational(Fraction(1, 9))]
    assert basis.coordinates(PadicMatrix.identity(ctx, 2), True) is None
    with pytest.raises(ValueError):
        Basis(ctx, (e12, e12.scale(ctx.from_rational(3))))
    # the empty basis spans only the zero matrix
    empty = Basis(ctx, ())
    assert empty.index == 0
    assert empty.coordinates(PadicMatrix.zeros(ctx, 1), True) == []
    assert empty.coordinates(PadicMatrix.identity(ctx, 1), True) is None


def test_zp_module_basis_drops_dependent_rows():
    ctx = PadicContext(3)
    one = ctx.one()
    vin = [[one, one], [ctx.from_rational(2), ctx.from_rational(2)]]
    basis = zp_module_basis(vin)
    assert len(basis) == 1


# ---- the hand-written dot products, the reference routes -----------------------


def reference_matmul(a: PadicMatrix, b: PadicMatrix, policy) -> PadicMatrix:
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
                if not t.is_zero:
                    acc = policy(acc, t)
            row.append(acc)
        out.append(row)
    return PadicMatrix(a.ctx, out)


def reference_char_poly(m: PadicMatrix) -> list[PadicScalar]:
    """Berkowitz with its three hand-written loops, strict +."""
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
                if not s.is_zero:
                    acc = acc + s
            t.append(-acc)
            if len(t) == r + 1:
                break
            w2 = []
            for i in range(r - 1):
                acc = ctx.zero()
                for j in range(r - 1):
                    s = a[i][j] * w[j]
                    if not s.is_zero:
                        acc = acc + s
                w2.append(acc)
            w = w2
        new = []
        for i in range(r + 1):
            acc = ctx.zero()
            lo = max(0, i - (len(t) - 1))
            for j in range(lo, min(i, r - 1) + 1):
                s = t[i - j] * poly[j]
                if not s.is_zero:
                    acc = acc + s
            new.append(acc)
        poly = new
    poly.reverse()
    return poly


def reference_combine(mats, coords, policy) -> PadicMatrix:
    """sum_i coords[i] * mats[i] through a scaled matrix per coordinate."""
    acc = PadicMatrix.zeros(mats[0].ctx, mats[0].dim)
    for c, b in zip(coords, mats):
        if not c.is_zero:
            acc = acc.add(b.scale(c), policy)
    return acc


def reference_coordinates(basis: Basis, x: PadicMatrix, verify: bool):
    """Basis.coordinates rebuilding its output list for every chosen row."""
    flat = x.flat()
    out = [x.ctx.zero()] * len(basis._chosen)
    for r, inv_row in zip(basis._chosen, basis._inverse):
        s = flat[r]
        if not s.is_zero:
            out = [add_absorb(acc, s * c) for acc, c in zip(out, inv_row)]
    if verify:
        diff = reference_combine(basis.mats, out, add_rank).add(-x, add_rank) if basis.mats else -x
        if diff.min_valuation() < basis._level:
            return None
    return out


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
    """(policy, a, b, mats, coords, x) over one Q_p: d x d matrices whose
    entries are exact zeros or p^v u with 3-12 certified digits."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(2, 4))
    ctx = PadicContext(p)

    def entry(code: int) -> PadicScalar:
        # one draw per entry: a quarter are exact zeros, half carry one of the
        # units +-1, +-(1 + p), so sums often cancel, and a quarter any unit
        code, kind = divmod(code, 4)
        code, v = divmod(code, 3)
        code, digits = divmod(code, 10)
        if kind == 0:
            return ctx.zero()
        a, r = divmod(code, p - 1)
        unit = p * a + r + 1 if kind == 3 else (-1) ** code * (1 + p * (code // 2 % 2))
        return PadicScalar(ctx, v - 1, unit, digits + 3)

    entries = st.integers(0, 120 * p**12).map(entry)
    matrix = st.lists(entries, min_size=d * d, max_size=d * d).map(
        lambda flat: PadicMatrix.from_flat(ctx, d, flat)
    )
    policy = draw(st.sampled_from([add_absorb, add_rank, operator.add]))
    mats = draw(st.lists(matrix, min_size=1, max_size=4))
    coords = draw(st.lists(entries, min_size=len(mats), max_size=len(mats)))
    return policy, draw(matrix), draw(matrix), mats, coords, draw(matrix)


@settings(max_examples=200)
@given(low_digit_cases())
def test_dot_product_matches_the_reference_loops(case):
    policy, a, b, mats, coords, x = case
    assert outcome(lambda: a.matmul(b, policy)) == outcome(lambda: reference_matmul(a, b, policy))
    assert outcome(a.char_poly) == outcome(lambda: reference_char_poly(a))
    # combine and coordinates now finish one output entry before the next,
    # where the reference added one term to every entry at a time: when two
    # entries refuse, each route names the first it reached, so only the
    # class of a refusal is compared
    assert outcome(lambda: combine(mats, coords, policy))[:2] == outcome(
        lambda: reference_combine(mats, coords, policy)
    )[:2]
    try:
        basis = Basis(a.ctx, mats)
    except ValueError:
        return  # linearly dependent draws have no coordinates
    for verify in (False, True):
        assert outcome(lambda: basis.coordinates(x, verify))[:2] == outcome(
            lambda: reference_coordinates(basis, x, verify)
        )[:2]
