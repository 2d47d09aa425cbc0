"""Square matrices over Q_p with max-norm geometry.

The matrix norm is ||X|| = max_ij |X_ij|_p, which is submultiplicative and
ultrametric.  Every elimination runs through one Gauss-Jordan kernel,
`eliminate`, which always pivots on an entry of globally minimal valuation:
dividing by a minimal-valuation entry keeps every elimination multiplier
integral, so digit loss never amplifies.  The kernel takes a valuation
function, so exact Fraction matrices use it too.  The same pivoting makes
`nullspace` return a Z_p-basis of the integral kernel as it comes off the
elimination, with no rescaling.

A sum that cancels every certified digit is the zero O(p^c) (see
padlab.scalar), and each reader of a zero says what it means.  A pivot
search skips O(p^c) as it skips the exact zero: where a rank is decided at
working precision, "indistinguishable from zero" and "zero" force the same
decision.  Everything that multiplies or sums skips only the exact zero, so
O(p^c) carries its floor on: the row updates of `eliminate`, `_dot` (behind
`@`, `char_poly` and `combine`), `nullspace`, the row scalings of
`zp_module_basis` and `_invert`, and the eigenline products of
`dynamics._eigendata_lines`.  A product with the exact zero is that zero, so
a skip changes no field.

Characteristic polynomials use the Berkowitz algorithm: it is division-free,
so coefficients of exact-rational inputs keep full certified digits.  Root
finding over Q_p splits roots by valuation along the Newton polygon, then
descends over residue classes c + p^k Z_p, visiting at most degree x
precision classes; `hensel_roots` states its two certified-digit rules.  A
class's residue roots come from a scan of F_p below p = 200 and from
splitting the reduced polynomial over F_p from there on (`_residue_roots`),
so root finding takes time polynomial in log p.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import NotSplitAtPrecision, SingularAtPrecision
from .scalar import PadicContext, PadicScalar, _vp


def _dot(xs, ys, zero):
    """Sum of the products xs[i] * ys[i], added in index order.

    The sum starts from `zero` and runs over the shorter of the two sequences.
    A pair with an exact-zero factor is skipped unmultiplied, so sparse rows
    and coordinate vectors cost only their support; O(p^c) factors are not.
    """
    acc = zero
    for x, y in zip(xs, ys):
        if x.digits is not None and y.digits is not None:
            acc = acc + x * y
    return acc


_scalar_val = operator.attrgetter("v")  # None for every zero


def fraction_val(p: int):
    """Valuation function for Fraction entries (None for zero), for `eliminate`."""
    return lambda x: _vp(x.numerator, p) - _vp(x.denominator, p) if x else None


def eliminate(rows, zero, width=None, val=_scalar_val) -> list[tuple[int, int]]:
    """Gauss-Jordan elimination in place, pivoting on a globally minimal valuation.

    Each step takes, among the rows and the first `width` columns (default:
    all) not yet pivoted, the first entry of minimal valuation in row-major
    order, and clears its column in every other row: row -= (f / pivot) *
    pivot_row, skipping exact zeros; the pivot column is set to `zero`
    outright.  A step inverts its pivot once and takes each -(f / pivot) as
    f times that negated inverse; a step with no other row to clear inverts
    nothing.  Pivot rows are not normalized, and a pivot entry keeps its
    value through later steps.  So the rows become T @ rows with det T = 1,
    and the pivots multiply to the determinant of the pivoted minor, up to
    the sign of the pivot permutation.  T need not be p-integral, as a step
    clears its column in earlier pivot rows too: the output keeps the pivot
    valuations (the elementary divisors) but not the rows' Z_(p)-module, so
    FULL re-eliminates its whole stack for every window.

    Args:
        rows: list of mutable entry lists of one ring (PadicScalar or Fraction).
        zero: that ring's exact zero.
        width: pivots are sought in columns < width only.
        val: entry valuation, None for a zero, which is never a pivot
            (default: PadicScalar.v, None for O(p^c) too).

    Returns:
        The (row, column) pivots in the order chosen; fewer than the row
        count when the rows are dependent at working precision.
    """
    free_rows = list(range(len(rows)))
    free_cols = list(range(len(rows[0]) if width is None else width)) if rows else []
    pivots: list[tuple[int, int]] = []
    while True:
        best = pi = pj = None
        for i in free_rows:
            row = rows[i]
            for j in free_cols:
                v = val(row[j])
                if v is not None and (best is None or v < best):
                    best, pi, pj = v, i, j
        if best is None:
            return pivots
        free_rows.remove(pi)
        free_cols.remove(pj)
        pivots.append((pi, pj))
        prow = rows[pi]
        targets = [row for i, row in enumerate(rows) if i != pi and row[pj]]
        if not targets:
            continue
        pivot = prow[pj]
        neg_inv = -(pivot.inverse() if isinstance(pivot, PadicScalar) else 1 / pivot)
        cols = [j for j, b in enumerate(prow) if j != pj and b]
        for row in targets:
            mult = row[pj] * neg_inv
            for j in cols:
                row[j] = row[j] + mult * prow[j]
            row[pj] = zero


_SINGULAR = "no pivot left: singular at working precision"


def _invert(rows, zero, one, val=_scalar_val):
    """(inverse, pivots) of a square matrix by `eliminate` on [A | I].

    The inverse is None if A is singular; the pivots are the kernel's pivot
    entries, in the order chosen.
    """
    n = len(rows)
    aug = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    at = eliminate(aug, zero, n, val)
    pivots = [aug[r][c] for r, c in at]
    if len(at) < n:
        return None, pivots
    out = [None] * n
    for r, c in at:
        inv = one / aug[r][c]
        out[c] = [x * inv if x else x for x in aug[r][n:]]
    return out, pivots


class PadicMatrix:
    """d x d matrix of PadicScalar entries sharing one context."""

    __slots__ = ("ctx", "dim", "rows")

    def __init__(self, ctx: PadicContext, rows):
        self.ctx = ctx
        self.rows = [list(r) for r in rows]
        self.dim = len(self.rows)
        for r in self.rows:
            if len(r) != self.dim:
                raise ValueError("matrix must be square")

    @classmethod
    def _own(cls, ctx: PadicContext, rows) -> "PadicMatrix":
        """The matrix on rows, square lists built for it and used by nothing
        else: it takes them without copying or checking."""
        self = object.__new__(cls)
        self.ctx, self.rows, self.dim = ctx, rows, len(rows)
        return self

    # ---- constructors ----------------------------------------------------

    @classmethod
    def from_rationals(cls, ctx: PadicContext, rows) -> "PadicMatrix":
        """Rows of ints/Fractions/strings ("a/b"), embedded exactly."""
        out = []
        for r in rows:
            out.append(
                [
                    ctx.from_string(x) if isinstance(x, str) else ctx.from_rational(x)
                    for x in r
                ]
            )
        return cls(ctx, out)

    @classmethod
    def identity(cls, ctx: PadicContext, dim: int) -> "PadicMatrix":
        one, zero = ctx.one(), ctx.zero()
        return cls._own(ctx, [[one if i == j else zero for j in range(dim)] for i in range(dim)])

    @classmethod
    def zeros(cls, ctx: PadicContext, dim: int) -> "PadicMatrix":
        zero = ctx.zero()
        return cls._own(ctx, [[zero] * dim for _ in range(dim)])

    def copy(self) -> "PadicMatrix":
        return PadicMatrix._own(self.ctx, [list(r) for r in self.rows])

    # ---- ring operations --------------------------------------------------

    def _check_size(self, other: "PadicMatrix") -> None:
        if other.dim != self.dim:
            raise ValueError(f"a {self.dim}x{self.dim} and a {other.dim}x{other.dim} matrix")

    def __add__(self, other: "PadicMatrix") -> "PadicMatrix":
        self._check_size(other)
        return PadicMatrix._own(
            self.ctx, [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "PadicMatrix") -> "PadicMatrix":
        return self + (-other)

    def __neg__(self) -> "PadicMatrix":
        return PadicMatrix._own(self.ctx, [[-a for a in r] for r in self.rows])

    def __matmul__(self, other: "PadicMatrix") -> "PadicMatrix":
        self._check_size(other)
        zero = self.ctx.zero()
        cols = list(zip(*other.rows))
        return PadicMatrix._own(self.ctx, [[_dot(ri, cj, zero) for cj in cols] for ri in self.rows])

    def scale(self, c: PadicScalar) -> "PadicMatrix":
        return PadicMatrix._own(self.ctx, [[c * a for a in r] for r in self.rows])

    def flat(self) -> list[PadicScalar]:
        """Row-major entry list (the coordinate vector in the E_ij basis)."""
        return [a for r in self.rows for a in r]

    @classmethod
    def from_flat(cls, ctx: PadicContext, dim: int, entries) -> "PadicMatrix":
        entries = list(entries)
        if len(entries) != dim * dim:
            raise ValueError(f"{len(entries)} entries for a {dim}x{dim} matrix")
        return cls._own(ctx, [entries[i * dim : (i + 1) * dim] for i in range(dim)])

    # ---- norm and congruence ----------------------------------------------

    def min_valuation(self):
        """min_ij v_p(X_ij) over the nonzero entries; +inf if there are none.

        A rank reading: O(p^c) entries are skipped like exact zeros.
        """
        best = None
        for r in self.rows:
            for a in r:
                if not a.is_zero and (best is None or a.v < best):
                    best = a.v
        return float("inf") if best is None else best

    def max_norm(self) -> Fraction:
        """||X|| = max |X_ij|_p as an exact Fraction."""
        v = self.min_valuation()
        if v == float("inf"):
            return Fraction(0)
        p = self.ctx.p
        return Fraction(1, p**v) if v >= 0 else Fraction(p ** -v)

    def congruent_mod(self, other: "PadicMatrix", k: int) -> bool:
        """Certified entrywise congruence mod p^k, i.e. ||X - Y|| <= p^(-k)."""
        self._check_size(other)
        return all(
            a.congruent_mod(b, k)
            for ra, rb in zip(self.rows, other.rows)
            for a, b in zip(ra, rb)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadicMatrix):
            return NotImplemented
        return self.dim == other.dim and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __repr__(self) -> str:
        body = "; ".join(", ".join(repr(a) for a in r) for r in self.rows)
        return f"PadicMatrix[{body}]"

    # ---- elimination -------------------------------------------------------

    def det(self) -> PadicScalar:
        """Determinant: the signed product of the kernel's pivots.

        Without a full set of pivots the rows left over hold only zeros, and
        the determinant is the zero O(p^c), c the pivot valuations plus the
        least cap of each row left over (the exact zero if one holds only
        exact zeros).
        """
        n = self.dim
        work = [list(r) for r in self.rows]
        pivots = eliminate(work, self.ctx.zero())
        if len(pivots) < n:
            done = {r for r, _ in pivots}
            floor = sum(work[r][c].v for r, c in pivots) + sum(
                min(x.valuation() for x in row) for i, row in enumerate(work) if i not in done
            )
            return self.ctx.zero(floor)
        acc = self.ctx.one()
        col_of = [0] * n
        for r, c in pivots:
            acc = acc * work[r][c]
            col_of[r] = c
        inversions = sum(col_of[i] > col_of[j] for i in range(n) for j in range(i + 1, n))
        return -acc if inversions % 2 else acc

    def inverse(self) -> "PadicMatrix":
        """Gauss-Jordan inverse; SingularAtPrecision when no pivot remains."""
        ctx = self.ctx
        rows, _ = _invert(self.rows, ctx.zero(), ctx.one())
        if rows is None:
            raise SingularAtPrecision(_SINGULAR)
        return PadicMatrix._own(ctx, rows)

    def char_poly(self) -> list[PadicScalar]:
        """det(xI - A) by Berkowitz, ascending: coeffs[k] multiplies x^k."""
        ctx = self.ctx
        zero = ctx.zero()
        a = self.rows
        poly = [ctx.one()]  # descending coefficients, leading first
        for r in range(1, self.dim + 1):
            row = a[r - 1][: r - 1]
            # first column of the (r+1) x r Toeplitz factor, M the leading
            # (r-1) x (r-1) block: [1, -diag, -(R C), -(R M C), ..., -(R M^(r-2) C)]
            t = [ctx.one(), -a[r - 1][r - 1]]
            w = [a[i][r - 1] for i in range(r - 1)]
            while len(t) < r + 1:
                t.append(-_dot(row, w, zero))
                if len(t) == r + 1:
                    break
                w = [_dot(a[i], w, zero) for i in range(r - 1)]
            # the Toeplitz product: new[i] = sum_j t[i - j] * poly[j]
            poly = [_dot(t[i::-1], poly, zero) for i in range(r + 1)]
        poly.reverse()
        return poly


# ---- polynomial helpers on ascending coefficient lists ----------------------


def poly_eval(coeffs: list[PadicScalar], x: PadicScalar) -> PadicScalar:
    acc = x.ctx.zero()
    for c in reversed(coeffs):
        acc = acc * x
        if c:
            acc = acc + c
    return acc


def _int_poly_eval(coeffs: list[int], x: int, mod: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


def _int_poly_derive(coeffs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _taylor_shift(coeffs: list[int], r0: int, mod: int) -> list[int]:
    """Coefficients of f(r0 + y), ascending in y, by repeated synthetic division."""
    work = [c % mod for c in coeffs]
    out = []
    while work:
        # divide by (x - r0) in place: work[0] becomes the remainder
        for i in range(len(work) - 2, -1, -1):
            work[i] = (work[i] + r0 * work[i + 1]) % mod
        out.append(work.pop(0))
    return out


def _residue_mult(coeffs: list[int], r0: int, p: int) -> int:
    """Multiplicity of r0 as a root of coeffs mod p, which are not all
    divisible by p: the index of the first nonzero Taylor coefficient at r0.
    Each Horner pass evaluates at r0 and leaves the quotient by x - r0,
    which the next pass divides again while the remainder is 0."""
    mult = 0
    while True:
        acc, quot = 0, []
        for c in reversed(coeffs):
            quot.append(acc)
            acc = (acc * r0 + c) % p
        if acc:
            return mult
        mult, coeffs = mult + 1, quot[:0:-1]


# ---- polynomials over F_p: ascending residues, no trailing zero; [] is 0 ----


def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero b over F_p."""
    a, inv = list(a), pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in reversed(range(len(q))):
        c = q[i] = a[i + len(b) - 1] * inv % p
        for j, bj in enumerate(b):
            a[i + j] = (a[i + j] - c * bj) % p
    return q, _fp_trim(a[: len(b) - 1])


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p of a nonzero a and any b."""
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _fp_powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """base^e modulo mod, of degree >= 1, over F_p by square-and-multiply."""
    def mulmod(x, y):
        prod = [0] * (len(x) + len(y))
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                prod[i + j] += xi * yj
        return _fp_divmod(_fp_trim([c % p for c in prod]), mod, p)[1]

    out, base = [1], _fp_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            out = mulmod(out, base)
        base, e = mulmod(base, base), e >> 1
    return out


def _residue_roots(gbar: list[int], p: int) -> list[int]:
    """The distinct roots in F_p of gbar, reduced mod an odd p and not 0,
    ascending.  h = gcd(gbar, x^p - x) is the product of x - r over them; h
    splits by Cantor-Zassenhaus, as gcd(h, (x + delta)^((p - 1)/2) - 1) keeps
    the r with r + delta a nonzero square, for delta = 1, 2, ... until that
    factor is proper."""
    def split(f: list[int], delta: int) -> list[int]:
        if len(f) <= 2:  # monic of degree 0 or 1
            return [-f[0] % p] if len(f) == 2 else []
        while True:
            w = _fp_powmod([delta, 1], (p - 1) // 2, f, p) or [0]
            d = _fp_gcd(f, _fp_trim([(w[0] - 1) % p] + w[1:]), p)
            if 1 < len(d) < len(f):
                return split(d, delta + 1) + split(_fp_divmod(f, d, p)[0], delta + 1)
            delta += 1

    g = _fp_trim(list(gbar))
    if len(g) < 2:
        return []
    xp = _fp_powmod([0, 1], p, g, p) + [0, 0]
    xp[1] -= 1
    return sorted(split(_fp_gcd(g, _fp_trim([c % p for c in xp]), p), 1))


def _newton_slopes(points: list[tuple[int, int]]) -> list[Fraction]:
    """Slopes of the lower convex hull edges of (i, v_p(c_i)) points, left to right."""
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it lies on or above the segment hull[-2] -> pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return [Fraction(y1 - y0, x1 - x0) for (x0, y0), (x1, y1) in zip(hull, hull[1:])]


def _simple_lift(coeffs: list[int], r0: int, p: int, m_exp: int) -> int:
    """Newton-lift a simple residue root r0 of an integer polynomial to mod p^m_exp."""
    deriv = _int_poly_derive(coeffs)
    x = r0
    known = 1
    while known < m_exp:
        known = min(2 * known, m_exp)
        mod = p**known
        fx = _int_poly_eval(coeffs, x, mod)
        dfx = _int_poly_eval(deriv, x, mod)
        x = (x - fx * pow(dfx, -1, mod)) % mod
    return x


# below this prime residues are scanned: p = 2 has no quadratic split, and
# `decompose` on sl2..gl3 flows with random unit eigenvalues ran about as
# fast either way from p = 151 to 257, the scan ahead below, the split above
_SPLIT_FROM = 200


def _class_roots(
    f: list[int], c: int, k: int, mu: int, p: int, m: int
) -> list[tuple[int, int, int]]:
    """(root, certified digits, multiplicity) of the roots of f in c + p^k Z_p.

    f is an integer polynomial known mod p^m, and the class holds mu of its
    roots.  g(y) = f(c + p^k y) / p^s, s the content: a simple residue root of
    g Hensel-lifts, a multiple one is a subclass to descend into, and a class
    on which f vanishes mod p^m is a cluster of mu roots (see `hensel_roots`).
    At k = 0 the residue 0 is skipped: those roots belong to another slope.
    """
    mod = p**m
    # the Taylor shift at 0 is the identity: the class Z_p itself (k = 0)
    g = [a * p ** (k * i) % mod for i, a in enumerate(f if c == 0 else _taylor_shift(f, c, mod))]
    s = min((_vp(a, p) for a in g if a), default=m)
    if s >= m:
        return [(c, k, mu)]
    g = [a // p**s for a in g]
    gbar = [a % p for a in g]
    if p < _SPLIT_FROM:
        residues = range(1 if k == 0 else 0, p)
    else:
        residues = [y0 for y0 in _residue_roots(gbar, p) if y0 or k]
    out = []
    for y0 in residues:
        mult = _residue_mult(gbar, y0, p)
        if mult == 1:
            out.append((c + p**k * _simple_lift(g, y0, p, m - s), k + m - s, 1))
        elif mult > 1:
            out.extend(_class_roots(f, c + p**k * y0, k + 1, mult, p, m))
    return out


def hensel_roots(coeffs: list[PadicScalar]) -> list[tuple[PadicScalar, int]]:
    """All Q_p roots of a polynomial, with multiplicities.

    Each Newton slope w scales to an integer polynomial f with unit roots,
    known mod p^m by the joint certified digits of the coefficients.  Its
    roots are found by descent over residue classes c + p^k Z_p (see
    `_class_roots`), which ends at a simple residue root or at the precision
    floor, with the two digit rules (capped at the context precision):

      * a simple root r keeps m - v(f'(r)) digits, as Hensel lifting gives;
      * a class on which f vanishes mod p^m is reported as one root of the
        class's multiplicity mu, certified to its depth k; for an exact
        mu-fold root with Taylor coefficient c_mu that is
        ceil((m - v(c_mu)) / mu) digits.

    Exact-zero low-order coefficients give an exact zero root of their
    count; an O(p^c) among them raises NotSplitAtPrecision, as it leaves
    open how many roots lie near 0.  Exact-zero high-order coefficients are
    trimmed; an O(p^c) among them raises too, as a nonzero one would add
    roots of valuation below every other.

    Args:
        coeffs: ascending coefficients, not all zero.

    Returns:
        List of (root, multiplicity) sorted by valuation then unit, with the
        multiplicities summing to the full degree: a polynomial that does not
        split over Q_p at working precision raises NotSplitAtPrecision, whether
        the obstruction is a fractional Newton slope (ramified factor) or a
        residue class without enough roots (a factor irreducible over Q_p).
    """
    nonzero = [i for i, c in enumerate(coeffs) if not c.is_zero]
    if not nonzero:
        raise ValueError("zero polynomial")
    lead_zeros, top = nonzero[0], nonzero[-1]
    ctx = coeffs[top].ctx
    p = ctx.p
    for i, c in enumerate(coeffs):
        if c.is_zero and c and not lead_zeros < i < top:
            raise NotSplitAtPrecision(f"coefficient {i} is O({p}^{c.abs_precision()}): the roots near "
                                      f"{0 if i < lead_zeros else 'infinity'} are not separated")
    work = list(coeffs[lead_zeros:top + 1])
    deg = len(work) - 1
    out: list[tuple[PadicScalar, int]] = []
    if lead_zeros:
        out.append((ctx.zero(), lead_zeros))
    if deg < 1:
        _sort_roots(out)
        return out
    vals = [c.v for c in work]  # None at a zero
    units = [c.unit for c in work]  # 0 at a zero
    precs = [c.abs_precision() for c in work]  # an O(p^c) coefficient has c
    points = [(i, v) for i, v in enumerate(vals) if v is not None]
    for slope in _newton_slopes(points):
        if slope.denominator != 1:
            raise NotSplitAtPrecision(
                f"Newton slope {slope} is fractional: roots lie in a ramified extension"
            )
        w = -int(slope)
        exps = [vals[i] + w * i for i in range(deg + 1) if vals[i] is not None]
        content = min(exps)
        # joint certified modulus of the scaled integer coefficients
        m_exp = min(prec + w * i for i, prec in enumerate(precs)) - content
        if m_exp < 1:
            raise NotSplitAtPrecision("coefficients carry no joint certified digits")
        big = p**m_exp
        ints = [0 if v is None else u * p ** (v + w * i - content) % big
                for i, (v, u) in enumerate(zip(vals, units))]
        for x, digits, mult in _class_roots(ints, 0, 0, deg, p, m_exp):
            d = min(ctx.precision, digits)
            out.append((PadicScalar._raw(ctx, w, x % ctx.modulus, d), mult))
    total = sum(m for _, m in out)
    if total != deg + lead_zeros:
        raise NotSplitAtPrecision(
            f"found {total} of {deg + lead_zeros} roots: an irreducible factor remains"
        )
    _sort_roots(out)
    return out


def _sort_roots(roots: list[tuple[PadicScalar, int]]) -> None:
    roots.sort(key=lambda rm: (rm[0].valuation(), 0 if rm[0].is_zero else rm[0].unit))


# ---- combinations of matrices ------------------------------------------------


def combine(mats, coords) -> PadicMatrix:
    """sum_i coords[i] * mats[i], entry by entry."""
    ctx = mats[0].ctx
    zero = ctx.zero()
    entries = zip(*(b.flat() for b in mats))
    return PadicMatrix.from_flat(ctx, mats[0].dim, [_dot(coords, e, zero) for e in entries])


# ---- kernels and Z_p module bases -------------------------------------------


def nullspace(m: PadicMatrix) -> list[list[PadicScalar]]:
    """Z_p-basis of ker(m) cap Z_p^n at working precision.

    One vector per free (non-pivot) column of `eliminate`, in column order:
    an exact 1 at its own free column, the exact zero at the other free
    columns, and -a / pivot at each pivot column, a the pivot row's entry in
    the free column.  Minimal pivoting keeps each pivot minimal in its final
    row, so every entry is integral; and a kernel vector is fixed by its free
    entries, so an integral one is the integral combination of these vectors
    with those entries as coefficients (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4).

    Entries whose certified digits fully cancel during elimination are never
    pivots: the kernel at precision is exactly the set of directions the
    certified digits cannot distinguish from null directions.  Such an
    O(p^c) entry still carries its floor into the vector.
    """
    ctx = m.ctx
    work = [list(r) for r in m.rows]
    pivots = eliminate(work, ctx.zero())
    pivot_cols = {c for _, c in pivots}
    basis = []
    for j in range(m.dim):
        if j in pivot_cols:
            continue
        vec = [ctx.zero()] * m.dim
        vec[j] = ctx.one()
        for pr, pc in pivots:
            a = work[pr][j]
            if a:
                vec[pc] = -(a / work[pr][pc])
        basis.append(vec)
    return basis


def zp_module_basis(vectors: list[list[PadicScalar]]) -> list[list[PadicScalar]]:
    """Z_p-basis of (Q_p-span of the inputs) cap (integral lattice).

    The pivot rows of `eliminate`, in pivot-column order, each divided by its
    pivot: an exact 1 at its own pivot column and the exact zero at the
    other pivot columns, the form `nullspace` gives.  Minimal pivoting keeps
    each pivot minimal in its final row, so every entry is integral; and an
    integral vector of the span is the combination of these rows with its
    own pivot-column entries as coefficients, which is the Z_p-basis
    property.
    """
    if not vectors:
        return []
    width = len(vectors[0])
    if any(len(v) != width for v in vectors):
        raise ValueError("ragged vector list")
    ctx = vectors[0][0].ctx
    work = [list(v) for v in vectors]
    basis = []
    for r, c in sorted(eliminate(work, ctx.zero()), key=operator.itemgetter(1)):
        inv = work[r][c].inverse()
        basis.append([x if x.digits is None else x * inv for x in work[r]])
        basis[-1][c] = ctx.one()
    return basis
