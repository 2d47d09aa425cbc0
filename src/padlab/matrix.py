"""Square matrices over Q_p with max-norm geometry.

The matrix norm is ||X|| = max_ij |X_ij|_p, which is submultiplicative and
ultrametric.  Every elimination runs through one Gauss-Jordan kernel,
`eliminate`, which always pivots on an entry of globally minimal valuation:
dividing by a minimal-valuation entry keeps every elimination multiplier
integral, so digit loss never amplifies.  The kernel takes a valuation
function, so exact Fraction matrices use it too.

Two cancellation policies say what a sum that cancels every certified digit
becomes.  Each is an adder with the signature of `+`, applied in exactly three
places: the row update of `eliminate`, the dot product `_dot` (behind
`matmul`, `combine` and `Basis` coordinates; `char_poly` sums with strict `+`)
and the entrywise `PadicMatrix.add`.  Public scalar and matrix `+`, `-` and
`@` use neither and keep raising PrecisionExhausted.

  * `add_absorb`: a full cancellation whose floor is >= N (the true sum is
    O(p^-N), invisible in every mod-p^N output) becomes the exact zero; a
    coarser one raises.  It is sound everywhere, and is used by `det`,
    `inverse`, `Basis` coordinates, `combine` and liegroup's factor
    products.
  * `add_rank`: any full cancellation becomes the exact zero.  Where a rank
    is decided at working precision, "indistinguishable from zero" and
    "zero" force the same decision, so it is allowed only there: inside the
    kernel when it builds a kernel (`nullspace`), a Z_p-module basis
    (`zp_module_basis`) or a `Basis`, in the test that a matrix lies in the
    span of a `Basis` (whether appending it raises the rank), and in the
    Ad(a) - lambda I shift of `dynamics.decompose`.

Characteristic polynomials use the Berkowitz algorithm: it is division-free,
so coefficients of exact-rational inputs keep full certified digits.  Root
finding over Q_p splits roots by valuation along the Newton polygon, then
descends over residue classes c + p^k Z_p, visiting at most degree x
precision classes; `hensel_roots` states its two certified-digit rules.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import (
    NotSplitAtPrecision,
    PrecisionExhausted,
    SingularAtPrecision,
)
from .scalar import PadicContext, PadicScalar


def add_absorb(a: PadicScalar, b: PadicScalar) -> PadicScalar:
    """a + b, absorbing a full cancellation at floor >= N into the exact zero.

    On full cancellation the exception's floor says the true sum is
    O(p^-floor); at or below working resolution it is indistinguishable from
    zero in every mod-p^N output, so the exact zero is sound.  Coarser
    cancellations still raise.
    """
    # exact zeros skip the context check of `+`: every `_dot` sum starts from
    # one, and the identity block of an `eliminate` row holds many
    if a.v is None:
        return b
    if b.v is None:
        return a
    try:
        return a + b
    except PrecisionExhausted as err:
        if err.floor >= a.ctx.precision:
            return a.ctx.zero()
        raise


def add_rank(a: PadicScalar, b: PadicScalar) -> PadicScalar:
    """a + b, mapping any full cancellation to the exact zero.

    Only for rank decisions at working precision; see the module docstring.
    """
    try:
        return a + b
    except PrecisionExhausted:
        return a.ctx.zero()


def _dot(xs, ys, zero, policy=operator.add):
    """Sum of the nonzero products xs[i] * ys[i], added in index order by `policy`.

    The sum starts from `zero` and runs over the shorter of the two sequences.
    A product is zero exactly when a factor is, so zero factors are skipped
    unmultiplied: sparse rows and coordinate vectors cost only their support.
    """
    acc = zero
    for x, y in zip(xs, ys):
        if x.v is not None and y.v is not None:
            acc = policy(acc, x * y)
    return acc


_scalar_val = operator.attrgetter("v")  # None for the exact zero


def fraction_val(p: int):
    """Valuation function for Fraction entries (None for zero), for `eliminate`."""
    return lambda x: _vp(x.numerator, p) - _vp(x.denominator, p) if x else None


def eliminate(rows, zero, policy, width=None, val=_scalar_val) -> list[tuple[int, int]]:
    """Gauss-Jordan elimination in place, pivoting on a globally minimal valuation.

    Each step takes, among the rows and the first `width` columns (default:
    all) not yet pivoted, the first entry of minimal valuation in row-major
    order, and clears its column in every other row: row -= (f / pivot) *
    pivot_row, each entry summed by `policy`; the pivot column is set to
    `zero` outright.  Pivot rows are not normalized, and a pivot entry keeps
    its value through later steps.  So the rows become T @ rows with det T = 1,
    and the pivots multiply to the determinant of the pivoted minor, up to
    the sign of the pivot permutation.

    Args:
        rows: list of mutable entry lists of one ring (PadicScalar or Fraction).
        zero: that ring's zero.
        policy: adder for the row updates: add_absorb, add_rank, or
            operator.add for exact entries.
        width: pivots are sought in columns < width only.
        val: entry valuation, None for zero (default: PadicScalar.v).

    Returns:
        The (row, column) pivots in the order chosen; fewer than the row
        count when the rows are dependent at working precision.
    """
    free_rows = list(range(len(rows)))
    free_cols = list(range(len(rows[0]) if width is None else width)) if rows else []
    pivots: list[tuple[int, int]] = []
    while True:
        best = None
        for i in free_rows:
            row = rows[i]
            for j in free_cols:
                v = val(row[j])
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
        cols = [j for j, b in enumerate(prow) if j != pj and val(b) is not None]
        for i, row in enumerate(rows):
            f = row[pj]
            if i == pi or val(f) is None:
                continue
            mult = f / pivot
            for j in cols:
                row[j] = policy(row[j], -(mult * prow[j]))
            row[pj] = zero


def _invert(rows, zero, one, policy, val=_scalar_val):
    """Inverse of a square matrix by `eliminate` on [A | I]; None if singular."""
    n = len(rows)
    aug = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    pivots = eliminate(aug, zero, policy, n, val)
    if len(pivots) < n:
        return None
    out = [None] * n
    for r, c in pivots:
        inv = one / aug[r][c]
        out[c] = [x * inv for x in aug[r][n:]]
    return out


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
        return cls(ctx, [[one if i == j else zero for j in range(dim)] for i in range(dim)])

    @classmethod
    def zeros(cls, ctx: PadicContext, dim: int) -> "PadicMatrix":
        zero = ctx.zero()
        return cls(ctx, [[zero] * dim for _ in range(dim)])

    def copy(self) -> "PadicMatrix":
        return PadicMatrix(self.ctx, [list(r) for r in self.rows])

    # ---- ring operations --------------------------------------------------

    def _check_size(self, other: "PadicMatrix") -> None:
        if other.dim != self.dim:
            raise ValueError(f"a {self.dim}x{self.dim} and a {other.dim}x{other.dim} matrix")

    def add(self, other: "PadicMatrix", policy) -> "PadicMatrix":
        """Entrywise sum, each entry summed by `policy` (see the module docstring)."""
        self._check_size(other)
        return PadicMatrix(
            self.ctx,
            [[policy(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __add__(self, other: "PadicMatrix") -> "PadicMatrix":
        return self.add(other, operator.add)

    def __sub__(self, other: "PadicMatrix") -> "PadicMatrix":
        return self.add(-other, operator.add)

    def __neg__(self) -> "PadicMatrix":
        return PadicMatrix(self.ctx, [[-a for a in r] for r in self.rows])

    def matmul(self, other: "PadicMatrix", policy) -> "PadicMatrix":
        """Matrix product, each dot product accumulated by `policy`."""
        self._check_size(other)
        zero = self.ctx.zero()
        cols = list(zip(*other.rows))
        return PadicMatrix(
            self.ctx, [[_dot(ri, cj, zero, policy) for cj in cols] for ri in self.rows]
        )

    def __matmul__(self, other: "PadicMatrix") -> "PadicMatrix":
        return self.matmul(other, operator.add)

    def scale(self, c: PadicScalar) -> "PadicMatrix":
        return PadicMatrix(self.ctx, [[c * a for a in r] for r in self.rows])

    def transpose(self) -> "PadicMatrix":
        n = self.dim
        return PadicMatrix(self.ctx, [[self.rows[j][i] for j in range(n)] for i in range(n)])

    def trace(self) -> PadicScalar:
        return sum((self.rows[i][i] for i in range(self.dim)), self.ctx.zero())

    def flat(self) -> list[PadicScalar]:
        """Row-major entry list (the coordinate vector in the E_ij basis)."""
        return [a for r in self.rows for a in r]

    @classmethod
    def from_flat(cls, ctx: PadicContext, dim: int, entries) -> "PadicMatrix":
        entries = list(entries)
        return cls(ctx, [entries[i * dim : (i + 1) * dim] for i in range(dim)])

    # ---- norm and congruence ----------------------------------------------

    def min_valuation(self):
        """min_ij v_p(X_ij); +inf for the zero matrix."""
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

        Exactly singular input gives the exact zero; cancellation past
        certified digits absorbs at floor >= N and raises below it.
        """
        n = self.dim
        work = [list(r) for r in self.rows]
        pivots = eliminate(work, self.ctx.zero(), add_absorb)
        if len(pivots) < n:
            return self.ctx.zero()
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
        rows = _invert(self.rows, ctx.zero(), ctx.one(), add_absorb)
        if rows is None:
            raise SingularAtPrecision("no pivot left: singular at working precision")
        return PadicMatrix(ctx, rows)

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
        if not c.is_zero:
            acc = acc + c
    return acc


def _int_poly_eval(coeffs: list[int], x: int, mod: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


def _int_poly_derive(coeffs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _vp(n: int, p: int) -> int:
    v = 0
    while n != 0 and n % p == 0:
        n //= p
        v += 1
    return v


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


def _newton_slopes(points: list[tuple[int, int]]) -> list[tuple[int, int, Fraction]]:
    """Lower convex hull edges of (i, v_p(c_i)) points: (i_start, i_end, slope)."""
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
    return [
        (
            hull[i][0],
            hull[i + 1][0],
            Fraction(hull[i + 1][1] - hull[i][1], hull[i + 1][0] - hull[i][0]),
        )
        for i in range(len(hull) - 1)
    ]


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
    g = [a * p ** (k * i) % mod for i, a in enumerate(_taylor_shift(f, c, mod))]
    s = min((_vp(a, p) for a in g if a), default=m)
    if s >= m:
        return [(c, k, mu)]
    g = [a // p**s for a in g]
    gbar = [a % p for a in g]
    out = []
    for y0 in range(1 if k == 0 else 0, p):
        mult = next(i for i, a in enumerate(_taylor_shift(gbar, y0, p)) if a)
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

    Args:
        coeffs: ascending coefficients, not all zero.

    Returns:
        List of (root, multiplicity) sorted by valuation then unit, with the
        multiplicities summing to the full degree: a polynomial that does not
        split over Q_p at working precision raises NotSplitAtPrecision, whether
        the obstruction is a fractional Newton slope (ramified factor) or a
        residue class without enough roots (a factor irreducible over Q_p).
    """
    nonzero = [c for c in coeffs if not c.is_zero]
    if not nonzero:
        raise ValueError("zero polynomial")
    ctx = nonzero[0].ctx
    p = ctx.p
    lead_zeros = 0
    while coeffs[lead_zeros].is_zero:
        lead_zeros += 1
    work = list(coeffs[lead_zeros:])
    while work and work[-1].is_zero:
        work.pop()
    deg = len(work) - 1
    out: list[tuple[PadicScalar, int]] = []
    if lead_zeros:
        out.append((ctx.zero(), lead_zeros))
    if deg < 1:
        _sort_roots(out)
        return out
    vals = [None if c.is_zero else c.v for c in work]
    units = [0 if c.is_zero else c.unit for c in work]
    certs = [0 if c.is_zero else c.digits for c in work]
    points = [(i, v) for i, v in enumerate(vals) if v is not None]
    for _i0, _i1, slope in _newton_slopes(points):
        if slope.denominator != 1:
            raise NotSplitAtPrecision(
                f"Newton slope {slope} is fractional: roots lie in a ramified extension"
            )
        w = -int(slope)
        exps = [vals[i] + w * i for i in range(deg + 1) if vals[i] is not None]
        content = min(exps)
        # joint certified modulus of the scaled integer coefficients
        m_exp = min(
            certs[i] + vals[i] + w * i - content
            for i in range(deg + 1)
            if vals[i] is not None
        )
        if m_exp < 1:
            raise NotSplitAtPrecision("coefficients carry no joint certified digits")
        big = p**m_exp
        ints = []
        for i in range(deg + 1):
            if vals[i] is None:
                ints.append(0)
            else:
                ints.append(units[i] * p ** (vals[i] + w * i - content) % big)
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


# ---- coordinates in a basis of matrices --------------------------------------


def combine(mats, coords, policy=add_absorb) -> PadicMatrix:
    """sum_i coords[i] * mats[i], each entry summed by `policy`."""
    ctx = mats[0].ctx
    zero = ctx.zero()
    entries = zip(*(b.flat() for b in mats))
    return PadicMatrix.from_flat(ctx, mats[0].dim, [_dot(coords, e, zero, policy) for e in entries])


class Basis:
    """Coordinates of matrices in a basis of linearly independent matrices.

    Construction runs the kernel on the rows [b_j | e_j] with pivots sought
    among the entry columns, under the rank policy.  Its pivots pick len(mats)
    entry positions where the basis is invertible; the carried identity block
    then holds the inverse on those positions, row r divided by its pivot.
    `index` is the sum of the pivot valuations, the valuation of the chosen
    minor's determinant.  The empty basis (of sl_1) is allowed.
    """

    __slots__ = ("mats", "index", "_chosen", "_inverse", "_level")

    def __init__(self, ctx: PadicContext, mats) -> None:
        self.mats = tuple(mats)
        n = len(self.mats)
        flat = [b.flat() for b in self.mats]
        width = len(flat[0]) if flat else 0
        zero, one = ctx.zero(), ctx.one()
        rows = [v + [one if i == j else zero for j in range(n)] for i, v in enumerate(flat)]
        pivots = eliminate(rows, zero, add_rank, width)
        if len(pivots) < n:
            raise ValueError("basis matrices are linearly dependent")
        self._chosen = [c for _, c in pivots]
        self._inverse = [[x / rows[r][c] for x in rows[r][width:]] for r, c in pivots]
        self.index = sum(rows[r][c].v for r, c in pivots)
        # a combination is only as sharp as the least certified basis entry
        self._level = min([ctx.precision] + [e.digits for v in flat for e in v if not e.is_zero])

    def coordinates(self, x: PadicMatrix, verify: bool):
        """Coordinates of x; None if verify finds x outside the span.

        x must have the size of the basis matrices (ValueError otherwise).

        The check asks whether x raises the rank of the basis, so it sums
        under the rank policy: x and its reconstruction can agree in every
        certified digit without being mirror images at full precision.
        """
        if self.mats:
            self.mats[0]._check_size(x)
        flat = x.flat()
        picked = [flat[r] for r in self._chosen]
        zero = x.ctx.zero()
        out = [_dot(picked, col, zero, add_absorb) for col in zip(*self._inverse)]
        if verify:
            diff = combine(self.mats, out, add_rank).add(-x, add_rank) if self.mats else -x
            if diff.min_valuation() < self._level:
                return None
        return out


# ---- kernels and Z_p module bases -------------------------------------------


def nullspace(m: PadicMatrix) -> list[list[PadicScalar]]:
    """Basis of ker(m) at working precision, content-normalized.

    Entries whose certified digits fully cancel during elimination are treated
    as zero: the kernel at precision is exactly the set of directions the
    certified digits cannot distinguish from null directions.
    """
    ctx = m.ctx
    work = [list(r) for r in m.rows]
    pivots = eliminate(work, ctx.zero(), add_rank)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for j in range(m.dim):
        if j in pivot_cols:
            continue
        vec = [ctx.zero()] * m.dim
        vec[j] = ctx.one()
        for pr, pc in pivots:
            a = work[pr][j]
            if not a.is_zero:
                vec[pc] = -(a / work[pr][pc])
        basis.append(_content_normalize(vec))
    return basis


def _content_normalize(vec: list[PadicScalar]) -> list[PadicScalar]:
    """Scale a vector by a power of p so its minimal entry valuation is 0."""
    vals = [a.v for a in vec if not a.is_zero]
    if not vals:
        return vec
    shift = min(vals)
    if shift == 0:
        return vec
    ctx = vec[0].ctx
    c = PadicScalar._raw(ctx, -shift, 1, ctx.precision)
    return [c * a for a in vec]


def zp_module_basis(vectors: list[list[PadicScalar]]) -> list[list[PadicScalar]]:
    """Z_p-basis of (Q_p-span of the inputs) cap (integral lattice).

    The kernel's pivot rows, each scaled to content 0.  Minimal pivoting
    guarantees each pivot ends at the minimal valuation of its final row, so
    after scaling the pivots are units: the coordinates of any integral vector
    of the span (its pivot-column entries over the unit pivots) are integral,
    which is the Z_p-basis property.
    """
    if not vectors:
        return []
    width = len(vectors[0])
    if any(len(v) != width for v in vectors):
        raise ValueError("ragged vector list")
    work = [list(v) for v in vectors]
    pivots = eliminate(work, vectors[0][0].ctx.zero(), add_rank)
    return [_content_normalize(work[r]) for r, _ in pivots]
