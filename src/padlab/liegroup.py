"""Exponential geometry of p-adic matrix groups near the identity.

exp and log are mutually inverse isometries between the algebra ball
{||X|| <= p^-2} and the group ball {||g - e|| <= p^-2}: ultrametrically, the
n >= 2 series tails are strictly smaller than the leading term, because
|n!|_p >= p^(-n/(p-1)) and the entries start at valuation 2.

Baker-Campbell-Hausdorff comes in two independently implemented modes:
DIRECT is log(exp x exp y); DYNKIN evaluates Dynkin's nested-commutator
expansion, organized as a dynamic program over blocks ad(x)^P ad(y)^q / (P!q!)
so the composition sum costs O(n_max^3) operator applications instead of an
exponential word enumeration.  Agreement of the two modes at certified
precision is a core test oracle downstream.

exp, log and DYNKIN share one model.  The inputs (valuation >= k >= 2) become
the integer matrices of their representatives p^v * unit, and each series
coefficient c the weight p^D c mod p^M, with D the largest v_p of a kept
denominator: the series is integer arithmetic mod p^M, nothing is absorbed,
and the division by p^D at the end is the only one (DYNKIN also divides by
each s <= n_max, below).  An output entry certified mod p^cert keeps
min(N, cert - v) digits at valuation v; one = 0 mod p^cert is the zero
O(p^cert), and a nonzero one has v < cert, so every printed unit is exact
on the representatives modulo p^(v + N) once M >= cert + N - 1 + D.  DYNKIN
takes that M; exp and log take M = cert + N + D for the largest cert, which
their early exit reads.  cert is the least of the floor of the truncated
tail and the first-order input error carried by the kept terms (Caruso, Roe
and Vaccon, arXiv:1402.0743); A is the least v + digits over the input
entries, and k the least valuation an input entry may have (c at O(p^c)).

  * exp and log keep the terms j < n of sum c_j X^j, c_j = 1/j! or
    (-1)^(j+1)/j, and certify each entry on its own.  With E the absolute
    precisions of X (inf at an exact zero), V its valuations (c at O(p^c)),
    den_j = j! or j and tail = min_(j >= n) (j k - v_p(den_j)),
        cert_ij = min(tail, E_ij, min_m min(E_im + V_mj, V_im + E_mj) - v_p(2),
                      A + min_(j >= 3) ((j - 1) k - v_p(den_j))):
    terms 1 and 2 carry each entry's own input error, later terms a uniform
    bound.  An entry outside the support closure of X's zero pattern is
    exactly zero in every power.  A power = 0 mod p^M ends the series early,
    and the floor of the representatives' remaining tail replaces tail.
  * DYNKIN certifies the whole output at once.  It carries the divided
    powers U_m(deg), the sum of the terms of degree deg in m blocks before
    their weight, and G_s = sum_(P+q=s) ad(x)^P ad(y)^q / (P! q!):

        U_1(1) = x + y,   U_1(2) = ad(x) y,
        U_1(deg) = ad(x) U_1(deg - 1) / (deg - 1),
        G_1 = ad(x) + ad(y),   s G_s = ad(x) G_(s-1) + G_(s-1) ad(y),
        U_(m+1)(deg) = sum_s G_s U_m(deg - s),
        z = sum (-1)^(m-1) U_m(deg) / (m deg)   (deg <= n_max),

    so no binomial enters and D is the largest v_p(m deg).  Every U_m(deg)
    but U_1(1) is a commutator, and so traceless: the program runs on the
    d^2 - 1 coordinates other than (d, d), that entry being minus the sum of
    the other diagonal entries.  ad(x), ad(y) and G_s drop their (d, d) row
    and subtract their (d, d) column from the other diagonal columns.  x + y
    is that traceless part plus t E_dd, t = tr(x + y), so G_s (x + y) adds
    t G_s E_dd, a column built by the same rule as G_s.  Nothing is divided
    by d, which p may divide.

    DYNKIN's modulus needs no widening.  The quotient by s = p^e u is
    p-integral, so the division is exact on the residues mod p^M, but it is
    known mod p^(M - e) only.  A run of divisions by j..s loses
    v_p(s!/(j-1)!) <= (s - j) + floor(log_p s) digits, and its s - j
    products with ad(x) or ad(y) gain k (s - j) >= 2 (s - j) back, so no
    G_s, G_s E_dd or U_1(deg) loses more than L = floor(log_p n_max).
    U_m(deg) is a sum of products of m - 1 operators G_s and one U_1, each
    of valuation >= k, so it loses at most max(0, L - k (m - 1)) digits, and
    so does the trace term t G_(deg-1) E_dd of U_2, as v(t) >= k.  D >= 2 L,
    as the key (p^L, p^L) is kept, v_p(deg) <= L and v_p(m) <= min(L,
    k (m - 1)), so the weight p^(D - v_p(m deg)) has at least L - v_p(m) >=
    max(0, L - k (m - 1)) spare digits: every weighted term is exact mod
    p^M, and M = cert + N - 1 + D.

    DYNKIN's certificate and degrees.  With b(n) = n k - v_p(n!) -
    floor(log_p n) - v_p(n) the floor of every degree-n term and n_N the
    largest n with b(n) <= N,

        cert = min(A + min_(n <= n_N) (b(n) - k), min_(n > n_N) b(n)),

    and the degrees kept are 1 .. n_max, n_max the largest n <= n_N with
    b'(n) = n k - v_p(n!) - floor(log_p n) < cert.  b' has no v_p(n): it
    bounds the degree-n component z_n, the sum of the degree-n terms, which
    never carries Dynkin's extra 1/n.  In the associative expansion z =
    sum_m (-1)^(m-1)/m (e^x e^y - 1)^m the coefficient of a degree-n word is
    a sum of terms 1/(m prod a_i! b_i!), each of v_p >= -v_p(n!) -
    floor(log_p n), because multinomials are integers and m <= n; and each
    word has norm at most p^(-n k).  So v(z_n) >= b'(n): every degree
    dropped lies at or past cert (past n_N, b' >= b >= tail >= cert), and
    only the digits of a unit beyond its certificate depend on it.  With no
    degree kept (k > N, or cert <= k), every entry is O(p^cert).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, count
from math import factorial
from operator import add, mul
from typing import NamedTuple

from .errors import DomainError, NoConvergence, PrecisionExhausted
from .matrix import PadicMatrix, _vp, combine
from .scalar import PadicContext, PadicScalar


@dataclass(frozen=True)
class GroupSpec:
    """An algebraic matrix group with the integral basis of its algebra.

    Stored: ctx, the ambient p-adic context; family, "sl" or "gl"; and dim,
    the ambient matrix size d.  Derived from them: dim_g, the algebra's
    dimension; the coordinates in the Z_p-basis of (algebra cap Mat_d(Z_p))
    that the family fixes, read off the entries by `_read_off` and written
    back on them by `element`, the two that state the basis order; and
    lie_basis, `element` of each unit coordinate vector.  For sl the basis
    is E_ij (i < j), H_k = E_kk - E_(k+1)(k+1), E_ij (i > j, column by
    column); for gl all E_ij, row-major.
    """

    ctx: PadicContext
    family: str
    dim: int

    def __post_init__(self) -> None:
        if self.family not in ("sl", "gl"):
            raise ValueError(f"unknown group family: {self.family!r}")

    @classmethod
    def sl(cls, ctx: PadicContext, d: int) -> "GroupSpec":
        """SL(d): the trace-zero algebra."""
        return cls(ctx, "sl", d)

    @classmethod
    def gl(cls, ctx: PadicContext, d: int) -> "GroupSpec":
        """GL(d): the full matrix algebra."""
        return cls(ctx, "gl", d)

    @property
    def dim_g(self) -> int:
        return self.dim * self.dim - 1 if self.family == "sl" else self.dim * self.dim

    @cached_property
    def lie_basis(self) -> tuple:
        one, zero, dim_g = self.ctx.one(), self.ctx.zero(), self.dim_g
        return tuple(self.element([one if i == m else zero for i in range(dim_g)]) for m in range(dim_g))

    def _read_off(self, rows) -> tuple[list, PadicScalar]:
        """(coordinates, trace) of the matrix x with these entry rows: for gl
        the entries, row-major, and the exact zero; for sl the entries above
        the diagonal, the partial diagonal sums x_11 + ... + x_kk (k < d) and
        the entries below, the coordinates of x less its trace at x_dd, and
        that trace."""
        d = self.dim
        if len(rows) != d:
            raise ValueError(f"a {d}x{d} and a {len(rows)}x{len(rows)} matrix")
        if self.family == "gl":
            return [e for r in rows for e in r], self.ctx.zero()
        *sums, trace = accumulate(rows[k][k] for k in range(d))
        above = [rows[i][j] for i in range(d) for j in range(i + 1, d)]
        below = [rows[i][j] for j in range(d) for i in range(j + 1, d)]
        return above + sums + below, trace

    def element(self, coords) -> PadicMatrix:
        """The algebra element with these lie_basis coordinates, the inverse
        of _read_off: for gl the entries, row-major; for sl the entries above
        the diagonal, x_kk = s_k - s_(k-1) from the partial sums s (s_0 and
        s_d the exact zero, so x_dd = -s_(d-1)), then the entries below.
        Entry for entry, `combine(lie_basis, coords)`, without its products.
        Raises ValueError unless there are dim_g coordinates."""
        ctx, d = self.ctx, self.dim
        if len(coords) != self.dim_g:
            raise ValueError(f"{len(coords)} coordinates on an algebra of dimension {self.dim_g}")
        if self.family == "gl":
            return PadicMatrix.from_flat(ctx, d, coords)
        zero, m = ctx.zero(), d * (d - 1) // 2
        sums = [zero, *coords[m:m + d - 1], zero]
        rows = [[zero] * d for _ in range(d)]
        above, below = iter(coords[:m]), iter(coords[m + d - 1:])
        for i in range(d):
            rows[i][i] = sums[i + 1] - sums[i]
            for j in range(i + 1, d):
                rows[i][j], rows[j][i] = next(above), next(below)
        return PadicMatrix._own(ctx, rows)

    def algebra_coordinates(self, x: PadicMatrix):
        """Coordinates of x in lie_basis (see _read_off); None if x is outside,
        certifiably: an sl trace nonzero below p^N."""
        return self._coordinates(x.rows)

    def _coordinates(self, rows):
        """algebra_coordinates of the matrix with these entry rows."""
        coords, trace = self._read_off(rows)
        return None if trace.v is not None and trace.v < self.ctx.precision else coords

    def in_group(self, g: PadicMatrix) -> bool:
        """sl: det g = 1 at working precision (PrecisionExhausted when its
        digits cannot tell); gl: det g is not zero."""
        if self.family == "sl":
            ctx = self.ctx
            return (g.det() - ctx.one()).congruent_mod(ctx.zero(), ctx.precision)
        return not g.det().is_zero


# ---- exp / log ---------------------------------------------------------------


def _vp_factorial(p: int, n: int) -> int:
    v = 0
    while n:
        n //= p
        v += n
    return v


def _floor_log(p: int, n: int) -> int:
    """floor(log_p n) for n >= 1, the largest v_p(j) over j <= n."""
    logp, m = 0, p
    while m <= n:
        m *= p
        logp += 1
    return logp


@lru_cache(maxsize=128)
def _tail_floor(p: int, k: int, n: int, factorial: bool) -> int:
    """Least floor j*k - v_p(j!) (exp) or j*k - v_p(j) (log) of the terms
    j >= n at ||X|| = p^-k; for k >= 2 no term past 2n comes lower."""
    return min(j * k - (_vp_factorial(p, j) if factorial else _vp(j, p)) for j in range(n, 2 * n))


@lru_cache(maxsize=128)
def _series_plan(p: int, k: int, n_prec: int, is_exp: bool) -> tuple[int, int, int]:
    """(n, tail, spread) for exp or log at ||X|| = p^-k: the terms j < n are
    kept, tail is the least floor of the others, and spread is
    min_(j >= 3) ((j - 1) k - v_p(den_j)), which bounds how far below a kept
    term past the second an input error of p^A can reach: p^(A + spread)."""
    if is_exp:
        # n k - v_p(n!) > N once n (k (p - 1) - 1) > N (p - 1), as v_p(n!) <= n/(p - 1)
        n = n_prec * (p - 1) // (k * (p - 1) - 1) + 1
    else:
        # n k - v_p(n) > N once n k - floor(log_p n) > N
        n = next(n for n in count(1) if n * k - _floor_log(p, n) > n_prec)
    return n, _tail_floor(p, k, n, is_exp), _tail_floor(p, k, 3, is_exp) - k


@lru_cache(maxsize=128)
def _series_weights(p: int, n: int, is_exp: bool, room: int) -> tuple[int, int, tuple[int, ...]]:
    """_weights of 1/j! (exp) or (-1)^(j+1)/j (log), j = 1 .. n - 1."""
    return _weights(p, [factorial(j) if is_exp else (-1) ** (j + 1) * j for j in range(1, n)], room)


def _weights(p: int, denoms: list[int], room: int) -> tuple[int, int, tuple[int, ...]]:
    """(D, mod, w): w_i = p^D / denoms[i] mod p^(room + D), with D the largest
    v_p(denoms[i]), so that every weight is an integer."""
    vals = [_vp(c, p) for c in denoms]
    big_d = max(vals, default=0)
    mod = p ** (room + big_d)
    return big_d, mod, tuple(p ** (big_d - e) * pow(c // p**e, -1, mod) % mod for c, e in zip(denoms, vals))


def _reps(m: PadicMatrix) -> list[list[int]]:
    """The integer representatives p^v * unit of m's entries (0 at a zero:
    O(p^c) keeps its floor in the certificate, not here)."""
    p = m.ctx.p
    return [[0 if e.v is None else e.unit * p**e.v for e in r] for r in m.rows]


def _support_closure(rows) -> list[list[bool]]:
    """The positions that are nonzero in some power x^j, j >= 1, given the
    exact zeros of x; every other entry of every power is exactly zero.
    O(p^c) may be nonzero, so it is an edge."""
    edge = [[bool(e) for e in r] for r in rows]
    reach, span = edge, range(len(rows))
    while not all(map(all, reach)):
        nxt = [[r[j] or any(r[m] and edge[m][j] for m in span) for j in span] for r in reach]
        if nxt == reach:
            break
        reach = nxt
    return reach


def _require_deep(x: PadicMatrix, what: str) -> int:
    """The least valuation an entry of x may have (O(p^c) may have c)."""
    v = min(e.valuation() for e in x.flat())
    if v < 2:
        raise DomainError(f"{what} needs ||.|| <= p^-2, got valuation {v}")
    return v


def _series(x: PadicMatrix, k, is_exp: bool) -> PadicMatrix:
    """exp(x), or log(e + x), at ||x|| = p^-k on integer representatives; see
    the module docstring for the certificate."""
    ctx, d = x.ctx, x.dim
    if k == float("inf"):
        return (PadicMatrix.identity if is_exp else PadicMatrix.zeros)(ctx, d)
    p, n_prec = ctx.p, ctx.precision
    n, tail, spread = _series_plan(p, k, n_prec, is_exp)
    half = _vp(2, p)
    val = [[e.valuation() for e in r] for r in x.rows]
    ab = [[e.abs_precision() for e in r] for r in x.rows]
    uniform = min(map(min, ab)) + spread
    vcols, acols = list(zip(*val)), list(zip(*ab))
    # the entry's own error (term 1), the halved second-order term, and the
    # uniform bound on the later terms; the tail is charged below
    cert = [
        min(e, uniform, min(map(add, ai, vj)) - half, min(map(add, vi, aj)) - half)
        for ai, vi in zip(ab, val)
        for e, vj, aj in zip(ai, vcols, acols)
    ]
    room = min(max(cert), tail) + n_prec
    big_d, mod, weights = _series_weights(p, n, is_exp, room)
    scale = p**big_d
    power = [[a % mod for a in r] for r in _reps(x)]
    cols = list(zip(*power))
    powers = [sum(power, [])]
    for j in range(2, n):
        power = [[sum(map(mul, r, c)) % mod for c in cols] for r in power]
        if not any(map(any, power)):
            # x^i = 0 mod p^(M + (i - j) k) for i >= j on the representatives
            tail = min(room, room + big_d - j * k + _tail_floor(p, k, j, is_exp))
            break
        powers.append(sum(power, []))
    total = [sum(map(mul, weights, col)) for col in zip(*powers)]
    if is_exp:
        for i in range(0, d * d, d + 1):
            total[i] += scale
    one, zero = ctx.one(), ctx.zero()
    reach = sum(_support_closure(x.rows), [])
    return PadicMatrix.from_flat(ctx, d, [
        _certified(t % mod // scale, min(c, tail), ctx) if r
        else one if is_exp and i % (d + 1) == 0 else zero
        for i, (t, c, r) in enumerate(zip(total, cert, reach))
    ])


def exp(x: PadicMatrix) -> PadicMatrix:
    """exp(X) = sum X^n / n! for ||X|| <= p^-2; ||exp(X) - e|| = ||X||."""
    return _series(x, _require_deep(x, "exp"), True)


def log(g: PadicMatrix) -> PadicMatrix:
    """log(g) = sum (-1)^(n+1) (g-e)^n / n for ||g - e|| <= p^-2."""
    y = g - PadicMatrix.identity(g.ctx, g.dim)
    return _series(y, _require_deep(y, "log"), False)


# ---- Dynkin BCH --------------------------------------------------------------


def _term_floor(p: int, k: int, n: int) -> int:
    """b(n) = n*k - v_p(n!) - floor(log_p n) - v_p(n).

    A lower bound on the valuation of every degree-n Dynkin term when
    ||x||, ||y|| <= p^-k: the term is a nested commutator of n letters over
    m * n * prod P_i! q_i! with m <= n blocks, and sum_i v_p(P_i! q_i!) <=
    v_p(n!) because multinomial coefficients are integers.  An error of p^A
    in one letter moves the term by at most p^(A + b(n) - k).  cert is
    built from b, and the degrees kept from b'(n) = b(n) + v_p(n), the floor
    of their sum z_n (_dynkin_plan).  Nothing is charged for the divisions
    by s: the weights absorb the digits they cost (module docstring).
    """
    return n * k - _vp_factorial(p, n) - _floor_log(p, n) - _vp(n, p)


@lru_cache(maxsize=128)
def _dynkin_plan(p: int, k: int, n_prec: int, least: int) -> tuple[int, int]:
    """(n_max, cert) at ||x||, ||y|| <= p^-k and least input absolute
    precision p^least (module docstring): n_N is the largest n with b(n) <=
    N, and n_max the largest n <= n_N with b'(n) < cert, 0 if there is none.
    Past the scan window the linear growth n*(k - 1/(p-1)) - 2 log_p n
    dominates any N we accept."""
    floors = [_term_floor(p, k, n) for n in range(1, 8 * n_prec + 33)]
    n_n = max((n for n, b in enumerate(floors, 1) if b <= n_prec), default=0)
    cert = min(least + min(floors[:n_n], default=k) - k, min(floors[n_n:]))
    return max((n for n, b in enumerate(floors[:n_n], 1) if b + _vp(n, p) < cert), default=0), cert


@lru_cache(maxsize=128)
def _dynkin_weights(p: int, n_max: int, room: int) -> tuple[int, int, dict, dict]:
    """_weights of (-1)^(m-1) / (m deg), keyed by (m, deg), and the division
    by each s = p^e u <= n_max as the pair (p^e, u^-1 mod p^(room + D))."""
    keys = [(m, deg) for deg in range(1, n_max + 1) for m in range(1, deg + 1)]
    big_d, mod, weights = _weights(p, [(-1) ** (m - 1) * m * deg for m, deg in keys], room)
    shifts = {s: p ** _vp(s, p) for s in range(1, n_max + 1)}
    return big_d, mod, dict(zip(keys, weights)), {s: (e, pow(s // e, -1, mod)) for s, e in shifts.items()}


def _ad_traceless(x: list[list[int]], mod: int) -> tuple[list[list[int]], list[int]]:
    """ad(x) on traceless matrices, and the column ad(x) E_dd, in the
    row-major coordinates other than (d, d).  Row (i, j), column (k, l) of
    ad(x) holds (x E_kl - E_kl x)_ij; the row (d, d) is dropped, as the image
    is traceless, and the column (d, d) is subtracted from the other diagonal
    columns, as a traceless input's (d, d) entry is minus their sum."""
    d = len(x)
    last = d * d - 1
    rows = [
        [(x[i][k] if j == l else 0) - (x[l][j] if i == k else 0) for k in range(d) for l in range(d)]
        for i in range(d)
        for j in range(d)
    ][:last]
    op = [[(a - r[last] if c % (d + 1) == 0 else a) % mod for c, a in enumerate(r[:last])] for r in rows]
    return op, [r[last] % mod for r in rows]


def _bch_dynkin(x: PadicMatrix, y: PadicMatrix, k: int) -> PadicMatrix:
    """The Dynkin series over the degrees that can reach cert, on integer
    representatives mod p^(cert + N - 1 + D): the divided powers U_m(deg), built
    from G_s, the at most floor(log_p n_max) digits that the divisions by s
    cost being absorbed by the weights; every term but x + y in the traceless
    coordinates, and the trace of x + y through the column G_s E_dd.  See the
    module docstring."""
    ctx, d = x.ctx, x.dim
    p, n_prec = ctx.p, ctx.precision
    n_max, cert = _dynkin_plan(p, k, n_prec, min(e.abs_precision() for e in x.flat() + y.flat()))
    if n_max < 1:
        return PadicMatrix.from_flat(ctx, d, [ctx.zero(cert)] * (d * d))
    big_d, mod, weights, divide = _dynkin_weights(p, n_max, cert + n_prec - 1)
    last = d * d - 1
    xi, yi = _reps(x), _reps(y)
    x_flat, y_flat = sum(xi, []), sum(yi, [])
    trace_y = sum(y_flat[:: d + 1])
    trace = sum(x_flat[:: d + 1]) + trace_y
    adx, ex = _ad_traceless(xi, mod)
    ady, ey = _ad_traceless(yi, mod)
    # G_s = sum_{P+q=s} ad(x)^P ad(y)^q / (P! q!) by s G_s = ad(x) G_(s-1) +
    # G_(s-1) ad(y), and its column G_s E_dd by the same rule; dividing by
    # s = p^e u is exact mod p^M and leaves G_s known mod p^(M - e).
    # wide[i] is row i of [G_1 | G_2 | ... | G_(n_max - 1)], column[s] is G_s E_dd.
    ady_cols = list(zip(*ady))
    op = [[(a + b) % mod for a, b in zip(ra, rb)] for ra, rb in zip(adx, ady)]
    column = {1: [(a + b) % mod for a, b in zip(ex, ey)]}
    wide = [list(r) for r in op]
    for s in range(2, n_max):
        shift, inv = divide[s]
        column[s] = [
            (sum(map(mul, ra, column[s - 1])) + sum(map(mul, ro, ey))) % mod // shift * inv % mod
            for ra, ro in zip(adx, op)
        ]
        cols = list(zip(*op))
        op = [
            [
                (sum(map(mul, ra, c)) + sum(map(mul, ro, cb))) % mod // shift * inv % mod
                for c, cb in zip(cols, ady_cols)
            ]
            for ra, ro in zip(adx, op)
        ]
        for w, r in zip(wide, op):
            w.extend(r)
    # U_1(1) = x + y less its trace at (d, d), U_1(2) = ad(x) y,
    # U_1(deg) = ad(x) U_1(deg - 1) / (deg - 1)
    first = [[(a + b) % mod for a, b in zip(x_flat[:last], y_flat)]]
    first.append([(sum(map(mul, r, y_flat)) + trace_y * e) % mod for r, e in zip(adx, ex)])
    for deg in range(3, n_max + 1):
        shift, inv = divide[deg - 1]
        first.append([sum(map(mul, r, first[-1])) % mod // shift * inv % mod for r in adx])
    layer = dict(enumerate(first[:n_max], 1))
    terms, lead = [], trace
    for m in range(1, n_max + 1):
        terms.extend((weights[m, deg], vm) for deg, vm in layer.items())
        # U_(m+1)(deg) = sum_s G_s U_m(deg - s): one dot product per row of
        # `wide` against U_m(deg - 1), ..., U_m(m) stacked; the trace of
        # U_1(1) adds tr(x + y) G_(deg-1) E_dd
        nxt, stacked = {}, []
        for deg in range(m + 1, n_max + 1):
            stacked = layer[deg - 1] + stacked
            nxt[deg] = [(sum(map(mul, w, stacked)) + lead * c) % mod for w, c in zip(wide, column[deg - 1])]
        layer, lead = nxt, 0
    cs = [c for c, _ in terms]
    total = [sum(map(mul, cs, col)) for col in zip(*(v for _, v in terms))]
    # (d, d): minus the other diagonal entries, plus the trace of x + y
    scale = p**big_d
    total.append(scale * trace - sum(total[:: d + 1]))
    return PadicMatrix.from_flat(ctx, d, [_certified(t % mod // scale, cert, ctx) for t in total])


def _certified(z: int, cert: int, ctx: PadicContext) -> PadicScalar:
    """The entry z, known mod p^(cert + N - 1) or finer, certified mod p^cert."""
    p, n_prec = ctx.p, ctx.precision
    if z % p**cert == 0:
        return ctx.zero(cert)
    v = _vp(z, p)
    return PadicScalar._raw(ctx, v, z // p**v % ctx.modulus, min(n_prec, cert - v))


def bch(x: PadicMatrix, y: PadicMatrix, mode: str = "direct") -> PadicMatrix:
    """z with exp(z) = exp(x) exp(y), for ||x||, ||y|| <= p^-2.

    mode "direct" computes log(exp x exp y).  mode "dynkin" evaluates the
    Dynkin series sum_n z_n: each degree-n term is a nested commutator
    ad(x)^P1 ad(y)^q1 ... applied to a final letter, weighted by
    (-1)^(m-1)/(m n P_1! q_1! ...); see the module docstring for the dynamic
    program and its precision.
    """
    if x.dim != y.dim:
        raise ValueError(f"bch of a {x.dim}x{x.dim} and a {y.dim}x{y.dim} matrix")
    key = mode.strip().lower()
    if key not in ("direct", "dynkin"):
        raise ValueError(f"unknown bch mode: {mode!r}")
    kx, ky = _require_deep(x, "bch"), _require_deep(y, "bch")
    if key == "direct":
        return log(exp(x) @ exp(y))
    if kx == float("inf"):
        return y.copy()
    if ky == float("inf"):
        return x.copy()
    return _bch_dynkin(x, y, min(kx, ky))


# ---- congruence balls --------------------------------------------------------


def ball_membership(g: PadicMatrix, spec: GroupSpec, k: int) -> bool:
    """g in K^G_k: ||g - e|| <= p^(-k) and g lies in the group.

    Raises PrecisionExhausted when the certified digits of g cannot decide
    ||g - e|| <= p^(-k).
    """
    if k < 0:
        raise ValueError("ball level must be >= 0")
    if not g.congruent_mod(PadicMatrix.identity(g.ctx, g.dim), k):
        return False
    return spec.in_group(g)


# ---- horospherical factorization ---------------------------------------------


class FactorResult(NamedTuple):
    """g = unstable @ bounded, with the number of peeling rounds used."""

    unstable: PadicMatrix
    bounded: PadicMatrix
    rounds: int


def horospherical_factor(g: PadicMatrix, k: int, dec) -> FactorResult:
    """Split g in K^G_k (k >= 2) as g = f h with f unstable, h neutral-stable.

    Peeling iteration: write log(residual) = v + w in the adjoint eigenbasis
    (v the unstable part, w the rest), peel f_i = exp(v), h_i = exp(w), and
    pass to f_i^-1 residual h_i^-1, whose distance from e at least squares
    each round.  Accumulates F = f_0 f_1 ... and H = ... h_1 h_0; stops once
    the residual is certified = e mod p^N, so F H = g mod p^N.  A residual
    that stops improving raises NoConvergence, or PrecisionExhausted when
    an entry O(p^c), c < N, holds it back; since every round raises the
    residual's valuation, the peel ends within N - k + 1 rounds.
    """
    ctx = g.ctx
    n_prec = ctx.precision
    if k < 2:
        raise DomainError("factorization needs k >= 2")
    if g.dim != dec.a.dim:
        raise ValueError(f"a {g.dim}x{g.dim} element against a {dec.a.dim}x{dec.a.dim} flow")
    ident = PadicMatrix.identity(ctx, g.dim)
    f_acc = ident
    h_acc = ident
    resid = g
    prev_v = None
    for rounds in count():
        y = resid - ident
        v_res = min(e.valuation() for e in y.flat())
        if v_res >= n_prec:
            return FactorResult(f_acc, h_acc, rounds)
        if v_res < k:
            raise DomainError(
                f"residual entries at valuation {v_res}, outside K^G_{k}"
            )
        if prev_v is not None and v_res <= prev_v:
            if any(e.is_zero and e.valuation() == v_res for e in y.flat()):
                raise PrecisionExhausted(
                    f"residual entry is O({ctx.p}^{v_res}), below {n_prec} digits"
                )
            raise NoConvergence(
                f"residual stalled at valuation {v_res} (inconsistent decomposition?)"
            )
        prev_v = v_res
        x_log = _series(y, v_res, False)
        coords = dec.coordinates(x_log)
        zero = ctx.zero()
        plus = [c if v < 0 else zero for c, v in zip(coords, dec.nu)]
        rest = [zero if v < 0 else c for c, v in zip(coords, dec.nu)]
        v_part = combine(dec.basis, plus)
        w_part = combine(dec.basis, rest)
        peeled = []
        for name, part in (("unstable", v_part), ("neutral-stable", w_part)):
            try:
                peeled.append(exp(part))
            except DomainError as err:
                # a deep residual's eigen-coordinates have denominators up to p^lattice_defect
                raise DomainError(f"round {rounds + 1}, {name} part: {err}; "
                                  f"the flow's lattice_defect is {dec.lattice_defect}") from err
        f_i, h_i = peeled
        f_acc = f_acc @ f_i
        h_acc = h_i @ h_acc
        resid = f_i.inverse() @ resid @ h_i.inverse()
