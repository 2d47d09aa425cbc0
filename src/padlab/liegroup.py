"""Exponential geometry of p-adic matrix groups near the identity.

exp and log are mutually inverse isometries between the algebra ball
{||X|| <= p^-2} and the group ball {||g - e|| <= p^-2}: ultrametrically, the
n >= 2 series tails are strictly smaller than the leading term, because
|n!|_p >= p^(-n/(p-1)) and the entries start at valuation 2.  The same
estimate truncates every series here, and no output entry claims digits
past the floor of its truncated tail.

Baker-Campbell-Hausdorff comes in two independently implemented modes:
DIRECT is log(exp x exp y); DYNKIN_SERIES evaluates Dynkin's nested-commutator
expansion, organized as a dynamic program over blocks ad(x)^P ad(y)^q / (P!q!)
so the composition sum costs O(n_max^3) operator applications instead of an
exponential word enumeration.  Agreement of the two modes at certified
precision is a core test oracle downstream.

DYNKIN runs on Python integers modulo p^M, with one certified precision for
the whole output (capped absolute precision).  x and y (valuation >= k >= 2)
become the integer matrices of their representatives p^v * unit.  Scaling the
block sums U_m(deg) by deg! makes the program integral:

    V_1(1) = x + y,   V_1(deg) = deg ad(x)^(deg-1) y,
    V_m(deg) = sum_s C(deg, s) O'_s V_(m-1)(deg - s),
    O'_s = sum_P C(s, P) ad(x)^P ad(y)^(s-P),
    z = sum (-1)^(m-1) V_m(deg) / (m deg deg!)   (deg <= n_max),

and that last division is the only one.  With b(n) = n k - v_p(n!) -
floor(log_p n) - v_p(n) the floor of every degree-n term, and A the least
v + digits over the nonzero input entries, the output is certified modulo
p^cert, cert = min(A + min_(n <= n_max) (b(n) - k), min_(n > n_max) b(n)):
the first part bounds the input error carried by each kept term, the second
the truncated tail.  Each entry of valuation v keeps min(N, cert - v) digits;
an entry = 0 mod p^cert is the exact zero if cert >= N (the absorb rule) and
raises PrecisionExhausted otherwise.  The modulus is M = cert + N + D with
D = max v_p(m deg deg!), so every printed unit is exact on the input
representatives modulo p^(v+N).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial
from operator import mul
from typing import NamedTuple

from .errors import DomainError, NoConvergence, PrecisionExhausted
from .matrix import PadicMatrix, _vp, add_absorb, add_rank, eliminate, zp_module_basis
from .scalar import PadicContext, PadicScalar


@dataclass(frozen=True)
class GroupSpec:
    """An algebraic matrix group with a chosen integral basis of its algebra.

    Args:
        ctx: ambient p-adic context.
        family: "sl", "gl", or "custom".
        dim: ambient matrix size d.
        lie_basis: Z_p-basis of (algebra cap Mat_d(Z_p)); every vector must be
            integral with content 0, and the list linearly independent.
        equations: for "custom" only, defining polynomials of the group as
            {exponent tuple over the d^2 entries: rational coefficient} dicts;
            membership requires them to vanish at working precision.
    """

    ctx: PadicContext
    family: str
    dim: int
    lie_basis: tuple
    equations: tuple = ()
    _solver: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        for b in self.lie_basis:
            v = b.min_valuation()
            if v != 0:
                raise ValueError("lie_basis vectors must be integral with content 0")
        reduced = zp_module_basis([b.flat() for b in self.lie_basis])
        if len(reduced) != len(self.lie_basis):
            raise ValueError("lie_basis vectors are linearly dependent")

    @classmethod
    def sl(cls, ctx: PadicContext, d: int) -> "GroupSpec":
        """SL(d): trace-zero algebra, basis E_ij (i<j), H_k, E_ij (i>j)."""
        basis = []
        for i in range(d):
            for j in range(i + 1, d):
                basis.append(_unit_matrix(ctx, d, i, j))
        for k in range(d - 1):
            m = PadicMatrix.zeros(ctx, d).rows
            m[k][k] = ctx.one()
            m[k + 1][k + 1] = -ctx.one()
            basis.append(PadicMatrix(ctx, m))
        for j in range(d):
            for i in range(j + 1, d):
                basis.append(_unit_matrix(ctx, d, i, j))
        return cls(ctx, "sl", d, tuple(basis))

    @classmethod
    def gl(cls, ctx: PadicContext, d: int) -> "GroupSpec":
        """GL(d): the full matrix algebra, basis all E_ij row-major."""
        basis = [
            _unit_matrix(ctx, d, i, j) for i in range(d) for j in range(d)
        ]
        return cls(ctx, "gl", d, tuple(basis))

    @classmethod
    def custom(cls, ctx, d, lie_basis, equations) -> "GroupSpec":
        eqs = tuple(
            tuple(sorted((tuple(mono), coeff) for mono, coeff in eq.items()))
            for eq in equations
        )
        return cls(ctx, "custom", d, tuple(lie_basis), eqs)

    # -- algebra coordinates -------------------------------------------------

    def algebra_coordinates(self, x: PadicMatrix, verify: bool = True):
        """Coordinates of x in lie_basis; None if x is (certifiably) outside."""
        solver = self._coordinate_solver()
        coords = _solve_coordinates(solver, x)
        if verify and not _combination_matches(self.lie_basis, coords, x):
            return None
        return coords

    def _coordinate_solver(self):
        if "data" not in self._solver:
            self._solver["data"] = _build_coordinate_solver(
                self.ctx, [b.flat() for b in self.lie_basis]
            )
        return self._solver["data"]

    def in_group(self, g: PadicMatrix) -> bool:
        """Do the defining equations hold at working precision?"""
        n = self.ctx.precision
        if self.family == "sl":
            return _vanishes_at(g.det() - self.ctx.one(), n)
        if self.family == "gl":
            return not g.det().is_zero
        flat = g.flat()
        for eq in self.equations:
            acc = self.ctx.zero()
            for mono, coeff in eq:
                term = self.ctx.from_rational(coeff)
                for idx, e in enumerate(mono):
                    for _ in range(e):
                        term = term * flat[idx]
                acc = add_absorb(acc, term)
            if not _vanishes_at(acc, n):
                return False
        return True


def _unit_matrix(ctx, d, i, j) -> PadicMatrix:
    rows = PadicMatrix.zeros(ctx, d).rows
    rows[i][j] = ctx.one()
    return PadicMatrix(ctx, rows)


def _vanishes_at(x: PadicScalar, k: int) -> bool:
    if x.is_zero:
        return True
    return x.v >= min(k, x.v + x.digits)


# ---- coordinate solving ------------------------------------------------------


def _build_coordinate_solver(ctx, flat_basis: list[list[PadicScalar]]):
    """Solver for coordinates in a basis given as flat entry vectors.

    The kernel runs on the rows [b_j | e_j] with pivots sought among the
    entry columns, under the rank policy.  Its pivots pick len(basis) entry
    positions where the basis is invertible; the carried identity block then
    holds the inverse on those positions, row r divided by its pivot.
    Returns (chosen entries, inverse rows, sum of pivot valuations); the sum
    is the valuation of the chosen minor's determinant.
    """
    n = len(flat_basis)
    width = len(flat_basis[0])
    zero, one = ctx.zero(), ctx.one()
    rows = [list(v) + [one if i == j else zero for j in range(n)] for i, v in enumerate(flat_basis)]
    pivots = eliminate(rows, zero, add_rank, width)
    if len(pivots) < n:
        raise ValueError("basis vectors do not have full rank")
    chosen = [c for _, c in pivots]
    inverse = [[x / rows[r][c] for x in rows[r][width:]] for r, c in pivots]
    return chosen, inverse, sum(rows[r][c].v for r, c in pivots)


def _solve_coordinates(solver, x: PadicMatrix) -> list[PadicScalar]:
    chosen, inverse, _ = solver
    flat = x.flat()
    out = [x.ctx.zero()] * len(chosen)
    for r, inv_row in zip(chosen, inverse):
        s = flat[r]
        if s.is_zero:
            continue
        out = [add_absorb(acc, s * c) for acc, c in zip(out, inv_row)]
    return out


def _combine(basis, coords, policy=add_absorb) -> PadicMatrix:
    """sum_i coords[i] * basis[i], each entry summed by `policy`."""
    acc = PadicMatrix.zeros(basis[0].ctx, basis[0].dim)
    for c, b in zip(coords, basis):
        if not c.is_zero:
            acc = acc.add(b.scale(c), policy)
    return acc


def _combination_matches(basis, coords, x: PadicMatrix) -> bool:
    """Does sum_i coords[i] * basis[i] reproduce x at working precision?

    This decides whether x raises the rank of the basis, so it sums under the
    rank policy: x and its reconstruction can agree in every certified digit
    without being mirror images at full precision.
    """
    # the reconstruction is only as sharp as the least certified basis entry
    level = x.ctx.precision
    for b in basis:
        for row in b.rows:
            for e in row:
                if not e.is_zero:
                    level = min(level, e.digits)
    diff = _combine(basis, coords, add_rank).add(-x, add_rank)
    v = diff.min_valuation()
    return v == float("inf") or v >= level


# ---- exp / log ---------------------------------------------------------------
#
# Series evaluation multiplies stored approximations, so a sum whose true value
# vanishes (e.g. an off-diagonal of X^4 for trace-zero 2x2 X) can cancel every
# certified digit once an operand carries fewer than full digits.  Hence all
# series arithmetic here runs under the absorb policy.
#
# Each output entry is certified no finer than the floor of the truncated
# tail, unless a term came out exactly zero and so did the tail.


def _vp_factorial(p: int, n: int) -> int:
    v = 0
    while n:
        n //= p
        v += n
    return v


@lru_cache(maxsize=128)
def _tail_floor(p: int, k: int, n: int, factorial: bool) -> int:
    """Least floor j*k - v_p(j!) (exp) or j*k - v_p(j) (log) of the terms
    j >= n at ||X|| = p^-k; for k >= 2 no term past 2n comes lower."""
    return min(j * k - (_vp_factorial(p, j) if factorial else _vp(j, p)) for j in range(n, 2 * n))


def _charge_tail(m: PadicMatrix, floor: int) -> PadicMatrix:
    """m with every entry certified at most modulo p^floor.

    The series cutoffs keep floor > N, so an entry at or past the floor is
    O(p^N) and becomes the exact zero, as under the absorb rule.
    """
    ctx = m.ctx

    def cap(e: PadicScalar) -> PadicScalar:
        if e.is_zero or e.v + e.digits <= floor:
            return e
        if e.v >= floor:
            return ctx.zero()
        return PadicScalar._raw(ctx, e.v, e.unit, floor - e.v)

    return PadicMatrix(ctx, [[cap(e) for e in r] for r in m.rows])


def _require_deep(x: PadicMatrix, what: str) -> int:
    v = x.min_valuation()
    if v < 2:
        raise DomainError(f"{what} needs ||.|| <= p^-2, got valuation {v}")
    return v


def exp(x: PadicMatrix) -> PadicMatrix:
    """exp(X) = sum X^n / n! for ||X|| <= p^-2; ||exp(X) - e|| = ||X||."""
    k = _require_deep(x, "exp")
    ctx = x.ctx
    ident = PadicMatrix.identity(ctx, x.dim)
    if k == float("inf"):
        return ident
    n_prec = ctx.precision
    acc = ident
    term = ident
    n = 1
    # tail certified once n*k - v_p(n!) > N; v_p(n!) <= n/(p-1), and
    # n*(k - 1/(p-1)) is increasing since k >= 2 > 1/(p-1)
    while n * (k * (ctx.p - 1) - 1) <= n_prec * (ctx.p - 1):
        term = term.matmul(x, add_absorb).scale(ctx.from_rational(1, n))
        if term.min_valuation() == float("inf"):
            return acc  # the tail is exactly zero
        acc = acc.add(term, add_absorb)
        n += 1
    return _charge_tail(acc, _tail_floor(ctx.p, k, n, True))


def _log_series(y: PadicMatrix) -> PadicMatrix:
    ctx = y.ctx
    k = y.min_valuation()
    out = PadicMatrix.zeros(ctx, y.dim)
    if k == float("inf"):
        return out
    n_prec = ctx.precision
    power = PadicMatrix.identity(ctx, y.dim)
    n = 1
    # tail certified once n*k - v_p(n) > N; v_p(n) <= log_p(n)
    while True:
        vp_bound = 0
        m = 1
        while m <= n:
            m *= ctx.p
            vp_bound += 1
        if n * k - (vp_bound - 1) > n_prec:
            break
        power = power.matmul(y, add_absorb)
        if power.min_valuation() == float("inf"):
            return out  # the tail is exactly zero
        coeff = ctx.from_rational(1 if n % 2 else -1, n)
        out = out.add(power.scale(coeff), add_absorb)
        n += 1
    return _charge_tail(out, _tail_floor(ctx.p, k, n, False))


def log(g: PadicMatrix) -> PadicMatrix:
    """log(g) = sum (-1)^(n+1) (g-e)^n / n for ||g - e|| <= p^-2."""
    y = g - PadicMatrix.identity(g.ctx, g.dim)
    _require_deep(y, "log")
    return _log_series(y)


# ---- Dynkin BCH --------------------------------------------------------------


def _term_floor(p: int, k: int, n: int) -> int:
    """b(n) = n*k - v_p(n!) - floor(log_p n) - v_p(n).

    A lower bound on the valuation of every degree-n Dynkin term when
    ||x||, ||y|| <= p^-k: the term is a nested commutator of n letters over
    m * n * prod P_i! q_i! with m <= n blocks, and sum_i v_p(P_i! q_i!) <=
    v_p(n!) because multinomial coefficients are integers.  An error of p^A
    in one letter moves the term by at most p^(A + b(n) - k).
    """
    logp, m = 0, p
    while m <= n:
        m *= p
        logp += 1
    return n * k - _vp_factorial(p, n) - logp - _vp(n, p)


@lru_cache(maxsize=128)
def _dynkin_cutoff(p: int, k: int, target: int) -> tuple[int, int, int]:
    """(n_max, loss, tail) for the Dynkin series at ||x||, ||y|| <= p^-k.

    n_max is the largest degree whose term floor b(n) still touches the
    target; loss is the least b(n) - k over n <= n_max, the most an input
    error can move a kept term by; tail is the least b(n) beyond n_max, the
    floor of the truncated terms.  Beyond the scan window the linear growth
    n*(k - 1/(p-1)) - 2 log_p n dominates any target we accept.
    """
    floors = [_term_floor(p, k, n) for n in range(1, 8 * target + 33)]
    n_max = max((n for n, b in enumerate(floors, 1) if b <= target), default=0)
    return n_max, min(floors[:n_max], default=k) - k, min(floors[n_max:])


@lru_cache(maxsize=128)
def _dynkin_weights(p: int, n_max: int, room: int) -> tuple[int, int, dict]:
    """(D, mod, w): w[m, deg] = (-1)^(m-1) p^D / (m deg deg!) mod p^(room + D),
    with D = max v_p(m deg deg!), so that every weight is an integer."""
    denom = {(m, deg): m * deg * factorial(deg) for deg in range(1, n_max + 1) for m in range(1, deg + 1)}
    big_d = max(_vp(c, p) for c in denom.values())
    mod = p ** (room + big_d)
    weights = {}
    for (m, deg), c in denom.items():
        e = _vp(c, p)
        weights[m, deg] = (-1) ** (m - 1) * p ** (big_d - e) * pow(c // p**e, -1, mod) % mod
    return big_d, mod, weights


def _ad_int(x: list[list[int]], mod: int) -> list[list[int]]:
    """ad(x) on row-major flattened matrices: row (i, j), column (k, l) holds
    (x E_kl - E_kl x)_ij."""
    d = len(x)
    return [
        [
            ((x[i][k] if j == l else 0) - (x[l][j] if i == k else 0)) % mod
            for k in range(d)
            for l in range(d)
        ]
        for i in range(d)
        for j in range(d)
    ]


def _bch_dynkin(x: PadicMatrix, y: PadicMatrix, k: int) -> PadicMatrix:
    """The Dynkin series on integer representatives; see the module docstring."""
    ctx, d = x.ctx, x.dim
    p, n_prec = ctx.p, ctx.precision
    n_max, loss, tail = _dynkin_cutoff(p, k, n_prec)
    if n_max < 1:
        return PadicMatrix.zeros(ctx, d)
    least = min(e.v + e.digits for e in x.flat() + y.flat() if not e.is_zero)
    cert = min(least + loss, tail)
    big_d, mod, weights = _dynkin_weights(p, n_max, cert + n_prec)
    xi, yi = ([[0 if e.is_zero else e.unit * p**e.v for e in r] for r in m.rows] for m in (x, y))
    adx, ady = _ad_int(xi, mod), _ad_int(yi, mod)
    # O'_s = s! sum_{P+q=s} ad(x)^P ad(y)^q / (P! q!) is the s-th derivative
    # of e^(t ad x) e^(t ad y) at 0, so O'_(s+1) = ad(x) O'_s + O'_s ad(y).
    # wide[i] is row i of [O'_1 | O'_2 | ... | O'_(n_max - 1)].
    ady_cols = list(zip(*ady))
    op = [[(a + b) % mod for a, b in zip(ra, rb)] for ra, rb in zip(adx, ady)]
    wide = [list(r) for r in op]
    for _ in range(2, n_max):
        cols = list(zip(*op))
        op = [
            [(sum(map(mul, ra, c)) + sum(map(mul, ro, cb))) % mod for c, cb in zip(cols, ady_cols)]
            for ra, ro in zip(adx, op)
        ]
        for w, r in zip(wide, op):
            w.extend(r)
    # V_1(1) = x + y, V_1(deg) = deg ad(x)^(deg-1) y
    layer = {1: [(u + w) % mod for ru, rw in zip(xi, yi) for u, w in zip(ru, rw)]}
    vec = [w for r in yi for w in r]
    for deg in range(2, n_max + 1):
        vec = [sum(map(mul, r, vec)) % mod for r in adx]
        layer[deg] = [deg * w % mod for w in vec]
    terms = []
    for m in range(1, n_max + 1):
        terms.extend((weights[m, deg], vm) for deg, vm in layer.items())
        # V_(m+1)(deg) = sum_s C(deg, s) O'_s V_m(deg - s): one dot product per
        # row of `wide` against the stacked, binomial-scaled V_m
        nxt = {}
        for deg in range(m + 1, n_max + 1):
            stacked = [comb(deg, s) * u for s in range(1, deg - m + 1) for u in layer[deg - s]]
            nxt[deg] = [sum(map(mul, w, stacked)) % mod for w in wide]
        layer = nxt
    cs = [c for c, _ in terms]
    total = [sum(map(mul, cs, col)) % mod for col in zip(*(v for _, v in terms))]
    return PadicMatrix.from_flat(ctx, d, [_certified(t // p**big_d, cert, ctx) for t in total])


def _certified(z: int, cert: int, ctx: PadicContext) -> PadicScalar:
    """The entry z, known mod p^(cert + N), certified mod p^cert."""
    p, n_prec = ctx.p, ctx.precision
    if z % p**cert == 0:
        if cert >= n_prec:
            return ctx.zero()
        raise PrecisionExhausted(f"dynkin entry is O(p^{cert}), below {n_prec} digits")
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
    key = mode.strip().lower()
    if key in ("direct",):
        _require_deep(x, "bch")
        _require_deep(y, "bch")
        return log(exp(x) @ exp(y))
    if key not in ("dynkin", "dynkin_series"):
        raise ValueError(f"unknown bch mode: {mode!r}")
    kx = _require_deep(x, "bch")
    ky = _require_deep(y, "bch")
    if kx == float("inf"):
        return y.copy()
    if ky == float("inf"):
        return x.copy()
    return _bch_dynkin(x, y, min(kx, ky))


# ---- congruence balls --------------------------------------------------------


def ball_membership(g: PadicMatrix, spec: GroupSpec, k: int) -> bool:
    """g in K^G_k: ||g - e|| <= p^(-k) and the group equations vanish.

    Raises PrecisionExhausted when the certified digits of g cannot decide
    ||g - e|| <= p^(-k).
    """
    if k < 0:
        raise ValueError("ball level must be >= 0")
    if not g.congruent_mod(PadicMatrix.identity(g.ctx, g.dim), k):
        return False
    return spec.in_group(g)


# ---- horospherical factorization ---------------------------------------------

MAX_FACTOR_ROUNDS = 64


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
    each round.  Accumulates F = f_0 f_1 ... and H = ... h_1 h_0; stops when
    the residual is the identity at working precision, so F H = g mod p^N.
    """
    ctx = g.ctx
    n_prec = ctx.precision
    if k < 2:
        raise DomainError("factorization needs k >= 2")
    ident = PadicMatrix.identity(ctx, g.dim)
    f_acc = ident
    h_acc = ident
    resid = g
    prev_v = None
    for rounds in range(MAX_FACTOR_ROUNDS):
        y = resid.add(-ident, add_absorb)
        v_res = y.min_valuation()
        if v_res == float("inf") or v_res >= n_prec:
            return FactorResult(f_acc, h_acc, rounds)
        if v_res < k:
            raise DomainError(
                f"residual entries at valuation {v_res}, outside K^G_{k}"
            )
        if prev_v is not None and v_res <= prev_v:
            raise NoConvergence(
                f"residual stalled at valuation {v_res} (inconsistent decomposition?)"
            )
        prev_v = v_res
        x_log = _log_series(y)
        coords = dec.coordinates(x_log)
        zero = ctx.zero()
        plus = [c if cls == "UNSTABLE" else zero for c, cls in zip(coords, dec.classes)]
        rest = [zero if cls == "UNSTABLE" else c for c, cls in zip(coords, dec.classes)]
        v_part = dec.combination(plus)
        w_part = dec.combination(rest)
        f_i = exp(v_part)
        h_i = exp(w_part)
        f_acc = f_acc.matmul(f_i, add_absorb)
        h_acc = h_i.matmul(h_acc, add_absorb)
        resid = f_i.inverse().matmul(resid, add_absorb).matmul(h_i.inverse(), add_absorb)
    raise NoConvergence("factorization exceeded the round budget")
