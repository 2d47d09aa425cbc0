"""Exponential geometry of p-adic matrix groups near the identity.

exp and log are mutually inverse isometries between the algebra ball
{||X|| <= p^-2} and the group ball {||g - e|| <= p^-2}: ultrametrically, the
n >= 2 series tails are strictly smaller than the leading term, because
|n!|_p >= p^(-n/(p-1)) and the entries start at valuation 2.  The same
estimate truncates every series here with a certified tail bound.

Baker-Campbell-Hausdorff comes in two independently implemented modes:
DIRECT is log(exp x exp y); DYNKIN_SERIES evaluates Dynkin's nested-commutator
expansion, organized as a dynamic program over blocks ad(x)^P ad(y)^q / (P!q!)
so the composition sum costs O(n_max^3) operator applications instead of an
exponential word enumeration.  Agreement of the two modes at certified
precision is a core test oracle downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DomainError, NoConvergence
from .matrix import PadicMatrix, add_absorb, add_rank, eliminate, zp_module_basis
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
            break
        acc = acc.add(term, add_absorb)
        n += 1
    return acc


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
            break
        coeff = ctx.from_rational(1 if n % 2 else -1, n)
        out = out.add(power.scale(coeff), add_absorb)
        n += 1
    return out


def log(g: PadicMatrix) -> PadicMatrix:
    """log(g) = sum (-1)^(n+1) (g-e)^n / n for ||g - e|| <= p^-2."""
    y = g - PadicMatrix.identity(g.ctx, g.dim)
    _require_deep(y, "log")
    return _log_series(y)


# ---- Dynkin BCH --------------------------------------------------------------


def _ad_flat(x: PadicMatrix) -> PadicMatrix:
    """ad(x) as a d^2 x d^2 matrix acting on row-major flattened matrices."""
    ctx, d = x.ctx, x.dim
    cols = []
    for i in range(d):
        for j in range(d):
            e = _unit_matrix(ctx, d, i, j)
            cols.append((x @ e - e @ x).flat())
    n = d * d
    return PadicMatrix(ctx, [[cols[j][i] for j in range(n)] for i in range(n)])


def _apply_flat(op: PadicMatrix, vec: list[PadicScalar]) -> list[PadicScalar]:
    ctx = op.ctx
    out = []
    for i in range(op.dim):
        acc = ctx.zero()
        row = op.rows[i]
        for j in range(op.dim):
            if vec[j].is_zero or row[j].is_zero:
                continue
            acc = add_absorb(acc, row[j] * vec[j])
        out.append(acc)
    return out


def _dynkin_cutoff(p: int, k: int, target: int) -> int:
    """Largest degree whose certified tail bound still touches the target.

    Every degree-n Dynkin term has valuation >= n*k - v_p(n!) - v_p(m) - v_p(n)
    with m <= n blocks, and sum_i v_p(P_i! q_i!) <= v_p(n!) because binomial
    coefficients are integers.  Beyond the scan window the linear growth
    n*(k - 1/(p-1)) - 2 log_p n dominates any target we accept.
    """
    best = 0
    limit = 8 * target + 32
    for n in range(1, limit + 1):
        vfact = 0
        q = n
        while q:
            q //= p
            vfact += q
        logp = 0
        m = 1
        while m * p <= n:
            m *= p
            logp += 1
        vn = 0
        q = n
        while q % p == 0:
            q //= p
            vn += 1
        if n * k - vfact - logp - vn <= target:
            best = n
    return best


def bch(x: PadicMatrix, y: PadicMatrix, mode: str = "direct") -> PadicMatrix:
    """z with exp(z) = exp(x) exp(y), for ||x||, ||y|| <= p^-2.

    mode "direct" computes log(exp x exp y).  mode "dynkin" evaluates the
    Dynkin series sum_n z_n: each degree-n term is a nested commutator
    ad(x)^P1 ad(y)^q1 ... applied to a final letter, weighted by
    (-1)^(m-1)/(m n P_1! q_1! ...); the sum over all block compositions is
    computed by the dynamic program U_m(deg) = sum_s O_s(U_{m-1}(deg - s))
    with block operators O_s = sum_{P+q=s} ad(x)^P ad(y)^q / (P! q!) and
    terminal vectors t_1 = x + y, t_s = ad(x)^(s-1)(y)/(s-1)!.
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
    ctx, d = x.ctx, x.dim
    if kx == float("inf"):
        return y.copy()
    if ky == float("inf"):
        return x.copy()
    k = min(kx, ky)
    n_max = _dynkin_cutoff(ctx.p, k, ctx.precision)
    if n_max < 1:
        return PadicMatrix.zeros(ctx, d)
    adx, ady = _ad_flat(x), _ad_flat(y)
    # A[P] = ad(x)^P / P!, B[q] = ad(y)^q / q!
    ident = PadicMatrix.identity(ctx, d * d)
    a_pows, b_pows = [ident], [ident]
    for n in range(1, n_max + 1):
        inv_n = ctx.from_rational(1, n)
        a_pows.append(a_pows[-1].matmul(adx, add_absorb).scale(inv_n))
        b_pows.append(b_pows[-1].matmul(ady, add_absorb).scale(inv_n))
    ops = {
        s: _op_sum(a_pows, b_pows, s) for s in range(1, n_max)
    }
    # terminal vectors by degree
    terminals: dict[int, list[PadicScalar]] = {1: x.add(y, add_absorb).flat()}
    vec = y.flat()
    fact_inv = ctx.one()
    for s in range(2, n_max + 1):
        vec = _apply_flat(adx, vec)
        fact_inv = fact_inv * ctx.from_rational(1, s - 1)
        terminals[s] = [fact_inv * v for v in vec]
    zero_vec = [ctx.zero()] * (d * d)
    total = list(zero_vec)
    layer = {deg: terminals[deg] for deg in range(1, n_max + 1)}  # U_1
    m = 1
    while True:
        sign = 1 if m % 2 else -1
        for deg, u in layer.items():
            c = ctx.from_rational(sign, m * deg)
            total = [
                add_absorb(t, c * v) if not v.is_zero else t
                for t, v in zip(total, u)
            ]
        m += 1
        if m > n_max:
            break
        nxt: dict[int, list[PadicScalar]] = {}
        for deg in range(m, n_max + 1):
            acc = list(zero_vec)
            for s in range(1, deg - m + 2):
                prev = layer.get(deg - s)
                if prev is None:
                    continue
                contrib = _apply_flat(ops[s], prev)
                acc = [add_absorb(u, w) for u, w in zip(acc, contrib)]
            nxt[deg] = acc
        layer = nxt
        if not layer:
            break
    return PadicMatrix.from_flat(ctx, d, total)


def _op_sum(a_pows, b_pows, s: int) -> PadicMatrix:
    acc = a_pows[0].matmul(b_pows[s], add_absorb)
    for pp in range(1, s + 1):
        acc = acc.add(a_pows[pp].matmul(b_pows[s - pp], add_absorb), add_absorb)
    return acc


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
