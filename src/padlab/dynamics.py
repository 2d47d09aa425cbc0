"""Horospherical structure of conjugation dynamics on congruence balls.

For a group element a, the adjoint map Ad(a): X -> a X a^-1 acts on the Lie
algebra; when it diagonalizes over Q_p with some eigenvalue off the unit
circle, the algebra splits into stable (|lambda| < 1), neutral (|lambda| = 1)
and unstable (|lambda| > 1) eigenlines.  Everything downstream is bookkeeping
on the valuations nu_i = v_p(lambda_i) of the stable eigenvalues: entropy,
Bowen ball shapes, partition atoms, and the module character all reduce to
the total contraction |nu| = sum nu_i.

`decompose` has two paths and chooses one itself: it takes det a, then
the `_eigenvectors` of a, the roots of chi_a and, for each, the `nullspace`
vectors of a less the root, as many as its multiplicity.  When they are
found, a diagonalizes over Q_p at working precision, a = U diag(lambda) U^-1
with U those eigenvectors, and `_eigendata_lines` writes the lines from that
d x d eigendata: Ad(a) maps (U e_i)(e_j U^-1) to lambda_i / lambda_j times
itself and fixes each U H_k U^-1 (Fulton and Harris, Representation Theory,
Lecture 15).  Each line's coordinate row is written from U's column and
U^-1's row.  Lines whose eigenvalues differ by a zero form one eigenspace,
and `zp_module_basis` saturates their coordinate rows; a singular U or an
eigenspace that saturates short is refused as dependent lines.  When they
are not found, as on flows whose chi_a does not split over Q_p, `_ad_lines`
writes the dim_g x dim_g matrix Ad(a) in the algebra coordinates GroupSpec
reads off the entries and takes its `_eigenvectors`.  Either way an
eigenvalue's lines are a Z_p-basis of its eigenspace's integral points, each
with an exact 1 at a coordinate of its own and the exact zero at the other
lines' own coordinates, so a diagonal flow gets the same lines on both.  A
decomposition keeps each line as that lie_basis coordinate row and takes the
pivots of the rows by `eliminate` when it is built: it refuses dependent
lines, and the pivot valuations sum to lattice_defect.  The lines written on
the entries by `GroupSpec.element`, and the inverse of the rows, which
coordinates in the eigenbasis read, are built on first use.

Both window conventions read one rule, `_window_levels`: the Bowen ball
bowen_ball(dec, k, n) holds the points staying k-close for times 0..n, and
oracle window m those for times 0..m-1, the ball of length m - 1.  Staying
in the level-k ball at time l costs the unstable line i l|nu_i| extra
digits, so over times 0..n line i needs k + n max(0, -nu_i).

The Bowen counting oracle deliberately has two routes.  FACTORED reads counts
off the eigenvalue valuations.  FULL reads only a, never the eigendata, so
agreement of the two is a meaningful check.  Window m's condition, a^l X a^-l
in K_k for 0 <= l < m, is Z_p-linear in X, so its count is p^(dim_g (level -
k)) over the index of one lattice.  FULL clears the denominators of a and
a^-1, stacks the integer maps of X to a^l X a^-l, l = 1..m-1, scaled to one
power of p, and reads the index off the pivot valuations of `eliminate`,
which global minimal pivoting makes the elementary divisors over Z_(p)
(Cohen, A Course in Computational Algebraic Number Theory, 2.4).  It refuses
a level only when the window is no union of cosets of K_level.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    DomainError,
    LevelTooSmall,
    NoHyperbolicity,
    NotDiagonalizable,
    NotSplitAtPrecision,
    SingularAtPrecision,
)
from .liegroup import GroupSpec, _reps, exp
from .matrix import (
    PadicMatrix,
    _SINGULAR,
    _dot,
    _invert,
    _sort_roots,
    _vp,
    combine,
    eliminate,
    fraction_val,
    hensel_roots,
    nullspace,
    zp_module_basis,
)
from .scalar import PadicContext, PadicScalar

_DEPENDENT = "no eigenbasis at working precision: the eigenlines are dependent"


@dataclass(frozen=True)
class HorosphericalDecomposition:
    """Eigenline data of Ad(a) on a group's algebra, read off a's own
    eigendata or off Ad(a) itself (see `decompose`).

    Stored: a, group, eigenvalues and lines, the eigenlines as lie_basis
    coordinate rows: row i spans an eigenline of eigenvalue eigenvalues[i]
    in the `nullspace` form, integral with an exact 1 at a coordinate of
    its own; lines are sorted by (valuation, unit lift) of the eigenvalue,
    and each eigenvalue's lines are a Z_p-basis of its eigenspace's
    integral points.  Derived: basis, each row written on the entries by
    `GroupSpec.element`, once; nu[i] = v_p(eigenvalues[i]); classes[i],
    "STABLE", "NEUTRAL" or "UNSTABLE" by the sign of nu[i], for output (the
    rules read the sign); nu_total, the summed stable contraction; and,
    once each, the pivots of `eliminate` on the rows, whose valuations sum
    to lattice_defect, the index of the eigenlattice sum in the integral
    lattice (never negative, as the lines are integral), and on the first
    `coordinates` call the inverse of the rows.  Construction raises
    ValueError unless there are dim_g rows of dim_g coordinates each and
    dim_g eigenvalues, and NotDiagonalizable when the lines are dependent
    at working precision, which `eliminate` on the rows decides.
    """

    a: PadicMatrix
    group: GroupSpec
    eigenvalues: tuple
    lines: tuple

    def __post_init__(self) -> None:
        dim_g = self.group.dim_g
        if len(self.lines) != dim_g or len(self.eigenvalues) != dim_g:
            raise ValueError(f"{len(self.lines)} lines and {len(self.eigenvalues)} eigenvalues "
                             f"on an algebra of dimension {dim_g}")
        for row in self.lines:
            if len(row) != dim_g:
                raise ValueError(f"a line of {len(row)} coordinates on an algebra of dimension {dim_g}")
        if len(self._pivots) < dim_g:
            raise NotDiagonalizable(_DEPENDENT)

    @cached_property
    def basis(self) -> tuple:
        return tuple(self.group.element(row) for row in self.lines)

    @property
    def ctx(self) -> PadicContext:
        return self.group.ctx

    @property
    def nu(self) -> tuple:
        return tuple(lam.v for lam in self.eigenvalues)

    @property
    def classes(self) -> tuple:
        return tuple("STABLE" if v > 0 else "UNSTABLE" if v < 0 else "NEUTRAL" for v in self.nu)

    @property
    def nu_total(self) -> int:
        return sum(v for v in self.nu if v > 0)

    @cached_property
    def _pivots(self) -> list:
        """The pivot entries of `eliminate` on a copy of lines, those `_invert`
        picks: its pivot search and row updates never read the identity block."""
        rows = [list(r) for r in self.lines]
        return [rows[r][c] for r, c in eliminate(rows, self.ctx.zero())]

    @property
    def lattice_defect(self) -> int:
        return sum(x.v for x in self._pivots)

    @cached_property
    def _inverse(self) -> list:
        """The inverse of lines, built on the first `coordinates` call; it
        exists, as `_invert` takes the pivots the construction checked."""
        return _invert(self.lines, self.ctx.zero(), self.ctx.one())[0]

    def coordinates(self, x: PadicMatrix) -> list:
        """Coordinates of x in the eigenbasis; on sl, of x less its trace at
        x_dd (see GroupSpec._read_off), so a residual off the algebra has some."""
        coords, _ = self.group._read_off(x.rows)
        zero = self.ctx.zero()
        return [_dot(coords, col, zero) for col in zip(*self._inverse)]

    def max_exponent(self) -> int:
        """max |v_p(lambda)| over all eigenlines (0 when none are hyperbolic)."""
        return max((abs(v) for v in self.nu), default=0)


def decompose(a: PadicMatrix, spec: GroupSpec) -> HorosphericalDecomposition:
    """Diagonalize Ad(a) on spec's algebra and classify its eigenlines.

    The path is chosen here (module docstring): det a is taken first, by the
    pivots of `eliminate` on a's rows, the pivots `a.inverse()` would take,
    so a singular flow raises SingularAtPrecision before any eigenvalue is
    divided.  Then `_eigenvectors` on a, with chi_a's constant coefficient
    read off (-1)^d det a where Berkowitz leaves it a zero, decides: when it
    returns, the lines come from a's own eigendata (`_eigendata_lines`), and
    when it refuses, from Ad(a)'s (`_ad_lines`).  Either way they are stored
    as the lie_basis coordinate rows the path computed.

    Raises SingularAtPrecision when a has no inverse at working precision;
    NotDiagonalizable, on the Ad path, when the characteristic polynomial
    of Ad(a) does not split over Q_p at working precision or an eigenspace
    comes up short, and on either path when the eigenlines are dependent
    at working precision (`_eigendata_lines` or the construction of the
    decomposition decides); NoHyperbolicity when every eigenvalue is a
    unit; and DomainError when a fails to normalize the algebra.
    """
    if a.dim != spec.dim:
        raise ValueError(f"a {a.dim}x{a.dim} flow on a group of {spec.dim}x{spec.dim} matrices")
    det = a.det()
    if det.is_zero:
        raise SingularAtPrecision(_SINGULAR)
    chi = a.char_poly()
    if chi[0].is_zero:
        # Berkowitz cancelled every certified digit of chi_a(0) = (-1)^d det a;
        # `eliminate` certifies det a at its true valuation (a is invertible)
        chi[0] = -det if a.dim % 2 else det
    try:
        lams, cols = _eigenvectors(a, chi)
    except (NotSplitAtPrecision, NotDiagonalizable):
        eigenvalues, lines = _ad_lines(a, spec)
    else:
        eigenvalues, lines = _eigendata_lines(spec, lams, cols)
    dec = HorosphericalDecomposition(a, spec, tuple(eigenvalues), tuple(map(tuple, lines)))
    if dec.nu_total == 0:
        raise NoHyperbolicity("every adjoint eigenvalue is a p-adic unit")
    return dec


def _eigenvectors(m: PadicMatrix, chi: list) -> tuple[list, list]:
    """(eigenvalues, vectors) of m, chi its characteristic polynomial: each
    root lambda of chi as often as its multiplicity, and the `nullspace`
    vectors of m - lambda.  Raises NotSplitAtPrecision when chi does not
    split over Q_p at working precision, and NotDiagonalizable when some
    m - lambda has fewer kernel vectors than lambda's multiplicity."""
    lams, vecs = [], []
    for lam, mult in hensel_roots(chi):
        # m - lam, subtracted on the diagonal alone.  Entries of Ad(a) carry
        # fewer than full digits, so subtracting an exact eigenvalue can
        # cancel every certified digit; the kernel never pivots on such an
        # O(p^c)
        shifted = m.copy()
        for i in range(m.dim):
            shifted.rows[i][i] -= lam
        kernel = nullspace(shifted)
        if len(kernel) != mult:
            raise NotDiagonalizable(
                f"eigenvalue with multiplicity {mult} has only "
                f"{len(kernel)} independent eigenvectors"
            )
        lams += [lam] * mult
        vecs += kernel
    return lams, vecs


def _ad_lines(a: PadicMatrix, spec: GroupSpec) -> tuple[list, list]:
    """(eigenvalues, lines) of Ad(a), written as the dim_g x dim_g matrix of
    its images of the lie_basis in the algebra coordinates, the lines its
    `_eigenvectors`.  Raises DomainError when a fails to normalize the
    algebra, and NotDiagonalizable when chi_Ad does not split over Q_p at
    working precision or an eigenspace comes up short."""
    dim_g, a_inv = spec.dim_g, a.inverse()
    cols = []
    for b in spec.lie_basis:
        image = a @ b @ a_inv
        co = spec.algebra_coordinates(image)
        if co is None:
            raise DomainError("a does not normalize the algebra")
        cols.append(co)
    ad_mat = PadicMatrix._own(spec.ctx, [[cols[j][i] for j in range(dim_g)] for i in range(dim_g)])
    chi = ad_mat.char_poly()
    # det Ad(a) = 1 and the spectrum {lambda_i / lambda_j} is closed under
    # inversion, so c_j = (-1)^n c_(n-j), n = dim_g.  Berkowitz can cancel
    # every certified digit of a low coefficient (c_0 = (-1)^n may come out
    # O(p^-c)): read it off its mirror image where that is certified further
    for j in range((dim_g + 1) // 2):
        if chi[dim_g - j].abs_precision() > chi[j].abs_precision():
            chi[j] = -chi[dim_g - j] if dim_g % 2 else chi[dim_g - j]
    try:
        return _eigenvectors(ad_mat, chi)
    except NotSplitAtPrecision as err:
        raise NotDiagonalizable(f"adjoint spectrum does not split: {err}") from err


def _eigendata_lines(spec: GroupSpec, lams: list, cols: list) -> tuple[list, list]:
    """(eigenvalues, lines) of Ad(a) read off a = U diag(lambda) U^-1, lams
    and cols the `_eigenvectors` of a, the lines as lie_basis coordinate
    rows.  Raises NotDiagonalizable when U is singular or an eigenspace's
    lines are dependent.

    The line (U e_i)(e_j U^-1) has eigenvalue lambda_i / lambda_j, and on sl
    the lines U H_k U^-1 take the place of i = j, with eigenvalue 1.  Each
    line's coordinate row is written from U's column and U^-1's row: the
    products x_r y_c, an exact zero x giving a row of itself, read off by
    `GroupSpec._coordinates` (on sl, under its trace refusal), and on sl
    each H_k entry is (x_r y_c) + (-(x'_r y'_c)).  Lines whose eigenvalues
    differ by a zero form one eigenspace, and `zp_module_basis` saturates
    its coordinate rows to a Z_p-basis of its integral points, the rows
    kept.  The eigenspace keeps the value with the fewest digits: two values
    that differ by a zero agree only to the lesser precision of the two, and
    that value claims no digit that one of the lines lacks.
    """
    ctx, d = spec.ctx, spec.dim
    u_inv, _ = _invert([list(r) for r in zip(*cols)], ctx.zero(), ctx.one())
    if u_inv is None:
        raise NotDiagonalizable(_DEPENDENT)
    one = ctx.one()

    def entries(i, j):  # of (U e_i)(e_j U^-1)
        row = u_inv[j]
        return [[x * y for y in row] if x else [x] * d for x in cols[i]]

    def h_entries(k):  # of U H_k U^-1, as PadicMatrix.__sub__ forms them
        return [[s + (-t) for s, t in zip(r, r2)] for r, r2 in zip(entries(k, k), entries(k + 1, k + 1))]

    pairs = [(one if i == j else lams[i] / lams[j], entries(i, j))
             for i in range(d) for j in range(d) if i != j or spec.family == "gl"]
    if spec.family == "sl":
        pairs += [(one, h_entries(k)) for k in range(d - 1)]
    groups: list[list] = []  # [eigenvalue, its coordinate rows]
    for mu, x in pairs:
        row = spec._coordinates(x)
        # nonzero values of other valuations differ by their lower one's certified leading digit
        group = next((g for g in groups if g[0].v == mu.v and (g[0] - mu).is_zero), None)
        if group is None:
            groups.append([mu, [row]])
            continue
        group[1].append(row)
        if mu.digits < group[0].digits:
            group[0] = mu
    _sort_roots(groups)
    eigenvalues, lines = [], []
    for mu, rows in groups:
        basis = [] if None in rows else zp_module_basis(rows)
        if len(basis) < len(rows):
            raise NotDiagonalizable(_DEPENDENT)
        eigenvalues += [mu] * len(basis)
        lines += basis
    return eigenvalues, lines


def entropy(dec: HorosphericalDecomposition) -> float:
    """Entropy of the conjugation map for Haar measure: |nu| ln p."""
    return dec.nu_total * math.log(dec.ctx.p)


def mod_character(dec: HorosphericalDecomposition) -> Fraction:
    """Module of the expanding action: p^|nu|."""
    return Fraction(dec.ctx.p**dec.nu_total)


def min_partition_level(dec: HorosphericalDecomposition) -> int:
    """Smallest level whose congruence partition separates the atoms."""
    return dec.nu_total + 2


def _window_levels(dec: HorosphericalDecomposition, k: int, n: int) -> tuple:
    """Per-line levels of the points staying k-close for times 0..n (see the
    module docstring), after checking the ball level k."""
    least = max(2, dec.max_exponent() + 2)
    if k < least:
        raise LevelTooSmall(f"ball level {k} below the adapted minimum {least}")
    return tuple(k + n * max(0, -v) for v in dec.nu)


def bowen_ball(dec: HorosphericalDecomposition, k: int, n: int) -> tuple:
    """Per-line levels of the adapted ball of the points staying k-close for
    time 0..n: {X : v_p(coordinate_i) >= levels[i]}.

    Membership of X for the window means a^l exp(X) a^-l stays in the level-k
    ball for 0 <= l <= n (see `_window_levels`).
    """
    levels = _window_levels(dec, k, n)
    if n < 1:
        raise DomainError("window length must be >= 1")
    return levels


def bowen_volume_ratio(dec: HorosphericalDecomposition, n: int) -> Fraction:
    """Haar volume of the length-n Bowen ball relative to length 1."""
    if n < 1:
        raise DomainError("window length must be >= 1")
    return Fraction(1, dec.ctx.p ** ((n - 1) * dec.nu_total))


def bowen_count_oracle(
    dec: HorosphericalDecomposition, k: int, n: int, level: int, mode: str
) -> "BowenCounts":
    """Count lattice points of successive Bowen windows modulo p^level.

    For window length m the count is #{X in K_k/K_level :
    a^l X a^-l in K_k for 0 <= l < m}; counts are reported for m = 1..n.
    ratio_m = count_m/count_1 lies between closed_m p^-lattice_defect and
    closed_m = p^(-(m-1)|nu|), so it equals closed_m when lattice_defect is
    0: the adapted windows of the eigenlattice, of index p^lattice_defect,
    lie in K_k's; and window m meets the unstable subspace U inside
    Ad(a)^-(m-1) of U's integral points, of index p^((m-1)|nu|) in them.

    mode FACTORED multiplies per-eigenline digit counts (valid when the
    eigenbasis spans the full integral lattice, lattice_defect == 0).  mode
    FULL takes window m's index from the elementary divisors of its stacked
    window maps (see `_count_full`), built from a alone, without the
    eigendata.  It assumes the algebra's standard basis splits the entry
    lattice (true for the sl and gl families), and refuses a level at which
    some window is no union of cosets of K_level, so that its count modulo
    p^level is undefined (never at lattice_defect 0).
    """
    counter = _count_factored if check_oracle_args(dec, k, n, level, mode) == "FACTORED" else _count_full
    return counter(dec, k, n, level)


def check_oracle_args(dec: HorosphericalDecomposition, k: int, n: int, level: int, mode: str) -> str:
    """The checks bowen_count_oracle makes of its arguments before it counts:
    the window length, the ball and lattice levels, the mode and, for
    FACTORED, the lattice defect.  Returns the mode, upper-cased."""
    # window n is the ball of times 0..n-1; the lattice must resolve its
    # deepest line
    deepest = max(_window_levels(dec, k, n - 1))
    if n < 1:
        raise DomainError("window length must be >= 1")
    if level <= deepest:
        raise LevelTooSmall(
            f"lattice level {level} cannot resolve a length-{n} window at k={k}"
        )
    key = mode.strip().upper()
    if key not in ("FACTORED", "FULL"):
        raise ValueError(f"unknown oracle mode: {mode!r}")
    if key == "FACTORED" and dec.lattice_defect != 0:
        raise DomainError(
            "factored counting needs an eigenbasis spanning the full lattice"
        )
    return key


@dataclass(frozen=True)
class BowenCounts:
    """Point counts of the windows m = 1..n modulo p^level."""

    mode: str
    level: int
    counts: tuple

    @property
    def ratios(self) -> tuple:
        return tuple(Fraction(c, self.counts[0]) for c in self.counts)


def _count_factored(dec, k, n, level) -> BowenCounts:
    p = dec.ctx.p
    counts = tuple(
        math.prod(p ** max(0, level - req) for req in _window_levels(dec, k, m - 1))
        for m in range(1, n + 1)
    )
    return BowenCounts("FACTORED", level, counts)


def _mul_mod(x, y, mod: int) -> list[list[int]]:
    """x y mod `mod`, on lists of Python integers."""
    cols = list(zip(*y))
    return [[sum(map(operator.mul, r, c)) % mod for c in cols] for r in x]


def _clear(mat: list[list[Fraction]]) -> tuple[int, list[list[int]]]:
    """(D, D mat), D the least common denominator of mat's entries."""
    den = math.lcm(*(x.denominator for row in mat for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in mat]


def _count_full(dec, k, n, level) -> BowenCounts:
    """Window m's count p^(dim_g (level - k) - sum_i max(0, c_m - v_i)).

    With a = A/D, a^-1 = B/E for integer A, B and shift = v_p(D E), a^l X
    a^-l lies in K_k exactly when A^l (X/p^k) B^l vanishes mod p^(l shift).
    The rows of these maps on the lie_basis coordinates, l = 1..m-1, each
    scaled to p^c_m with c_m = (m-1) shift, have the elementary divisors v_i
    over Z_(p) as pivot valuations; reducing them mod p^((n-1) shift) changes
    no term.  A term past level - k leaves the count mod p^level undefined.
    """
    p, val = dec.ctx.p, fraction_val(dec.ctx.p)
    exps = [dec.group.dim_g * (level - k)]  # window 1 is all of K_k
    if n == 1:
        return BowenCounts("FULL", level, (p ** exps[0],))
    a_frac = [[x.as_rational() for x in row] for row in dec.a.rows]
    inv_frac, _ = _invert(a_frac, Fraction(0), Fraction(1), val)
    if inv_frac is None:
        raise DomainError("matrix is singular over the rationals")
    (den_a, a_int), (den_inv, inv_int) = _clear(a_frac), _clear(inv_frac)
    shift = _vp(den_a * den_inv, p)
    mod = p ** ((n - 1) * shift)
    images = [_reps(b) for b in dec.group.lie_basis]  # exact 0 and +-1, as int(as_rational()) reads them
    blocks = []
    for m in range(2, n + 1):
        images = [_mul_mod(_mul_mod(a_int, z, mod), inv_int, mod) for z in images]
        blocks.append(list(zip(*(sum(z, []) for z in images))))
        c_m = (m - 1) * shift
        stack = [[x % p ** (l * shift) * p ** (c_m - l * shift) for x in row]
                 for l, block in enumerate(blocks, 1) for row in block]
        stack = [list(map(Fraction, row)) for row in stack if any(row)]  # a zero row constrains no point
        terms = [max(0, c_m - val(stack[i][j])) for i, j in eliminate(stack, Fraction(0), val=val)]
        if max(terms, default=0) > level - k:
            raise LevelTooSmall(f"window {m} needs p^{k + max(terms)} resolution, lattice has p^{level}")
        exps.append(exps[0] - sum(terms))
    return BowenCounts("FULL", level, tuple(p**x for x in exps))


def atom_representatives(dec: HorosphericalDecomposition, k: int) -> list[PadicMatrix]:
    """Coset representatives exp(sum_i c_i p^(k - nu_i) u_i) over the stable
    lines, c_i ranging over residues mod p^nu_i: p^|nu| group elements that
    are pairwise distinct modulo the level-k ball."""
    least = min_partition_level(dec)
    if k < least:
        raise LevelTooSmall(f"partition level {k} below the minimum {least}")
    ctx = dec.ctx
    stable = [(v, b) for v, b in zip(dec.nu, dec.basis) if v > 0]
    reps: list[PadicMatrix] = []
    combos = [[]]
    for v, _ in stable:
        combos = [c + [r] for c in combos for r in range(ctx.p**v)]
    for digits in combos:
        coords = [ctx.from_rational(c * ctx.p ** (k - v)) for (v, _), c in zip(stable, digits)]
        reps.append(exp(combine([b for _, b in stable], coords)))
    return reps
