"""Closed-form spectral constants for the quantitative bounds.

Everything in this module is a plain double-precision evaluation; the only
p-adic input is the matrix handed to cartan_valuations.  The pieces are

  * the Harish-Chandra function of PGL_2(Q_p) at diag(p^k, 1),
  * Cartan (elementary divisor) valuations of an invertible matrix,
  * the matrix-coefficient decay bound built from both,
  * mixing and equidistribution envelopes with rate (c, alpha, delta),
  * the headline constant kappa and the bound it yields from an entropy gap.

Sign convention: the decay factor in kappa is (1 - ||a||^(-delta))^(-1),
the sum of the geometric series sum_n ||a||^(-delta n).  With the exponent
written positive the factor would be negative for ||a|| > 1, which is the
regime every other formula assumes.  ||a|| is the max-norm, so for
a = diag(1/p, p) we have ||a|| = p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DivergentSeries,
    NegativeExponent,
    NegativeGap,
    SingularAtPrecision,
    _finite_real,
)
from .matrix import PadicMatrix, _invert, fraction_val
from .scalar import _is_prime


def xi_pgl2(p: int, k: int) -> float:
    """Harish-Chandra function of PGL_2(Q_p) at the element diag(p^k, 1).

    Xi(p^k) = p^(-k/2) * (k(p-1) + p + 1) / (p + 1).  Equals 1 at k = 0 and
    decays like k p^(-k/2).

    Args:
        p: the residue prime.
        k: nonnegative Cartan exponent.
    """
    if k < 0:
        raise ValueError(f"Cartan exponent must be >= 0, got {k}")
    return p ** (-k / 2.0) * (k * (p - 1) + p + 1) / (p + 1)


def cartan_valuations(g: PadicMatrix) -> list[int]:
    """Valuations of the diagonal Cartan factor of g, sorted descending.

    The elementary divisors of g over Z_p are read off by valuation-pivot
    elimination: repeatedly take a minimum-valuation entry as pivot and
    clear its row and column.  The pivot valuations are the elementary
    divisor valuations; the Cartan diagonal is their descending reordering,
    so diag(p, 1/p) gives (1, -1) and any unimodular-integral g gives all
    zeros.

    The elimination runs on the rational lift G of g (as_rational lifts -1
    to p^N - 1), and each entry g_kj is certified only modulo p^P_kj, P_kj
    its absolute precision v + digits.  Any matrix within those precisions
    is G + D = G (I + G^-1 D), and (G^-1 D)_ij has valuation at least
    min_k val((G^-1)_ik) + P_kj.  When every such sum is positive, I + G^-1 D
    lies in GL_n(Z_p) and all those matrices share G's divisors; otherwise
    they are not determined, as for a singular g whose lift has a spurious
    divisor at valuation N.

    Raises:
        SingularAtPrecision: g has a zero elementary divisor, or divisors
            its certified digits do not determine.
    """
    val = fraction_val(g.ctx.p)
    lifted = [[x.as_rational() for x in row] for row in g.rows]
    inverse, pivots = _invert(lifted, Fraction(0), Fraction(1), val)
    if inverse is None:
        raise SingularAtPrecision("matrix has a zero elementary divisor")
    row_precision = [min(x.abs_precision() for x in row) for row in g.rows]
    for inv_row in inverse:
        for k, x in enumerate(inv_row):
            if x and val(x) + row_precision[k] <= 0:
                raise SingularAtPrecision(
                    f"elementary divisors are not determined: (g^-1) entry at "
                    f"valuation {val(x)} against row {k} certified modulo "
                    f"p^{row_precision[k]}"
                )
    return sorted(map(val, pivots), reverse=True)


def oh_bound(p: int, cartan: list[int], dim_kv: int, dim_kw: int) -> float:
    """Matrix-coefficient decay bound from Cartan data.

    sqrt(dim_kv * dim_kw) times the product of Xi(p^(k_i - k_{m+1-i})) over
    the first floor(m/2) indices of a descending Cartan list k_1 >= ... >= k_m.

    Raises:
        NegativeExponent: some paired difference is negative (list unsorted).
    """
    m = len(cartan)
    if m < 2:
        raise ValueError(f"need m >= 2 Cartan entries, got {m}")
    if dim_kv < 1 or dim_kw < 1:
        raise ValueError("fixed-vector space dimensions must be >= 1")
    product = math.sqrt(dim_kv * dim_kw)
    for i in range(m // 2):
        diff = cartan[i] - cartan[m - 1 - i]
        if diff < 0:
            raise NegativeExponent(
                f"k_{i + 1} - k_{m - i} = {diff} < 0: Cartan list must descend"
            )
        product *= xi_pgl2(p, diff)
    return product


@dataclass(frozen=True)
class ConstantsBundle:
    """The setup every constant below reads, validated once: each constant
    takes the bundle and only its per-call levels.

    (c, alpha, delta) is the exponential mixing rate,
    |corr| <= c p^((l_f+l_h) alpha) ||a||^(-delta n); p is a prime;
    entropy_nats is |nu| ln p; base_ball_measure is the Haar mass of the
    level-2 congruence ball; a_norm the max-norm of a.  The bundle holds no
    smoothness level, so the shift of l_f to l_f + |nu| between plain and
    adapted balls is the caller's (``padlab bound --lf-shift`` makes it).
    """

    c: float
    alpha: float
    delta: float
    p: int
    d: int
    entropy_nats: float
    base_ball_measure: float
    a_norm: float
    nu_total: int

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.c, self.alpha, self.delta)):
            raise ValueError("c, alpha and delta must all be finite and strictly positive")
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.d < 1:
            raise ValueError("group dimension must be >= 1")
        if not 0 <= self.entropy_nats < math.inf:
            raise ValueError("entropy must be finite and >= 0")
        if not 0 < self.base_ball_measure <= 1:
            raise ValueError("base ball measure must lie in (0, 1]")
        if not 0 < self.a_norm < math.inf:
            raise ValueError("||a|| must be finite and positive")
        if self.nu_total < 0:
            raise ValueError("|nu| must be >= 0")


def mixing_bound(bundle: ConstantsBundle, l_f: int, l_h: int, n: int) -> float:
    """Mixing envelope c p^((l_f + l_h) alpha) ||a||^(-delta n) at time n."""
    if n < 0:
        raise ValueError("time n must be >= 0")
    if bundle.a_norm <= 1:
        raise ValueError("||a|| must exceed 1 for decay")
    return bundle.c * bundle.p ** ((l_f + l_h) * bundle.alpha) * bundle.a_norm ** (-bundle.delta * n)


def ball_measure_at(bundle: ConstantsBundle, k: int) -> float:
    """Haar mass of the level-k ball: each level splits into p^d translates."""
    if k < 2:
        raise ValueError(f"ball levels start at 2, got {k}")
    return bundle.base_ball_measure * float(bundle.p) ** (-bundle.d * (k - 2))


def test_vector_norm(bundle: ConstantsBundle, l_f: int) -> float:
    """The normalized-indicator ingredient ||h_x - 1|| <= p^(d(l_f+|nu|)/2)/sqrt(base)."""
    if l_f < 0:
        raise ValueError("smoothness level l_f must be >= 0")
    return (
        bundle.p ** (bundle.d * (l_f + bundle.nu_total) / 2.0)
        / math.sqrt(bundle.base_ball_measure)
    )


def equidistribution_bound(bundle: ConstantsBundle, l_f: int, n: int) -> float:
    """Decay bound for smooth test functions, per unit L2 norm.

    (c / sqrt(base)) p^((alpha + d/2)|nu| + 2 alpha) p^(l_f (2 alpha + d/2))
    ||a||^(-delta n).  Consecutive n differ by the exact factor
    ||a||^(-delta).
    """
    if l_f < 0:
        raise ValueError("smoothness level l_f must be >= 0")
    if n < 0:
        raise ValueError("time n must be >= 0")
    alpha = bundle.alpha
    lead = bundle.c / math.sqrt(bundle.base_ball_measure)
    nu_power = float(bundle.p) ** ((alpha + bundle.d / 2.0) * bundle.nu_total + 2.0 * alpha)
    lf_power = float(bundle.p) ** (l_f * (2.0 * alpha + bundle.d / 2.0))
    return lead * nu_power * lf_power * bundle.a_norm ** (-bundle.delta * n)


def kappa(bundle: ConstantsBundle) -> float:
    """The headline constant.

    kappa = sqrt(2) c p^(2 alpha) base^(-1/2) (1 - ||a||^(-delta))^(-1)
            exp((3 alpha + d) h).

    Raises:
        DivergentSeries: ||a|| <= 1, where the geometric series diverges.
        ValueError: the series term 1 - ||a||^(-delta) rounds to 0, or
            kappa is not a finite double.
    """
    if bundle.a_norm <= 1:
        raise DivergentSeries(
            f"||a|| = {bundle.a_norm} <= 1: the decay series does not converge"
        )
    term = 1.0 - bundle.a_norm ** (-bundle.delta)
    if term == 0:
        raise ValueError(f"the series term 1 - ||a||^(-delta) rounds to 0 at "
                         f"||a|| = {bundle.a_norm}, delta = {bundle.delta}")
    series = 1.0 / term
    try:
        value = (
            math.sqrt(2.0)
            * bundle.c
            * bundle.p ** (2.0 * bundle.alpha)
            / math.sqrt(bundle.base_ball_measure)
            * series
            * math.exp((3.0 * bundle.alpha + bundle.d) * bundle.entropy_nats)
        )
    except OverflowError:  # a power past the double range
        value = math.inf
    return _finite_real(value, "kappa")


def theorem1_rhs(bundle: ConstantsBundle, l_f: int, f_l2_norm: float, gap: float) -> float:
    """Bound on |integral against Haar - integral against mu|.

    kappa p^((2 alpha + d/2) l_f) ||f||_{L2} sqrt(gap), with kappa that of
    the bundle and gap the entropy deficit from the maximal-entropy measure.

    Raises:
        ValueError: the norm or the gap is NaN or infinite, or the bound is
            not a finite double.
        NegativeGap: gap < 0.
        DivergentSeries: ||a|| <= 1, as for kappa.
    """
    kappa_value = kappa(bundle)
    if not all(map(math.isfinite, (f_l2_norm, gap))):
        raise ValueError("the norm and the gap must be finite reals")
    if gap < 0:
        raise NegativeGap(f"entropy gap must be >= 0, got {gap}")
    if l_f < 0:
        raise ValueError("smoothness level l_f must be >= 0")
    if f_l2_norm < 0:
        raise ValueError("norm must be >= 0")
    exponent = (2.0 * bundle.alpha + bundle.d / 2.0) * l_f
    try:
        value = kappa_value * bundle.p ** exponent * f_l2_norm * math.sqrt(gap)
    except OverflowError:  # a power past the double range
        value = math.inf
    return _finite_real(value, "the bound")
