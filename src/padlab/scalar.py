"""Exact p-adic scalars with floating valuation.

A nonzero scalar is stored as  x = p^v * u  where v is an integer valuation,
u is a unit kept modulo p^N (N = context precision), and 1 <= known_digits <= N
records how many digits of u are actually certified.  The absolute precision of
x is therefore v + known_digits: we know x modulo p^(v + known_digits) and
nothing beyond.

A zero is the value O(p^c), known modulo p^c only: v is None and `digits`
holds c.  The exact zero is the case c = +inf, stored as digits None; a full
cancellation gives a finite c, as capped-relative p-adics do (Caruso,
"Computations with p-adic numbers", arXiv:1701.06794).  `is_zero` holds for
every zero, and bool(x) is False for the exact zero alone.

The arithmetic mirrors floating point: multiplication is exact on units and
keeps the smaller digit count, addition aligns valuations and can only lose
digits when leading digits cancel.  `+` never raises:

  * an addition that cancels every jointly certified digit is O(p^cert),
    cert the joint absolute precision, but for the mirror-image rule: two
    full-precision units at one valuation whose representatives sum to 0
    mod p^N give the exact zero.  That is the one place where `+` claims
    more than the joint certificate: 1 + (3^12 - 1) at p = 3, N = 12 reads
    as the exact zero, where the sum is 3^12, known only as O(3^12) (two
    strict xfails in the tests pin this);
  * O(p^c) + x keeps only the digits of x below p^c;
  * O(p^c) * x is O(p^(c + v(x))).

Dividing by O(p^c) raises PrecisionExhausted, and so does reading O(p^c),
c < N, as a rational (`as_rational`) or deciding a congruence it leaves open.

No code mutates a scalar once it is built, so values are shared freely:
each context builds its exact zero and its one once, and `zero()` and
`one()` return those two objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DivisionByZero, PrecisionExhausted

DEFAULT_PRECISION = 12


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every witness above: Miller-Rabin with
# them decides each n below it (Sorenson and Webster, Math. Comp. 86 (2017))
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the primes up to 41 as witnesses.

    Raises:
        ValueError: n >= _PRIME_BOUND, where those witnesses decide nothing.
    """
    if n >= _PRIME_BOUND:
        raise ValueError(f"primes are decided below {_PRIME_BOUND} only, got {n}")
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _vp(n: int, p: int) -> int:
    v = 0
    while n != 0 and n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True, slots=True)
class PadicContext:
    """Ambient field Q_p at a fixed working precision.

    Args:
        p: prime.
        precision: number of unit digits carried, N >= 1.  All units live in
            [1, p^N) and certified digit counts never exceed N.
    """

    p: int
    precision: int = DEFAULT_PRECISION
    modulus: int = field(init=False, repr=False, compare=False)
    _zero: "PadicScalar" = field(init=False, repr=False, compare=False)
    _one: "PadicScalar" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        object.__setattr__(self, "modulus", self.p**self.precision)
        object.__setattr__(self, "_zero", PadicScalar._raw(self, None, 0, None))
        object.__setattr__(self, "_one", PadicScalar._raw(self, 0, 1, self.precision))

    def zero(self, cap=None) -> "PadicScalar":
        """The zero O(p^cap), known modulo p^cap; the exact zero if cap is
        None or +inf."""
        if cap is None or cap == math.inf:
            return self._zero
        return PadicScalar._raw(self, None, 0, cap)

    def one(self) -> "PadicScalar":
        return self._one

    def from_rational(self, a, b=1) -> "PadicScalar":
        """Embed the rational a/b exactly (b != 0), with full certified digits."""
        if isinstance(a, Fraction):
            a, b = a.numerator * b, a.denominator
        if b == 0:
            raise DivisionByZero("rational with zero denominator")
        if a == 0:
            return self.zero()
        p, pn = self.p, self.modulus
        va, vb = _vp(a, p), _vp(b, p)
        a, b = a // p**va, b // p**vb
        unit = (a % pn) * pow(b % pn, -1, pn) % pn
        return PadicScalar._raw(self, va - vb, unit, self.precision)

    def from_string(self, text: str) -> "PadicScalar":
        """Parse the canonical rational form "a/b" (or a bare integer "a")."""
        s = text.strip()
        if "/" in s:
            num, den = s.split("/", 1)
            return self.from_rational(int(num.strip()), int(den.strip()))
        return self.from_rational(int(s))


# a scalar without __init__'s checks, for fields canonical by construction
_new = object.__new__


class PadicScalar:
    """One p-adic number at floating valuation; see the module docstring."""

    __slots__ = ("ctx", "v", "unit", "digits")

    def __init__(self, ctx: PadicContext, valuation: int, unit: int, digits: int | None = None):
        pn = ctx.modulus
        unit %= pn
        if unit == 0 or unit % ctx.p == 0:
            raise ValueError("unit must be nonzero and prime to p; use ctx.zero() for zero")
        if digits is None:
            digits = ctx.precision
        if not 1 <= digits <= ctx.precision:
            raise ValueError("known digits must lie in [1, precision]")
        self.ctx = ctx
        self.v = valuation
        self.unit = unit
        self.digits = digits

    @classmethod
    def _raw(cls, ctx, v, unit, digits):
        # internal fast path: caller guarantees canonical fields
        self = object.__new__(cls)
        self.ctx = ctx
        self.v = v
        self.unit = unit
        self.digits = digits
        return self

    # ---- predicates and views -------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True for every zero, the exact one and O(p^c) alike."""
        return self.v is None

    def __bool__(self) -> bool:
        """False for the exact zero alone: O(p^c) may be nonzero."""
        return self.digits is not None

    def valuation(self):
        """v_p(x) as an int; for O(p^c), c, the least it may be (+inf if exact)."""
        if self.v is not None:
            return self.v
        return math.inf if self.digits is None else self.digits

    def norm(self) -> Fraction:
        """|x|_p = p^(-v) as an exact Fraction; p^(-c) bounds it for O(p^c)."""
        v = self.valuation()
        if v == math.inf:
            return Fraction(0)
        p = self.ctx.p
        return Fraction(1, p**v) if v >= 0 else Fraction(p**-v)

    def abs_precision(self):
        """Largest k such that x is certified modulo p^k (c for O(p^c))."""
        return self.valuation() if self.v is None else self.v + self.digits

    def as_rational(self) -> Fraction:
        """Canonical rational representative p^v * unit (exact for embedded rationals
        of short digit expansion; otherwise a representative mod p^(v+digits)).

        O(p^c) reads as 0 when c >= N and raises PrecisionExhausted below.
        """
        if self.v is None:
            if self.abs_precision() < self.ctx.precision:
                raise PrecisionExhausted(
                    f"value is O({self.ctx.p}^{self.digits}), below {self.ctx.precision} digits"
                )
            return Fraction(0)
        p, v = self.ctx.p, self.v
        return Fraction(self.unit * p**v) if v >= 0 else Fraction(self.unit, p**-v)

    def _cap(self, c) -> "PadicScalar":
        """x + O(p^c): x known modulo p^c at most."""
        if self.abs_precision() <= c:
            return self
        if self.v is None or self.v >= c:
            return PadicScalar._raw(self.ctx, None, 0, c)
        return PadicScalar._raw(self.ctx, self.v, self.unit, c - self.v)

    # ---- arithmetic ------------------------------------------------------

    # +, unary -, * and inverse build their results inline, as they are most
    # of the work of every layer, and +, * and congruent_mod check contexts by
    # modulus: p^N fixes the prime p and N, so equal moduli mean equal contexts

    def __add__(self, other: "PadicScalar") -> "PadicScalar":
        ctx = self.ctx
        if other.ctx is not ctx and other.ctx.modulus != ctx.modulus:
            raise ValueError("mixed p-adic contexts")
        sv, ov = self.v, other.v
        if sv is None:
            return other if self.digits is None else other._cap(self.digits)
        if ov is None:
            return self if other.digits is None else self._cap(other.digits)
        pn = ctx.modulus
        if sv == ov:
            s = (self.unit + other.unit) % pn
            sd, od = self.digits, other.digits
            n = ctx.precision
            # the mirror-image rule (module docstring), past the joint certificate
            if s == 0 and sd == n and od == n:
                return ctx._zero
            # cert: the joint certified digits, counted from p^sv
            cert = sd if sd <= od else od
            p = ctx.p
            if s % p**cert == 0:
                return PadicScalar._raw(ctx, None, 0, sv + cert)
            t = 0
            while s % p == 0:
                s //= p
                t += 1
            out = _new(PadicScalar)
            out.ctx, out.v, out.digits = ctx, sv + t, cert - t
            out.unit = s
            return out
        # the lower valuation's unit leads the sum, and nothing cancels
        if sv < ov:
            lo, hi, shift = self, other, ov - sv
        else:
            lo, hi, shift = other, self, sv - ov
        cert = hi.digits + shift
        if lo.digits < cert:
            cert = lo.digits
        out = _new(PadicScalar)
        out.ctx, out.v, out.digits = ctx, lo.v, cert
        out.unit = (lo.unit + hi.unit * ctx.p**shift) % pn
        return out

    def __neg__(self) -> "PadicScalar":
        if self.v is None:
            return self
        out = _new(PadicScalar)
        out.ctx, out.v, out.digits = self.ctx, self.v, self.digits
        out.unit = self.ctx.modulus - self.unit
        return out

    def __sub__(self, other: "PadicScalar") -> "PadicScalar":
        return self + (-other)

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        ctx = self.ctx
        if other.ctx is not ctx and other.ctx.modulus != ctx.modulus:
            raise ValueError("mixed p-adic contexts")
        if self.v is None or other.v is None:
            if self.digits is None or other.digits is None:
                return self if self.digits is None else other  # the exact zero
            return PadicScalar._raw(ctx, None, 0, self.valuation() + other.valuation())
        sd, od = self.digits, other.digits
        out = _new(PadicScalar)
        out.ctx, out.v, out.digits = ctx, self.v + other.v, sd if sd <= od else od
        out.unit = self.unit * other.unit % ctx.modulus
        return out

    def inverse(self) -> "PadicScalar":
        if self.v is None:
            if self.digits is None:
                raise DivisionByZero("inverse of exact zero")
            raise PrecisionExhausted(f"division by O({self.ctx.p}^{self.digits})")
        out = _new(PadicScalar)
        out.ctx, out.v, out.digits = self.ctx, -self.v, self.digits
        out.unit = pow(self.unit, -1, self.ctx.modulus)
        return out

    def __truediv__(self, other: "PadicScalar") -> "PadicScalar":
        return self * other.inverse()

    # ---- comparisons -----------------------------------------------------

    def __eq__(self, other) -> bool:
        # representation equality; for precision-aware tests use congruent_mod
        if not isinstance(other, PadicScalar):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.v == other.v
            and self.unit == other.unit
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.v, self.unit))

    def congruent_mod(self, other: "PadicScalar", k: int) -> bool:
        """Certify x = y (mod p^k).  True/False when decidable at the stored
        precision, PrecisionExhausted when the certified digits cannot tell."""
        if other.ctx is not self.ctx and other.ctx.modulus != self.ctx.modulus:
            raise ValueError("mixed p-adic contexts")
        if self.v is None or other.v is None:
            # x - y is O(p^c) (c the least cap) plus the nonzero operand, if any
            c = min(self.abs_precision(), other.abs_precision())
            w = min(self.valuation(), other.valuation())
            if w >= k and c >= k:
                return True
            if w < c:
                return False
            raise PrecisionExhausted(f"congruence mod p^{k} against O(p^{c})")
        if self.v >= k and other.v >= k:
            return True
        if self.v != other.v:
            return False
        need = k - self.v
        if self.digits < need or other.digits < need:
            raise PrecisionExhausted(
                f"congruence mod p^{k} needs {need} digits at valuation {self.v}"
            )
        return (self.unit - other.unit) % self.ctx.p**need == 0

    # ---- rendering -------------------------------------------------------

    def __repr__(self) -> str:
        if self.v is None:
            return "0 (exact)" if self.digits is None else f"O({self.ctx.p}^{self.digits})"
        return f"{self.ctx.p}^{self.v} * {self.unit} ({self.digits} digits)"
