"""Symbolic full-shift model of conditional-measure entropy arguments.

The p-adic modules produce an atom partition with p^|nu| pieces per level;
this module studies the measure theory of that splitting on the full shift
over s = p^|nu| symbols, in plain double precision.  A MarkovMeasure plays
the role of an invariant measure mu (rows are the conditional laws of the
next-finer atom choice given the coarser one), the uniform chain plays the
role of Haar, and a CylinderFunction of depth m is a test function that only
sees the first m coordinates.

Everything here is a finite sum, so the three headline statements become
exact identities that the tests can check to float accuracy:

  * the Pinsker inequality ||p - q||_1^2 <= 2 phi_p(q),
  * the entropy-gap identity  |nu| ln p - h_mu = sum_i pi_i phi(unif, row_i),
  * the telescoping bound     |mean(f) - mu(f)| <= sum_n Delta_n with each
    Delta_n <= sqrt(2) ||f_n||_inf sqrt(gap).

Delta_n is the integrated defect between f_{n+1} (the uniform average over
one more coordinate) and the mu-conditional expectation of f_n on the same
sigma-algebra.  For the uniform chain the two coincide and every Delta_n
vanishes exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import IrreducibilityError, SupportMismatch, SymbolCountMismatch

# the stationary vector must have residual ||pi T - pi||_1 <= STATIONARY_TOL;
# a chain counts as mixing too slowly when the damped power iteration
# (T + I)/2 from the uniform vector, which shrinks its residual by about the
# second eigenvalue modulus rho per round, would need more than
# STATIONARY_MAX_ROUNDS rounds: rho^STATIONARY_MAX_ROUNDS > STATIONARY_TOL
STATIONARY_TOL = 1e-13
STATIONARY_MAX_ROUNDS = 200_000
_RHO_BUDGET = STATIONARY_TOL ** (1.0 / STATIONARY_MAX_ROUNDS)

_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class ProbVector:
    """A probability vector: nonnegative weights summing to 1.

    Args:
        weights: the entries; the sum must be within 1e-12 of 1.
    """

    weights: tuple[float, ...]

    def __init__(self, weights: Sequence[float]):
        ws = tuple(float(w) for w in weights)
        if not ws:
            raise ValueError("empty probability vector")
        if not all(math.isfinite(w) for w in ws):
            raise ValueError("probability weights must be finite")
        if any(w < 0.0 for w in ws):
            raise ValueError("negative weight in probability vector")
        if abs(sum(ws) - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(f"weights sum to {sum(ws)!r}, not 1")
        object.__setattr__(self, "weights", ws)

    @property
    def s(self) -> int:
        return len(self.weights)

    @classmethod
    def uniform(cls, s: int) -> "ProbVector":
        return cls([1.0 / s] * s)


def _as_prob(v: "ProbVector | Sequence[float]") -> ProbVector:
    return v if isinstance(v, ProbVector) else ProbVector(v)


def _json_int(value, name: str) -> int:
    """A count read from a document: a JSON integer, not a float, bool or string."""
    if type(value) is not int:
        raise ValueError(f"'{name}' must be a JSON integer, got {value!r}")
    return value


def phi(ref: "ProbVector | Sequence[float]", obs: "ProbVector | Sequence[float]") -> float:
    """Relative entropy sum_i q_i ln(q_i / p_i) of obs = q against ref = p.

    Natural log, with 0 ln 0 := 0.  Nonnegative, zero exactly when the two
    vectors agree on the support of q.

    Raises:
        SupportMismatch: q puts mass where p has none.
    """
    p = _as_prob(ref).weights
    q = _as_prob(obs).weights
    if len(p) != len(q):
        raise SupportMismatch(f"vector lengths differ: {len(p)} vs {len(q)}")
    total = 0.0
    for pi, qi in zip(p, q):
        if qi == 0.0:
            continue
        if pi == 0.0:
            raise SupportMismatch("observed mass where the reference vanishes")
        total += qi * math.log(qi / pi)
    # the exact value is >= 0; rounding may leave a tiny negative residue
    return max(total, 0.0)


class PinskerReport(NamedTuple):
    l1: float
    bound: float
    holds: bool


def pinsker_check(
    ref: "ProbVector | Sequence[float]", obs: "ProbVector | Sequence[float]"
) -> PinskerReport:
    """Evaluate both sides of ||p - q||_1^2 <= 2 phi_p(q).

    Returns:
        (l1, bound, holds) with bound = 2 phi and holds allowing 1e-12 slack.
    """
    p = _as_prob(ref)
    q = _as_prob(obs)
    value = phi(p, q)
    l1 = sum(abs(a - b) for a, b in zip(p.weights, q.weights))
    bound = 2.0 * value
    return PinskerReport(l1, bound, l1 * l1 <= bound + 1e-12)


class MarkovMeasure:
    """Shift-invariant Markov measure on the full shift over s symbols.

    Words are read finest-first: coordinate 0 is the newest (finest) atom
    choice and coordinate r the oldest.  The measure of a word is

        mu(w_0 .. w_r) = pi(w_r) * T[w_r, w_{r-1}] * ... * T[w_1, w_0],

    i.e. each row T[i, :] is the conditional law of the next-finer choice
    given that the coarser one was i, and pi is the stationary row vector
    (pi T = pi).  pi comes from a direct solve of the bordered system
    (T^T - I with its last row replaced by ones) pi = e_last, clipped at 0,
    renormalized and accepted only at residual ||pi T - pi||_1 <= 1e-13.
    When the uniform vector already meets that residual it is returned
    bit-for-bit.

    Raises:
        ValueError: an entry is not finite, a row fails nonnegativity or
            does not sum to 1.
        IrreducibilityError: the stationary vector is not unique (a second
            eigenvalue 1), or the chain mixes too slowly: the second
            eigenvalue modulus rho of (T + I)/2 has
            rho^STATIONARY_MAX_ROUNDS > STATIONARY_TOL.
    """

    def __init__(self, transition: Sequence[Sequence[float]]):
        matrix = np.asarray(transition, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"transition matrix must be square, got {matrix.shape}")
        if matrix.shape[0] < 1:
            raise ValueError("empty transition matrix")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("transition probabilities must be finite")
        if np.any(matrix < 0.0):
            raise ValueError("negative transition probability")
        rowsums = matrix.sum(axis=1)
        if np.any(np.abs(rowsums - 1.0) > _NORMALIZATION_TOL):
            raise ValueError("transition rows must sum to 1")
        self.symbol_count: int = matrix.shape[0]
        self.transition: np.ndarray = matrix
        self.transition.setflags(write=False)
        self.stationary: ProbVector = self._find_stationary()

    def _find_stationary(self) -> ProbVector:
        matrix = self.transition
        s = self.symbol_count
        # rho, the second eigenvalue modulus of the damped map (T + I)/2,
        # sets the mixing rate; the damping folds periodic eigenvalues -1
        # inside the unit circle without moving the fixed points
        moduli = np.sort(np.abs(np.linalg.eigvals(matrix) + 1.0) / 2.0)
        rho = float(moduli[-2]) if s > 1 else 0.0
        if rho > _RHO_BUDGET:
            # rho within STATIONARY_TOL of 1 is a second eigenvalue 1: every
            # mixture of two stationary vectors passes the residual check
            unique = 1.0 - rho > STATIONARY_TOL
            reason = "over the round budget" if unique else "not unique"
            raise IrreducibilityError(
                f"stationary vector {reason}: (T + I)/2 has second eigenvalue "
                f"modulus rho = {rho!r}, rho^{STATIONARY_MAX_ROUNDS} > {STATIONARY_TOL}"
            )
        uniform = np.full(s, 1.0 / s)
        if np.abs(uniform @ matrix - uniform).sum() <= STATIONARY_TOL:
            # an exactly uniform fixed point is returned bit-for-bit
            return ProbVector(uniform.tolist())
        bordered = matrix.T - np.eye(s)
        bordered[-1, :] = 1.0
        rhs = np.zeros(s)
        rhs[-1] = 1.0
        try:
            x = np.linalg.solve(bordered, rhs)
        except np.linalg.LinAlgError as err:
            raise IrreducibilityError(f"stationary vector not unique: {err}") from err
        x = np.clip(x, 0.0, None)
        x = x / x.sum()
        residual = np.abs(x @ matrix - x).sum()
        if residual > STATIONARY_TOL:
            raise IrreducibilityError(
                f"stationary vector residual {residual!r} above {STATIONARY_TOL}"
            )
        return ProbVector(x.tolist())

    @property
    def s(self) -> int:
        return self.symbol_count

    @classmethod
    def uniform(cls, s: int) -> "MarkovMeasure":
        """The Haar analogue: every conditional split is uniform."""
        return cls(np.full((s, s), 1.0 / s))

    @classmethod
    def bernoulli(cls, weights: Sequence[float]) -> "MarkovMeasure":
        """Product measure: every row equals the given vector."""
        q = ProbVector(weights)
        return cls(np.tile(np.asarray(q.weights), (q.s, 1)))

    @classmethod
    def from_document(cls, doc: dict) -> "MarkovMeasure":
        """Build from {"s": int, "transition": [[...]]}."""
        if not isinstance(doc, dict) or "transition" not in doc:
            raise ValueError("markov document needs a 'transition' field")
        measure = cls(doc["transition"])
        declared = doc.get("s")
        if declared is not None and _json_int(declared, "s") != measure.s:
            raise ValueError(
                f"declared symbol count {declared} does not match "
                f"{measure.s}x{measure.s} transition matrix"
            )
        return measure

    def word_measure(self, word: Sequence[int]) -> float:
        """Measure of the cylinder [w_0 .. w_r], coordinate 0 finest."""
        w = list(word)
        if not w:
            return 1.0
        total = self.stationary.weights[w[-1]]
        for t in range(len(w) - 1, 0, -1):
            total *= self.transition[w[t], w[t - 1]]
        return total

    def word_measures(self, length: int) -> np.ndarray:
        """All cylinder measures of the given length, flat-indexed.

        Flat index sum_t w_t s^t (coordinate 0 is the least significant
        digit), so entry [y*s + j] is the word j followed by y.
        """
        if length == 0:
            return np.ones(1)
        out = np.asarray(self.stationary.weights, dtype=float)
        for _ in range(length - 1):
            # mu(j, y) = mu(y) * T[y_0, j]; y_0 = y_flat mod s
            rows = self.transition[np.arange(out.size) % self.s, :]
            out = (out[:, None] * rows).reshape(-1)
        return out


def entropy_rate(measure: MarkovMeasure) -> float:
    """Conditional entropy per split, sum_i pi_i H(T[i, :]), in nats."""
    total = 0.0
    for i, pi in enumerate(measure.stationary.weights):
        row = measure.transition[i]
        h = -sum(float(t) * math.log(t) for t in row if t > 0.0)
        total += pi * h
    return total


class GapIdentity(NamedTuple):
    """Both evaluations of the entropy gap h_top - h_mu.

    entropy_side is |nu| ln p - entropy_rate; phi_side is the stationary
    average of phi(uniform, row).  They agree to 1e-10 by construction.
    """

    entropy_side: float
    phi_side: float


def entropy_gap(measure: MarkovMeasure, nu_total: int, p: int) -> GapIdentity:
    """Evaluate the gap identity |nu| ln p - h_mu = sum_i pi_i phi(unif, row_i).

    Raises:
        SymbolCountMismatch: the chain does not have p^nu_total symbols.
    """
    if measure.s != p**nu_total:
        raise SymbolCountMismatch(
            f"chain has {measure.s} symbols, the split needs p^|nu| = "
            f"{p}^{nu_total} = {p ** nu_total}"
        )
    side_a = nu_total * math.log(p) - entropy_rate(measure)
    unif = ProbVector.uniform(measure.s)
    side_b = sum(
        pi * phi(unif, ProbVector(measure.transition[i].tolist()))
        for i, pi in enumerate(measure.stationary.weights)
    )
    if abs(side_a - side_b) > 1e-10:
        raise ArithmeticError(
            f"gap identity violated: {side_a!r} vs {side_b!r}"
        )
    return GapIdentity(side_a, side_b)


@dataclass(frozen=True)
class CylinderFunction:
    """Real function of the first `depth` coordinates of the shift.

    values is flat-indexed by sum_t w_t s^t.  The depth is the symbolic
    smoothness level: deeper functions see finer atoms.
    """

    depth: int
    s: int
    values: np.ndarray

    def __init__(self, depth: int, s: int, values: Sequence[float]):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if s < 1:
            raise ValueError("need at least one symbol")
        arr = np.asarray(values, dtype=float).reshape(-1)
        if arr.size != s**depth:
            raise ValueError(
                f"depth {depth} over {s} symbols needs {s ** depth} values, "
                f"got {arr.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("cylinder values must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_document(cls, doc: dict, s: int) -> "CylinderFunction":
        """Build from {"depth": m, "values": [...]}."""
        if not isinstance(doc, dict) or "depth" not in doc or "values" not in doc:
            raise ValueError("cylinder document needs 'depth' and 'values'")
        return cls(_json_int(doc["depth"], "depth"), s, doc["values"])

    def value(self, word: Sequence[int]) -> float:
        idx = 0
        for t, w in enumerate(word[: self.depth]):
            idx += w * self.s**t
        return float(self.values[idx])

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.values).max()) if self.values.size else 0.0

    def mean(self) -> float:
        """Uniform average over all words: the Haar integral."""
        return float(self.values.mean())

    def average_first(self, n: int) -> "CylinderFunction":
        """Average the first n coordinates uniformly: the function f_n.

        The result depends only on coordinates n .. depth-1; for n >= depth
        it is the constant mean.
        """
        n = min(n, self.depth)
        if n == 0:
            return self
        averaged = self.values.reshape(-1, self.s**n).mean(axis=1)
        return CylinderFunction(self.depth - n, self.s, averaged)


def f_sequence(f: CylinderFunction, n_max: int) -> list[CylinderFunction]:
    """The averaging sequence f_0 = f, f_1, ..., f_{n_max}.

    f_n averages f uniformly over the first n coordinates; once n reaches
    depth(f) the sequence is the constant mean.  Built by the one-step
    recursion f_{n+1}(y) = (1/s) sum_j f_n(j, y) and cross-checked against
    the direct average.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    seq = [f]
    for n in range(n_max):
        prev = seq[-1]
        if prev.depth == 0:
            seq.append(prev)
            continue
        nxt = CylinderFunction(
            prev.depth - 1, f.s, prev.values.reshape(-1, f.s).mean(axis=1)
        )
        direct = f.average_first(n + 1)
        if np.abs(nxt.values - direct.values).max() > 1e-9:
            raise ArithmeticError("averaging recursion does not match direct average")
        seq.append(nxt)
    return seq


@dataclass(frozen=True)
class TelescopeReport:
    """All quantities of the telescoping estimate for one (f, mu) pair.

    deltas[n] integrates the defect between the uniform one-step average
    f_{n+1} and the mu-conditional expectation of f_n over the same words;
    per_step_bounds[n] is sqrt(2) ||f_n||_inf sqrt(gap).  total_defect is
    |mean(f) - mu(f)| and delta_sum its telescoped bound.
    """

    deltas: tuple[float, ...]
    per_step_bounds: tuple[float, ...]
    sup_norms: tuple[float, ...]
    gap: float
    mean_f: float
    mu_f: float

    @property
    def total_defect(self) -> float:
        return abs(self.mean_f - self.mu_f)

    @property
    def delta_sum(self) -> float:
        return sum(self.deltas)

    @property
    def per_step_hold(self) -> bool:
        return all(
            d <= b + 1e-12 for d, b in zip(self.deltas, self.per_step_bounds)
        )

    @property
    def telescoping_holds(self) -> bool:
        return self.total_defect <= self.delta_sum + 1e-12


def telescope_bound_check(f: CylinderFunction, measure: MarkovMeasure) -> TelescopeReport:
    """Evaluate the telescoping chain for f against a Markov measure.

    mean(f) - mu(f) telescopes through the averaging sequence; the n-th
    step contributes

        Delta_n = integral of |f_{n+1} - E_mu(f_n | coarser coordinates)|,

    a finite sum over words of length depth-n-1.  Each Delta_n is bounded
    by sqrt(2) ||f_n||_inf sqrt(gap) via Pinsker, and the total defect by
    sum_n Delta_n.  For the uniform chain every conditional is uniform, so
    every Delta_n is exactly zero.

    Raises:
        SymbolCountMismatch: f and the measure disagree on symbol count.
    """
    if f.s != measure.s:
        raise SymbolCountMismatch(
            f"cylinder function over {f.s} symbols, chain over {measure.s}"
        )
    s = measure.s
    m = f.depth
    unif = ProbVector.uniform(s)
    gap = sum(
        pi * phi(unif, ProbVector(measure.transition[i].tolist()))
        for i, pi in enumerate(measure.stationary.weights)
    )
    mu_f = float(measure.word_measures(m) @ f.values) if m > 0 else f.mean()

    # the uniform average and the mu-conditional expectation go through the
    # same expression shape so they cancel exactly when the rows are uniform
    unif_row = np.full(s, 1.0 / s)
    pi_rows = np.tile(np.asarray(measure.stationary.weights), (1, 1))
    deltas: list[float] = []
    bounds: list[float] = []
    norms: list[float] = []
    root = math.sqrt(2.0 * gap)
    cur = f.values
    for n in range(m):
        grouped = cur.reshape(-1, s)
        averaged = (grouped * unif_row).sum(axis=1)
        if n < m - 1:
            # condition on the coarser coordinates y; the finest remaining
            # coordinate of y indexes the conditional row
            rows = measure.transition[np.arange(averaged.size) % s, :]
        else:
            # last step: the lone remaining coordinate is distributed as pi
            rows = pi_rows
        conditional = (grouped * rows).sum(axis=1)
        weights = measure.word_measures(m - n - 1)
        delta = float(weights @ np.abs(averaged - conditional))
        sup = float(np.abs(cur).max())
        deltas.append(delta)
        norms.append(sup)
        bounds.append(sup * root)
        cur = averaged

    report = TelescopeReport(
        deltas=tuple(deltas),
        per_step_bounds=tuple(bounds),
        sup_norms=tuple(norms),
        gap=gap,
        mean_f=f.mean(),
        mu_f=mu_f,
    )
    if not report.per_step_hold or not report.telescoping_holds:
        raise ArithmeticError("telescoping estimate violated")
    return report
