"""Symbolic entropy toolbox: divergence, gap identity, telescoping estimate.

Frozen oracle values below were recomputed by hand from the defining
formulas (natural logs throughout).
"""

import dataclasses
import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from padlab.entropylab import (
    STATIONARY_MAX_ROUNDS,
    STATIONARY_TOL,
    CylinderFunction,
    MarkovMeasure,
    ProbVector,
    entropy_gap,
    entropy_rate,
    f_sequence,
    phi,
    pinsker_check,
    telescope_bound_check,
)
from padlab.errors import IrreducibilityError, SupportMismatch, SymbolCountMismatch


def random_chain(rng: random.Random, s: int) -> MarkovMeasure:
    rows = []
    for _ in range(s):
        w = [rng.uniform(0.05, 1.0) for _ in range(s)]
        t = sum(w)
        rows.append([x / t for x in w])
    return MarkovMeasure(rows)


# ---- probability vectors and divergence -------------------------------------


def test_prob_vector_validation():
    v = ProbVector([0.25, 0.75])
    assert v.s == 2
    assert ProbVector.uniform(4).weights == (0.25, 0.25, 0.25, 0.25)
    with pytest.raises(ValueError):
        ProbVector([0.5, 0.6])
    with pytest.raises(ValueError):
        ProbVector([-0.1, 1.1])
    with pytest.raises(ValueError):
        ProbVector([])
    with pytest.raises(ValueError):
        ProbVector([math.nan, 1.0])  # NaN fails both < 0 and the sum test


def test_phi_frozen_value():
    # 1/4 ln(1/2) + 3/4 ln(3/2)
    assert phi([0.5, 0.5], [0.25, 0.75]) == pytest.approx(
        0.13081203594113697, abs=1e-15
    )


def test_phi_zero_iff_equal():
    rng = random.Random(3)
    for _ in range(50):
        s = rng.randint(2, 6)
        w = [rng.uniform(0.1, 1.0) for _ in range(s)]
        t = sum(w)
        w = [x / t for x in w]
        assert phi(w, w) == 0.0
        assert phi(ProbVector.uniform(s), w) >= 0.0


def reference_phi(ref, obs) -> float:
    """phi of the two float vectors, each normalized exactly, in 80 digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        p, q = ([Decimal(x) for x in v] for v in (ref, obs))
        p, q = ([x / sum(v) for x in v] for v in (p, q))
        return float(sum(qi * (qi / pi).ln() for pi, qi in zip(p, q) if qi))


@pytest.mark.parametrize("row", [
    [0.5 + 1e-9, 0.5 - 1e-9],
    [0.500000001, 0.499999999],
    [0.5 + 1e-8, 0.5 - 1e-8],
    [0.5 + 1e-6, 0.5 - 1e-6],
    [0.5 + 1e-2, 0.5 - 1e-2],
    [1 / 3 + 1e-8, 1 / 3 - 2e-8, 1 / 3 + 1e-8],
    [0.25 + 3e-9, 0.25 - 1e-9, 0.25 - 1e-9, 0.25 - 1e-9],
    [0.2 + 4e-7, 0.2 - 1e-7, 0.2 - 1e-7, 0.2 - 1e-7, 0.2 - 1e-7],
])
def test_phi_of_near_uniform_rows_matches_a_decimal_reference(row):
    # summed as q ln(q/p), the terms cancel to below the rounding of the
    # rows' sums: [0.500000001, 0.499999999] sums to 1 - 2^-54 and gave 0
    unif = ProbVector.uniform(len(row)).weights
    assert phi(unif, row) == pytest.approx(reference_phi(unif, row), rel=1e-6, abs=0)


def test_phi_support_handling():
    # 0 ln 0 = 0 on the observed side
    assert phi([0.5, 0.5], [1.0, 0.0]) == pytest.approx(math.log(2), abs=1e-15)
    with pytest.raises(SupportMismatch):
        phi([1.0, 0.0], [0.5, 0.5])
    with pytest.raises(SupportMismatch):
        phi([0.5, 0.5], [0.25, 0.25, 0.5])


def test_pinsker_frozen_pair():
    rep = pinsker_check([0.5, 0.5], [0.25, 0.75])
    assert rep.l1 == pytest.approx(0.5, abs=1e-15)
    assert rep.bound == pytest.approx(0.26162407188227393, abs=1e-15)
    assert rep.holds


def test_pinsker_sweep():
    rng = random.Random(41)
    for _ in range(300):
        s = rng.randint(2, 10)
        p = [rng.uniform(0.01, 1.0) for _ in range(s)]
        q = [rng.uniform(0.0, 1.0) for _ in range(s)]
        tp, tq = sum(p), sum(q)
        rep = pinsker_check([x / tp for x in p], [x / tq for x in q])
        assert rep.holds
        assert rep.l1 * rep.l1 <= rep.bound + 1e-12
    ident = pinsker_check([0.3, 0.7], [0.3, 0.7])
    assert ident.l1 == 0.0 and ident.bound == 0.0 and ident.holds


# ---- Markov measures ---------------------------------------------------------


def test_markov_validation():
    with pytest.raises(ValueError):
        MarkovMeasure([[0.5, 0.5]])  # not square
    with pytest.raises(ValueError):
        MarkovMeasure([[0.5, 0.6], [0.5, 0.5]])  # row sum
    with pytest.raises(ValueError):
        MarkovMeasure([[1.5, -0.5], [0.5, 0.5]])  # negative
    with pytest.raises(ValueError):
        MarkovMeasure([[math.nan, 1.0], [0.5, 0.5]])  # not finite
    with pytest.raises(ValueError, match="empty transition matrix"):
        MarkovMeasure(np.zeros((0, 0)))


def test_uniform_chain_is_bit_exact():
    for s in (2, 3, 4, 9):
        mu = MarkovMeasure.uniform(s)
        assert mu.stationary.weights == tuple([1.0 / s] * s)
        assert entropy_rate(mu) == pytest.approx(math.log(s), abs=1e-14)


def test_bernoulli_chain():
    mu = MarkovMeasure.bernoulli([0.25, 0.75])
    assert mu.stationary.weights[0] == pytest.approx(0.25, abs=1e-13)
    assert entropy_rate(mu) == pytest.approx(0.5623351446188083, abs=1e-13)
    # product measure on words, finest coordinate first; the stationary
    # factor comes from a linear solve accepted at residual 1e-13, so the
    # check allows more than rounding
    assert mu.word_measure([0, 1, 1]) == pytest.approx(
        0.25 * 0.75 * 0.75, abs=1e-11
    )


def test_word_measures_enumeration():
    rng = random.Random(8)
    mu = random_chain(rng, 3)
    for length in (0, 1, 2, 3):
        flat = mu.word_measures(length)
        assert flat.size == 3**length
        assert flat.sum() == pytest.approx(1.0, abs=1e-12)
        for idx in range(flat.size):
            word = [(idx // 3**t) % 3 for t in range(length)]
            assert flat[idx] == pytest.approx(mu.word_measure(word), abs=1e-15)


def test_from_document():
    doc = {"s": 2, "transition": [[0.5, 0.5], [0.25, 0.75]]}
    mu = MarkovMeasure.from_document(doc)
    assert mu.s == 2
    with pytest.raises(ValueError):
        MarkovMeasure.from_document({"s": 3, "transition": [[1.0]]})
    with pytest.raises(ValueError):
        MarkovMeasure.from_document({"rows": []})


def test_document_counts_must_be_json_integers():
    # int() would read 2.5 as 2, "2" as 2 and True as 1
    chain = [[0.5, 0.5], [0.5, 0.5]]
    for s in (2.5, 2.0, "2", True):
        with pytest.raises(ValueError, match="JSON integer"):
            MarkovMeasure.from_document({"s": s, "transition": chain})
    for depth in (1.9, 1.0, "1", True):
        with pytest.raises(ValueError, match="JSON integer"):
            CylinderFunction.from_document({"depth": depth, "values": [1.0, 0.0]}, 2)
    assert CylinderFunction.from_document({"depth": 1, "values": [1.0, 0.0]}, 2).depth == 1


def test_stationary_nonconvergence_is_reported():
    # spectral gap ~1e-9: the round budget cannot reach residual 1e-13
    with pytest.raises(IrreducibilityError, match="round budget"):
        MarkovMeasure([[1.0, 0.0], [1e-9, 1.0 - 1e-9]])


@pytest.mark.parametrize("rows", [
    [[1.0, 0.0], [0.0, 1.0]],
    [[0.5, 0.5, 0.0, 0.0], [0.25, 0.75, 0.0, 0.0],
     [0.0, 0.0, 0.3, 0.7], [0.0, 0.0, 0.6, 0.4]],
], ids=["identity", "two-blocks"])
def test_non_unique_stationary_is_refused(rows):
    # two closed classes: every mixture of their stationary vectors is
    # stationary, so no answer would be the chain's own
    with pytest.raises(IrreducibilityError, match="not unique"):
        MarkovMeasure(rows)


def power_iteration_stationary(chains):
    """The damped power iteration, the reference route for the eigenvector.

    For each chain: x <- (x T + x)/2 from the uniform vector, returning
    x / sum(x) at the first round with ||x T - x||_1 <= STATIONARY_TOL, or
    None after STATIONARY_MAX_ROUNDS rounds.  All chains run at once as one
    block-diagonal chain, and a chain leaves the block once it converges, so
    the whole sweep costs at most one round budget.
    """
    out = [None] * len(chains)
    live = [(k, np.asarray(t, dtype=float), np.full(len(t), 1.0 / len(t)))
            for k, t in enumerate(chains)]
    rounds = 0
    while live:
        sizes = [len(x) for _, _, x in live]
        offsets = np.cumsum([0] + sizes[:-1])
        big = np.zeros((sum(sizes), sum(sizes)))
        for at, (_, t, _) in zip(offsets, live):
            big[at:at + len(t), at:at + len(t)] = t
        x = np.concatenate([x for _, _, x in live])
        while rounds < STATIONARY_MAX_ROUNDS:
            y = x @ big
            residual = np.add.reduceat(np.abs(y - x), offsets)
            if residual.min() <= STATIONARY_TOL:
                break
            x = 0.5 * (y + x)
            rounds += 1
        else:
            return out
        parts = np.split(x, offsets[1:])
        for (k, _, _), part, r in zip(live, parts, residual):
            if r <= STATIONARY_TOL:
                out[k] = part / part.sum()
        live = [(k, t, part) for (k, t, _), part, r in zip(live, parts, residual)
                if r > STATIONARY_TOL]
    return out


def _stochastic_rows(rng: random.Random, s: int, leak: float | None) -> list[list[float]]:
    # leak=None: a random positive chain; otherwise two blocks joined by
    # `leak` from the first and 3*leak from the second, so the spectral gap
    # is about 4*leak and the stationary block masses are 3:1
    half = (s + 1) // 2
    rows = []
    for i in range(s):
        w = [rng.uniform(0.05, 1.0) for _ in range(s)]
        if leak is not None:
            same = [j for j in range(s) if (j < half) == (i < half)]
            other = [j for j in range(s) if j not in same]
            cross = leak if i < half else 3 * leak
            ts, to = math.fsum(w[j] for j in same), math.fsum(w[j] for j in other)
            for j in same:
                w[j] *= (1.0 - cross) / ts
            for j in other:
                w[j] *= cross / to
        t = math.fsum(w)
        row = [x / t for x in w]
        row[-1] = 1.0 - math.fsum(row[:-1])
        rows.append(row)
    return rows


def test_direct_solve_matches_power_iteration():
    rng = random.Random(505)
    leaks = [None] * 6 + [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7]
    chains = [_stochastic_rows(rng, s, leak) for s in (2, 3, 4, 9) for leak in leaks]
    # period 2: T has the eigenvalue -1, which only the damped map folds in
    chains += [[[0.0, 1.0], [1.0, 0.0]],
               [[0.0, 0.0, 0.3, 0.7], [0.0, 0.0, 0.6, 0.4],
                [0.5, 0.5, 0.0, 0.0], [0.2, 0.8, 0.0, 0.0]]]
    # a transient state, whose weight the solve leaves at about -1e-16
    chains += [[[0.3, 0.3, 0.4], [0.0, 0.25, 0.75], [0.0, 0.5, 0.5]]]
    reference = power_iteration_stationary(chains)
    decisions = []
    for rows, want in zip(chains, reference):
        try:
            got = MarkovMeasure(rows).stationary.weights
        except IrreducibilityError:
            got = None
        assert (got is None) == (want is None)
        if got is not None:
            assert np.abs(np.asarray(got) - want).max() <= 1e-9
        decisions.append(got is None)
    # the sweep exercises both decisions
    assert 0 < sum(decisions) < len(decisions)



@pytest.mark.parametrize("s", [2, 4])
def test_round_budget_follows_the_closed_form_rule(s):
    # exit 18 refuses a chain when rho^STATIONARY_MAX_ROUNDS > STATIONARY_TOL,
    # rho the second eigenvalue modulus of (T + I)/2.  Blocks joined by leaks
    # l and 3l give 1 - rho of about 2l, so the line lies near l = 7.5e-5.
    # Leak 6e-5 is refused although the power iteration from the uniform
    # start converges on it; leak 1e-4 is accepted.
    rng = random.Random(606)
    with pytest.raises(IrreducibilityError, match="round budget"):
        MarkovMeasure(_stochastic_rows(rng, s, 6e-5))
    MarkovMeasure(_stochastic_rows(rng, s, 1e-4))

# ---- the gap identity --------------------------------------------------------


def test_entropy_gap_uniform_is_zero():
    ident = entropy_gap(MarkovMeasure.uniform(9), 2, 3)
    assert ident.phi_side == 0.0
    assert abs(ident.entropy_side) < 1e-12


def test_entropy_gap_frozen_bernoulli():
    # ln 4 - H(1/2, 1/4, 1/4) over s = 4 needs nu_total = 2, p = 2
    mu = MarkovMeasure.bernoulli([0.5, 0.25, 0.25, 0.0])
    ident = entropy_gap(mu, 2, 2)
    expected = math.log(3) - 1.5 * math.log(2) + math.log(4) - math.log(3)
    assert ident.entropy_side == pytest.approx(expected, abs=1e-12)
    assert ident.phi_side == pytest.approx(ident.entropy_side, abs=1e-10)


def test_entropy_gap_identity_sweep():
    rng = random.Random(99)
    for _ in range(60):
        nu, p = rng.choice([(1, 2), (1, 3), (2, 2), (2, 3)])
        mu = random_chain(rng, p**nu)
        ident = entropy_gap(mu, nu, p)
        assert ident.entropy_side == pytest.approx(ident.phi_side, abs=1e-10)
        assert ident.phi_side >= 0.0


def test_entropy_gap_symbol_mismatch():
    with pytest.raises(SymbolCountMismatch):
        entropy_gap(MarkovMeasure.uniform(3), 2, 3)
    # s is divided by p, so a huge |nu| is refused without building p^|nu|
    with pytest.raises(SymbolCountMismatch, match=r"2\^100000$"):
        entropy_gap(MarkovMeasure.uniform(2), 100_000, 2)
    with pytest.raises(SymbolCountMismatch):
        entropy_gap(MarkovMeasure.uniform(12), 2, 2)
    with pytest.raises(ValueError, match="nu"):
        entropy_gap(MarkovMeasure.uniform(1), -1, 3)


# ---- cylinder functions ------------------------------------------------------


def test_cylinder_function_basics():
    f = CylinderFunction(2, 2, [1.0, 2.0, 3.0, 4.0])
    assert f.value([0, 0]) == 1.0
    assert f.value([1, 0]) == 2.0  # coordinate 0 is the least significant
    assert f.value([0, 1]) == 3.0
    assert f.mean() == 2.5
    g = f.average_first(1)
    assert g.depth == 1
    assert list(g.values) == [1.5, 3.5]
    assert f.average_first(5).values[0] == 2.5

    with pytest.raises(ValueError):
        CylinderFunction(2, 2, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        CylinderFunction(-1, 2, [])
    with pytest.raises(ValueError):
        CylinderFunction(0, 2, [math.inf])
    with pytest.raises(ValueError, match="need at least one symbol"):
        CylinderFunction(1, 0, [])


def test_cylinder_functions_compare_and_hash_by_identity():
    # the generated __eq__ and __hash__ would compare and hash the ndarray
    f = CylinderFunction(1, 2, [1.0, 2.0])
    g = CylinderFunction(1, 2, [1.0, 2.0])
    assert f == f
    assert f != g
    assert len({f, g, f}) == 2


def test_documents_take_json_numbers_only():
    # float() would read "0.5" as 0.5 and True as 1.0
    for entry in ("0.5", True, None, [0.5]):
        with pytest.raises(ValueError, match="'transition' entries must be JSON numbers"):
            MarkovMeasure.from_document({"transition": [[entry, 0.5], [0.5, 0.5]]})
        with pytest.raises(ValueError, match="'values' entries must be JSON numbers"):
            CylinderFunction.from_document({"depth": 1, "values": [1.0, entry]}, 2)
    for transition in ([0.5, 0.5], "[[1.0]]", {"0": [1.0]}):
        with pytest.raises(ValueError, match="array of rows"):
            MarkovMeasure.from_document({"transition": transition})
    mu = MarkovMeasure.from_document({"transition": [[1, 0], [0.5, 0.5]]})
    assert mu.stationary.weights == pytest.approx((1.0, 0.0), abs=1e-15)
    assert CylinderFunction.from_document({"depth": 1, "values": [1, -2]}, 2).mean() == -0.5


def reference_f_sequence(f: CylinderFunction, n_max: int) -> list[CylinderFunction]:
    """The one-step recursion f_{n+1}(y) = (1/s) sum_j f_n(j, y).

    A second route to the direct averages f.average_first(n) that
    f_sequence returns.
    """
    seq = [f]
    for _ in range(n_max):
        prev = seq[-1]
        if prev.depth == 0:
            seq.append(prev)
            continue
        seq.append(CylinderFunction(
            prev.depth - 1, f.s, prev.values.reshape(-1, f.s).mean(axis=1)
        ))
    return seq


def test_f_sequence_indicator():
    # indicator of w_0 = 0 over three symbols averages to the constant 1/3
    f = CylinderFunction(1, 3, [1.0, 0.0, 0.0])
    seq = f_sequence(f, 3)
    assert len(seq) == 4
    assert seq[1].depth == 0
    assert seq[1].values[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert seq[3].values[0] == seq[1].values[0]
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        f_sequence(f, -1)


def test_f_sequence_matches_direct_average():
    rng = random.Random(6)
    for _ in range(20):
        s = rng.choice([2, 3])
        depth = rng.randint(1, 3)
        f = CylinderFunction(
            depth, s, [rng.uniform(-2, 2) for _ in range(s**depth)]
        )
        seq = f_sequence(f, depth)
        reference = reference_f_sequence(f, depth)
        assert len(seq) == len(reference) == depth + 1
        for fn, ref in zip(seq, reference):
            assert fn.depth == ref.depth
            assert np.abs(fn.values - ref.values).max() <= 1e-12


def test_average_first_steps_one_coordinate_at_a_time():
    # f_n is n one-coordinate averages bit for bit, the steps the telescope
    # takes; one mean over s^n values differs from them in the last bits
    rng = random.Random(38)
    for s in (2, 3, 4, 9):
        for depth in (1, 2, 3):
            f = CylinderFunction(depth, s, [rng.uniform(-2, 2) for _ in range(s**depth)])
            step = f
            for n in range(1, depth + 1):
                step = step.average_first(1)
                assert np.array_equal(f.average_first(n).values, step.values)


# ---- the telescoping estimate ------------------------------------------------


def test_telescope_uniform_chain_all_zero():
    rng = random.Random(12)
    for s in (2, 3, 4, 9):
        mu = MarkovMeasure.uniform(s)
        depth = 3 if s <= 3 else 2
        f = CylinderFunction(
            depth, s, [rng.uniform(-1, 1) for _ in range(s**depth)]
        )
        report = telescope_bound_check(f, mu)
        assert report.deltas == tuple([0.0] * depth)  # bit-exact zeros
        assert report.gap == 0.0
        assert report.total_defect <= 1e-15


def test_telescope_bernoulli_hand_formula():
    # depth-1 indicator of w_0 = 0 against bernoulli(1/4, 3/4):
    # one step, averaged = 1/2, conditional = pi f = 1/4
    mu = MarkovMeasure.bernoulli([0.25, 0.75])
    f = CylinderFunction(1, 2, [1.0, 0.0])
    report = telescope_bound_check(f, mu)
    assert len(report.deltas) == 1
    assert report.deltas[0] == pytest.approx(0.25, abs=1e-11)
    assert report.mean_f == 0.5
    assert report.mu_f == pytest.approx(0.25, abs=1e-12)
    assert report.total_defect == pytest.approx(0.25, abs=1e-11)
    assert report.per_step_bounds[0] == pytest.approx(
        math.sqrt(2.0 * 0.13081203594113697), abs=1e-11
    )
    assert report.per_step_hold and report.telescoping_holds


def test_telescope_skips_coarse_coordinates():
    # f depending only on w_1 makes the first step vanish identically
    mu = MarkovMeasure.bernoulli([0.25, 0.75])
    f = CylinderFunction(2, 2, [1.0, 1.0, 0.0, 0.0])  # indicator of w_1 = 0
    report = telescope_bound_check(f, mu)
    assert report.deltas[0] == 0.0
    assert report.deltas[1] == pytest.approx(0.25, abs=1e-11)


def test_telescope_sweep():
    rng = random.Random(2024)
    for _ in range(60):
        s = rng.choice([2, 3])
        mu = random_chain(rng, s)
        depth = rng.randint(1, 3)
        f = CylinderFunction(
            depth, s, [rng.uniform(-3, 3) for _ in range(s**depth)]
        )
        report = telescope_bound_check(f, mu)
        assert report.per_step_hold
        assert report.telescoping_holds
        assert all(d >= 0.0 for d in report.deltas)
        # one phi-side sum serves both: s = p^1 symbols
        assert report.gap == entropy_gap(mu, 1, s).phi_side
        # mu(f) agrees with brute-force enumeration
        brute = sum(
            mu.word_measure([(idx // s**t) % s for t in range(depth)])
            * f.values[idx]
            for idx in range(s**depth)
        )
        assert report.mu_f == pytest.approx(brute, abs=1e-11)


def test_telescope_rounding_allowance_hides_no_real_violation():
    # f near 3.1e5 rounds mean(f) and mu(f) by an ulp, 5.8e-11, which the
    # checks allow; a defect 10 times past its bound still reads as violated
    mu = MarkovMeasure([[0.4999999998218432, 0.5000000001781568],
                        [0.4999999998108975, 0.5000000001891025]])
    f = CylinderFunction(1, 2, [309661.2896747228, 311508.0769920997])
    report = telescope_bound_check(f, mu)
    assert report.per_step_hold and report.telescoping_holds
    assert 5.8e-11 < report.rounding < 1e-2 * report.delta_sum
    far = dataclasses.replace(report, mu_f=report.mean_f - 10 * report.delta_sum)
    assert far.total_defect == pytest.approx(10 * report.delta_sum)
    assert not far.telescoping_holds
    far = dataclasses.replace(report, deltas=(10 * report.per_step_bounds[0],))
    assert not far.per_step_hold


def test_telescope_symbol_mismatch():
    with pytest.raises(SymbolCountMismatch):
        telescope_bound_check(
            CylinderFunction(1, 2, [1.0, 0.0]), MarkovMeasure.uniform(3)
        )
