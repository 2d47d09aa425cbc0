"""Command line front end against frozen golden transcripts.

Byte identity with the goldens pins the output contract: key order, float
rendering, exact-rational strings, and the schema tag.  Any formatting
drift shows up as a diff here before it reaches a downstream parser.
"""

import argparse
import importlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import padlab
from padlab import errors
from padlab import cli
from padlab.cli import COMMANDS, EXIT_CODES, EXIT_DISAGREE, _printable, build_parser
from padlab.matrix import fraction_val

from cli_cases import A2, BUNDLE, EXIT_CASES, GOLDEN_CASES, GOLDEN_DIR, SUBCOMMANDS, run_cli


@pytest.mark.parametrize(
    "name,argv", GOLDEN_CASES, ids=[case[0] for case in GOLDEN_CASES]
)
def test_golden_transcript(name, argv):
    code, out, err = run_cli(argv)
    assert code == 0
    assert err == ""
    assert out == (GOLDEN_DIR / name).read_text()


def test_every_subcommand_has_a_golden():
    assert {argv[0] for _, argv in GOLDEN_CASES} == SUBCOMMANDS


def test_runs_are_deterministic():
    # repeat every golden case; output must be byte-identical across runs
    for name, argv in GOLDEN_CASES:
        assert run_cli(argv) == run_cli(argv), name


def test_json_documents_are_canonical():
    for name, _ in GOLDEN_CASES:
        if not name.endswith(".json"):
            continue
        text = (GOLDEN_DIR / name).read_text()
        doc = json.loads(text)
        assert doc["schema"] == "padlab/1"
        assert "command" in doc and "p" in doc and "precision" in doc
        # emitted with sorted keys and two-space indent, nothing else
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert text == cli._json_text(doc) + "\n"


_JSON_TEXT = st.text(st.one_of(
    st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u2028é€\U0001f600')))
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _JSON_TEXT)


@settings(max_examples=600)
@given(st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(_JSON_TEXT, inner)),
    max_leaves=30))
def test_the_json_writer_writes_what_json_dumps_writes(doc):
    # NaN and the infinities are json.dumps's own words, as every float is
    assert cli._json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_text_format_flattens_the_same_document():
    doc = json.loads((GOLDEN_DIR / "xi_k1.json").read_text())
    lines = (GOLDEN_DIR / "xi_k1_text.txt").read_text().splitlines()
    assert lines == [f"{key} = {doc[key]}" for key in sorted(doc)]


@pytest.mark.parametrize(
    "argv,want",
    EXIT_CASES,
    ids=[f"exit{want}-{argv[0] if argv else 'noargs'}" for argv, want in EXIT_CASES],
)
def test_documented_exit_codes(argv, want):
    code, out, err = run_cli(argv)
    assert code == want
    assert out == ""  # failures never emit a document
    assert err != ""  # but always say why on stderr


@pytest.mark.parametrize("element", [
    '[["1/3","1","0"],["0","1","0"],["0","0","3"]]',
    '[["1/3","0","1"],["0","1","0"],["0","0","3"]]',
])
def test_analyze_conjugated_sl3_flow(element):
    # conjugates of diag(1/3, 1, 3): |nu| = 1 + 2 + 1 whatever the conjugator
    code, out, err = run_cli(["analyze", "--p", "3", "--dim", "3", "--element", element])
    assert (code, err) == (0, "")
    assert json.loads(out)["nu_total"] == 4


def test_readme_precision_refusal_example():
    # the README's example of exit 7 from well-formed input: a's eigenvalue 1
    # is a double root of its characteristic polynomial, certified to 6 of 12
    # digits, and the peeling residual is held back by an entry known only
    # modulo 2^8
    code, out, err = run_cli(["factor", "--p", "2", "--group", "gl", "--dim", "3",
                              "--a", '[["2","1","2"],["0","1","0"],["0","0","1"]]',
                              "--element", '[["1","4","0"],["0","1","0"],["0","0","1"]]',
                              "--k", "2"])
    assert (code, out) == (7, "")
    assert "PrecisionExhausted: residual entry is O(2^8)" in err


def test_simple_eigenvalues_factor_to_full_precision():
    # the README's former exit-7 example: on lines from a's own eigendata,
    # whose simple eigenvalues carry every digit, it factors, and F H = g
    # mod 3^12 on the printed rationals
    g = [[10, 9], [0, 1]]
    code, out, err = run_cli(["factor", "--p", "3", "--group", "gl", "--dim", "2",
                              "--a", '[["1/3","8/3"],["0","3"]]',
                              "--element", json.dumps([[str(x) for x in row] for row in g]),
                              "--k", "2"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["remultiplication"] == "PASS"
    f, h = ([[Fraction(x) for x in row] for row in doc[key]] for key in ("unstable", "bounded"))
    val = fraction_val(3)
    for i in range(2):
        for j in range(2):
            diff = sum(f[i][k] * h[k][j] for k in range(2)) - g[i][j]
            assert diff == 0 or val(diff) >= 12


def test_dependent_eigenbasis_exits_2():
    # every eigenspace has its multiplicity, but the eigenlines are dependent
    # at working precision: no eigenbasis, not an invalid input
    code, out, err = run_cli([
        "analyze", "--p", "3", "--group", "gl", "--dim", "4", "--element",
        '[["2","-34/9","-37/3","202/9"],["1","-2","-10","-61"],["0","0","0","18"],'
        '["0","0","1","0"]]'])
    assert (code, out) == (2, "")
    assert "no eigenbasis at working precision" in err


def test_coefficients_without_joint_certified_digits_exit_2():
    # at 2 digits the adjoint characteristic polynomial's coefficients of x
    # and x^3 are known modulo 2^-2 only and that of x^2 is O(2^-3): no
    # Newton slope leaves a certified digit, a refusal of the flow at this
    # precision, not an invalid input
    code, out, err = run_cli([
        "analyze", "--p", "2", "--precision", "2", "--group", "gl", "--dim", "2",
        "--element", '[["-1/2","1"],["-1","-2"]]'])
    assert (code, out) == (2, "")
    assert "coefficients carry no joint certified digits" in err


def test_low_adjoint_coefficients_are_read_off_the_high_ones():
    # Berkowitz leaves this flow's constant coefficient O(2^-4), though it is
    # exactly -1: det Ad(a) = 1 and the Ad spectrum is closed under
    # inversion, so the low half of the polynomial mirrors the high half
    code, out, err = run_cli([
        "analyze", "--p", "2", "--group", "sl", "--dim", "3",
        "--element", '[["4","15/4","-21/2"],["0","1/4","3/2"],["0","0","1"]]'])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["nu_total"], doc["lattice_defect"]) == (8, 0)
    assert doc["eigenvalues"] == ["1/16", "1/4", "1/4", "1", "1", "4", "4", "16"]


def test_hensel_roots_refuses_an_o_p_c_constant_and_keeps_exact_zero_roots():
    ctx = padlab.PadicContext(3, 6)
    with pytest.raises(errors.NotSplitAtPrecision, match="coefficient 0 is O\\(3\\^4\\)"):
        padlab.hensel_roots([ctx.zero(4), ctx.one()])
    roots = padlab.hensel_roots([ctx.zero(), ctx.zero(), ctx.one()])
    assert [(r.is_zero, bool(r), m) for r, m in roots] == [(True, False, 2)]


def test_non_split_flow_decomposes():
    # a's characteristic polynomial does not split over Q_5, Ad(a)'s does;
    # the answer is the one the flow gives at --precision 24
    code, out, err = run_cli([
        "analyze", "--p", "5", "--group", "gl", "--dim", "4", "--element",
        '[["0","2/625","-1244/625","-56/625"],["1","0","4","44/25"],'
        '["0","0","0","2/25"],["0","0","1","0"]]'])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["nu_total"], doc["lattice_defect"]) == (4, 14)


def test_factor_names_the_lattice_defect_when_a_part_leaves_exps_ball():
    # g lies in K_2, but the unstable coordinates of the deep residual carry
    # denominators up to p^lattice_defect: the refusal names the round, the
    # part's valuation and the flow's defect
    code, out, err = run_cli([
        "factor", "--p", "5", "--group", "gl", "--dim", "4", "--a",
        '[["0","2/625","-1244/625","-56/625"],["1","0","4","44/25"],'
        '["0","0","0","2/25"],["0","0","1","0"]]',
        "--element", '[["1","25","0","0"],["0","1","0","0"],["0","0","1","0"],["0","0","0","1"]]',
        "--k", "2"])
    assert (code, out) == (5, "")
    assert err == ("padlab: DomainError: round 2, unstable part: exp needs ||.|| <= p^-2, "
                   "got valuation 1; the flow's lattice_defect is 14\n")


def test_readme_exit_table_matches_the_exit_codes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Exit codes:", 1)[1].split("\n\n", 2)[1]
    # the rows under the header and its | --- | rule
    codes = [int(line.split("|")[1]) for line in table.splitlines()[2:]]
    assert len(codes) == len(set(codes))
    assert set(codes) == {0, 1, EXIT_DISAGREE} | set(EXIT_CODES.values())


def test_telescope_keeps_the_gap_of_a_near_uniform_chain():
    # the row terms of phi cancel below rounding when summed as q ln(q/p);
    # a gap rounded to 0 bounds every Delta_n by 0, and these reach 5e5
    markov = '{"s":2,"transition":[[0.5,0.5],[0.500000001,0.499999999]]}'
    f = '{"depth":3,"values":[1e15,-1e15,3e14,7,1e15,-2e15,5,1e15]}'
    code, out, err = run_cli(["telescope", "--markov", markov, "--f", f])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["per_step_hold"] and doc["telescoping_holds"]
    assert float(doc["gap"]) == pytest.approx(1e-18, rel=1e-6, abs=0)


def test_telescope_allows_the_rounding_of_a_large_f():
    # at depth 1 both sides are equal in exact arithmetic; mean(f) and mu(f)
    # near 3.1e5 differ by one ulp, 5.8e-11, past a fixed slack of 1e-12
    markov = ('{"s":2,"transition":[[0.4999999998218432,0.5000000001781568],'
              '[0.4999999998108975,0.5000000001891025]]}')
    f = '{"depth":1,"values":[309661.2896747228,311508.0769920997]}'
    code, out, err = run_cli(["telescope", "--markov", markov, "--f", f])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["per_step_hold"] and doc["telescoping_holds"]


def _phi_side_off_by_1(monkeypatch):
    from padlab import entropylab

    phi_side = entropylab._phi_side
    monkeypatch.setattr(entropylab, "_phi_side", lambda measure: phi_side(measure) + 1)


def _telescoping_fails(monkeypatch):
    from padlab import entropylab

    monkeypatch.setattr(entropylab.TelescopeReport, "telescoping_holds",
                        property(lambda report: False))


@pytest.mark.parametrize("golden,violate,message", [
    ("gap_uniform.json", _phi_side_off_by_1, "gap identity violated: "),
    ("telescope.json", _telescoping_fails, "telescoping estimate violated"),
])
def test_a_violated_identity_or_estimate_exits_19(golden, violate, message, monkeypatch):
    # an ArithmeticError too, so library callers' except clauses still hold
    assert issubclass(errors.BoundViolated, ArithmeticError)
    violate(monkeypatch)
    code, out, err = run_cli(dict(GOLDEN_CASES)[golden])
    assert (code, out) == (19, "")
    assert err.startswith(f"padlab: BoundViolated: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_gap_computes_the_entropy_rate_once(monkeypatch):
    from padlab import entropylab

    calls = []
    rate = entropylab.entropy_rate
    monkeypatch.setattr(entropylab, "entropy_rate",
                        lambda measure: calls.append(measure) or rate(measure))
    name = "gap_bernoulli.json"
    assert run_cli(dict(GOLDEN_CASES)[name]) == (0, (GOLDEN_DIR / name).read_text(), "")
    assert len(calls) == 1


BOUND = ["bound"] + BUNDLE + ["--lf", "0", "--f-norm", "1"]
KAPPA = ["kappa", "--p", "2", "--c", "1", "--alpha", "1", "--delta", "1",
         "--d", "1", "--base", "1", "--entropy-nats", "0"]


@pytest.mark.parametrize("argv", [
    BOUND + ["--gap", "nan"],
    BOUND + ["--gap=-inf"],
    BOUND + ["--gap-file", '{"entropy_side": true}'],
    BOUND + ["--gap-file", '{"entropy_side": "nan"}'],
    BOUND + ["--gap-file", '{"entropy_side": Infinity}'],
    BOUND + ["--gap-file", '{"entropy_side": null}'],
    ["bound"] + BUNDLE + ["--lf", "0", "--f-norm", "inf", "--gap", "0.25"],
    KAPPA + ["--a-norm", "inf"],
    KAPPA + ["--a-norm", "nan"],
    ["kappa"] + BUNDLE + ["--c", "nan"],
    ["kappa"] + BUNDLE + ["--entropy-nats", "inf"],
], ids=["gap-nan", "gap-minus-inf", "gap-file-bool", "gap-file-nan-string",
        "gap-file-infinity", "gap-file-null", "f-norm-inf", "a-norm-inf", "a-norm-nan",
        "c-nan", "entropy-inf"])
def test_non_finite_reals_exit_1(argv):
    # NaN passes every sign check, and float(true) is 1
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert "real" in err


@pytest.mark.parametrize("argv,message", [
    (KAPPA + ["--d", "3", "--base", "0.5", "--a-norm", "3", "--entropy-nats", "1000"],
     "'kappa' must be a finite real"),
    (["kappa"] + BUNDLE + ["--c", "1e308", "--base", "1e-300"], "'kappa' must be a finite real"),
    (KAPPA + ["--delta", "1e-10", "--a-norm", "1.0000000001"], "rounds to 0"),
    (["bound"] + BUNDLE + ["--lf", "100000", "--f-norm", "1", "--gap", "0.25"],
     "'the bound' must be a finite real"),
], ids=["kappa-exp-overflow", "kappa-inf", "series-term-zero", "bound-power-overflow"])
def test_non_finite_constants_exit_1(argv, message):
    # finite inputs whose constant overflows a double, or whose series term
    # 1 - ||a||^(-delta) rounds to 0, are refused rather than printed as inf
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert message in err


def test_a_prime_past_the_decidable_bound_exits_1_at_once():
    started = time.monotonic()
    code, out, err = run_cli(["xi", "--p", "10000000000000000000000013", "--k", "1"])
    assert time.monotonic() - started < 1.0
    assert (code, out) == (1, "")
    assert "argument --p: primes are decided below 3317044064679887385961981" in err


@pytest.mark.parametrize("flag,value", [
    ("--p", "4"), ("--p", "1"), ("--p", "0"), ("--p", "-3"), ("--p", "two"),
    ("--precision", "0"), ("--precision", "-1"),
])
def test_common_p_is_a_prime_and_precision_positive(flag, value):
    # checked once, by the flag's type, for every subcommand: unchecked, xi
    # would print 0.8 for --p 4 and divide by zero for --p 0
    kind = "prime" if flag == "--p" else "positive integer"
    for sub in sorted(SUBCOMMANDS):
        code, out, err = run_cli([sub, flag, value])
        assert (code, out) == (1, ""), sub
        assert f"argument {flag}: invalid {kind} value: '{value}'" in err, sub


def test_gap_file_takes_the_printed_string_or_a_json_number():
    by_flag = run_cli(BOUND + ["--gap", "0.25"])
    assert by_flag[0] == 0
    for gap in ('"0.25"', "0.25"):
        assert run_cli(BOUND + ["--gap-file", '{"entropy_side": ' + gap + "}"]) == by_flag


def test_finite_real_is_shared_from_the_numpy_free_errors_module():
    for value, want in (("0.25", 0.25), ("-3", -3.0), (2, 2.0), (-0.5, -0.5)):
        assert errors._finite_real(value) == want
    for value in (True, None, [0.5], "nan", "inf", "-1e400", float("nan"), float("inf"), 10**400):
        with pytest.raises(ValueError, match="real"):
            errors._finite_real(value, "gap")
    with pytest.raises(ValueError):
        errors._finite_real("half")


@pytest.mark.parametrize("argv", [
    ["gap", "--p", "2", "--nu", "1",
     "--markov", '{"s":2,"transition":[[1.0,0.0],[0.0,1.0]]}'],
    ["gap", "--p", "2", "--nu", "2",
     "--markov", '{"s":4,"transition":[[0.5,0.5,0,0],[0.25,0.75,0,0],'
                 '[0,0,0.3,0.7],[0,0,0.6,0.4]]}'],
], ids=["identity", "two-blocks"])
def test_non_unique_stationary_exits_18(argv):
    # more than one closed class: no stationary vector is the chain's own
    code, out, err = run_cli(argv)
    assert (code, out) == (18, "")
    assert "not unique" in err


@pytest.mark.parametrize("argv", [
    ["pinsker", "--ref", "[NaN, 1.0]", "--obs", "[0.5,0.5]"],
    ["gap", "--p", "2", "--nu", "1",
     "--markov", '{"s":2,"transition":[[NaN,1.0],[0.5,0.5]]}'],
], ids=["pinsker", "gap"])
def test_non_finite_probabilities_exit_1(argv):
    # JSON admits NaN, which slips past both the sign and the sum checks
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert "finite" in err


def test_full_oracle_accepts_negative_entries():
    # -1/3 embeds as a p-adic approximation whose rational inverse has
    # denominators prime to p; FULL must count it like FACTORED does
    argv = ["oracle", "--element", '[["-1/3","0"],["0","-3"]]', "--dim", "2",
            "--k", "4", "--n", "2", "--level", "7"]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["counts"] == ["19683", "2187"]
    assert doc["verdict"] == "AGREE"
    code, factored, _ = run_cli(argv + ["--mode", "FACTORED"])
    assert code == 0 and json.loads(factored)["counts"] == doc["counts"]


def test_full_oracle_counts_at_window_length_1_and_at_deep_levels():
    # n = 1 conjugates nothing: one digit past k is enough
    base = ["oracle", "--p", "5", "--element", '[["1/25","0"],["0","25"]]', "--dim", "2"]
    code, out, err = run_cli(base + ["--k", "9", "--n", "1", "--level", "10", "--mode", "FULL"])
    assert (code, err) == (0, "")
    assert json.loads(out)["counts"] == ["125"]
    # window 2 at need 2^21: 3 * 2^3 * 2^21 stays far below 2^63
    argv = ["oracle", "--p", "2", "--element", '[["1/2","0"],["0","2"]]', "--dim", "2",
            "--k", "19", "--n", "2", "--level", "22"]
    code, full, err = run_cli(argv + ["--mode", "FULL"])
    assert (code, err) == (0, "")
    code, factored, _ = run_cli(argv + ["--mode", "FACTORED"])
    assert code == 0
    assert json.loads(full)["counts"] == json.loads(factored)["counts"] == ["512", "128"]
    # window 2 at need 2^62: an index count has no word-size limit
    argv[argv.index("19")], argv[argv.index("22")] = "60", "63"
    code, full, err = run_cli(argv + ["--mode", "FULL"])
    assert (code, err) == (0, "")
    code, factored, _ = run_cli(argv + ["--mode", "FACTORED"])
    assert code == 0
    assert json.loads(full)["counts"] == json.loads(factored)["counts"] == ["512", "128"]


def test_full_oracle_counts_a_window_defined_at_a_level_below_its_denominators():
    # a and a^-1 have denominators 5^2 and 5^3, yet window 3's lattice holds
    # 5^2 Z^4: its count is defined modulo 5^5 already, and FULL gives FACTORED's
    argv = ["oracle", "--p", "5", "--group", "gl", "--dim", "2",
            "--element", '[["1/25","-8/25"],["0","1/5"]]', "--k", "3", "--n", "3",
            "--level", "6", "--mode"]
    code, out, err = run_cli(argv + ["FULL"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["verdict"] == "AGREE"
    assert doc["counts"] == ["244140625", "48828125", "9765625"]
    code, factored, _ = run_cli(argv + ["FACTORED"])
    assert code == 0 and json.loads(factored)["counts"] == doc["counts"]


def test_full_oracle_brackets_the_closed_form_by_the_lattice_defect():
    # the entry lattice's windows are not the eigenbasis's at defect 3: the
    # ratio 1/8 lies between 1/2 * 2^-3 and 1/2
    code, out, err = run_cli(["oracle", "--p", "2", "--group", "gl", "--dim", "2",
                              "--element", '[["1/2","1/4"],["0","1"]]', "--k", "3", "--n", "2",
                              "--level", "6", "--mode", "FULL"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["counts"], doc["ratios"], doc["closed_form"]) == (
        ["4096", "512"], ["1", "1/8"], ["1", "1/2"])
    assert doc["verdict"] == "AGREE"


ORACLE_5000 = ["oracle", "--element", '[["1/3","0"],["0","3"]]', "--dim", "2", "--k", "4",
               "--n", "2", "--level", "5000", "--mode"]


@pytest.mark.parametrize("argv,message", [
    (ORACLE_5000 + ["FACTORED"], "count 3^14988 would print more than 4300 digits"),
    (ORACLE_5000 + ["FULL"], "count 3^14988 would print more than 4300 digits"),
    (["bowen", "--element", '[["1/3","0"],["0","3"]]', "--dim", "2", "--k", "4", "--n", "5000"],
     "volume ratio 1/3^9998 would print more than 4300 digits"),
], ids=["oracle-factored", "oracle-full", "bowen"])
def test_a_value_too_long_to_print_exits_10(argv, message):
    # both computations succeed; printing them passed int's 4300-digit limit
    started = time.monotonic()
    code, out, err = run_cli(argv)
    assert time.monotonic() - started < 1.0
    assert (code, out) == (10, "")
    assert message in err


@pytest.mark.parametrize("level", [10**6, 10**7])
def test_an_unprintable_factored_count_exits_10_before_it_is_built(level):
    # refused from its exponent: building 3^(3 (level - 4)) first takes
    # seconds at 10^6 and over a minute at 10^7
    started = time.monotonic()
    code, out, err = run_cli(["oracle", "--element", '[["1/3","0"],["0","3"]]', "--dim", "2",
                              "--k", "4", "--n", "2", "--level", str(level), "--mode", "FACTORED"])
    assert time.monotonic() - started < 1.0
    assert (code, out) == (10, "")
    assert f"count 3^{3 * (level - 4)} would print more than 4300 digits" in err


def test_factored_argument_faults_come_before_an_unprintable_count():
    # the oracle's own checks still decide first: a ball level below the
    # flow's minimum, and an eigenbasis short of the lattice (defect 3)
    tail = ["--dim", "2", "--n", "2", "--level", str(10**7), "--mode", "FACTORED"]
    code, _, err = run_cli(["oracle", "--element", '[["1/3","0"],["0","3"]]', "--k", "1"] + tail)
    assert code == 6 and "below the adapted minimum" in err
    code, _, err = run_cli(["oracle", "--element", '[["1/3","8/9"],["0","3"]]', "--k", "4"] + tail)
    assert code == 5 and "spanning the full lattice" in err


@pytest.mark.parametrize("command,extra", [("bowen", []), ("oracle", ["--level", "7"])])
def test_an_empty_window_exits_5(command, extra):
    code, out, err = run_cli([command, "--element", '[["1/3","0"],["0","3"]]', "--dim", "2",
                              "--k", "4", "--n", "0"] + extra)
    assert (code, out) == (5, "")
    assert "window length must be >= 1" in err


@pytest.mark.parametrize("p", [2, 3, 5, 7, 10007])
def test_printable_refuses_exactly_the_powers_str_refuses(p):
    limit = sys.get_int_max_str_digits()
    e, first_too_long = 1, 10**limit
    while p**e < first_too_long:
        e += 1
    str(p ** (e - 1))
    with pytest.raises(ValueError):
        str(p**e)
    _printable(p, e - 1, "count ")
    with pytest.raises(errors.BudgetExceeded, match=f"count {p}\\^{e} would print"):
        _printable(p, e, "count ")


@pytest.mark.parametrize("nu,message", [
    ("100000", "chain has 2 symbols, the split needs p^|nu| = 2^100000"),
    ("-1", "argument --nu: invalid nonnegative integer value: '-1'"),
], ids=["huge", "negative"])
def test_gap_decides_the_symbol_count_without_building_p_to_the_nu(nu, message):
    code, out, err = run_cli(["gap", "--p", "2", "--nu", nu, "--markov",
                              '{"transition":[[0.5,0.5],[0.5,0.5]]}'])
    assert (code, out) == (1, "")
    assert message in err


def test_atoms_refuses_more_representatives_than_ints_string_limit_at_once():
    # diag(1/729, 729) has 3^12 = 531441 representatives, past the 4300 of
    # sys.get_int_max_str_digits(): refused before any is built
    started = time.monotonic()
    code, out, err = run_cli(["atoms", "--p", "3", "--element", '[["1/729","0"],["0","729"]]',
                              "--dim", "2", "--k", "14"])
    assert time.monotonic() - started < 1.0
    assert (code, out) == (10, "")
    assert "BudgetExceeded: 3^12 atom representatives, more than 4300" in err


@pytest.mark.parametrize("limit,want", [(9, 0), (8, 10), (0, 0)])
def test_atoms_budget_is_ints_string_limit_and_none_at_0(limit, want, monkeypatch):
    # diag(1/3, 3) has 3^2 = 9 representatives; a limit of 0 is no limit
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
    code, _, err = run_cli(["atoms", "--element", A2, "--dim", "2", "--k", "4"])
    assert code == want
    assert err == ("" if want == 0 else f"padlab: BudgetExceeded: 3^2 atom representatives, "
                                         f"more than {limit}\n")


X2 = '[["0","9"],["0","0"]]'
X3 = '[["0","9","0"],["0","0","0"],["0","0","0"]]'
I3 = '[["1","0","0"],["0","1","0"],["0","0","1"]]'


@pytest.mark.parametrize("argv", [
    ["bch", "--x", X2, "--y", X3],
    ["bch", "--x", X2, "--y", X3, "--mode", "dynkin"],
    ["factor", "--dim", "2", "--a", '[["1/3","0"],["0","3"]]', "--element", I3],
    ["analyze", "--dim", "2", "--element", '[["1/3","0","0"],["0","1","0"],["0","0","3"]]'],
], ids=["bch-direct", "bch-dynkin", "factor", "analyze"])
def test_operands_of_different_sizes_exit_1(argv):
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert "Traceback" not in err and "x3" in err


CHAIN = '"transition":[[0.5,0.5],[0.5,0.5]]'


@pytest.mark.parametrize("argv", [
    ["gap", "--p", "2", "--nu", "1", "--markov", '{"s":2.5,' + CHAIN + "}"],
    ["telescope", "--markov", "{" + CHAIN + "}", "--f", '{"depth":1.9,"values":[1.0,0.0]}'],
    ["telescope", "--markov", "{" + CHAIN + "}", "--f", '{"depth":"1","values":[1.0,0.0]}'],
    ["oh", "--p", "3", "--cartan", "[1.9,-1.9]"],
    ["oh", "--p", "3", "--cartan", "[true,false]"],
    ["oh", "--p", "3", "--cartan", '["1","-1"]'],
], ids=["gap-s-float", "telescope-depth-float", "telescope-depth-string",
        "oh-cartan-float", "oh-cartan-bool", "oh-cartan-string"])
def test_document_counts_must_be_json_integers(argv):
    # int() would truncate these counts and run the call on other input
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert "JSON integer" in err


def test_json_int_is_shared_from_the_numpy_free_errors_module():
    # oh --cartan reads its entries with it, so it must not live in entropylab
    assert errors._json_int(-3, "cartan") == -3
    for value in (1.9, 2.0, True, "1", None):
        with pytest.raises(ValueError, match="JSON integer"):
            errors._json_int(value, "cartan")


@pytest.mark.parametrize("argv,field", [
    (["gap", "--p", "2", "--nu", "1",
      "--markov", '{"s":2,"transition":[["0.5","0.5"],[true,false]]}'], "transition"),
    (["gap", "--p", "2", "--nu", "1",
      "--markov", '{"s":2,"transition":[[0.5,0.5],[true,false]]}'], "transition"),
    (["telescope", "--markov", "{" + CHAIN + "}", "--f", '{"depth":1,"values":[true,"2"]}'],
     "values"),
    (["pinsker", "--ref", '["0.5","0.5"]', "--obs", "[0.25,0.75]"], "ref"),
    (["pinsker", "--ref", "[0.5,0.5]", "--obs", "[false,true]"], "obs"),
], ids=["gap-strings", "gap-bools", "telescope-values", "pinsker-ref", "pinsker-obs"])
def test_document_reals_must_be_json_numbers(argv, field):
    # float() would read "0.5" as 0.5 and true as 1.0 and run on that input
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert f"'{field}' entries must be JSON numbers" in err


def test_json_number_is_shared_from_the_numpy_free_errors_module():
    for value in (0, -3, 0.25):
        assert errors._json_number(value, "ref") == value
    for value in (True, False, "0.5", None, [0.5]):
        with pytest.raises(ValueError, match="JSON numbers"):
            errors._json_number(value, "ref")


def test_matrix_read_from_a_file_path(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(A2)
    code, out, err = run_cli(["analyze", "--element", str(path), "--dim", "2"])
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / "analyze_sl2.json").read_text()


def _flat_lines(doc, prefix=""):
    if isinstance(doc, dict):
        return [line for key in sorted(doc) for line in _flat_lines(doc[key], f"{prefix}{key}.")]
    if isinstance(doc, list):
        return [line for i, item in enumerate(doc) for line in _flat_lines(item, f"{prefix}{i}.")]
    return [f"{prefix[:-1]} = {doc}"]


def test_text_format_numbers_list_entries():
    # nested keys join with dots and list entries are numbered from 0
    code, out, err = run_cli(["analyze", "--element", A2, "--dim", "2", "--format", "text"])
    assert (code, err) == (0, "")
    doc = json.loads((GOLDEN_DIR / "analyze_sl2.json").read_text())
    assert out.splitlines() == _flat_lines(doc)
    assert "eigenvalues.2 = 9" in out.splitlines()


def test_telescope_reads_f_embedded_in_the_markov_document():
    markov = '{"s":2,"transition":[[0.25,0.75],[0.25,0.75]],"f":{"depth":1,"values":[1.0,0.0]}}'
    code, out, err = run_cli(["telescope", "--markov", markov])
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / "telescope.json").read_text()


def test_telescope_without_a_cylinder_function_exits_1():
    code, out, err = run_cli(["telescope", "--markov", "{" + CHAIN + "}"])
    assert (code, out) == (1, "")
    assert "no cylinder function" in err


def test_telescope_cylinder_document_without_values_exits_1():
    code, out, err = run_cli(["telescope", "--markov", "{" + CHAIN + "}", "--f", '{"depth":1}'])
    assert (code, out) == (1, "")
    assert "cylinder document needs 'depth' and 'values'" in err


@pytest.mark.parametrize("element,message", [
    ("[]", "matrix literal must be a nonempty array of rows"),
    ("[1]", "matrix rows must be arrays"),
    ('[["1","2"]]', "matrix must be square"),
], ids=["empty", "row-not-array", "not-square"])
def test_malformed_matrix_literals_exit_1(element, message):
    code, out, err = run_cli(["analyze", "--dim", "2", "--element", element])
    assert (code, out) == (1, "")
    assert message in err


def test_bound_reads_the_entropy_side_of_a_gap_report():
    report = GOLDEN_DIR / "gap_bernoulli.json"
    tail = ["--lf", "0", "--f-norm", "1"]
    code, from_file, err = run_cli(["bound"] + BUNDLE + tail + ["--gap-file", str(report)])
    assert (code, err) == (0, "")
    gap = json.loads(report.read_text())["entropy_side"]
    assert run_cli(["bound"] + BUNDLE + tail + ["--gap", gap]) == (0, from_file, "")


def test_lf_shift_moves_l_f_and_leaves_kappa():
    # the shift is the caller's: kappa is the same, bound's l_f gains |nu|
    code, out, _ = run_cli(["kappa"] + BUNDLE + ["--lf-shift"])
    golden = json.loads((GOLDEN_DIR / "kappa.json").read_text())
    assert (code, json.loads(out)) == (0, {**golden, "lf_shift_applied": True})
    argv = ["bound"] + BUNDLE + ["--nu-total", "2", "--lf", "1", "--f-norm", "1", "--gap", "0.25"]
    plain, shifted = (json.loads(run_cli(argv + extra)[1]) for extra in ([], ["--lf-shift"]))
    assert (plain["l_f"], plain["lf_shift_applied"]) == (1, False)
    assert (shifted["l_f"], shifted["lf_shift_applied"]) == (3, True)
    assert shifted["kappa"] == plain["kappa"] == golden["kappa"]


@pytest.mark.parametrize("argv,message", [
    (["oh", "--p", "3"],"exactly one of --cartan or --element"),
    (["oh", "--p", "3", "--cartan", "[1,-1]", "--element", A2],
     "exactly one of --cartan or --element"),
    (["bound"] + BUNDLE + ["--lf", "0", "--f-norm", "1"], "exactly one of --gap or --gap-file"),
    (["bound"] + BUNDLE + ["--lf", "0", "--f-norm", "1", "--gap", "0.25",
                           "--gap-file", '{"entropy_side": "0.25"}'],
     "exactly one of --gap or --gap-file"),
    (["bound"] + BUNDLE + ["--lf", "0", "--f-norm", "1", "--gap-file", '{"phi_side": "0.25"}'],
     "gap report with 'entropy_side'"),
], ids=["oh-neither", "oh-both", "bound-neither", "bound-both", "bound-not-a-report"])
def test_alternative_inputs_take_exactly_one_exits_1(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert message in err


def test_oh_of_a_singular_element_with_negative_entries_exits_8():
    # -1 embeds as 3^12 - 1; the lifted matrix is not singular, g is
    code, out, err = run_cli(["oh", "--p", "3", "--element", '[["-1","1"],["1","-1"]]'])
    assert (code, out) == (8, "")
    assert "SingularAtPrecision" in err


@pytest.mark.parametrize("dim,element", [
    (3, '[["0","0","0"],["0","1","0"],["0","0","3"]]'),
    (3, '[["1","2","0"],["2","4","0"],["0","0","3"]]'),
    # 531445 = 4 + 3^12: singular only at working precision
    (2, '[["1","2"],["2","531445"]]'),
], ids=["zero-row", "dependent-rows", "singular-at-precision"])
def test_singular_flow_exits_8_before_any_eigenvalue_is_divided(dim, element):
    # decompose counts a's pivots first; an eigenvalue 0 divided on the
    # eigendata path would raise DivisionByZero or PrecisionExhausted instead
    code, out, err = run_cli(["analyze", "--p", "3", "--group", "gl", "--dim", str(dim),
                              "--element", element])
    assert (code, out) == (8, "")
    assert "SingularAtPrecision: no pivot left: singular at working precision" in err


def test_oh_of_an_element_with_divisors_at_the_entry_precision_exits_0():
    # 1/729 is certified modulo 3^6 only, and the divisors are still [6, -6]
    code, out, _ = run_cli(["oh", "--p", "3", "--element", '[["729","0"],["0","1/729"]]'])
    assert code == 0
    assert json.loads(out)["cartan"] == [6, -6]


@pytest.mark.parametrize("argv", [
    ["--p", "5", "xi", "--k", "1"],
    ["--format", "text", "xi", "--k", "1"],
    ["--precision=5", "xi", "--k", "1"],
], ids=["p", "format", "precision"])
def test_common_flags_before_the_subcommand_exit_1(argv):
    # refused, not shadowed by the subcommand's default of the same flag, and
    # the message names the flag
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    flag = argv[0].split("=")[0]
    assert f"{flag} follows the subcommand" in err


@pytest.mark.parametrize("p,bound_s", [(100_003, 0.1), (2**61 - 1, 0.2)])
def test_analyze_at_a_large_prime_splits_residues_instead_of_scanning(p, bound_s):
    # a scan of all p residues per root class takes 0.3 s at p = 100,003 and
    # does not end at 2^61 - 1; the split is polynomial in log p
    start = time.perf_counter()
    code, out, err = run_cli(["analyze", "--p", str(p), "--dim", "2",
                              "--element", f'[["1/{p}","0"],["0","{p}"]]'])
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["valuations"], doc["nu_total"]) == ([-2, 0, 2], 2)
    assert elapsed < bound_s


def _subparser(parser, name):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


@pytest.mark.parametrize("name", list(COMMANDS))
def test_one_subcommand_parser_prints_the_full_parsers_help(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert build_parser(name).format_help() == _subparser(build_parser(), name).format_help()


def _help_texts() -> str:
    """padlab --help, then each subcommand's --help, each under its own header."""
    parser = build_parser()
    texts = [("padlab", parser.format_help())]
    texts += [(f"padlab {name}", _subparser(parser, name).format_help()) for name in COMMANDS]
    return "".join(f"==> {title} --help <==\n{text}" for title, text in texts)


def test_help_texts_match_their_golden(monkeypatch):
    # the flags, their order, defaults, choices and help lines, at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    assert _help_texts() == (GOLDEN_DIR / "help.txt").read_text()


def _parsed(parser, argv):
    try:
        return vars(parser.parse_args(argv))
    except cli._ParseFailure as err:
        return f"refused: {err}"


@pytest.mark.parametrize("argv", [argv for _, argv in GOLDEN_CASES]
                         + [argv for argv, _ in EXIT_CASES if argv and argv[0] in COMMANDS])
def test_one_subcommand_parser_parses_like_the_full_parser(argv):
    # the named parser reads the words after the subcommand
    assert _parsed(build_parser(argv[0]), argv[1:]) == _parsed(build_parser(), argv)


def test_a_first_word_naming_no_subcommand_gets_the_full_parser(capsys):
    # the usage line, the list of choices and the misplaced-flag message all
    # need every subcommand, so these answers are the full parser's
    assert run_cli([]) == (1, "", "usage: padlab [-h] SUBCOMMAND ...\n")
    choices = ", ".join(f"'{name}'" for name in COMMANDS)
    assert run_cli(["nope"]) == (
        1, "", f"padlab: argument SUBCOMMAND: invalid choice: 'nope' (choose from {choices})\n")
    assert run_cli(["--p", "5", "xi", "--k", "1"]) == (
        1, "", "padlab: --p follows the subcommand, as --p, --precision and --format do: "
        "padlab SUBCOMMAND --p ...\n")
    with pytest.raises(SystemExit) as done:
        cli.main(["--help"])
    out, err = capsys.readouterr()
    assert (done.value.code, err) == (0, "")
    assert out.startswith("usage: padlab [-h] SUBCOMMAND ...\n")
    assert all(summary in out for _, summary, _ in COMMANDS.values())
    assert "COMMANDS" not in out  # the docstring's last paragraph is for readers of the code


def test_main_builds_only_the_named_subcommands_parser(monkeypatch):
    built, handed = [], []
    init = argparse.ArgumentParser.__init__
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    def counted_add_subparsers(self, **kwargs):
        handed.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted_init)
    monkeypatch.setattr(cli._Parser, "add_subparsers", counted_add_subparsers)
    # plain --flag value words are read off the COMMANDS row: no parser
    code, out, _ = run_cli(["xi", "--k", "2"])
    assert (code, built, handed) == (0, [], [])
    assert json.loads(out)["command"] == "xi"
    # words the reader declines get the named subcommand's parser alone
    code, out, _ = run_cli(["xi", "--k=2"])
    assert (code, built, handed) == (0, ["padlab xi"], [])
    assert json.loads(out)["command"] == "xi"
    # a first word naming no subcommand still gets the full parser
    built.clear()
    assert run_cli(["nope"])[0] == 1
    assert built == ["padlab", *(f"padlab {name}" for name in COMMANDS)]
    assert handed == ["padlab"]


# named calls whose words the reader must decline, each for its own reason
DECLINED = [
    ["xi", "--k=1"],
    ["xi", "--k", "1", "--k", "2"],
    ["xi", "--k", "-1"],
    ["xi", "--k"],
    ["xi", "--k", ""],
    ["xi", "--k", "1", "extra"],
    ["xi", "--pr", "12", "--k", "1"],
    ["xi", "--k", "1", "--format", "xml"],
    ["xi", "--p", "4", "--k", "1"],
    ["xi", "--p", "1" + "0" * 30, "--k", "1"],
    ["xi"],
    ["kappa"] + BUNDLE + ["--lf-shift", "yes"],
    ["bch", "--x", '[["9","0"],["0","-9"]]', "--y", '[["0","9"],["0","0"]]',
     "--mode", "dynkin", "--mode", "direct"],
    ["oh", "--cartan", "[1,-1]", "--dimkv", "-0"],
]
CASE_ARGVS = ([argv for _, argv in GOLDEN_CASES] + [argv for argv, _ in EXIT_CASES]
              + DECLINED)
WORDS = ["", "x", "0", "1", "2", "3", "4", "-1", "1.5", "0.25", "-0.25", "1e400", "nan",
         "inf", "-inf", "0x10", "1_000", " 3", "\u0663", "True", "[1,2]", '[["1"]]', "--k",
         "-h", "--", "-"]


def _taken(options):
    """Words the flag's type and choices mostly take."""
    if "choices" in options:
        return st.sampled_from(options["choices"])
    if options.get("type") is cli._finite_real:
        return st.floats(0, 1e6).map(repr)
    if "type" in options:
        return st.integers(0, 13).map(str)
    return st.sampled_from(["x", "", "[1,2]", '[["1/3","0"],["0","3"]]'])


@st.composite
def named_argvs(draw):
    """A subcommand and words from its COMMANDS row: each flag present or not,
    with a value that its type and choices take or one from WORDS, or spelled
    as --flag=value or abbreviated, in any order; now and then one more
    word: -h, a stray word, or a flag, alone or with a value."""
    name = draw(st.sampled_from(list(COMMANDS)))
    rows = dict((*cli._COMMON_FLAGS, *COMMANDS[name][2]))
    words = st.sampled_from(WORDS)
    pieces = []
    for flag, options in rows.items():
        if not draw(st.integers(0, 3)) and not options.get("required"):
            continue
        shape = draw(st.integers(0, 29))
        if "action" in options:
            pieces.append([flag] if shape else [flag, draw(words)])
        elif shape == 0:
            pieces.append([f"{flag}={draw(_taken(options))}"])
        elif shape == 1:
            pieces.append([flag[:draw(st.integers(3, len(flag)))], draw(_taken(options))])
        else:
            pieces.append([flag, draw(words if shape == 2 else _taken(options))])
    pieces = draw(st.permutations(pieces))
    if not draw(st.integers(0, 3)):
        flags = st.sampled_from(list(rows))
        extra = draw(st.one_of(st.sampled_from([["-h"], ["--help"], ["stray"]]),
                               flags.map(lambda flag: [flag]),
                               st.tuples(flags, words).map(list)))
        pieces.insert(draw(st.integers(0, len(pieces))), extra)
    return [name] + [word for piece in pieces for word in piece]


def _case_examples(test):
    for argv in CASE_ARGVS:
        test = example(argv)(test)
    return test


@settings(max_examples=1500)
@_case_examples
@given(named_argvs())
def test_plain_args_reads_what_argparse_parses(argv):
    # wherever the reader answers, argparse gives the same namespace
    if not argv or argv[0] not in COMMANDS:
        return
    plain = cli._plain_args(argv[0], argv[1:])
    if plain is not None:
        assert vars(plain) == _parsed(build_parser(argv[0]), argv[1:])


def test_plain_args_reads_every_golden_and_declines_the_listed_words():
    # a negative value is argparse's to read, as --gap -0.25 of exit 4 is
    for argv in [argv for _, argv in GOLDEN_CASES] + [argv for argv, _ in EXIT_CASES]:
        if argv and argv[0] in COMMANDS:
            assert (cli._plain_args(argv[0], argv[1:]) is None) == ("-0.25" in argv), argv
    assert all(cli._plain_args(argv[0], argv[1:]) is None for argv in DECLINED)


@pytest.mark.parametrize("argv", CASE_ARGVS)
def test_main_answers_the_same_without_the_reader(argv, monkeypatch):
    read = run_cli(argv)
    monkeypatch.setattr(cli, "_plain_args", lambda name, words: None)
    assert read == run_cli(argv)


def test_flag_rows_use_only_what_the_reader_reproduces():
    # argparse runs a string default through the flag's type, and other
    # options (dest, nargs, other actions) change what it reads; the reader
    # does neither, so a row that needs them must teach it first
    known = {"type", "default", "required", "choices", "help", "action"}
    rows = [*cli._COMMON_FLAGS, *(row for _, _, flags in COMMANDS.values() for row in flags)]
    for flag, options in rows:
        assert flag.startswith("--") and set(options) <= known, flag
        assert options.get("action", "store_true") == "store_true", flag
        assert not ("type" in options and isinstance(options.get("default"), str)), flag


@pytest.mark.parametrize("name", list(COMMANDS))
def test_subcommand_help_through_main_prints_its_golden_section(name, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    sections = re.split(r"^==> (.*) --help <==\n", (GOLDEN_DIR / "help.txt").read_text(),
                        flags=re.M)[1:]
    with pytest.raises(SystemExit) as done:
        cli.main([name, "--help"])
    out, err = capsys.readouterr()
    assert (done.value.code, err) == (0, "")
    assert out == dict(zip(sections[::2], sections[1::2]))[f"padlab {name}"]


def test_readme_subcommand_list_matches_the_command_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("Fifteen subcommands:", 1)[1].split(". All share", 1)[0]
    assert re.findall(r"`([a-z]+)`", listed) == list(COMMANDS)


def test_readme_module_table_names_resolve():
    # every backticked name in the rows of padlab.scalar through
    # padlab.spectral resolves in that module or on a class of the same row;
    # cells split on unescaped | only, as the spectral row escapes |nu|
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Modules", 1)[1].split("\n\n", 2)[1]
    rows = [re.split(r"(?<!\\)\|", line)[1:3] for line in table.splitlines()[2:]]
    modules = [cell.strip().strip("`") for cell, _ in rows]
    assert modules[0] == "padlab.scalar"
    checked = 0
    for name, (_, contents) in zip(modules, rows[: modules.index("padlab.spectral") + 1]):
        module = importlib.import_module(name)
        listed = re.findall(r"`([A-Za-z_]\w*)`", contents)
        classes = [getattr(module, x) for x in listed if isinstance(getattr(module, x, None), type)]
        for x in listed:
            assert hasattr(module, x) or any(hasattr(c, x) for c in classes), f"{name}: {x}"
            checked += 1
    assert checked >= 30


def test_every_error_class_has_one_exit_code():
    # main maps an error by its exact class, so a class missing here would
    # silently exit 1
    classes = {obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, errors.PadlabError)
               and obj is not errors.PadlabError}
    assert set(EXIT_CODES) == classes


def test_module_entry_point():
    # the child imports the same padlab as this process, installed or not
    src = str(Path(padlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "padlab", "xi", "--p", "3", "--k", "0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN_DIR / "xi_k0.json").read_text()
