"""Command line front end against frozen golden transcripts.

Byte identity with the goldens pins the output contract: key order, float
rendering, exact-rational strings, and the schema tag.  Any formatting
drift shows up as a diff here before it reaches a downstream parser.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padlab

from cli_cases import EXIT_CASES, GOLDEN_CASES, GOLDEN_DIR, SUBCOMMANDS, run_cli


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
    # the README's example of exit 7 from well-formed input
    element = '[["9","-24","-48"],["0","1","-16"],["0","0","9"]]'
    code, out, err = run_cli(["analyze", "--p", "3", "--group", "gl", "--dim", "3",
                              "--element", element])
    assert (code, out) == (7, "")
    assert "PrecisionExhausted" in err


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


def test_full_oracle_guards_only_conjugated_windows():
    # n = 1 conjugates nothing, so no modulus bound applies
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
    # window 2 at need 2^62: 3 * 2^3 * 2^62 passes 2^63
    argv[argv.index("19")], argv[argv.index("22")] = "60", "63"
    code, _, err = run_cli(argv + ["--mode", "FULL"])
    assert code == 10 and "64-bit" in err


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
], ids=["gap-s-float", "telescope-depth-float", "telescope-depth-string"])
def test_document_counts_must_be_json_integers(argv):
    # int() would truncate these counts and run the call on other input
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert "JSON integer" in err


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
