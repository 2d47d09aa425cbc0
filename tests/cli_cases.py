"""Shared command line fixtures: golden transcripts and exit-code probes.

Both the CLI regression suite and the acceptance gate replay these tables,
so they live here rather than in either test module.  The golden files under
tests/goldens/ were produced by the same entry point and then checked by
hand against independently computed values.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from padlab.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

SUBCOMMANDS = {
    "analyze", "exp", "log", "bch", "factor", "bowen", "oracle", "atoms",
    "gap", "pinsker", "telescope", "xi", "oh", "kappa", "bound",
}

A2 = '[["1/3","0"],["0","3"]]'
A3 = '[["1/3","0","0"],["0","1","0"],["0","0","3"]]'
BUNDLE = [
    "--p", "2", "--c", "1", "--alpha", "1", "--delta", "1",
    "--d", "1", "--base", "1", "--a-norm", "2", "--entropy-nats", "0",
]

# golden file -> argv that must reproduce it byte for byte with exit 0
GOLDEN_CASES = [
    ("analyze_sl2.json", ["analyze", "--element", A2, "--dim", "2"]),
    ("exp_zero.json", ["exp", "--element", '[["0","0"],["0","0"]]']),
    ("exp_nilpotent.json", ["exp", "--element", '[["0","9"],["0","0"]]']),
    ("log_unipotent.json", ["log", "--element", '[["1","9"],["0","1"]]']),
    ("bch_direct.json",
     ["bch", "--x", '[["9","0"],["0","-9"]]', "--y", '[["0","9"],["0","0"]]',
      "--mode", "direct"]),
    ("bch_dynkin.json",
     ["bch", "--x", '[["9","0"],["0","-9"]]', "--y", '[["0","9"],["0","0"]]',
      "--mode", "dynkin"]),
    ("factor_pass.json",
     ["factor", "--element", '[["10","9"],["9","41/5"]]', "--a", A2,
      "--dim", "2", "--k", "2"]),
    ("bowen_sl2.json",
     ["bowen", "--element", A2, "--dim", "2", "--k", "4", "--n", "2"]),
    ("oracle_full_sl2.json",
     ["oracle", "--element", A2, "--dim", "2", "--k", "4", "--n", "2",
      "--level", "7", "--mode", "FULL"]),
    ("oracle_factored_sl3.json",
     ["oracle", "--element", A3, "--dim", "3", "--k", "4", "--n", "2",
      "--level", "7", "--mode", "FACTORED"]),
    ("atoms_sl2.json", ["atoms", "--element", A2, "--dim", "2", "--k", "4"]),
    ("gap_uniform.json",
     ["gap", "--p", "2", "--nu", "1",
      "--markov", '{"s":2,"transition":[[0.5,0.5],[0.5,0.5]]}']),
    ("gap_bernoulli.json",
     ["gap", "--p", "3", "--nu", "1",
      "--markov",
      '{"s":3,"transition":[[0.5,0.25,0.25],[0.5,0.25,0.25],[0.5,0.25,0.25]]}']),
    ("pinsker.json", ["pinsker", "--ref", "[0.5,0.5]", "--obs", "[0.25,0.75]"]),
    ("telescope.json",
     ["telescope", "--markov", '{"s":2,"transition":[[0.25,0.75],[0.25,0.75]]}',
      "--f", '{"depth":1,"values":[1.0,0.0]}']),
    ("xi_k0.json", ["xi", "--p", "3", "--k", "0"]),
    ("xi_k1.json", ["xi", "--p", "3", "--k", "1"]),
    ("oh_cartan.json", ["oh", "--cartan", "[1,-1]", "--p", "3"]),
    ("kappa.json", ["kappa"] + BUNDLE),
    ("bound_quarter.json",
     ["bound"] + BUNDLE + ["--lf", "0", "--f-norm", "1", "--gap", "0.25"]),
    ("bound_zero.json",
     ["bound"] + BUNDLE + ["--lf", "0", "--f-norm", "1", "--gap", "0"]),
    ("xi_k1_text.txt", ["xi", "--p", "3", "--k", "1", "--format", "text"]),
]

# argv -> documented nonzero exit code; every reachable code appears
EXIT_CASES = [
    # 1: malformed inputs and usage errors
    (["analyze", "--element", '[["oops"],["1"]]', "--dim", "1"], 1),
    (["wibble"], 1),
    ([], 1),
    # 1: symbol count disagreeing with p^nu is a schema violation
    (["gap", "--markov", '{"s":2,"transition":[[0.5,0.5],[0.5,0.5]]}',
      "--nu", "1", "--p", "3"], 1),
    # 2: unipotent flow has no eigenbasis
    (["analyze", "--element", '[["1","1"],["0","1"]]', "--dim", "2"], 2),
    # 3: no expansion anywhere
    (["analyze", "--element", '[["1","0"],["0","1"]]', "--dim", "2"], 3),
    # 4: negative entropy gap
    (["bound"] + BUNDLE + ["--lf", "0", "--f-norm", "1", "--gap", "-0.25"], 4),
    # 5: outside the deep ball where the series converge
    (["exp", "--element", '[["0","1"],["0","0"]]'], 5),
    (["factor", "--element", '[["1","1"],["0","1"]]', "--a", A2,
      "--dim", "2", "--k", "2"], 5),
    # 6: lattice level cannot resolve the window
    (["bowen", "--element", A2, "--dim", "2", "--k", "3", "--n", "2"], 6),
    (["oracle", "--element", A2, "--dim", "2", "--k", "4", "--n", "2",
      "--level", "6", "--mode", "FULL"], 6),
    # 8: flow matrix is singular at working precision
    (["analyze", "--element", '[["1","2"],["2","4"]]', "--dim", "2"], 8),
    # 10: a FULL count too long to print
    (["oracle", "--element", '[["1/3","0"],["0","3"]]', "--dim", "2",
      "--k", "4", "--n", "2", "--level", "5000", "--mode", "FULL"], 10),
    # 11: peeling iteration stalls off the group
    (["factor", "--element", '[["10","9"],["9","10"]]', "--a", A2,
      "--dim", "2", "--k", "2"], 11),
    # 13: observed support escapes the reference support
    (["pinsker", "--ref", "[1.0,0.0]", "--obs", "[0.5,0.5]"], 13),
    # 15: zero denominator in a matrix entry
    (["analyze", "--element", '[["1/0","0"],["0","1"]]', "--dim", "2"], 15),
    # 16: geometric series needs ||a|| > 1
    (["kappa", "--p", "2", "--c", "1", "--alpha", "1", "--delta", "1",
      "--d", "1", "--base", "1", "--a-norm", "1"], 16),
    # 17: Cartan list must be descending
    (["oh", "--cartan", "[-1,1]", "--p", "3"], 17),
    # 18: the chain mixes too slowly for the stationary round budget
    (["gap", "--markov", '{"s":2,"transition":[[1.0,0.0],[1e-9,0.999999999]]}',
      "--nu", "1", "--p", "2"], 18),
]


def run_cli(argv):
    """Call the entry point in process, capturing both streams."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()
