"""Which calls load numpy: the import graph, checked in fresh interpreters.

The package and its CLI import no numpy.  Only the Markov lab (entropylab:
the gap, pinsker and telescope subcommands) loads it, on first use.  The
pytest process holds numpy already, so every check runs in a new
interpreter, under ``-X importtime``, which lists each module the
interpreter imports on stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import padlab

from cli_cases import GOLDEN_CASES, GOLDEN_DIR

SRC = str(Path(padlab.__file__).resolve().parents[1])
GOLDEN_ARGV = dict(GOLDEN_CASES)


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env)


def imported(stderr: str) -> set[str]:
    """Module names of the ``-X importtime`` lines."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def loads_numpy(stderr: str) -> bool:
    return any(name.split(".")[0] == "numpy" for name in imported(stderr))


@pytest.mark.parametrize("module", ["padlab", "padlab.cli"])
def test_importing_the_package_loads_no_numpy(module):
    proc = run_python("-c", f"import {module}")
    assert proc.returncode == 0, proc.stderr
    assert module in imported(proc.stderr)
    assert not loads_numpy(proc.stderr)


@pytest.mark.parametrize("golden,numpy", [
    ("xi_k1.json", False),
    ("oh_cartan.json", False),
    ("analyze_sl2.json", False),
    ("oracle_factored_sl3.json", False),
    ("oracle_full_sl2.json", False),
    ("gap_uniform.json", True),
    ("pinsker.json", True),
    ("telescope.json", True),
])
def test_numpy_loads_only_for_the_markov_lab(golden, numpy):
    proc = run_python("-m", "padlab", *GOLDEN_ARGV[golden])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN_DIR / golden).read_text()
    assert loads_numpy(proc.stderr) is numpy


# in a fresh interpreter: the Markov lab and every exported name resolve, the
# lab's names on first access, and a star import binds the same objects
LAZY_EXPORTS = {
    "getattr": """
import sys
import padlab
assert "padlab.entropylab" not in sys.modules
lab = padlab.entropylab
for name in padlab.__all__:
    assert name in dir(padlab), name
    getattr(padlab, name)
assert padlab.MarkovMeasure is lab.MarkovMeasure
assert not hasattr(padlab, "no_such_name")
""",
    "star": """
from padlab import *
import padlab
for name in padlab.__all__:
    assert globals()[name] is getattr(padlab, name), name
""",
}


@pytest.mark.parametrize("snippet", LAZY_EXPORTS)
def test_lazy_exports(snippet):
    proc = run_python("-c", LAZY_EXPORTS[snippet])
    assert proc.returncode == 0, proc.stderr
