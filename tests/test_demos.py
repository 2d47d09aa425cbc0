"""Every script under demos/ runs to completion on the padlab under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import padlab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda s: s.name)
def test_demo_exits_zero(script):
    src = str(Path(padlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
