"""Every demo runs to completion against the package in ``src``.

Each demo runs in its own interpreter with ``PYTHONPATH=src`` and the
suite's interpreter flags, in a temporary directory so that files it writes
(demo 03's ratios.csv) stay out of the checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PYTHON

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    # An empty parametrization would skip silently.
    assert DEMOS


def test_children_run_under_the_suite_flags():
    probe = "import sys; print(sys.flags.optimize, sys.flags.dev_mode, sorted(set(sys.warnoptions)))"
    result = subprocess.run([*PYTHON, "-c", probe], capture_output=True, text=True, timeout=60)
    flags = (sys.flags.optimize, sys.flags.dev_mode, sorted(set(sys.warnoptions)))
    assert result.stdout == "{} {} {}\n".format(*flags)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [*PYTHON, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
