"""Every demo script runs to completion against the package in this tree."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    done = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
