"""Every script under demos/ runs to completion against the sources in src/."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
