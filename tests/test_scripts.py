"""The entry points under scripts/ run to completion.

Each script runs in a subprocess against the package in src/, as a user runs
it; both take well under a second.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_su2_worked_example_runs():
    proc = _run("su2_worked_example.py")
    assert proc.returncode == 0, proc.stderr
    assert "verdict: pass" in proc.stdout


def test_duality_survey_has_no_failure():
    proc = _run("duality_survey.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].endswith(", 0 failures")
