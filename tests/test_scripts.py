import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_positivity_estimates_script_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "positivity_estimates.py"), "--samples", "300"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.strip().splitlines()[1:]]
    assert len(rows) == 11
    for alpha, plus_strict, plus_nonneg, minus_strict, minus_nonneg, _ in rows:
        assert float(plus_strict) <= float(plus_nonneg), alpha
        assert float(minus_strict) <= float(minus_nonneg), alpha
