import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_acceptance import DENSITY_TABLE_1000, DENSITY_TABLE_10000

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, code=0):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    return proc


def test_positivity_estimates_script_runs():
    proc = run_script("positivity_estimates.py", "--samples", "300")
    rows = [line.split() for line in proc.stdout.strip().splitlines()[1:]]
    assert len(rows) == 11
    for alpha, plus_strict, plus_nonneg, minus_strict, minus_nonneg, _ in rows:
        assert float(plus_strict) <= float(plus_nonneg), alpha
        assert float(minus_strict) <= float(minus_nonneg), alpha


def test_density_table_script_matches_pinned_counts():
    proc = run_script("density_table.py")
    rows = [line.split() for line in proc.stdout.strip().splitlines()[1:]]
    counts = {(label, int(primes)): int(nonneg) for label, primes, nonneg, *_ in rows}
    labels = ["2/5", "3/8", "1/12", "1/(2pi)", "1/e"]
    assert len(rows) == 10
    for size, table in ((1000, DENSITY_TABLE_1000), (10000, DENSITY_TABLE_10000)):
        assert [counts[label, size] for label in labels] == [count for _, count in table]


def test_certification_constants_script_runs():
    proc = run_script("certification_constants.py")
    assert "<- certified radius" in proc.stdout


def test_certification_constants_small_cutoff_fails_cleanly():
    # below 1340 the partial sum plus its tail is not below sigma2 = 0.395
    proc = run_script("certification_constants.py", "--prime-cutoff", "1000", code=1)
    assert proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: variance bound violated")


@pytest.mark.parametrize("name,flag,bad", [
    ("positivity_estimates.py", "--samples", "0"),
    ("positivity_estimates.py", "--prime-cutoff", "0"),
    ("certification_constants.py", "--prime-cutoff", "50"),
    ("positivity_estimates.py", "--samples", str(10**22)),
])
def test_script_bad_argument_is_a_usage_error(name, flag, bad):
    proc = run_script(name, flag, bad, code=2)
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert f"argument {flag}:" in proc.stderr and repr(bad) in proc.stderr
