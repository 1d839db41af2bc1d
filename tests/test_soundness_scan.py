"""Smoke test of scripts/soundness_scan.py, run as a shell runs it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_scan(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "soundness_scan.py"), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("args", [(), ("--near",)], ids=["random", "near"])
def test_no_violations(args):
    proc = run_scan(*args, "--attacks", "200")
    assert proc.returncode == 0, proc.stderr
    assert "0 violations" in proc.stdout


@pytest.mark.parametrize("attacks", ["0", "-1"])
def test_no_attacks_rejected(attacks):
    proc = run_scan(f"--attacks={attacks}")
    assert proc.returncode == 2
    assert "--attacks must be at least 1" in proc.stderr
