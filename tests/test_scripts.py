"""Smoke tests: the runnable scripts finish and print what they promise."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return proc.stdout.splitlines()


def test_protocol_demo_prints_four_verdicts():
    lines = run_script("protocol_demo.py")
    assert len(lines) == 4
    assert lines[0].endswith("-> authentic_and_valid")
    assert "auth_failure (bad_mac)" in lines[1]
    assert "auth_failure (bad_seq)" in lines[2]
    assert "authentic_but_invalid_path (first bad transfer at 40)" in lines[3]


def test_compression_sweep_top_csv():
    lines = run_script("compression_sweep.py", "--policy", "top")
    assert len(lines) == 17  # header + 2 workloads x 1..8 specs
    assert lines[0].startswith("label,")
    labels = [line.split(",", 1)[0] for line in lines[1:]]
    assert labels == [f"{w}-top-{n}" for w in ("sensor", "branchy") for n in range(1, 9)]
