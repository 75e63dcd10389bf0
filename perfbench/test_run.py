"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` (about 2 min).

Each run here goes through the same command line the benchmark is driven
by, with a one-second window (the byte rounds still run in full).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BYTE_METRICS = ("wire_bytes_per_kt", "slices_per_kt", "blockmem_bytes")


def bench(workload: str, seed: int, trace: int = 0, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done


def result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def twice() -> dict:
    """Two untraced runs of every workload, all with seed 7."""
    return {w["name"]: [bench(w["name"], 7) for _ in range(2)] for w in SPEC["workloads"]}


def test_end_to_end_metrics_are_the_declared_ones(twice):
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for done in twice["branchy_diamonds"] + twice["faulty_channel"]:
        res = result(done)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == names
        assert res["correct"] and res["attempted"] >= 1
    assert all(result(done)["failed"] == 0 for done in twice["branchy_diamonds"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_byte_metrics_repeat_exactly_for_one_seed(twice, workload):
    first, second = (result(done)["metrics"] for done in twice[workload])
    for name in BYTE_METRICS:
        assert first[name]["value"] == second[name]["value"], name


def test_traced_run_reports_every_per_layer_metric():
    res = result(bench("branchy_diamonds", 7, trace=1))
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    m = res["metrics"]
    assert m["metrics.engine_passes"]["value"] == 3
    assert m["engine.transfers"]["value"] == 20_000
    assert m["protocol.verdicts.authentic_and_valid"]["value"] == 1


def test_faulty_channel_fails_only_on_keep_specs_sessions(twice):
    done = twice["faulty_channel"][0]
    res = result(done)
    assert res["correct"], done.stdout
    assert res["attempted"] % 8 == 0
    # at the seed state every keep-specs session raises UnknownSymbol
    # (the verifier forgets its installed specs); once that is fixed, none fails
    assert res["failed"] in (0, res["attempted"] // 8), done.stdout
    failing = [line for line in done.stdout.splitlines() if line.startswith("  round ")]
    assert all(" keep_specs: " in line for line in failing)


def test_a_round_that_raises_makes_the_run_incorrect(monkeypatch, capsys):
    sys.path.insert(0, str(HERE))
    import run

    def broken(*args, **kwargs):
        raise RuntimeError("broken session")

    monkeypatch.setattr(run, "session", broken)
    assert run.main(["--workload", "branchy_diamonds", "--seed", "7", "--seconds", "0.1"]) == 0
    res = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not res["correct"]
    assert res["failed"] == res["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    done = bench("branchy_diamonds", 7, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
