"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest bench_e2e/test_bench.py -q

Each case runs the quick mode (``--seconds 0``: the fewest units that time
100 ops), so the whole file takes about four minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
from tracer import campaign_setup_seconds, self_times, top_level_seconds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(root: Path, workload: str, trace: int, seed: int = 1):
    proc = subprocess.run(
        [sys.executable, str(root / "bench_e2e" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=root, text=True, capture_output=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{")
                  else None)


def _worker(workload: str, *extra) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", "3", "--units", "1", "--t0", "0", *extra],
        cwd=ROOT, env=bench_run.child_env(), text=True, capture_output=True,
        timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_self_times_subtract_direct_children():
    spans = [
        ["faults.campaign", 0.0, 10.0, -1, -1],
        ["compiler.compile", 1.0, 3.0, 0, -1],
        ["compiler.lint", 1.5, 2.5, 1, -1],
        ["faults.trial.fired", 4.0, 9.0, 0, 0],
        ["gpu.launch", 4.5, 8.5, 3, 0],
    ]
    st = self_times(spans)
    assert st["faults.campaign"][0] == pytest.approx(3.0)
    assert st["compiler.compile"][0] == pytest.approx(1.0)
    assert st["faults.trial.fired"][0] == pytest.approx(1.0)
    assert sum(v[0] for v in st.values()) == pytest.approx(top_level_seconds(spans))
    assert campaign_setup_seconds(spans) == pytest.approx(4.0)


@pytest.mark.parametrize("workload", ["campaign", "fuzz", "tables"])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_emits_every_metric_with_unit(workload, trace):
    proc, result = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    summary = proc.stdout.strip().splitlines()[:-1]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                   for line in summary), m["name"]
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_planted_golden_mismatch_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    os.symlink(ROOT / "src", tmp_path / "src")
    golden = tmp_path / "bench_e2e" / "goldens" / "fuzz.json"
    doc = json.loads(golden.read_text())
    for program in doc["programs"].values():
        program["runs"][0][2] += 1.0          # baseline cycles off by one
    golden.write_text(json.dumps(doc))
    proc, result = _bench(tmp_path, "fuzz", 0)
    assert proc.returncode == 1
    assert result["correct"] is False
    assert "MISMATCH" in proc.stderr


def test_missing_source_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, result = _bench(tmp_path, "fuzz", 0)
    assert proc.returncode not in (0, 1)
    assert result is None


def test_layer_self_times_sum_within_wall():
    rec = _worker("fuzz", "--trace", "1")
    total_self = sum(sec for sec, _n in rec["self"].values())
    assert total_self <= rec["wall_s"]
    assert total_self == pytest.approx(rec["covered_s"])
    assert rec["covered_s"] / rec["wall_s"] >= 0.9


def test_deterministic_counts_repeat_exactly():
    first, second = _worker("campaign"), _worker("campaign")
    for key in bench_run.DETERMINISTIC:
        assert first["counts"].get(key) == second["counts"].get(key), key
    assert first["op_kinds"] == second["op_kinds"]
    assert first["op_kinds"].get("elided", 0) > 0
