"""The benchmark's own test, at a tiny problem size.

    python3 -m pytest bench/test_bench.py

Each workload must print every metric ``BENCHMARK.json`` names, with its
unit, pass its checks, and compute bit-identical selections and errors with
and without the tracing wrappers.  Outside a checkout, the command must fail
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def results(workload: str, trace: int):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    records = [line["record"] for line in lines if "record" in line]
    return records, lines[-1]


def outcome(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in ("cycle", "seconds", "cpu_seconds")}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_metrics_and_traced_results_match(workload):
    plain_records, plain = results(workload, 0)
    traced_records, traced = results(workload, 1)
    for result, group in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[group]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert plain["metrics"]["wall_s"]["value"] > 0
    assert traced["metrics"]["optimizer.iterations"]["value"] > 0
    assert [outcome(r) for r in plain_records] == [outcome(r) for r in traced_records]
    assert all(r["certified"] for r in plain_records)


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("cv_d64", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
