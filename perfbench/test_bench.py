"""Smoke test of perfbench/run.py at tiny sizes.

    python3 -m pytest -q perfbench

Each run lasts one round of its workload.
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
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(child: subprocess.CompletedProcess) -> dict:
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "5", "--seconds", "0.01",
                          "--min-items", "1", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_writes_spans(workload):
    result = _result(_run("--workload", workload, "--seed", "5", "--seconds", "0.01",
                          "--min-items", "1", "--trace", "1"))
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    lines = (HERE / "traces" / f"{workload}.jsonl").read_text(encoding="utf-8").splitlines()
    spans = [json.loads(line) for line in lines]
    assert spans and all(s["end"] >= s["start"] and s["item"] for s in spans)
    assert all(s["parent"] < i for i, s in enumerate(spans))


@pytest.mark.parametrize("workload, corrupt", [
    ("campaign", lambda fields: ["fail", *fields[1:]]),
    ("probe", lambda fields: [*fields[:5], "0", *fields[6:]]),
    ("sweep", lambda fields: [str(int(fields[0]) + 1), fields[1]]),
])
def test_corrupted_reference_counts_as_failed(tmp_path, workload, corrupt):
    for ref in (HERE / "refs").glob("*.tsv"):
        lines = ref.read_text(encoding="utf-8").splitlines()
        if ref.stem == workload:
            lines = ["\t".join([line.split("\t")[0], *corrupt(line.split("\t")[1:])])
                     if not line.startswith("#") else line for line in lines]
        (tmp_path / ref.name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    run.load_library()
    p = run.run_workload(workload, 5, 0.01, False, refs=tmp_path, min_items=1).run
    assert len(p.failed) == len(p.times) > 0


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    child = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert child.returncode != 0
    assert "correct" not in child.stdout
