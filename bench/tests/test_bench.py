"""Self-tests of the benchmark: output contract, failure accounting, CLI parity."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import generate  # noqa: E402
import run  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--traces", "40"],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(trace, key):
    result = _bench("default", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _spec()[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["shape-churn", "deep-chains"])
def test_traced_run_keeps_decisions(workload):
    # the traced passes must reproduce the untraced passes' bytes, or the
    # run reports correct = false
    result = _bench(workload, 1)
    assert result["correct"] is True
    assert result["failed"] == 0


def test_malformed_trace_costs_one_trace(tmp_path):
    inputs = str(tmp_path / "inputs")
    generate.generate("default", 5, inputs, passes=1, traces=30)
    path = generate.trace_file(inputs, 0)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    dangling = json.loads(lines[20])
    dangling["spans"][1]["parent_id"] = "no-such-span"
    lines[10:10] = ['{"trace_id": "broken", "spans": [\n', json.dumps(dangling) + "\n"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)

    result = run.measure("default", inputs, str(tmp_path / "work"), 1, False)

    assert result["attempted"] == 32
    assert result["failed"] == 2
    assert result["failures"] == {"InvariantViolationError": 1, "MalformedDocumentError": 1}
    assert result["correct"] is True


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("workload", ["default", "deep-chains"])
def test_hashes_match_the_cli(tmp_path, workload):
    inputs = str(tmp_path / "inputs")
    generate.generate(workload, 9, inputs, passes=1, traces=150)
    result = run.measure(workload, inputs, str(tmp_path / "work"), 1, False)

    graph, traces = os.path.join(inputs, "graph.json"), generate.trace_file(inputs, 0)
    out = str(tmp_path / "cli")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def cli(*args):
        subprocess.run([sys.executable, "-m", "spanscope.cli", *args], env=env, check=True,
                       capture_output=True, timeout=120)

    cli("sample", "--graph", graph, "--traces", traces, "--out", out,
        "--ratio", str(run.WORKLOADS[workload].ratio))
    cli("reconstruct", "--graph", graph, "--decisions", os.path.join(out, "decisions.ndjson"),
        "--kept", os.path.join(out, "kept.ndjson"), "--stats", os.path.join(out, "stats.json"),
        "--out", out)

    assert result["decisions_sha256"] == _sha256(os.path.join(out, "decisions.ndjson"))
    assert result["rebuilt_sha256"] == _sha256(os.path.join(out, "reconstructed.ndjson"))
