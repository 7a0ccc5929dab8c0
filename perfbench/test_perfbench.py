"""Self-test of the benchmark.  Run from the checkout root:

    python3 -m pytest -q perfbench

Every workload runs at a tiny size, twice with tracing on and once without;
counts and computed sizes must repeat exactly, and every metric named in
BENCHMARK.json must be emitted with its unit.  Takes about a minute.
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
EXACT_UNITS = {"count", "MB", "KB", "GFLOP"}  # counts and computed sizes


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(done: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert done.returncode == 0, done.stderr
    details, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return details, result


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    (first_details, first), (_, second) = (result_of(bench(workload, 1)) for _ in range(2))
    for result in (first, second):
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared("per_layer")
    exact = {n: m["value"] for n, m in first["metrics"].items() if m["unit"] in EXACT_UNITS}
    assert exact == {n: second["metrics"][n]["value"] for n in exact}
    assert first_details["traced_identical_to_untraced"]
    assert first_details["untraced_names"] == []
    # Each cell's spans account for its wall_ms up to the wrappers' own cost.
    overhead = first["metrics"]["trace.overhead_ratio"]["value"]
    assert first_details["cell_trace_gap_max"] <= max(overhead, 0.01)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    details, result = result_of(bench(workload, 0))
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["op_count"] == result["attempted"]
    assert details["metadata"]["workload_seeds"] == [0]


def test_gate_fails_a_cell_that_moves_from_its_golden_tv(tmp_path):
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import TV_TOLERANCE, WORKLOADS as ALL, PassResult, cell_label

    sweep = ALL["rf-probe"].tiny()
    keys = sweep.cell_keys(0)
    rows = [f"{d},8,{n},{s},{g},{seed},0.5,0.01" for d, n, s, g, seed in keys]
    output = ("d,k,N,sampler,grid_kind,seed,tv,tv_stderr\n" + "\n".join(rows) + "\n").encode()
    golden = {"csv_blob_sha1": "", "tv": {cell_label(k): 0.5 for k in keys}}
    golden["tv"][cell_label(keys[0])] = 0.5 + 2 * TV_TOLERANCE
    result = PassResult(wall_s=1.0, output=output)
    sweep._gate(result, 0, {k: 10.0 for k in keys}, golden)
    assert (result.attempted, result.failed) == (len(keys), 1)
    assert result.identical_to_golden is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("check-suites", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
