"""Tests of the benchmark itself. They run workloads, so they take a few minutes:

    python3 -m pytest perfbench/selftest.py -q

The file name keeps them out of the repository's own test run.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)


@pytest.fixture(scope="module")
def traced_tied():
    return run.measure("tied-train", 3, seconds=0, trace=True, probes=1)


def test_traced_run_reports_every_per_layer_metric(traced_tied):
    result = traced_tied["result"]
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _, _ in tracer.PER_LAYER]
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_graph_nodes_is_exact(traced_tied):
    assert traced_tied["result"]["metrics"]["tensor.graph_nodes"]["value"] == 277


def test_self_times_sum_to_traced_wall_time(traced_tied):
    detail, metrics = traced_tied["detail"], traced_tied["result"]["metrics"]
    overhead = detail["traced_wall_s"] - detail["traced_commands"] * detail["baseline_s"]
    assert abs(detail["self_sum_s"] - detail["traced_wall_s"]) <= abs(overhead) + 1e-3
    # The reported self times (per traced command) cover every span once; block
    # parts regroup matmul time.
    reported = sum(m["value"] for name, m in metrics.items()
                   if name.endswith("_s") and not name.endswith("_per_s")
                   and not name.startswith(("vit.part.", "setup.")))
    assert reported * detail["traced_commands"] == pytest.approx(detail["self_sum_s"], rel=1e-9)


def test_same_seed_gives_the_same_artifacts(traced_tied):
    untraced = run.measure("tied-train", 3, seconds=0, trace=False, probes=1)
    assert untraced["result"]["failed"] == 0
    assert untraced["detail"]["digests"] == traced_tied["detail"]["digests"]


def test_randbelow_calls_repeat_on_idx_ingest():
    counts = [run.measure("idx-ingest", 4, seconds=0, trace=True, probes=1)
              ["result"]["metrics"]["rng.randbelow_calls"]["value"] for _ in range(2)]
    assert counts[0] > 0 and counts[0] == counts[1]


def test_failing_command_is_counted_not_crashed_on(monkeypatch, tmp_path):
    missing = tmp_path / "missing.sws"
    argv = workloads.DepthSweep.argv

    def broken_argv(self, root, out):
        args = argv(self, root, out)
        args[args.index("--pack") + 1] = str(missing)
        return args
    monkeypatch.setattr(workloads.DepthSweep, "argv", broken_argv)
    result = run.measure("depth-sweep", 5, seconds=0, trace=False, probes=1)
    assert result["result"]["attempted"] == result["result"]["failed"] >= 1
    assert not result["result"]["correct"]
    assert result["detail"]["problems"][0][0].startswith("exit 3")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "tied-train", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
