"""Smoke tests of the benchmark at toy sizes.

Every workload, untraced and traced, must report each metric BENCHMARK.json
declares, with its unit, and pass its output checks.  No timing is asserted.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402


def test_smoke_reports_every_declared_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--all", "--smoke", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = json.loads(proc.stdout.strip().splitlines()[-1])
    workloads = [w["name"] for w in bench["workloads"]]
    assert sorted(lines) == sorted(f"{w}/trace{t}" for w in workloads for t in (0, 1))
    for key, line in lines.items():
        declared = bench["per_layer" if key.endswith("trace1") else "end_to_end"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, key
        units = {name: m["unit"] for name, m in line["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in declared}, key
        assert all(math.isfinite(m["value"]) for m in line["metrics"].values()), key
        if key.endswith("trace1"):
            # Work counts from both phases show the patches fired.
            for name in ("proximity.ppmi_nnz", "nn.backward_calls_per_step", "nn.checkpoint_bytes"):
                assert line["metrics"][name]["value"] > 0, (key, name)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "eval_cli", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_patch_target_is_reported_absent():
    tracer = Tracer()
    patches = [
        ("gone", "crossnode.nn", "no_such_function", None),
        ("gone", "crossnode.no_such_module", "f", None),
    ]
    with tracer.patched(patches):
        pass
    assert tracer.absent == {"crossnode.nn.no_such_function", "crossnode.no_such_module.f"}
    assert tracer.spans == []
