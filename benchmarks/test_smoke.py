"""Smoke test of the benchmark itself, at minimal workload size.

    python3 -m pytest -q benchmarks/test_smoke.py

Checks that every workload runs, that the emitted metric names and units
match BENCHMARK.json, that the tracer puts back every attribute it patched,
and that the benchmark refuses to run without the bellkit sources.
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
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_match_benchmark_json(workload, trace):
    done = run_benchmark(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] and result["failed"] == 0, done.stdout
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and not isinstance(metric["value"], bool)
    if trace:
        record = json.loads(
            (ROOT / ".bench_out" / f"{workload}-smoke-seed7-trace1.json").read_text())
        traced = [p for p in record["processes"] if p["traced"]]
        assert traced and all(p["iteration"]["patched"] > 0 for p in traced)
        assert record["unrestored"] == []


def test_tracer_restores_every_patched_attribute():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import bellkit.lhv
        import bellkit.optimize
        from bellkit.bases import FunctionalForm
        from layers import LAYERS
        from tracer import Tracer

        modules = {name: module for name, module in sys.modules.items()
                   if name == "bellkit" or name.startswith("bellkit.")}
        before = {name: dict(vars(module)) for name, module in modules.items()}
        tracer = Tracer()
        tracer.install(LAYERS)
        try:
            # classical_bound is reached here through the optimize namespace
            functional = bellkit.optimize.product_g_functional(2, 2, FunctionalForm.REAL_PART)
            assert bellkit.optimize.classical_bound(functional).bound == 2.0
            assert bellkit.lhv.classical_bound is bellkit.optimize.classical_bound
        finally:
            tracer.restore()
        assert "bellkit.cli.classical_bound" in tracer.patched_names()
        assert [span.name for span in tracer.spans] == ["lhv.classical_bound"]
        assert tracer.unrestored() == []
        for name, module in modules.items():
            after = vars(module)
            assert all(after[key] is value for key, value in before[name].items()), name
    finally:
        del sys.path[:2]


def test_scan_rows_fail_outside_their_band():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from workloads import check_scan_row

        assert check_scan_row((4, 2, 2), "modulus", 1.8427, 1.84277, 2.75)[0]
        assert not check_scan_row((4, 2, 2), "modulus", 1.5, 1.84277, 2.75)[0]
        assert not check_scan_row((4, 2, 2), "modulus", 2.8, 1.84277, 2.75)[0]
        # Reference above the ceiling: checked against the recorded ratio.
        assert check_scan_row((2, 2, 6), "modulus", 0.9721, 1.71638, 1.04375)[0]
        assert check_scan_row((2, 2, 6), "modulus", 1.04, 1.71638, 1.04375)[0]
        assert not check_scan_row((2, 2, 6), "modulus", 0.9, 1.71638, 1.04375)[0]
    finally:
        del sys.path[:2]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_benchmark(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
