"""Tests of the benchmark itself (not part of the tier-1 suite).

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, measure, spec
from perfbench.workloads import Measurement, ShardedMatrix

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(RUN), *args], capture_output=True, text=True,
        cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    printed, result = _run("--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace), "--smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m.name for m in expected]
    for metric in expected:
        reported = result["metrics"][metric.name]
        assert reported["unit"] == metric.unit
        assert isinstance(reported["value"], float)
        if not trace:
            assert reported["value"] > 0
    shown = {line.split()[1]: line.split()[-1]
             for line in printed if not line.startswith("#")}
    also = ["error_rate", "runs_per_s"]
    if workload == "service-closed-loop" and not trace:
        also.append("turnaround_p50_s")
    for name in [m.name for m in expected] + (also if not trace else []):
        assert shown[name] == spec.UNITS[name]


def test_benchmark_json_matches_spec():
    written = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert written == spec.benchmark_json()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-matrix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_needs_ten_samples_beyond_it():
    assert measure.tail(list(range(1, 1001))) == (990, 99.0)
    assert measure.tail(list(range(1, 201))) == (190, 95.0)
    assert measure.tail(list(range(1, 101))) == (90, 90.0)
    assert measure.tail(list(range(1, 100))) is None
    assert measure.tail([]) is None


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measure.percentile(samples, 50) == 3.0
    assert measure.percentile(samples, 100) == 5.0
    assert measure.percentile(samples, 1) == 1.0


def test_error_rate_counts_an_injected_validation_mismatch(tmp_path, monkeypatch):
    import repro.harness.runner as runner_module
    from repro.exceptions import ValidationError

    def mismatch(algorithm, actual, reference):
        raise ValidationError(f"injected mismatch for {algorithm}")

    workload = ShardedMatrix(seed=0, work=tmp_path)
    try:
        workload.setup()
        clean = Measurement()
        workload.run_pass(0, clean)
        monkeypatch.setattr(runner_module, "validate_output", mismatch)
        injected = Measurement()
        workload.run_pass(1, injected)
    finally:
        workload.close()
    assert clean.failed == 0 and clean.attempted == 9
    assert measure.error_rate(clean.failed, clean.attempted) == 0.0
    assert injected.failed == injected.attempted == 9
    assert measure.error_rate(injected.failed, injected.attempted) == 1.0


def test_rows_that_change_between_passes_are_counted():
    rows = checks.stable_rows([
        {"platform": "Giraph", "eps": 1.0, "measured_processing_seconds": 0.1},
        {"platform": "PythonRef", "eps": 2.0, "measured_processing_seconds": 0.2},
    ])
    again = checks.stable_rows([
        {"platform": "Giraph", "eps": 1.5, "measured_processing_seconds": 0.3},
        {"platform": "PythonRef", "eps": 9.0, "measured_processing_seconds": 0.4},
    ])
    # measured_* never counts; the measured platform's Tproc-derived
    # fields do not either; a modeled platform's eps does.
    assert checks.differing_rows(again, rows) == 1
    assert checks.differing_rows(rows[:1], rows) == 1
