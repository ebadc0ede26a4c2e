"""What the benchmark measures: workloads, metrics, units and bounds.

This module is the one home of the metric list. ``BENCHMARK.json`` at the
repository root is generated from it (``python3 perfbench/run.py --all``
rewrites it), and the smoke test checks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

#: Seconds one run measures (passes or closed-loop cycles are started
#: until this much wall clock has gone by).
RUN_SECONDS = 30

#: Fresh-interpreter set-ups per untraced run; ``setup_s`` is their
#: median. About half run before the timed units and the rest after, so
#: the median spans the run rather than one moment of a shared host.
SETUP_SAMPLES = 7

#: Samples a tail percentile must leave beyond it to be reported.
TAIL_MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str


WORKLOADS = (
    WorkloadSpec(
        "report-matrix",
        "graphalytics report on 2 workers over 119 jobs with a warm graph "
        "cache: kernels, runtime pool and journal, validation and Granula; "
        "repeated inputs",
    ),
    WorkloadSpec(
        "sharded-matrix",
        "pythonref on 2 hash shards over 9 jobs, serial: the partitioned "
        "engine does the work; runtime, cache and service bypassed; no "
        "repeated inputs",
    ),
    WorkloadSpec(
        "service-closed-loop",
        "2 tenants in a closed loop against graphalytics serve: admission, "
        "queueing, run-child spawn, journal and results-store commit next "
        "to store reads",
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which it may worsen (gated only).
    bound: Optional[float] = None

    def as_json(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "name": self.name, "unit": self.unit, "better": self.better,
        }
        if self.bound is not None:
            data["bound"] = self.bound
        return data


#: End-to-end metrics every workload reports on an untraced run; a change
#: is gated on these. For service-closed-loop one "pass" is
#: one submitted run, so its makespan is the run's turnaround.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("makespan_p50_s", "s", "lower", 0.24),
    Metric("jobs_per_s", "1/s", "higher", 0.24),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
)

#: End-to-end metrics printed and recorded but not gated: they apply to
#: one kind of workload only, are 0 on a healthy run (``error_rate``),
#: or are a tail too noisy for a bound.
REPORTED = (
    Metric("error_rate", "ratio", "lower"),
    Metric("turnaround_p50_s", "s", "lower"),
    Metric("turnaround_tail_s", "s", "lower"),
    Metric("turnaround_tail_pct", "pct", "lower"),
    Metric("runs_per_s", "1/s", "higher"),
)

BATCH_ALGORITHMS = ("bfs", "pr", "wcc", "cdlp", "lcc", "sssp")
SHARDED_ALGORITHMS = ("bfs", "pr", "wcc", "cdlp", "sssp")


#: Per-layer metrics of a traced run; ``perfbench/README.md`` names the
#: end-to-end metric and workload each one should move.
PER_LAYER = (
    Metric("datasets.materialize_s", "s", "lower"),
    Metric("datasets.setup_materialize_s", "s", "lower"),
    Metric("algorithms.reference_s", "s", "lower"),
    Metric("algorithms.reference_calls", "count", "lower"),
    *(Metric(f"platforms.execute_s.{alg}", "s", "lower")
      for alg in BATCH_ALGORITHMS),
    Metric("platforms.upload_s", "s", "lower"),
    Metric("validation.validate_s", "s", "lower"),
    Metric("granula.archive_s", "s", "lower"),
    Metric("report.render_s", "s", "lower"),
    *(Metric(f"partitioned.run_s.{alg}", "s", "lower")
      for alg in SHARDED_ALGORITHMS),
    *(Metric(f"partitioned.vs_reference_x.{alg}", "x", "lower")
      for alg in SHARDED_ALGORITHMS),
    Metric("runtime.execute_matrix_s", "s", "lower"),
    Metric("runtime.worker_busy_frac", "ratio", "higher"),
    Metric("runtime.cache_hit_rate", "ratio", "higher"),
    Metric("runtime.cache_misses", "count", "lower"),
    Metric("runtime.retries", "count", "lower"),
    Metric("runtime.harness_failures", "count", "lower"),
    Metric("runtime.lost_jobs", "count", "lower"),
    Metric("runtime.journal_records", "count", "lower"),
    Metric("runtime.journal_bytes", "B", "lower"),
    Metric("service.submit_s", "s", "lower"),
    Metric("service.rejected", "count", "lower"),
    Metric("service.queue_wait_s", "s", "lower"),
    Metric("service.child_s", "s", "lower"),
    Metric("service.child_exec_s", "s", "lower"),
    Metric("service.child_overhead_s", "s", "lower"),
    Metric("service.observe_lag_s", "s", "lower"),
    Metric("service.fetch_s", "s", "lower"),
    Metric("resultsdb.query_s", "s", "lower"),
    Metric("resultsdb.bytes_per_run", "B", "lower"),
    Metric("harness.untraced_s", "s", "lower"),
    Metric("harness.trace_overhead_frac", "ratio", "lower"),
)

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + REPORTED + PER_LAYER}


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document this package implements."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [m.as_json() for m in END_TO_END],
        "per_layer": [m.as_json() for m in PER_LAYER],
    }


def metric_names(trace: bool) -> List[str]:
    """Metric names the last output line carries for a run."""
    return [m.name for m in (PER_LAYER if trace else END_TO_END)]
