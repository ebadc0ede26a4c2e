"""Full benchmark orchestration: all eight experiments in one run.

"Graphalytics conducts automatically the complex set of experiments
summarized in Table 6" (paper §4). This module runs the entire suite,
collects every job in one results database, renders the composite
report, and (optionally) submits the validated run to the results
store — the complete Figure 1 pipeline. :func:`submit_run` is the one
path a harness run takes into the store, and it enforces the paper's
rule that only validated results are stored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.exceptions import ConfigurationError, ValidationError
from repro.harness.config import BenchmarkConfig
from repro.harness.experiments import EXPERIMENTS, ExperimentReport
from repro.harness.report import render_report, save_report
from repro.harness.results import ResultsDatabase
from repro.harness.runner import BenchmarkRunner
from repro.resultsdb.store import ResultsStore
from repro.trace import current_tracer, write_trace

__all__ = ["FullRunResult", "run_full_benchmark", "submit_run"]

_RUN_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


@dataclass
class FullRunResult:
    """Everything one full benchmark run produced."""

    database: ResultsDatabase
    reports: Dict[str, ExperimentReport] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def job_count(self) -> int:
        return len(self.database)

    def render(self) -> str:
        return render_report(
            self.database, title="Graphalytics full benchmark run"
        )


def run_full_benchmark(
    *,
    seed: int = 0,
    experiment_ids: Optional[List[str]] = None,
    report_path: Optional[Union[str, Path]] = None,
    store: Optional[ResultsStore] = None,
    run_metadata: Optional[Mapping[str, object]] = None,
    workers: int = 1,
    run_dir: Optional[Union[str, Path]] = None,
    partitions: Optional[int] = None,
    partition_strategy: str = "hash",
) -> FullRunResult:
    """Run the (selected) experiment suite end to end.

    One shared runner keeps dataset materializations and uploads cached
    across experiments, exactly like the real harness's single session.

    Experiment bodies are sequential by design (baselines feed later
    jobs), so ``workers > 1`` parallelizes their *inputs* instead: the
    runtime materializes every dataset and validation reference the
    selected experiments need on a worker pool, then primes the shared
    runner so the serial suite runs entirely on warm data.

    With ``run_dir`` the suite is journaled: every completed job is
    recorded durably before the next starts, and re-invoking with the
    same directory (or ``graphalytics resume <run_dir>``) replays the
    recorded jobs and executes only the remainder (docs/robustness.md).
    """
    runner = BenchmarkRunner(BenchmarkConfig(
        seed=seed,
        partitions=partitions,
        partition_strategy=partition_strategy,
    ))
    result = FullRunResult(database=runner.database)
    selected = [EXPERIMENTS[eid] for eid in experiment_ids or list(EXPERIMENTS)]
    tracer = current_tracer()
    trace_mark = tracer.mark()
    counters_before = tracer.counters
    journal = None
    if run_dir is not None:
        from repro.runtime.journal import JournalError, RunJournal

        if RunJournal.journal_path(run_dir).exists():
            replay = RunJournal.load(run_dir)
            header = replay.header
            if header.get("kind") != "full-run":
                raise JournalError(
                    f"{RunJournal.journal_path(run_dir)} records a "
                    f"{header.get('kind')!r} run, not a full benchmark run"
                )
            if int(header.get("seed", -1)) != seed:
                raise JournalError(
                    f"journal was written with seed {header.get('seed')}, "
                    f"cannot resume with seed {seed}"
                )
            journal = RunJournal.open(run_dir)
            runner.attach_journal(journal, replay)
            result.notes.append(
                f"[journal] resumed from {run_dir}: "
                f"{sum(len(q) for q in replay.serial_results.values())} "
                f"recorded job(s) will replay instead of re-executing"
            )
        else:
            journal = RunJournal.create(
                run_dir,
                {
                    "kind": "full-run",
                    "seed": seed,
                    "experiments": [e.experiment_id for e in selected],
                    "report": str(report_path) if report_path else None,
                    "partitions": runner.config.partitions,
                    "partition_strategy": runner.config.partition_strategy,
                },
            )
            runner.attach_journal(journal)
    if workers > 1:
        from repro.runtime.executor import RuntimeConfig, prefetch_into_runner

        datasets: List[str] = []
        algorithms: List[str] = []
        for experiment in selected:
            datasets.extend(d for d in experiment.datasets if d not in datasets)
            algorithms.extend(
                a for a in experiment.algorithms if a not in algorithms
            )
        prefetch = prefetch_into_runner(
            runner,
            datasets=datasets,
            algorithms=algorithms,
            runtime=RuntimeConfig(workers=workers),
        )
        if prefetch is not None:
            result.notes.append(
                f"[runtime] prefetched {prefetch.dag_size} artifacts on "
                f"{workers} workers in {prefetch.elapsed_seconds:.2f} s "
                f"({prefetch.cache_stats.describe()})"
            )
    with tracer.span("full-run", seed=seed):
        # Experiment.run opens one "experiment" span per suite entry, so
        # the exported tree reads full-run > experiment > job > ...
        for experiment in selected:
            experiment_id = experiment.experiment_id
            report = experiment.run(runner)
            result.reports[experiment_id] = report
            result.notes.extend(
                f"[{experiment_id}] {note}" for note in report.notes
            )
    if journal is not None:
        journal.append({"type": "run-complete"})
        journal.close()
        runner.detach_journal()
        runner.database.save(Path(run_dir) / "results.json")
    if run_dir is not None and tracer.enabled:
        delta = {
            name: value - counters_before.get(name, 0.0)
            for name, value in tracer.counters.items()
            if value != counters_before.get(name, 0.0)
        }
        write_trace(
            Path(run_dir) / "trace.jsonl",
            tracer.spans_since(trace_mark),
            counters=delta,
        )
    if report_path is not None:
        save_report(
            runner.database,
            report_path,
            title="Graphalytics full benchmark run",
        )
    if store is not None:
        submit_run(
            store,
            run_metadata or {
                "run_id": f"full-run-seed{seed}",
                "system_under_test":
                    "simulated Table 5 platforms on DAS-5 model",
                "submitter": "",
                "description": "",
            },
            runner.database,
        )
    return result


def submit_run(
    store: ResultsStore,
    metadata: Mapping[str, object],
    database: ResultsDatabase,
    *,
    require_validation: bool = True,
) -> str:
    """Store a harness run (the paper: only validated results enter).

    ``metadata`` (``run_id``, ``system_under_test``, ``submitter``,
    ``description``) is stored verbatim. With ``require_validation``
    every *successful* job must have passed output validation. The
    store rejects empty runs and duplicate run ids. Returns the run id.
    """
    if not _RUN_ID_PATTERN.match(str(metadata.get("run_id", ""))):
        raise ConfigurationError(
            f"run id {metadata.get('run_id')!r} must be alphanumeric with ._-"
        )
    if not metadata.get("system_under_test"):
        raise ConfigurationError("system_under_test must be non-empty")
    if require_validation:
        unvalidated = [
            r for r in database if r.succeeded and r.validated is not True
        ]
        if unvalidated:
            raise ValidationError(
                f"{len(unvalidated)} successful jobs lack output "
                f"validation; submit with require_validation=False only "
                f"for private runs"
            )
    return store.submit_run(metadata, [r.as_dict() for r in database])
