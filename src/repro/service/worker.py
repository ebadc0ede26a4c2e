"""The per-run child process: executes one spooled run to completion.

Each dispatched run executes in its **own process** rather than inside
the server. That buys three properties the service contract needs:

* isolation — a run that exhausts memory or dies on a platform bug
  takes out one child, not the server and every other tenant's stream;
* honest crash semantics — the e2e suite SIGKILLs the *server* mid-run
  and expects the restarted server to resume from the journal; the
  parent-death watchdog below makes the children die with the server,
  so the journal really is torn where the crash happened;
* a tailable journal — the child writes ``journal.jsonl`` in the run
  directory through the ordinary crash-safe runtime, and the server
  process streams it to SSE clients with :class:`~repro.service.tail.JournalTailer`
  without sharing any in-process state.

:func:`execute_service_run` is the ``multiprocessing.Process`` target.
It is a lint-recognized worker entrypoint (the RACE rules police it),
so it mutates no module globals — everything it touches lives in the
run directory it is handed. It gets its request as arguments and hands
its outcome back over a pipe; the server, the only writer of lifecycle
rows, records it. The child's one store write is the run's own results
commit, on a connection of its own.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from repro.faults import IoFaultPlan, install_io_plan
from repro.ioutil import atomic_write
from repro.resultsdb.store import STORE_NAME, commit_service_run
from repro.runtime.executor import (
    RuntimeConfig,
    execute_matrix,
    resolve_workers,
)
from repro.runtime.journal import RunJournal, config_from_payload
from repro.trace import Tracer, use_tracer

__all__ = ["execute_service_run", "run_outcome_payload"]

#: How often the orphan watchdog re-checks the parent (seconds).
_WATCHDOG_INTERVAL = 0.2


def _start_parent_watchdog(parent_pid: int) -> threading.Thread:
    """Kill this process the moment its parent disappears.

    When the server is SIGKILLed it cannot reap or signal its children,
    so each child polls its parent pid from a daemon thread and
    ``os._exit``\\ s on orphaning — the same guard the worker pool uses.
    A hard exit is deliberate: it tears the journal exactly where the
    crash landed, which is the case resume is built for.
    """

    def watch() -> None:
        while True:
            if os.getppid() != parent_pid:
                os._exit(1)
            time.sleep(_WATCHDOG_INTERVAL)

    thread = threading.Thread(
        target=watch, name="service-parent-watchdog", daemon=True
    )
    thread.start()
    return thread


def run_outcome_payload(result, *, elapsed: float) -> Dict[str, object]:
    """The terminal outcome of a finished run."""
    database = result.database
    sla_breaches = sum(1 for row in database if not row.sla_compliant)
    payload = {
        "ok": True,
        "jobs": result.job_count,
        "rows": len(database),
        "failures": len(result.failures),
        "sla_breaches": sla_breaches,
        "restored_jobs": result.restored_jobs,
        "lost_jobs": result.lost_jobs,
        "workers": result.workers,
        "mode": result.mode,
        "elapsed_seconds": elapsed,
    }
    degraded = getattr(result, "degraded", None)
    if degraded:
        # Durability downgrades (journal ENOSPC / failed fsync): the
        # run finished, but not at full crash-safety — the flag rides
        # the outcome into run status and /v1/healthz.
        payload["degraded"] = list(degraded)
    return payload


def _commit_to_store(run_dir: Path, request, result, outcome) -> None:
    """Commit the finished run into the spool's shared results store.

    Part of the run's terminal commit: the job rows, the exported
    ``trace.jsonl`` spans, and the SLA breaches enter
    ``<spool>/results.db`` in one transaction right before the outcome
    goes back to the server. ``replace`` semantics (inside
    :func:`~repro.resultsdb.store.commit_service_run`) make the write
    idempotent across relaunches — a child SIGKILLed at the
    ``resultsdb.commit`` fault point re-commits the run whole on its
    next attempt. A store failure must not fail a finished benchmark
    run: it downgrades to a ``degraded`` flag that rides the outcome
    into run status and ``/v1/healthz``, like a journal durability
    downgrade.
    """
    try:
        stats = commit_service_run(
            run_dir.parent / STORE_NAME,
            run_id=str(request.get("run_id") or run_dir.name),
            tenant=str(request.get("tenant") or ""),
            database=result.database,
            trace_path=run_dir / "trace.jsonl",
        )
    except Exception as exc:
        outcome.setdefault("degraded", []).append("resultsdb-commit-failed")
        outcome["resultsdb_error"] = f"{type(exc).__name__}: {exc}"
        return
    outcome["resultsdb"] = {"runs": stats["runs"], "jobs": stats["jobs"]}


def execute_service_run(
    run_dir: Union[str, Path],
    request: Mapping[str, object],
    *,
    workers: Union[int, str, None] = "auto",
    job_timeout: Optional[float] = None,
    watchdog: bool = True,
    outcome_pipe=None,
) -> Dict[str, object]:
    """Execute (or resume) one run in ``run_dir``; returns its outcome.

    ``request`` carries the run id, tenant, normalized matrix and
    optional chaos plan. The matrix runs through the journaled runtime
    — resuming from ``journal.jsonl`` when one exists, so a rerun after
    a crash completes the remainder instead of starting over — then
    ``archive.json`` (the run's Granula performance archive) is written
    and the run's rows, spans, and SLA breaches are committed into the
    spool's shared results store. The outcome goes back over
    ``outcome_pipe`` (the write end of a ``multiprocessing.Pipe``) when
    one is given. A run whose outcome the server never receives is
    unfinished work: the server supervises it like a death.
    """
    run_dir = Path(run_dir)
    if watchdog:
        _start_parent_watchdog(os.getppid())
    # A fresh tracer per child: span buffers and counters must not be
    # shared (or forked mid-write) from the server process.
    tracer = Tracer()
    with use_tracer(tracer):
        started = tracer.clock.now()
        try:
            chaos = request.get("chaos")
            if chaos:
                # The submission carried a seeded I/O fault plan: arm
                # it in this child (and only this child) before any
                # journal or artifact write happens. Riding the stored
                # request means a relaunched attempt re-arms the same
                # plan — chaos follows the run, not the server.
                install_io_plan(IoFaultPlan.from_dict(chaos))
            config = config_from_payload(request["config"])
            runtime = RuntimeConfig(
                workers=resolve_workers(workers),
                job_timeout=job_timeout,
                cache_dir=run_dir / "cache",
            )
            resume = RunJournal.journal_path(run_dir).exists()
            result = execute_matrix(
                config, runtime, run_dir=run_dir, resume=resume
            )
            atomic_write(
                run_dir / "archive.json",
                json.dumps(result.archive().as_dict(), indent=1, sort_keys=True),
            )
            outcome = run_outcome_payload(
                result, elapsed=tracer.clock.now() - started
            )
            _commit_to_store(run_dir, request, result, outcome)
        except Exception as exc:
            outcome = {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "elapsed_seconds": tracer.clock.now() - started,
            }
    if outcome_pipe is not None:
        try:
            outcome_pipe.send(outcome)
        except OSError:
            pass  # the server is gone; its successor resumes the run
        outcome_pipe.close()
    return outcome
