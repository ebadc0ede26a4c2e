"""Benchmark-as-a-service: the asyncio HTTP server.

The paper positions Graphalytics as a *community* benchmark — many
platform teams submitting runs against one harness. This server is that
deployment shape: a long-lived process that accepts benchmark matrices
over HTTP, executes them through the crash-safe runtime, and streams
progress back live.

Surface (see docs/service.md for the full API):

* ``POST /v1/runs`` — submit a matrix; validated against the dataset
  and platform registries, admitted through the fair-share tenant
  queue (``429`` + ``Retry-After`` over quota), spooled durably, and
  executed in a child process;
* ``GET /v1/runs`` / ``GET /v1/runs/<id>`` — run listing and per-run
  state with the SLA-breach summary;
* ``GET /v1/runs/<id>/events`` — the run's journal records and trace
  spans as server-sent events, live-tailed from the files the runtime
  writes;
* ``GET /v1/runs/<id>/results|archive|trace`` — finished artifacts;
* ``GET /v1/status`` — queue and scheduler statistics.

Every handler is ``async`` and every blocking filesystem touch goes
through :func:`asyncio.to_thread` — the event loop never waits on disk
(lint rule SRV001 enforces this shape for all handlers under
``repro.service``). Run state lives in lifecycle rows of the spool's
results store, and the server is their only writer. On boot it reads
them back and re-enqueues every run that is not terminal; the child
re-executes it with journal resume, so a SIGKILLed server finishes its
work after restart.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import re
import shutil
import sqlite3
import warnings
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Awaitable, Callable, Dict, List, Optional, Tuple, Union

from repro.exceptions import ConfigurationError, GraphalyticsError
from repro.faults import FaultPointError, IoFaultPlan
from repro.resultsdb.store import STORE_NAME
from repro.service.http import (
    EventStream,
    ProtocolError,
    Request,
    Response,
    error_response,
    json_response,
    read_request,
    write_response,
)
from repro.service.queue import FairShareQueue, QuotaExceeded
from repro.service.runs import (
    DONE,
    FAILED,
    QUARANTINED,
    QUEUED,
    RUNNING,
    RunRecord,
    RunRegistry,
)
from repro.service.supervise import BreakerOpen, RetryPolicy, TenantBreaker
from repro.service.tail import JournalTailer
from repro.service.worker import execute_service_run
from repro.trace import current_tracer, read_span_dicts

__all__ = ["ServiceConfig", "BenchmarkService"]

_Handler = Callable[..., Awaitable[Optional[Response]]]


@dataclass
class ServiceConfig:
    """Deployment knobs of one service instance."""

    spool: Union[str, Path] = "service-spool"
    host: str = "127.0.0.1"
    port: int = 8735
    #: Worker request forwarded to each run child ("auto" = host CPUs).
    workers: Union[int, str] = "auto"
    #: Per-job wall-clock budget forwarded to each run child.
    job_timeout: Optional[float] = None
    #: Global cap on concurrently executing runs.
    max_running: int = 2
    #: Per-tenant admission quotas (see FairShareQueue).
    per_tenant_depth: int = 4
    per_tenant_running: int = 1
    retry_after: float = 2.0
    #: SSE tail poll interval (seconds).
    poll_interval: float = 0.05
    #: Supervision: launches per run before quarantine (across
    #: restarts — the attempt ledger is durable), and the base of the
    #: exponential relaunch backoff (scheduler-shaped: base * 2^(n-1)).
    run_attempts: int = 3
    run_backoff_base: float = 0.5
    #: Circuit breaker: consecutive child deaths that open a tenant's
    #: circuit, and how long it sheds submissions (503 + Retry-After).
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    #: Default shard count for pythonref jobs, applied to submitted
    #: matrices that do not choose one themselves ("auto" = run-child
    #: host CPUs; None = single-process engines).
    partitions: Union[int, str, None] = None
    partition_strategy: str = "hash"

    def __post_init__(self):
        if self.max_running < 1:
            raise ConfigurationError("max_running must be >= 1")
        if self.poll_interval <= 0:
            raise ConfigurationError("poll_interval must be positive")
        if self.run_attempts < 1:
            raise ConfigurationError("run_attempts must be >= 1")
        if self.breaker_threshold < 1:
            raise ConfigurationError("breaker_threshold must be >= 1")


class BenchmarkService:
    """One service instance: registry + queue + scheduler + HTTP front."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.registry = RunRegistry(self.config.spool)
        self.queue = FairShareQueue(
            per_tenant_depth=self.config.per_tenant_depth,
            per_tenant_running=self.config.per_tenant_running,
            retry_after=self.config.retry_after,
        )
        self._routes: List[Tuple[str, "re.Pattern[str]", _Handler]] = []
        self._children: Dict[str, multiprocessing.process.BaseProcess] = {}
        self._monitors: List[asyncio.Task] = []
        self._wake: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopping = False
        self.address: Optional[Tuple[str, int]] = None
        self.retry_policy = RetryPolicy(
            max_attempts=self.config.run_attempts,
            backoff_base=self.config.run_backoff_base,
        )
        self.breaker = TenantBreaker(
            threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
        )
        self._add_route("POST", "/v1/runs", self._handle_submit)
        self._add_route("GET", "/v1/runs", self._handle_list)
        self._add_route("GET", "/v1/status", self._handle_status)
        self._add_route("GET", "/v1/healthz", self._handle_healthz)
        self._add_route("GET", r"/v1/runs/(?P<run_id>[^/]+)", self._handle_run)
        self._add_route(
            "GET", r"/v1/runs/(?P<run_id>[^/]+)/events", self._handle_events
        )
        self._add_route(
            "GET",
            r"/v1/runs/(?P<run_id>[^/]+)"
            r"/(?P<artifact>results|archive|trace|outcome|quarantine)",
            self._handle_artifact,
        )

    def _add_route(self, method: str, pattern: str, handler: _Handler) -> None:
        """Register one route; the lint project model treats every
        handler registered here as an async-entrypoint root (SRV001)."""
        self._routes.append((method, re.compile(f"^{pattern}$"), handler))

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Boot: recover the spool, start the scheduler and the listener."""
        self._wake = asyncio.Event()
        resumable = await asyncio.to_thread(self.registry.scan)
        for record in resumable:
            # Boot recovery routes through the same supervision
            # decision as an in-life child death: a run that already
            # burned its attempt budget is quarantined, not relaunched
            # — this is what bounds a poison run's crash loop. Runs
            # inside their budget are re-enqueued unconditionally
            # (restart recovery must not re-apply admission quotas).
            await self._supervise(
                record,
                reason=(
                    f"attempt budget exhausted "
                    f"({record.attempts}/{self.config.run_attempts} "
                    f"launches) with no outcome; quarantined at boot"
                ),
                backoff=False,
            )
        self._scheduler = asyncio.ensure_future(self._dispatch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: stop listening, terminate run children."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._wake is not None:
            self._wake.set()
        self._scheduler.cancel()
        try:
            await self._scheduler
        except asyncio.CancelledError:
            pass
        for proc in list(self._children.values()):
            if proc.is_alive():
                proc.terminate()
        for task in self._monitors:
            task.cancel()
        await asyncio.gather(*self._monitors, return_exceptions=True)
        await asyncio.to_thread(self.registry.close)

    # -- scheduler ---------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Fair-share dispatch: fill run slots, then wait for a change."""
        assert self._wake is not None
        while not self._stopping:
            while len(self._children) < self.config.max_running:
                item = self.queue.acquire()
                if item is None:
                    break
                tenant, run_id = item
                await self._launch(tenant, run_id)
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=1.0)
            except asyncio.TimeoutError:
                pass

    async def _launch(self, tenant: str, run_id: str) -> None:
        record = self.registry.records[run_id]
        attempt = record.attempts + 1
        now = current_tracer().clock.now()
        # Durable *before* the child starts: if the server dies mid-run,
        # the restarted boot scan still counts this launch against the
        # budget.
        await self._transition(
            record,
            state=RUNNING,
            attempts=attempt,
            history=[*record.history, {"attempt": attempt, "at": now}],
            started_at=now,
        )
        reader, writer = multiprocessing.Pipe(duplex=False)
        proc = multiprocessing.Process(
            target=execute_service_run,
            args=(str(self.registry.run_dir(run_id)), record.request()),
            kwargs={
                "workers": record.workers or self.config.workers,
                "job_timeout": record.job_timeout or self.config.job_timeout,
                "outcome_pipe": writer,
            },
            name=f"service-run-{run_id}",
        )
        with self.registry.store().idle():
            proc.start()
        writer.close()  # the child holds the only write end now
        self._children[run_id] = proc
        self._monitors.append(
            asyncio.ensure_future(self._monitor(tenant, run_id, proc, reader))
        )

    async def _monitor(
        self,
        tenant: str,
        run_id: str,
        proc: multiprocessing.process.BaseProcess,
        reader: Connection,
    ) -> None:
        """Wait (off-loop) for one run child; settle or supervise it.

        A child that delivered an outcome is terminal once the server
        has recorded it (``ok`` or not) and closes the tenant's breaker
        circuit — a clean exit, even a failing one, proves the tenant's
        runs are not *dying*. A child that exited without one died
        mid-run: that is a breaker strike, and the run goes through the
        supervision decision (relaunch with backoff, or quarantine when
        the attempt budget is spent).
        """
        outcome = await asyncio.to_thread(_collect_outcome, proc, reader)
        record = self.registry.records[run_id]
        now = current_tracer().clock.now()
        self._children.pop(run_id, None)
        self.queue.release(tenant)
        if outcome is not None:
            await self._transition(
                record,
                state=DONE if outcome.get("ok") else FAILED,
                outcome=outcome,
                error=str(outcome.get("error", "")),
                finished_at=now,
            )
            self.breaker.record_success(tenant)
        elif self._stopping:
            # Graceful shutdown terminated the child mid-run. Not a
            # death: no strike, no budget decision — the next boot
            # scan re-enqueues it (its launch is already in the
            # ledger, so the budget still counts the interrupted
            # attempt).
            record.state = QUEUED
        else:
            self.breaker.record_death(tenant, now=now)
            await self._supervise(
                record,
                reason=(
                    f"run child exited with code {proc.exitcode} and "
                    f"no outcome (attempt {record.attempts}/"
                    f"{self.config.run_attempts})"
                ),
                backoff=True,
            )
        if self._wake is not None:
            self._wake.set()

    async def _transition(self, record: RunRecord, **changes) -> None:
        """Record one lifecycle transition durably, then publish it.

        The new row commits from a ``to_thread`` worker before the
        in-memory record — what the API serves — changes, so a client
        never sees a state the store does not hold. A failed write
        warns instead of wedging the server: the run keeps going, and
        a restart resumes it from its journal.
        """
        try:
            await asyncio.to_thread(
                self.registry.save, replace(record, **changes)
            )
        except (OSError, sqlite3.Error) as exc:
            warnings.warn(
                f"could not record the {changes.get('state', record.state)}"
                f" transition of {record.run_id} in the spool store: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
        for name, value in changes.items():
            setattr(record, name, value)

    # -- supervision -------------------------------------------------------

    async def _supervise(
        self, record: RunRecord, *, reason: str, backoff: bool
    ) -> None:
        """THE run-recovery decision, for deaths and boot scans alike.

        Within budget: back on the queue (after the scheduler-shaped
        exponential backoff for in-life deaths; immediately at boot —
        the old server's death already was the pause). Budget spent:
        quarantine — durable, terminal, visible.
        """
        if self.retry_policy.exhausted(record.attempts):
            await self._quarantine(record, reason)
            return
        record.state = QUEUED
        record.error = reason
        delay = (
            self.retry_policy.backoff(record.attempts)
            if backoff and record.attempts > 0
            else 0.0
        )
        if delay > 0:
            self._monitors.append(
                asyncio.ensure_future(self._requeue_later(record, delay))
            )
        else:
            self.queue.submit(record.tenant, record.run_id, force=True)

    async def _requeue_later(self, record: RunRecord, delay: float) -> None:
        """Exponential-backoff relaunch of a run whose child died."""
        await asyncio.sleep(delay)
        if self._stopping:
            return
        self.queue.submit(record.tenant, record.run_id, force=True)
        if self._wake is not None:
            self._wake.set()

    async def _quarantine(self, record: RunRecord, reason: str) -> None:
        """Settle the record terminally ``quarantined``, durably."""
        now = current_tracer().clock.now()
        await self._transition(
            record,
            state=QUARANTINED,
            quarantine={
                "run_id": record.run_id,
                "tenant": record.tenant,
                "attempts": record.attempts,
                "budget": self.config.run_attempts,
                "reason": reason,
                "quarantined_at": now,
            },
            error=reason,
            finished_at=now,
        )

    # -- HTTP front --------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except ProtocolError as exc:
                await write_response(writer, error_response(400, str(exc)))
                return
            if request is None:
                return
            response = await self._dispatch(request, writer)
            if response is not None:
                await write_response(writer, response)
        except (ConnectionError, asyncio.CancelledError):
            pass  # peer went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> Optional[Response]:
        path_exists = False
        for method, pattern, handler in self._routes:
            match = pattern.match(request.path)
            if match is None:
                continue
            path_exists = True
            if method != request.method:
                continue
            try:
                return await handler(request, writer, **match.groupdict())
            except QuotaExceeded as exc:
                return error_response(
                    429, str(exc),
                    **{"Retry-After": f"{exc.retry_after:g}"},
                )
            except BreakerOpen as exc:
                return error_response(
                    503, str(exc),
                    **{"Retry-After": f"{exc.retry_after:g}"},
                )
            except ProtocolError as exc:
                return error_response(400, str(exc))
            except ConfigurationError as exc:
                return error_response(400, str(exc))
            except GraphalyticsError as exc:
                return error_response(500, str(exc))
        if path_exists:
            return error_response(405, f"method {request.method} not allowed")
        return error_response(404, f"no route for {request.path}")

    # -- handlers ----------------------------------------------------------

    async def _handle_submit(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> Response:
        body = request.json()
        if not isinstance(body, dict):
            raise ProtocolError("submission must be a JSON object")
        tenant = str(
            body.get("tenant") or request.headers.get("x-tenant") or ""
        )
        # Shed before spooling: an open circuit costs the tenant one
        # 503, not a spool directory.
        self.breaker.check(tenant, now=current_tracer().clock.now())
        matrix = body.get("matrix")
        if matrix is None:
            raise ProtocolError("submission lacks a 'matrix' object")
        if (
            self.config.partitions is not None
            and isinstance(matrix, dict)
            and matrix.get("partitions") is None
        ):
            # Service-wide partitioning default; an explicit choice in
            # the submitted matrix always wins.
            matrix = {
                **matrix,
                "partitions": self.config.partitions,
                "partition_strategy": self.config.partition_strategy,
            }
        chaos = body.get("chaos")
        if chaos is not None:
            if not isinstance(chaos, dict):
                raise ProtocolError("'chaos' must be a JSON object")
            try:
                # Round-trip through the plan class: unknown fault
                # points and malformed rules become a 400 here, not a
                # crash-looping child.
                chaos = IoFaultPlan.from_dict(chaos).as_dict()
            except (FaultPointError, KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(f"invalid chaos plan: {exc}")
        workers = body.get("workers", self.config.workers)
        job_timeout = body.get("job_timeout", self.config.job_timeout)
        record = await asyncio.to_thread(
            self.registry.create,
            tenant,
            matrix,
            workers=workers,
            job_timeout=job_timeout,
            submitted_at=current_tracer().clock.now(),
            chaos=chaos,
        )
        try:
            self.queue.submit(tenant, record.run_id)
        except QuotaExceeded:
            # Rejected after spooling: settle the row terminally so a
            # restart does not resurrect a run the client was told to
            # retry.
            reason = "rejected: tenant queue-depth quota"
            await self._transition(
                record,
                state=FAILED,
                outcome={"ok": False, "error": reason},
                error=reason,
            )
            raise
        if self._wake is not None:
            self._wake.set()
        return json_response(
            {
                "run_id": record.run_id,
                "state": record.state,
                "pending": self.queue.pending(tenant),
                "events": f"/v1/runs/{record.run_id}/events",
            },
            status=202,
        )

    async def _handle_list(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> Response:
        tenant = request.query.get("tenant")
        runs = [
            record.status_payload()
            for record in self.registry.records.values()
            if tenant is None or record.tenant == tenant
        ]
        runs.sort(key=lambda payload: str(payload["run_id"]))
        return json_response({"runs": runs})

    async def _handle_status(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> Response:
        return json_response(
            {
                "queue": self.queue.stats(),
                "children": len(self._children),
                "max_running": self.config.max_running,
                "spool": str(self.registry.spool),
            }
        )

    async def _handle_healthz(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> Response:
        """Liveness + degradation: queue depth, disk headroom, breaker
        circuits, quarantined runs, and durability-downgrade flags.

        ``status`` is ``"ok"`` only when nothing is shedding, nothing
        is quarantined, and no completed run reported a durability
        downgrade — a load balancer can alert on the word while
        operators read the detail.
        """
        now = current_tracer().clock.now()
        usage = await asyncio.to_thread(
            shutil.disk_usage, str(self.registry.spool)
        )
        store_stats = await asyncio.to_thread(_store_stats, self.registry)
        breakers = self.breaker.state(now=now)
        quarantined = sorted(
            record.run_id
            for record in self.registry.records.values()
            if record.state == QUARANTINED
        )
        degraded_runs = {
            record.run_id: record.outcome["degraded"]
            for record in sorted(
                self.registry.records.values(), key=lambda r: r.run_id
            )
            if record.outcome is not None and record.outcome.get("degraded")
        }
        healthy = (
            not quarantined
            and not degraded_runs
            and not any(circuit["open"] for circuit in breakers)
        )
        return json_response(
            {
                "status": "ok" if healthy else "degraded",
                "queue": self.queue.stats(),
                "children": len(self._children),
                "max_running": self.config.max_running,
                "disk": {
                    "total_bytes": usage.total,
                    "free_bytes": usage.free,
                },
                "breakers": breakers,
                "quarantined": quarantined,
                "degraded_runs": degraded_runs,
                "results_store": store_stats,
            }
        )

    async def _handle_run(
        self, request: Request, writer: asyncio.StreamWriter, run_id: str
    ) -> Response:
        record = self.registry.records.get(run_id)
        if record is None:
            return error_response(404, f"unknown run {run_id!r}")
        return json_response(record.status_payload())

    async def _handle_artifact(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        run_id: str,
        artifact: str,
    ) -> Response:
        record = self.registry.records.get(run_id)
        if record is None:
            return error_response(404, f"unknown run {run_id!r}")
        content_type = "application/json"
        if artifact in ("outcome", "quarantine"):
            # Lifecycle documents live in the run's row; the record
            # mirrors the row, so no store read is needed.
            document = getattr(record, artifact)
            body = None if document is None else json.dumps(
                document, indent=1, sort_keys=True
            ).encode("utf-8")
        else:
            path = self.registry.artifact_path(run_id, artifact)
            body = await asyncio.to_thread(_read_artifact, path)
            if path.suffix != ".json":
                content_type = "application/x-ndjson"
        if body is None:
            return error_response(
                404, f"run {run_id!r} has no {artifact} artifact (yet)"
            )
        return Response(status=200, body=body, content_type=content_type)

    async def _handle_events(
        self, request: Request, writer: asyncio.StreamWriter, run_id: str
    ) -> Optional[Response]:
        """Stream the run's journal, then its trace spans, as SSE."""
        record = self.registry.records.get(run_id)
        if record is None:
            return error_response(404, f"unknown run {run_id!r}")
        try:
            offset = int(request.query.get("offset", "0"))
        except ValueError:
            return error_response(400, "offset must be an integer")
        if offset < 0:
            return error_response(400, "offset must be >= 0")
        stream = EventStream(writer)
        await stream.open()
        await stream.send("run", record.status_payload())
        # ``offset`` journal records were already delivered on a prior
        # connection; the tailer swallows them so a reconnecting
        # watcher resumes exactly where its stream dropped.
        tailer = JournalTailer(
            self.registry.run_dir(run_id) / "journal.jsonl", skip=offset
        )
        idle_polls = 0
        while True:
            records = await asyncio.to_thread(tailer.poll)
            for journal_record in records:
                await stream.send("journal", journal_record)
            if records:
                idle_polls = 0
                continue
            if record.terminal:
                break
            idle_polls += 1
            if idle_polls % 200 == 0:
                await stream.ping()
            await asyncio.sleep(self.config.poll_interval)
        trace_path = self.registry.artifact_path(run_id, "trace")
        spans = await asyncio.to_thread(read_span_dicts, trace_path)
        for span in spans:
            await stream.send("span", span)
        await stream.send("end", record.status_payload())
        return None  # the stream was the response


def _store_stats(registry: RunRegistry) -> Dict[str, object]:
    """The spool results-store statistics for ``/v1/healthz``.

    The store is created by the first submission; before it exists
    healthz reports zeros without creating the file. Runs on a
    ``to_thread`` worker: opening and counting is filesystem work the
    event loop must not wait on.
    """
    path = registry.spool / STORE_NAME
    if not path.exists():
        return {
            "path": str(path), "runs": 0, "jobs": 0, "spans": 0,
            "sla_breaches": 0, "db_bytes": 0,
        }
    return registry.store().stats()


def _collect_outcome(
    proc: multiprocessing.process.BaseProcess, reader: Connection
) -> Optional[Dict[str, object]]:
    """Join a run child; the outcome it delivered, ``None`` if it died.

    The child sends its small outcome before exiting, so after the join
    it is buffered or was never sent. ``poll`` does not wait on
    grandchildren that inherited the write end.
    """
    proc.join()
    try:
        return reader.recv() if reader.poll() else None
    except (EOFError, OSError):
        return None
    finally:
        reader.close()


def _read_artifact(path: Path) -> Optional[bytes]:
    """Read one servable artifact; ``None`` when absent."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None
