"""The service's run registry: run state as rows of the spool store.

Every submitted run owns one lifecycle row in the spool's results store
(``<spool>/results.db``, table ``service_runs``) and one directory of
run artifacts:

.. code-block:: text

    <spool>/results.db      # lifecycle rows, job rows, spans, breaches
    <spool>/<run_id>/
        journal.jsonl   # write-ahead journal (the run process writes it)
        trace.jsonl     # span trace, exported at run completion
        results.json    # the results database
        archive.json    # Granula archive of the run's own schedule
        cache/          # materialized-graph spill

The row holds the request (tenant, normalized matrix, knobs, chaos
plan), the state, the attempt ledger, the outcome and the quarantine
record. It is written before the run is queued and rewritten, one
transaction each, on every transition; the server is its only writer.
A row in a terminal state is finished, anything else is resumable work
— which is exactly what :meth:`RunRegistry.scan` exploits to re-enqueue
interrupted runs after a server restart (docs/service.md, restart
semantics).
"""

from __future__ import annotations

import re
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.exceptions import ConfigurationError
from repro.resultsdb.store import STORE_NAME, ResultsStore
from repro.runtime.journal import config_payload

__all__ = [
    "RunRecord",
    "RunRegistry",
    "normalize_matrix",
]

#: States a run moves through: queued -> running -> done | failed —
#: or, when supervision exhausts its attempt budget, -> quarantined.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
QUARANTINED = "quarantined"
TERMINAL_STATES = frozenset({DONE, FAILED, QUARANTINED})

_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def normalize_matrix(payload: object) -> Dict[str, object]:
    """Validate a submitted matrix against the registries; normalize it.

    The submission may be partial (missing keys take the
    :class:`~repro.harness.config.BenchmarkConfig` defaults); building
    the config validates every platform, dataset, and algorithm name
    against the live registries and every numeric knob against its
    bounds, so a bad submission fails here — as a 400 — rather than
    inside a queued run. The result is the *complete* canonical payload
    the journal header uses, making the stored request self-contained.
    """
    from repro.harness.config import BenchmarkConfig
    from repro.platforms.cluster import ClusterResources

    if not isinstance(payload, Mapping):
        raise ConfigurationError("matrix must be a JSON object")
    kwargs: Dict[str, object] = {}
    for key in ("platforms", "datasets", "algorithms"):
        if key in payload:
            value = payload[key]
            if not isinstance(value, (list, tuple)):
                raise ConfigurationError(f"matrix key {key!r} must be a list")
            kwargs[key] = list(value)
    for key, convert in (
        ("repetitions", int),
        ("seed", int),
        ("validate_outputs", bool),
        ("sla_seconds", float),
        ("skip_impossible", bool),
        ("partition_strategy", str),
    ):
        if key in payload:
            kwargs[key] = convert(payload[key])
    if "partitions" in payload:
        partitions = payload["partitions"]
        kwargs["partitions"] = (
            int(partitions) if partitions is not None else None
        )
    resources = payload.get("resources")
    if resources is not None:
        if not isinstance(resources, Mapping):
            raise ConfigurationError("matrix key 'resources' must be an object")
        threads = resources.get("threads")
        kwargs["resources"] = ClusterResources(
            machines=int(resources.get("machines", 1)),
            threads=int(threads) if threads is not None else None,
        )
    unknown = set(payload) - {
        "platforms", "datasets", "algorithms", "repetitions", "seed",
        "validate_outputs", "sla_seconds", "skip_impossible", "resources",
        "partitions", "partition_strategy",
    }
    if unknown:
        raise ConfigurationError(
            f"unknown matrix key(s): {sorted(unknown)}"
        )
    return config_payload(BenchmarkConfig(**kwargs))


@dataclass
class RunRecord:
    """In-memory view of one submitted run; its fields are the row."""

    run_id: str
    tenant: str
    config: Dict[str, object]
    #: Worker request forwarded to the run child: an int or ``"auto"``.
    workers: Union[int, str, None] = "auto"
    job_timeout: Optional[float] = None
    state: str = QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: str = ""
    #: Launches recorded in the attempt ledger (0 = never ran).
    attempts: int = 0
    #: One ``{"attempt": n, "at": t}`` entry per launch.
    history: List[Dict[str, object]] = field(default_factory=list, repr=False)
    #: Terminal summary the run child delivered, if the run finished.
    outcome: Optional[Dict[str, object]] = field(default=None, repr=False)
    #: Quarantine record for runs that exhausted their budget.
    quarantine: Optional[Dict[str, object]] = field(default=None, repr=False)
    #: Optional I/O fault plan (IoFaultPlan payload) riding the request.
    chaos: Optional[Dict[str, object]] = field(default=None, repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def request(self) -> Dict[str, object]:
        """What the run child needs to execute the run."""
        return {
            "run_id": self.run_id,
            "tenant": self.tenant,
            "config": self.config,
            "chaos": self.chaos,
        }

    def status_payload(self) -> Dict[str, object]:
        """The ``GET /v1/runs/<id>`` body."""
        payload: Dict[str, object] = {
            "run_id": self.run_id,
            "tenant": self.tenant,
            "state": self.state,
            "workers": self.workers,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error:
            payload["error"] = self.error
        if self.attempts:
            payload["attempts"] = self.attempts
        if self.quarantine is not None:
            payload["quarantine"] = self.quarantine
        if self.outcome is not None:
            for key in ("jobs", "failures", "sla_breaches",
                        "elapsed_seconds", "restored_jobs", "degraded"):
                if key in self.outcome:
                    payload[key] = self.outcome[key]
        return payload


class RunRegistry:
    """Assigns run ids, owns the spool layout and the lifecycle rows.

    The spool store is opened lazily — by :meth:`scan` only when
    ``results.db`` already exists, otherwise by the first :meth:`save`
    — so a server that has accepted no run has not created it.
    """

    def __init__(self, spool: Union[str, Path]):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.records: Dict[str, RunRecord] = {}
        self._sequence = 0
        self._store: Optional[ResultsStore] = None
        # Submissions and transitions run on asyncio.to_thread workers:
        # id assignment and the lazy store open must not race.
        self._lock = threading.Lock()

    def run_dir(self, run_id: str) -> Path:
        if not _RUN_ID_RE.match(run_id):
            raise ConfigurationError(f"malformed run id {run_id!r}")
        return self.spool / run_id

    def store(self) -> ResultsStore:
        """The spool's results store, opened on first use."""
        with self._lock:
            if self._store is None:
                self._store = ResultsStore(self.spool / STORE_NAME)
            return self._store

    def save(self, record: RunRecord) -> None:
        """Write ``record`` as its lifecycle row (one transaction)."""
        self.store().save_service_run(asdict(record))

    def close(self) -> None:
        with self._lock:
            if self._store is not None:
                self._store.close()
                self._store = None

    # -- submission --------------------------------------------------------

    def create(
        self,
        tenant: str,
        matrix: object,
        *,
        workers: Union[int, str, None] = "auto",
        job_timeout: Optional[float] = None,
        submitted_at: float = 0.0,
        chaos: Optional[Dict[str, object]] = None,
    ) -> RunRecord:
        """Validate, assign a run id, write the ``queued`` row, register.

        The row commits before the caller enqueues the run, so a crash
        between the two leaves a resumable (never a half-known)
        submission. ``chaos`` is a pre-validated
        :class:`~repro.faults.IoFaultPlan` payload the run child
        installs before executing — it rides the request so a resumed
        attempt replays the same fault plan.
        """
        if not _TENANT_RE.match(tenant or ""):
            raise ConfigurationError(
                f"tenant {tenant!r} must be alphanumeric with ._-"
            )
        config = normalize_matrix(matrix)
        with self._lock:
            while True:
                self._sequence += 1
                run_id = f"r{self._sequence:06d}-{tenant}"
                try:
                    self.run_dir(run_id).mkdir(parents=True)
                    break
                except FileExistsError:
                    pass  # a row-less directory (an older spool's run)
        record = RunRecord(
            run_id=run_id,
            tenant=tenant,
            config=config,
            workers=workers,
            job_timeout=job_timeout,
            submitted_at=submitted_at,
            chaos=chaos,
        )
        self.save(record)
        self.records[run_id] = record
        return record

    # -- restart recovery --------------------------------------------------

    def scan(self) -> List[RunRecord]:
        """Rebuild the registry from lifecycle rows; returns resumable runs.

        Rows in a terminal state (done, failed, quarantined) load as
        they are; every other row is returned, in submission order, as
        ``queued`` for re-enqueueing — the journal, if present, makes
        the re-run a resume rather than a restart. Attempt counts come
        from the row's ledger, so budgets survive restarts.
        """
        if self._store is None and not (self.spool / STORE_NAME).exists():
            return []
        resumable: List[RunRecord] = []
        for row in self.store().service_runs():
            record = RunRecord(**row)
            match = re.match(r"^r(\d+)-", record.run_id)
            if match:
                self._sequence = max(self._sequence, int(match.group(1)))
            if not record.terminal:
                record.state = QUEUED
                resumable.append(record)
            self.records[record.run_id] = record
        return resumable

    # -- artifacts ---------------------------------------------------------

    def artifact_path(self, run_id: str, artifact: str) -> Path:
        """Path of a servable run artifact file (results/archive/trace)."""
        names = {
            "results": "results.json",
            "archive": "archive.json",
            "trace": "trace.jsonl",
        }
        if artifact not in names:
            raise ConfigurationError(f"unknown artifact {artifact!r}")
        return self.run_dir(run_id) / names[artifact]
