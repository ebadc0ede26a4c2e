"""Write-ahead run journal: crash-safe persistence of a benchmark run.

The paper's benchmark process (§2.3) runs for hours; PR 2 made *jobs*
fault-tolerant, but the harness process itself remained a single point
of failure — an OOM kill mid-run lost every completed result. The
journal removes that failure mode: under a **run directory**, an
append-only JSONL log records the run's identity (matrix hash, config,
seed) and one fsynced record per job transition, so after a crash
``graphalytics resume <run_dir>`` replays the log, marks completed jobs
done, and executes only the remainder — with the resumed database
bit-identical to an uninterrupted run (``ResultsDatabase.
canonical_json``).

Crash-consistency guarantees (see docs/robustness.md):

* every line carries a CRC-32 of its payload; a torn final write (the
  only tear an append-only log can suffer) fails the check and is
  truncated on recovery via an atomic rewrite — a corrupt line *before*
  intact ones is real corruption and raises :class:`JournalError`;
* a record is appended *and flushed* before its effect is assumed
  durable, so "journaled done" implies "survives SIGKILL" (the bytes
  are the kernel's); durability against power loss is group-committed
  — critical records fsync immediately, job completions at most once
  per commit interval and always on close;
* jobs are identified by :func:`job_key` — a SHA-256 digest of the
  canonical job spec, the same content-address style the graph cache
  uses — so resume matches jobs by identity, not by file position.

Record types (``"type"`` field): ``run-start``, ``job-scheduled``,
``attempt-start``, ``attempt-failed``, ``job-done``, ``job-failed``,
``serial-job`` (sequential :class:`~repro.harness.runner.
BenchmarkRunner` paths), and ``run-complete``.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import warnings
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.exceptions import GraphalyticsError
from repro.faults import points as fault_points
from repro.ioutil import atomic_write, fsync_directory
from repro.trace import Clock, current_tracer

__all__ = [
    "JOURNAL_VERSION",
    "JOURNAL_NAME",
    "JournalError",
    "job_key",
    "serial_job_key",
    "matrix_hash",
    "config_payload",
    "config_from_payload",
    "RunJournal",
    "JournalReplay",
]

JOURNAL_VERSION = 1
JOURNAL_NAME = "journal.jsonl"

#: Record types that are fully recoverable from matrix re-expansion —
#: losing a suffix of them merely makes resume re-run in-flight work,
#: which is its semantics anyway — so they never force an fsync. They
#: become durable with the next fsynced append: fsync flushes the whole
#: file, so after any durable append returns, everything before it is
#: on disk and the only at-risk bytes are a pure suffix (which torn-
#: tail recovery already handles).
RELAXED_TYPES = frozenset({"attempt-start", "job-scheduled"})

#: Record types fsynced immediately: rare, and they define the shape of
#: the run (its identity, its completion, a terminal failure).
CRITICAL_TYPES = frozenset({"run-start", "run-complete", "job-failed"})

#: fdatasync skips the metadata flush where the OS offers it; appends
#: only ever grow the file, so data + size reach disk either way.
_datasync = getattr(os, "fdatasync", os.fsync)


class JournalError(GraphalyticsError):
    """The journal is unreadable, corrupt mid-file, or mismatched."""


# -- identity -----------------------------------------------------------------

def job_key(spec) -> str:
    """Deterministic identity of one DAG job (content-address style).

    Everything the job's outcome depends on enters the digest; the
    matrix sequence number does not — identity survives re-expansion.
    """
    payload = json.dumps(
        {
            "kind": spec.kind,
            "dataset": spec.dataset,
            "algorithm": spec.algorithm,
            "platform": spec.platform,
            "run_index": spec.run_index,
            "machines": spec.machines,
            "threads": spec.threads,
            "seed": spec.seed,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def serial_job_key(
    platform: str,
    dataset: str,
    algorithm: str,
    *,
    machines: int,
    threads: Optional[int],
    run_index: int,
    seed: int,
) -> str:
    """Identity of one sequential ``BenchmarkRunner.run_job`` call."""
    payload = json.dumps(
        {
            "kind": "serial",
            "platform": platform.lower(),
            "dataset": dataset,
            "algorithm": algorithm.lower(),
            "machines": machines,
            "threads": threads,
            "run_index": run_index,
            "seed": seed,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def config_payload(config) -> Dict[str, object]:
    """JSON form of a :class:`~repro.harness.config.BenchmarkConfig`."""
    return {
        "platforms": list(config.platforms),
        "datasets": list(config.datasets),
        "algorithms": list(config.algorithms),
        "repetitions": config.repetitions,
        "seed": config.seed,
        "validate_outputs": config.validate_outputs,
        "sla_seconds": config.sla_seconds,
        "skip_impossible": config.skip_impossible,
        "partitions": config.partitions,
        "partition_strategy": config.partition_strategy,
        "resources": {
            "machines": config.resources.machines,
            "threads": config.resources.threads,
        },
    }


def config_from_payload(payload: Dict[str, object]):
    """Rebuild the :class:`BenchmarkConfig` a journal header recorded."""
    from repro.harness.config import BenchmarkConfig
    from repro.platforms.cluster import ClusterResources

    resources = payload.get("resources", {})
    return BenchmarkConfig(
        platforms=list(payload["platforms"]),
        datasets=list(payload["datasets"]),
        algorithms=list(payload["algorithms"]),
        resources=ClusterResources(
            machines=int(resources.get("machines", 1)),
            threads=resources.get("threads"),
        ),
        repetitions=int(payload["repetitions"]),
        seed=int(payload["seed"]),
        validate_outputs=bool(payload["validate_outputs"]),
        sla_seconds=float(payload["sla_seconds"]),
        skip_impossible=bool(payload["skip_impossible"]),
        # Passed through raw: BenchmarkConfig normalizes "auto"/ints and
        # rejects garbage, so submitted matrices share one validation path.
        partitions=payload.get("partitions"),
        partition_strategy=str(payload.get("partition_strategy", "hash")),
    )


def matrix_hash(config, specs: Sequence) -> str:
    """Digest of the full run identity: config plus every job's key.

    A resume against a journal whose hash differs is refused — the
    matrix the journal describes is not the matrix being run.
    """
    payload = json.dumps(
        {
            "config": config_payload(config),
            "jobs": [job_key(spec) for spec in specs],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- line codec ---------------------------------------------------------------

def _encode_line(record: Dict[str, object]) -> bytes:
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}\n".encode("utf-8")


def _decode_line(line: bytes) -> Optional[Dict[str, object]]:
    """The record, or ``None`` when the line fails its integrity check."""
    if not line.endswith(b"\n"):
        return None
    try:
        text = line[:-1].decode("utf-8")
        crc_hex, payload = text.split(" ", 1)
        if len(crc_hex) != 8:
            return None
        expected = int(crc_hex, 16)
    except (UnicodeDecodeError, ValueError):
        return None
    if zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF != expected:
        return None
    try:
        record = json.loads(payload)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


# -- replay -------------------------------------------------------------------

class JournalReplay:
    """Everything a journal file says happened, indexed for resume."""

    def __init__(self, header: Dict[str, object], records: List[Dict[str, object]],
                 *, truncated_bytes: int = 0):
        self.header = header
        self.records = records
        #: Bytes of torn tail dropped during recovery (0 = clean log).
        self.truncated_bytes = truncated_bytes
        #: job key -> completion payload (DAG jobs).
        self.completed: Dict[str, Dict[str, object]] = {}
        #: job key -> replayable attempt-failed records, in order.
        self.failed_attempts: Dict[str, List[Dict[str, object]]] = {}
        #: job key -> count of attempt-start records (chaos accounting).
        self.attempt_starts: Dict[str, int] = {}
        #: job key -> terminal job-failed record.
        self.failures: Dict[str, Dict[str, object]] = {}
        #: serial key -> FIFO of recorded result rows.
        self.serial_results: Dict[str, List[Dict[str, object]]] = {}
        self.run_completes = 0
        for record in records:
            kind = record.get("type")
            key = str(record.get("key", ""))
            if kind == "attempt-start":
                self.attempt_starts[key] = self.attempt_starts.get(key, 0) + 1
            elif kind == "job-done":
                self.completed[key] = record
            elif kind == "attempt-failed":
                self.failed_attempts.setdefault(key, []).append(record)
            elif kind == "job-failed":
                self.failures[key] = record
            elif kind == "serial-job":
                self.serial_results.setdefault(key, []).append(record)
            elif kind == "run-complete":
                self.run_completes += 1

    @property
    def complete(self) -> bool:
        return self.run_completes > 0

    def take_serial(self, key: str) -> Optional[Dict[str, object]]:
        """Pop the next recorded result for a sequential job, if any.

        FIFO per key: the nth call with an identity replays the nth
        recorded outcome, so a deterministic sequential body that runs
        the same workload twice replays both occurrences in order.
        """
        queue = self.serial_results.get(key)
        if not queue:
            return None
        return queue.pop(0)


# -- the journal --------------------------------------------------------------

class RunJournal:
    """Append-only, fsynced, CRC-guarded JSONL log under a run directory.

    Writers call :meth:`append` (or :meth:`append_many` for a batch with
    one fsync); every append is durable before it returns. Readers use
    :meth:`load` / :meth:`open`, which recover from a torn tail by
    atomically rewriting the good prefix.

    **Graceful degradation.** A benchmark run should not die because
    its *log* cannot grow. When the disk fills (ENOSPC on append) the
    journal disables itself — the run continues unjournaled, resume is
    off the table, and the ``journal-disabled`` flag rides the run
    result so nothing pretends otherwise. When a group-commit fsync
    fails (full or failing device) the journal drops to flushed-only
    durability — appends still reach the kernel; power-loss durability
    is gone — and flags ``journal-fsync-degraded``. Both paths warn
    once; both flags surface in the service run outcome and
    ``/v1/healthz``. A failed fsync is *not* retried in place: the
    kernel may already have dropped the dirty pages, so a later
    "successful" fsync would prove nothing (the classic fsyncgate
    trap).
    """

    #: Group-commit window: completed-job records are flushed (durable
    #: against process death) immediately, but fsynced (durable against
    #: power loss) at most once per interval — the classic WAL trade:
    #: bounded power-loss exposure instead of one fsync per record,
    #: whose cost on a busy filesystem dwarfs the jobs themselves.
    COMMIT_INTERVAL = 0.25

    def __init__(self, path: Union[str, Path], *, durable: bool = True,
                 commit_interval: Optional[float] = None,
                 clock: Optional[Clock] = None):
        self.path = Path(path)
        self.durable = durable
        self.commit_interval = (
            self.COMMIT_INTERVAL if commit_interval is None else commit_interval
        )
        #: Group-commit timing authority; defaults to the tracer clock so
        #: journaled runs under a fake clock stay deterministic.
        self.clock = clock or current_tracer().clock
        self._handle = None
        self._dirty = False       # flushed records awaiting an fsync
        self._last_sync = 0.0
        #: Degradation flags accumulated this session, in order
        #: ("journal-fsync-degraded", "journal-disabled").
        self.degraded: List[str] = []
        self._disabled = False

    # -- construction ------------------------------------------------------

    @classmethod
    def journal_path(cls, run_dir: Union[str, Path]) -> Path:
        return Path(run_dir) / JOURNAL_NAME

    @classmethod
    def create(
        cls,
        run_dir: Union[str, Path],
        header: Dict[str, object],
        *,
        durable: bool = True,
    ) -> "RunJournal":
        """Start a fresh journal; refuses to clobber an existing one."""
        path = cls.journal_path(run_dir)
        if path.exists():
            raise JournalError(
                f"{path} already exists; resume it or choose a fresh run dir"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        journal = cls(path, durable=durable)
        journal.append({**header, "type": "run-start",
                        "version": JOURNAL_VERSION})
        return journal

    @classmethod
    def load(cls, run_dir: Union[str, Path]) -> JournalReplay:
        """Replay a journal, recovering from a torn final write."""
        path = cls.journal_path(run_dir)
        if not path.exists():
            raise JournalError(f"no {JOURNAL_NAME} under {Path(run_dir)}")
        raw = path.read_bytes()
        records: List[Dict[str, object]] = []
        offset = 0
        good_end = 0
        truncated = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            chunk = raw[offset: len(raw) if newline < 0 else newline + 1]
            record = _decode_line(chunk)
            if record is None:
                # Only the *tail* may be torn; anything valid after an
                # invalid line means the file was damaged, not cut short.
                rest = raw[offset:]
                if any(
                    _decode_line(line + b"\n") is not None
                    for line in rest.split(b"\n")[1:]
                ):
                    raise JournalError(
                        f"{path} is corrupt at byte {offset} (not a torn "
                        f"tail); refusing to guess at run state"
                    )
                truncated = len(raw) - good_end
                break
            records.append(record)
            offset = good_end = offset + len(chunk)
        if truncated:
            atomic_write(path, raw[:good_end])
        if not records or records[0].get("type") != "run-start":
            raise JournalError(f"{path} has no run-start header")
        header = records[0]
        if header.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"{path} has journal version {header.get('version')!r}; "
                f"this build reads version {JOURNAL_VERSION}"
            )
        return JournalReplay(header, records[1:], truncated_bytes=truncated)

    @classmethod
    def open(cls, run_dir: Union[str, Path], *, durable: bool = True) -> "RunJournal":
        """An appendable journal positioned after the recovered tail."""
        cls.load(run_dir)  # validates and truncates any torn tail
        return cls(cls.journal_path(run_dir), durable=durable)

    # -- writing -----------------------------------------------------------

    def _ensure_handle(self):
        if self._handle is None:
            self._handle = open(self.path, "ab")
        return self._handle

    def append(self, record: Dict[str, object]) -> None:
        """Append one record; durable against SIGKILL when it returns."""
        self.append_many([record])

    def append_many(self, records: Sequence[Dict[str, object]]) -> None:
        """Append a batch of records, flushed before returning.

        The flush makes every record durable against *process* death
        (the bytes are the kernel's once it returns). Durability
        against *power loss* is tiered by record type:
        :data:`CRITICAL_TYPES` fsync immediately; :data:`RELAXED_TYPES`
        never force one (they are recoverable by re-expansion); job
        completions group-commit — fsynced at most once per
        ``commit_interval``, and always by :meth:`close`. Any fsync
        covers every record before it, so the at-risk bytes are always
        a pure suffix, which torn-tail recovery handles.
        """
        if not records or self._disabled:
            return
        handle = self._ensure_handle()
        try:
            for record in records:
                fault_points.write_through(
                    "journal.append.write", handle, _encode_line(record)
                )
        except OSError as exc:
            if exc.errno == errno.ENOSPC:
                # Full disk: every line written so far is intact (the
                # failed line never hit the handle), so the log stays
                # parseable — it just stops here.
                self._degrade("journal-disabled", exc)
                return
            raise
        current_tracer().counter("journal.append", len(records))
        kinds = {record.get("type") for record in records}
        if not (kinds - RELAXED_TYPES):
            return  # loss-tolerant: the next flush carries them along
        handle.flush()
        if not self.durable:
            return
        self._dirty = True
        now = self.clock.now()
        if self._dirty and (
            kinds & CRITICAL_TYPES
            or now - self._last_sync >= self.commit_interval
        ):
            self._datasync_degrading(handle)

    def _datasync_degrading(self, handle) -> None:
        """One group-commit fsync; a failure downgrades the tier."""
        try:
            fault_points.check("journal.append.fsync")
            _datasync(handle.fileno())
        except OSError as exc:
            self._degrade("journal-fsync-degraded", exc)
            return
        current_tracer().counter("journal.fsync")
        self._dirty = False
        self._last_sync = self.clock.now()

    def _degrade(self, flag: str, exc: OSError) -> None:
        """Downgrade the durability tier instead of killing the run."""
        if flag == "journal-disabled":
            self._disabled = True
            if self._handle is not None:
                try:
                    self._handle.flush()  # hand the intact prefix over
                except OSError:
                    pass
        # Either way, stop fsyncing: after a failed fsync the kernel
        # may have dropped the dirty pages, and on a full disk the
        # flushes themselves are suspect.
        self.durable = False
        self._dirty = False
        if flag not in self.degraded:
            self.degraded.append(flag)
            current_tracer().counter("journal.degraded")
            warnings.warn(
                f"run journal degraded ({flag}): {exc}; the run "
                f"continues with reduced durability",
                RuntimeWarning,
                stacklevel=4,
            )

    def sync(self) -> None:
        """Force any pending group-commit records to disk."""
        if self._handle is not None and self._dirty:
            self._handle.flush()
            self._datasync_degrading(self._handle)

    def close(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None
            if self.durable:
                fsync_directory(self.path.parent)

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
