"""The concurrent benchmark-execution runtime (docs/runtime.md).

Public surface: :func:`~repro.runtime.executor.execute_matrix` runs a
benchmark matrix through the dependency-aware scheduler, the
multiprocessing worker pool, and the content-addressed graph cache,
producing a deterministically merged results database plus structured
failure and cache reports.
"""

from repro.runtime.cache import CacheStats, GraphCache, graph_key, reference_key
from repro.runtime.events import RuntimeEvent, RuntimeEventLog
from repro.runtime.executor import (
    RuntimeConfig,
    RuntimeRunResult,
    example_matrix,
    execute_matrix,
    prefetch_into_runner,
    resume_run,
)
from repro.faults import FaultPlan, FaultSpec, InjectedFaultError
from repro.runtime.journal import (
    JournalError,
    JournalReplay,
    RunJournal,
    job_key,
    matrix_hash,
    serial_job_key,
)
from repro.runtime.jobs import (
    FAILURE_STATUSES,
    AttemptRecord,
    JobFailure,
    JobKind,
    JobSpec,
    failure_result,
)
from repro.runtime.pool import CacheBackedRunner, WorkerPool
from repro.runtime.scheduler import (
    JobGraph,
    JobNode,
    can_run_combo,
    expand_matrix,
)

__all__ = [
    "AttemptRecord",
    "CacheBackedRunner",
    "CacheStats",
    "FAILURE_STATUSES",
    "FaultPlan",
    "FaultSpec",
    "GraphCache",
    "InjectedFaultError",
    "JobFailure",
    "JobGraph",
    "JobKind",
    "JobNode",
    "JobSpec",
    "JournalError",
    "JournalReplay",
    "RunJournal",
    "RuntimeConfig",
    "RuntimeEvent",
    "RuntimeEventLog",
    "RuntimeRunResult",
    "WorkerPool",
    "can_run_combo",
    "example_matrix",
    "execute_matrix",
    "expand_matrix",
    "failure_result",
    "graph_key",
    "job_key",
    "matrix_hash",
    "reference_key",
    "prefetch_into_runner",
    "resume_run",
    "serial_job_key",
]
