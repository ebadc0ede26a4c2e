"""``repro.service`` — benchmark-as-a-service over the crash-safe runtime.

The Graphalytics vision is a benchmark run *for* a community, not just
by one operator: platform teams submit benchmark matrices, a shared
harness executes them fairly, and everyone can watch progress and fetch
validated artifacts. This package is that deployment mode
(docs/service.md):

* :mod:`repro.service.server` — the asyncio HTTP server: submission,
  fair-share multi-tenant scheduling, SSE progress streams, artifact
  serving, spool recovery on restart;
* :mod:`repro.service.queue` — round-robin tenant queue with admission
  quotas (``429 Retry-After`` over quota);
* :mod:`repro.service.runs` — run registry over lifecycle rows in the
  spool's results store (request, state, attempt ledger, outcome,
  quarantine);
* :mod:`repro.service.supervise` — run supervision: attempt budget,
  relaunch backoff, and the per-tenant circuit breaker
  (``503 Retry-After`` while a tenant's runs keep dying);
* :mod:`repro.service.worker` — the per-run child process (journal
  resume, orphan watchdog, chaos-plan arming);
* :mod:`repro.service.tail` — torn-tail-safe live tailing of the
  run journal for the SSE stream;
* :mod:`repro.service.http` — minimal hand-rolled HTTP/1.1 + SSE over
  asyncio streams (no dependencies);
* :mod:`repro.service.client` — the blocking client used by the
  ``graphalytics serve/submit/watch/fetch`` CLI.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.http import EventStream, ProtocolError, Request, Response
from repro.service.queue import FairShareQueue, QuotaExceeded
from repro.service.runs import RunRecord, RunRegistry, normalize_matrix
from repro.service.server import BenchmarkService, ServiceConfig
from repro.service.supervise import BreakerOpen, RetryPolicy, TenantBreaker
from repro.service.tail import JournalTailer, decode_journal_line
from repro.service.worker import execute_service_run

__all__ = [
    "BenchmarkService",
    "BreakerOpen",
    "EventStream",
    "FairShareQueue",
    "JournalTailer",
    "ProtocolError",
    "QuotaExceeded",
    "Request",
    "Response",
    "RetryPolicy",
    "RunRecord",
    "RunRegistry",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "TenantBreaker",
    "decode_journal_line",
    "execute_service_run",
    "normalize_matrix",
]
