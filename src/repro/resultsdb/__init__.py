"""The durable results store: one SQLite query layer for every result.

The paper's Figure 1 (boxes 11-12) makes the public results repository
a first-class benchmark component. Through PR 9 ours was a directory of
JSON blobs guarded by an ``flock`` sidecar and a ``.index.json`` shadow
index — workable for one harness process, a bottleneck for the
multi-tenant service and useless for longitudinal queries ("how did
this platform x algorithm x dataset cell move across the last 40
commits?"). This package replaces that design with a stdlib-``sqlite3``
store in WAL mode:

* :mod:`repro.resultsdb.store` — schema (``runs``, ``jobs``, ``spans``,
  ``sla_breaches``, ``service_runs``), transactional writes (the
  ``resultsdb.commit`` fault point guards every commit), and lossless
  archive round-trip;
* :mod:`repro.resultsdb.queries` — the canned queries behind
  ``graphalytics db top|trend|regressions``, answer-identical to the
  retired JSON backend;
* :mod:`repro.resultsdb.migrate` — one-transaction import of a legacy
  JSON repository, byte-identical on round-trip.

Every layer that needs results talks to this package: harness runs
submit through :func:`repro.harness.full_run.submit_run`, the service
keeps its run lifecycle rows in the spool store and its run children
commit results, trace spans, and SLA breaches there at terminal-commit
time, ``healthz`` reports store statistics, and the Granula visualizer
renders span timelines and regression tables straight from SQL. Lint rule ROB003
keeps it that way: ``sqlite3.connect`` outside this package is a
finding.
"""

from repro.resultsdb.migrate import import_json_repository
from repro.resultsdb.queries import (
    Regression,
    RegressionQuery,
    TopEntry,
    TrendPoint,
    best_platform,
    regressions,
    top,
    trend,
)
from repro.resultsdb.store import (
    STORE_NAME,
    ResultsStore,
    commit_service_run,
)

__all__ = [
    "STORE_NAME",
    "ResultsStore",
    "Regression",
    "RegressionQuery",
    "TopEntry",
    "TrendPoint",
    "best_platform",
    "commit_service_run",
    "import_json_repository",
    "regressions",
    "top",
    "trend",
]
