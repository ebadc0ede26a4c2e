"""Service runs commit into the spool-level results store.

End-to-end over the real HTTP service: a finished run's outcome carries
the store commit, ``/v1/healthz`` reports store stats, a store failure
degrades the run instead of failing it, and a SIGKILL at
``resultsdb.commit`` leaves the spool store readable with the old
state.
"""

from __future__ import annotations

from repro.resultsdb.store import STORE_NAME, ResultsStore
from repro.service.runs import QUARANTINED

from tests.service.test_chaos import wait_state
from tests.service.test_server import (
    TINY_MATRIX,
    running_service,
    service_rows,
    wait_terminal,
)

ENOSPC_PLAN = {
    "seed": 7,
    "faults": [{"point": "resultsdb.commit", "kind": "enospc"}],
}

KILL_AT_COMMIT_PLAN = {
    "seed": 7,
    "faults": [{"point": "resultsdb.commit", "kind": "kill"}],
}


def _outcome(service, run_id):
    return service_rows(service.config.spool)[run_id]["outcome"]


class TestTerminalCommit:
    def test_done_run_lands_in_the_spool_store(self, tmp_path):
        with running_service(tmp_path) as (service, client):
            accepted = client.submit("acme", TINY_MATRIX)
            run_id = accepted["run_id"]
            assert wait_terminal(client, run_id)["state"] == "done"

            outcome = _outcome(service, run_id)
            assert outcome["resultsdb"]["runs"] >= 1
            assert outcome["resultsdb"]["jobs"] >= 1
            assert "degraded" not in outcome

            store_path = service.config.spool / STORE_NAME
            assert store_path.exists()
            with ResultsStore(store_path) as store:
                assert store.has_run(run_id)
                metadata = store.run_metadata(run_id)
                assert metadata["tenant"] == "acme"
                assert metadata["system_under_test"] == "service:acme"
                records = store.run_records(run_id)
                assert len(records) == 1
                assert records[0]["algorithm"] == "bfs"
                # trace.jsonl spans rode along into the spans table.
                assert store.run_spans(run_id)

    def test_relaunched_run_replaces_not_duplicates(self, tmp_path):
        # Two runs from the same tenant: distinct run ids, two store
        # rows — and each commit uses replace semantics, so a resumed
        # attempt would overwrite its own earlier partial commit.
        with running_service(tmp_path) as (service, client):
            first = client.submit("acme", TINY_MATRIX)["run_id"]
            second = client.submit("acme", TINY_MATRIX)["run_id"]
            wait_terminal(client, first)
            wait_terminal(client, second)
            with ResultsStore(service.config.spool / STORE_NAME) as store:
                assert store.has_run(first)
                assert store.has_run(second)
                assert store.stats()["runs"] == 2

    def test_healthz_reports_store_stats(self, tmp_path):
        with running_service(tmp_path) as (_service, client):
            # Before any run: zeros, and the store file is NOT created
            # just to answer healthz.
            health = client.healthz()
            assert health["results_store"]["runs"] == 0
            assert health["results_store"]["db_bytes"] == 0

            accepted = client.submit("acme", TINY_MATRIX)
            wait_terminal(client, accepted["run_id"])
            health = client.healthz()
            assert health["results_store"]["runs"] == 1
            assert health["results_store"]["jobs"] == 1
            assert health["results_store"]["db_bytes"] > 0


class TestCommitDegradation:
    def test_store_failure_degrades_the_run_not_fails_it(self, tmp_path):
        with running_service(tmp_path) as (service, client):
            accepted = client.submit("acme", TINY_MATRIX, chaos=ENOSPC_PLAN)
            run_id = accepted["run_id"]
            final = wait_terminal(client, run_id)

            # The benchmark run itself SUCCEEDED; only the store commit
            # was lost, and the outcome says so.
            assert final["state"] == "done"
            assert final["degraded"] == ["resultsdb-commit-failed"]
            outcome = _outcome(service, run_id)
            assert outcome["degraded"] == ["resultsdb-commit-failed"]
            assert "resultsdb_error" in outcome
            assert "resultsdb" not in outcome

            health = client.healthz()
            assert health["status"] == "degraded"
            assert health["degraded_runs"] == {
                run_id: ["resultsdb-commit-failed"]
            }
            assert health["results_store"]["runs"] == 0


class TestCommitCrash:
    def test_kill_at_commit_quarantines_and_store_stays_readable(
        self, tmp_path
    ):
        with running_service(
            tmp_path,
            run_attempts=2,
            run_backoff_base=0.05,
            breaker_threshold=10,
        ) as (service, client):
            # Seed the store with a clean run first: the crash must not
            # touch the OLD state.
            clean = client.submit("zen", TINY_MATRIX)["run_id"]
            wait_terminal(client, clean)
            store_path = service.config.spool / STORE_NAME
            with ResultsStore(store_path) as store:
                before = store.canonical_bytes(clean)

            # Every attempt dies AT the COMMIT (counters are
            # per-process), so the run exhausts its budget.
            doomed = client.submit(
                "acme", TINY_MATRIX, chaos=KILL_AT_COMMIT_PLAN
            )["run_id"]
            payload = wait_state(client, doomed, (QUARANTINED,))
            assert payload["state"] == QUARANTINED

            # WAL discarded the open transaction both times: old state
            # byte-identical, doomed run absent whole, store healthy —
            # and the server's own lifecycle rows committed around the
            # dead children's transactions.
            with ResultsStore(store_path) as store:
                assert store.canonical_bytes(clean) == before
                assert not store.has_run(doomed)
                assert store.query("PRAGMA integrity_check") == [("ok",)]
            rows = service_rows(store_path.parent)
            assert rows[clean]["state"] == "done"
            assert rows[doomed]["state"] == QUARANTINED
            assert rows[doomed]["attempts"] == 2
            health = client.healthz()
            assert health["results_store"]["runs"] == 1
