"""In-process service tests: HTTP surface, fairness, restart recovery.

The server runs on a private event loop in a background thread; the
tests drive it through :class:`ServiceClient`, the same blocking client
the CLI uses. Runs execute for real (child process, journal, results)
against a deliberately tiny one-job matrix.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.resultsdb.store import STORE_NAME, ResultsStore
from repro.service import BenchmarkService, ServiceClient, ServiceConfig, ServiceError
from repro.service.runs import RunRegistry

#: One platform x one dataset x one algorithm: the fastest real run.
TINY_MATRIX = {
    "platforms": ["powergraph"],
    "datasets": ["R1"],
    "algorithms": ["bfs"],
    "repetitions": 1,
}

_DEADLINE = 60.0


@contextmanager
def running_service(tmp_path, **overrides):
    """Boot a service on a free port on a background event loop."""
    overrides.setdefault("spool", tmp_path / "spool")
    overrides.setdefault("port", 0)
    service = BenchmarkService(ServiceConfig(**overrides))
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        host, port = asyncio.run_coroutine_threadsafe(
            service.start(), loop
        ).result(timeout=_DEADLINE)
        yield service, ServiceClient(host, port, timeout=_DEADLINE)
    finally:
        asyncio.run_coroutine_threadsafe(
            service.stop(), loop
        ).result(timeout=_DEADLINE)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=_DEADLINE)
        loop.close()


def service_rows(spool):
    """The spool's lifecycle rows by run id, read on our own connection."""
    with ResultsStore(Path(spool) / STORE_NAME) as store:
        return {row["run_id"]: row for row in store.service_runs()}


def wait_terminal(client, run_id, deadline=_DEADLINE):
    limit = time.monotonic() + deadline
    while time.monotonic() < limit:
        payload = client.run(run_id)
        if payload["state"] in ("done", "failed"):
            return payload
        time.sleep(0.05)
    raise AssertionError(f"run {run_id} did not settle within {deadline}s")


class TestHttpSurface:
    def test_unknown_path_is_404(self, tmp_path):
        with running_service(tmp_path) as (_service, client):
            with pytest.raises(ServiceError) as excinfo:
                client._json("GET", "/v1/nope")
            assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, tmp_path):
        with running_service(tmp_path) as (_service, client):
            with pytest.raises(ServiceError) as excinfo:
                client._json("DELETE", "/v1/runs")
            assert excinfo.value.status == 405

    def test_unknown_run_is_404(self, tmp_path):
        with running_service(tmp_path) as (_service, client):
            with pytest.raises(ServiceError) as excinfo:
                client.run("r999999-ghost")
            assert excinfo.value.status == 404

    def test_invalid_matrix_is_400(self, tmp_path):
        with running_service(tmp_path) as (_service, client):
            for matrix in (
                {"platforms": ["not-a-platform"]},
                {"bogus_key": 1},
                {"platforms": "powergraph"},  # not a list
            ):
                with pytest.raises(ServiceError) as excinfo:
                    client.submit("alice", matrix)
                assert excinfo.value.status == 400

    def test_bad_tenant_is_400(self, tmp_path):
        with running_service(tmp_path) as (_service, client):
            with pytest.raises(ServiceError) as excinfo:
                client.submit("no spaces allowed", TINY_MATRIX)
            assert excinfo.value.status == 400

    def test_status_endpoint_reports_queue(self, tmp_path):
        with running_service(tmp_path, max_running=3) as (_service, client):
            status = client.status()
            assert status["max_running"] == 3
            assert status["queue"]["accepted"] == 0


class TestRunLifecycle:
    def test_submit_execute_fetch(self, tmp_path):
        with running_service(tmp_path) as (service, client):
            accepted = client.submit("alice", TINY_MATRIX)
            run_id = accepted["run_id"]
            assert accepted["state"] == "queued"
            assert run_id.endswith("-alice")
            final = wait_terminal(client, run_id)
            assert final["state"] == "done"
            assert final["jobs"] == 1
            assert final["failures"] == 0
            assert final["elapsed_seconds"] >= 0
            results = json.loads(client.fetch(run_id, "results"))
            assert len(results) == 1
            assert results[0]["status"] == "succeeded"
            archive = json.loads(client.fetch(run_id, "archive"))
            assert archive["phases"]
            trace = client.fetch(run_id, "trace")
            assert trace  # span export happened
            # The lifecycle row holds the durable request + outcome; the
            # run directory holds run artifacts only.
            row = service_rows(service.config.spool)[run_id]
            assert row["tenant"] == "alice"
            assert row["config"]["algorithms"] == ["bfs"]
            assert row["state"] == "done"
            assert row["attempts"] == 1
            assert row["outcome"]["ok"] is True
            run_dir = service.registry.run_dir(run_id)
            assert sorted(p.name for p in run_dir.iterdir()) == [
                "archive.json", "cache", "journal.jsonl", "results.json",
                "trace.jsonl",
            ]

    def test_artifact_for_queued_run_is_404(self, tmp_path):
        # max_running slots are busy forever (no dispatch without scan),
        # so keep it simple: ask for an artifact name that is not there.
        with running_service(tmp_path) as (_service, client):
            accepted = client.submit("alice", TINY_MATRIX)
            run_id = accepted["run_id"]
            try:
                client.fetch(run_id, "archive")
            except ServiceError as exc:
                assert exc.status == 404
            wait_terminal(client, run_id)

    def test_events_stream_to_completion(self, tmp_path):
        with running_service(tmp_path) as (_service, client):
            run_id = client.submit("alice", TINY_MATRIX)["run_id"]
            seen = {"run": 0, "journal": 0, "span": 0, "end": 0}
            journal_types = []
            for event, payload in client.events(run_id):
                seen[event] += 1
                if event == "journal":
                    journal_types.append(payload["type"])
            assert seen["run"] == 1
            assert seen["end"] == 1
            assert seen["span"] > 0
            assert journal_types[0] == "run-start"
            assert "run-complete" in journal_types
            # The one-job matrix expands to a 3-node DAG
            # (materialize, reference, benchmark).
            assert journal_types.count("job-done") == 3

    def test_list_filters_by_tenant(self, tmp_path):
        with running_service(tmp_path, max_running=2) as (_service, client):
            a = client.submit("alice", TINY_MATRIX)["run_id"]
            b = client.submit("bob", TINY_MATRIX)["run_id"]
            wait_terminal(client, a)
            wait_terminal(client, b)
            alice_runs = client.runs(tenant="alice")["runs"]
            assert [run["run_id"] for run in alice_runs] == [a]
            all_runs = client.runs()["runs"]
            assert {run["run_id"] for run in all_runs} == {a, b}


class TestQuotaAndFairness:
    def test_over_quota_submission_gets_429_with_retry_after(self, tmp_path):
        with running_service(
            tmp_path, per_tenant_depth=1, max_running=1
        ) as (service, client):
            first = client.submit("alice", TINY_MATRIX)["run_id"]
            # Flood: depth quota of 1 admits at most one queued run; the
            # run may dispatch quickly, so push until the queue is full.
            rejected = None
            accepted = [first]
            for _ in range(6):
                try:
                    accepted.append(client.submit("alice", TINY_MATRIX)["run_id"])
                except ServiceError as exc:
                    rejected = exc
                    break
            assert rejected is not None, "flood was never pushed back"
            assert rejected.status == 429
            assert rejected.retry_after == pytest.approx(
                service.config.retry_after
            )
            # The rejected run is terminal in the store: a restart must
            # not resurrect work the client was told to retry.
            rejected_dirs = [
                record for record in service.registry.records.values()
                if record.state == "failed" and "quota" in record.error
            ]
            assert rejected_dirs
            rows = service_rows(service.config.spool)
            for record in rejected_dirs:
                assert rows[record.run_id]["state"] == "failed"
                assert rows[record.run_id]["outcome"] == {
                    "ok": False, "error": record.error,
                }
            for run_id in accepted:
                wait_terminal(client, run_id)

    def test_flooding_tenant_does_not_starve_another(self, tmp_path):
        with running_service(
            tmp_path, per_tenant_depth=8, per_tenant_running=1, max_running=1
        ) as (_service, client):
            flood = [
                client.submit("flood", TINY_MATRIX)["run_id"] for _ in range(3)
            ]
            small = client.submit("small", TINY_MATRIX)["run_id"]
            for run_id in flood + [small]:
                wait_terminal(client, run_id)
            started = {
                run["run_id"]: run["started_at"]
                for run in client.runs()["runs"]
            }
            # The small tenant ran before the flood's backlog drained:
            # strictly earlier than the flood's last run.
            assert started[small] < started[flood[-1]]


class TestRestartRecovery:
    def test_boot_scan_reenqueues_and_completes_spooled_run(self, tmp_path):
        spool = tmp_path / "spool"
        # A submission that was spooled but never executed — the shape a
        # SIGKILLed server leaves behind (a queued row, no outcome).
        registry = RunRegistry(spool)
        record = registry.create("alice", TINY_MATRIX, submitted_at=1.0)
        registry.close()
        with running_service(tmp_path, spool=spool) as (_service, client):
            final = wait_terminal(client, record.run_id)
            assert final["state"] == "done"
            assert final["jobs"] == 1

    def test_boot_scan_skips_terminal_runs(self, tmp_path):
        spool = tmp_path / "spool"
        registry = RunRegistry(spool)
        record = registry.create("alice", TINY_MATRIX)
        record.state = "done"
        record.outcome = {"ok": True, "jobs": 1, "failures": 0}
        registry.save(record)
        registry.close()
        with running_service(tmp_path, spool=spool) as (service, client):
            payload = client.run(record.run_id)
            assert payload["state"] == "done"
            assert service.queue.pending() == 0


class TestSingleWriter:
    def test_unrecorded_finished_run_resumes_and_replaces_rows(self, tmp_path):
        """A run child that finished after its server died is not done.

        The server is the only writer of lifecycle rows, so a child
        whose outcome was never recorded leaves a launched, non-terminal
        row — whatever its journal says. The restarted server relaunches
        it; the journal restores every job and the terminal re-commit
        replaces the run's store rows instead of adding to them.
        """
        from repro.runtime.journal import RunJournal
        from repro.service.worker import execute_service_run

        spool = tmp_path / "spool"
        registry = RunRegistry(spool)
        record = registry.create("alice", TINY_MATRIX, submitted_at=1.0)
        record.state = "running"
        record.attempts = 1
        record.history = [{"attempt": 1, "at": 1.0}]
        registry.save(record)
        registry.close()
        run_dir = registry.run_dir(record.run_id)
        first = execute_service_run(
            run_dir, record.request(), workers=1, watchdog=False
        )
        assert first["ok"] and first["restored_jobs"] == 0
        done_keys = {
            r["key"] for r in RunJournal.load(run_dir).records
            if r["type"] == "job-done"
        }
        assert service_rows(spool)[record.run_id]["outcome"] is None

        with running_service(tmp_path, spool=spool) as (_service, client):
            final = wait_terminal(client, record.run_id)
        assert final["state"] == "done"
        assert final["attempts"] == 2
        # Every DAG job (materialize, reference, execute) came back
        # from the journal; nothing re-executed.
        assert final["restored_jobs"] == len(done_keys) == 3
        assert final["jobs"] == first["jobs"] == 1
        replay = RunJournal.load(run_dir)
        assert sum(r["type"] == "job-done" for r in replay.records) == 3
        row = service_rows(spool)[record.run_id]
        assert row["state"] == "done"
        assert row["outcome"]["restored_jobs"] == 3
        with ResultsStore(spool / STORE_NAME) as store:
            stats = store.stats()
            assert store.run_ids() == [record.run_id]
            assert (stats["runs"], stats["jobs"]) == (1, 1)
            assert len(store.run_records(record.run_id)) == 1


class TestExampleMatrixSubmission:
    def test_full_example_matrix_payload_is_accepted(self, tmp_path):
        # The CLI's `submit example` sends config_payload(example_matrix())
        # verbatim — every BenchmarkConfig field, including the
        # partitioned-engine knobs — and the validator must know them all.
        from repro.runtime.executor import example_matrix
        from repro.runtime.journal import config_payload

        payload = dict(config_payload(example_matrix()))
        payload.pop("resources", None)
        payload.update(TINY_MATRIX)
        with running_service(tmp_path) as (_service, client):
            accepted = client.submit("alice", payload)
            assert accepted["state"] == "queued"

    def test_explicit_partitions_survive_normalization(self, tmp_path):
        from repro.service.runs import normalize_matrix

        payload = dict(TINY_MATRIX)
        payload["partitions"] = 2
        payload["partition_strategy"] = "range"
        normalized = normalize_matrix(payload)
        assert normalized["partitions"] == 2
        assert normalized["partition_strategy"] == "range"
