"""Seeded chaos matrix over the service: supervision invariants.

Every scenario arms a deterministic I/O fault plan (seeded, named
fault points — :mod:`repro.faults.points`) through the submission API
and asserts the robustness contract end to end, in process:

* a poison run (child SIGKILLed by its own chaos plan every attempt)
  is quarantined after exactly its attempt budget — never relaunched
  again, durable across the spool;
* a run whose journal fsync fails *completes*, bit-identical to an
  unfaulted run, carrying a durability-downgrade flag into its
  outcome, its status payload, and ``/v1/healthz``;
* consecutive child deaths open the tenant's circuit breaker (503 +
  Retry-After) without shedding other tenants;
* damaged or foreign run directories in the spool (no lifecycle row)
  are invisible to the boot scan and never collide with new run ids.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.service import ServiceError
from repro.service.runs import QUARANTINED, RunRegistry

from tests.service.test_server import TINY_MATRIX, running_service, service_rows

_DEADLINE = 60.0

#: Kills the run child after 3 successful journal appends — on every
#: attempt (fault counters are per process, and a relaunched child
#: re-arms the plan from the spooled request).
KILL_PLAN = {
    "seed": 7,
    "faults": [
        {"point": "journal.append.write", "kind": "kill", "after": 3}
    ],
}

#: Fails the journal's first group-commit fsync: the run must finish,
#: just without the power-loss durability tier.
FSYNC_PLAN = {
    "seed": 7,
    "faults": [
        {"point": "journal.append.fsync", "kind": "fsync-fail"}
    ],
}


def wait_state(client, run_id, states, deadline=_DEADLINE):
    limit = time.monotonic() + deadline
    while time.monotonic() < limit:
        payload = client.run(run_id)
        if payload["state"] in states:
            return payload
        time.sleep(0.05)
    raise AssertionError(
        f"run {run_id} did not reach {states} within {deadline}s "
        f"(last: {payload['state']})"
    )


class TestChaosSubmission:
    def test_unknown_fault_point_is_a_400(self, tmp_path):
        with running_service(tmp_path) as (_service, client):
            with pytest.raises(ServiceError) as excinfo:
                client.submit(
                    "acme",
                    TINY_MATRIX,
                    chaos={
                        "seed": 1,
                        "faults": [{"point": "nope.nope", "kind": "eio"}],
                    },
                )
            assert excinfo.value.status == 400
            assert "invalid chaos plan" in str(excinfo.value)

    def test_non_object_chaos_is_a_400(self, tmp_path):
        with running_service(tmp_path) as (_service, client):
            with pytest.raises(ServiceError) as excinfo:
                client.submit("acme", TINY_MATRIX, chaos="break everything")
            assert excinfo.value.status == 400

    def test_chaos_plan_is_spooled_with_the_request(self, tmp_path):
        with running_service(tmp_path) as (service, client):
            accepted = client.submit("acme", TINY_MATRIX, chaos=FSYNC_PLAN)
            row = service_rows(service.config.spool)[accepted["run_id"]]
            assert row["chaos"]["seed"] == 7
            assert row["chaos"]["faults"][0]["kind"] == "fsync-fail"


class TestPoisonRunQuarantine:
    def test_quarantined_after_exactly_the_attempt_budget(self, tmp_path):
        with running_service(
            tmp_path,
            run_attempts=2,
            run_backoff_base=0.05,
            breaker_threshold=10,  # keep the breaker out of this test
        ) as (service, client):
            accepted = client.submit("acme", TINY_MATRIX, chaos=KILL_PLAN)
            run_id = accepted["run_id"]
            payload = wait_state(client, run_id, (QUARANTINED, "done", "failed"))

            assert payload["state"] == QUARANTINED
            assert payload["attempts"] == 2  # exactly the budget, no more
            quarantine = payload["quarantine"]
            assert quarantine["attempts"] == 2
            assert quarantine["budget"] == 2
            assert "no outcome" in quarantine["reason"]

            # Durable markers: the ledger counted both launches, the
            # quarantine record survives restarts.
            row = service_rows(service.config.spool)[run_id]
            assert row["attempts"] == 2
            assert [h["attempt"] for h in row["history"]] == [1, 2]
            assert row["state"] == QUARANTINED
            assert row["quarantine"] == quarantine
            assert row["outcome"] is None

            # The quarantine artifact is fetchable for post-mortem.
            fetched = json.loads(client.fetch(run_id, "quarantine"))
            assert fetched["run_id"] == run_id

            # healthz surfaces it and flips the status word.
            health = client.healthz()
            assert health["status"] == "degraded"
            assert run_id in health["quarantined"]

    def test_boot_scan_quarantines_exhausted_runs(self, tmp_path):
        # A spool left behind by a dead server: the run burned its
        # whole budget (ledger) but never produced an outcome. Boot
        # must quarantine it, not relaunch it a fourth time.
        spool = tmp_path / "spool"
        registry = RunRegistry(spool)
        record = registry.create(
            "acme", TINY_MATRIX, workers=1, job_timeout=None,
            submitted_at=0.0,
        )
        record.state = "running"
        record.attempts = 3
        registry.save(record)
        registry.close()
        with running_service(tmp_path, run_attempts=3) as (service, client):
            payload = client.run(record.run_id)
            assert payload["state"] == QUARANTINED
            assert "quarantined at boot" in payload["quarantine"]["reason"]
            row = service_rows(spool)[record.run_id]
            assert row["state"] == QUARANTINED
            assert row["quarantine"] == payload["quarantine"]
            assert len(service._children) == 0

    def test_quarantined_run_stays_terminal_across_restarts(self, tmp_path):
        spool = tmp_path / "spool"
        registry = RunRegistry(spool)
        record = registry.create(
            "acme", TINY_MATRIX, workers=1, job_timeout=None,
            submitted_at=0.0,
        )
        record.state = QUARANTINED
        record.attempts = 5
        record.quarantine = {"run_id": record.run_id, "reason": "poison"}
        registry.save(record)
        registry.close()
        with running_service(tmp_path) as (_service, client):
            payload = client.run(record.run_id)
            assert payload["state"] == QUARANTINED
            assert payload["quarantine"]["reason"] == "poison"
        # The ledger did not grow: the run was never relaunched.
        row = service_rows(spool)[record.run_id]
        assert row["attempts"] == 5
        assert row["state"] == QUARANTINED


class TestGracefulDegradation:
    def test_fsync_chaos_completes_bit_identical_with_flag(self, tmp_path):
        with running_service(tmp_path) as (_service, client):
            clean = client.submit("clean", TINY_MATRIX)
            chaotic = client.submit("chaos", TINY_MATRIX, chaos=FSYNC_PLAN)

            clean_done = wait_state(client, clean["run_id"], ("done", "failed"))
            chaos_done = wait_state(client, chaotic["run_id"], ("done", "failed"))

            # The degraded run FINISHED — durability downgraded, run
            # preserved — and says so in its status payload.
            assert clean_done["state"] == "done"
            assert chaos_done["state"] == "done"
            assert "degraded" not in clean_done
            assert chaos_done["degraded"] == ["journal-fsync-degraded"]

            # Bit-identical results despite the injected fsync failure
            # — under the runtime's determinism comparator: modeled
            # metrics are seed-determined, the ``measured_*`` wall
            # clocks are whatever this machine did today (nulled, as in
            # ResultsDatabase.canonical_json).
            def canonical(raw):
                rows = json.loads(raw)
                for row in rows:
                    for key in row:
                        if key.startswith("measured_"):
                            row[key] = None
                return json.dumps(rows, indent=1, sort_keys=True)

            clean_results = client.fetch(clean["run_id"], "results")
            chaos_results = client.fetch(chaotic["run_id"], "results")
            assert canonical(clean_results) == canonical(chaos_results)

            # healthz carries the durability downgrade.
            health = client.healthz()
            assert health["status"] == "degraded"
            assert health["degraded_runs"] == {
                chaotic["run_id"]: ["journal-fsync-degraded"]
            }
            assert health["quarantined"] == []

    def test_healthz_is_ok_when_nothing_is_degraded(self, tmp_path):
        with running_service(tmp_path) as (_service, client):
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["breakers"] == []
            assert health["quarantined"] == []
            assert health["degraded_runs"] == {}
            assert health["disk"]["free_bytes"] > 0
            assert health["disk"]["total_bytes"] >= health["disk"]["free_bytes"]


class TestTenantBreaker:
    def test_dying_tenant_is_shed_with_503_retry_after(self, tmp_path):
        with running_service(
            tmp_path,
            run_attempts=2,
            run_backoff_base=0.05,
            breaker_threshold=2,
            breaker_cooldown=60.0,
        ) as (_service, client):
            accepted = client.submit("acme", TINY_MATRIX, chaos=KILL_PLAN)
            wait_state(client, accepted["run_id"], (QUARANTINED,))

            # Two consecutive deaths opened acme's circuit.
            with pytest.raises(ServiceError) as excinfo:
                client.submit("acme", TINY_MATRIX)
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after > 0

            # Other tenants are untouched: circuits are per tenant.
            other = client.submit("zen", TINY_MATRIX)
            wait_state(client, other["run_id"], ("done",))

            health = client.healthz()
            circuits = {c["tenant"]: c for c in health["breakers"]}
            assert circuits["acme"]["open"] is True


class TestBootScanCorruption:
    def test_service_boots_over_a_corrupt_spool(self, tmp_path):
        # Run state lives in the store's rows; a damaged directory with
        # no row — even one holding a run id the registry would assign
        # next — is neither scanned nor reused.
        spool = tmp_path / "spool"
        spool.mkdir()
        broken = spool / "r000001-acme"
        broken.mkdir()
        (broken / "journal.jsonl").write_bytes(b"\x00\x01 not json")
        with running_service(tmp_path) as (service, client):
            assert service.registry.records == {}
            accepted = client.submit("acme", TINY_MATRIX)
            assert accepted["run_id"] == "r000002-acme"
            payload = wait_state(client, accepted["run_id"], ("done",))
            assert payload["state"] == "done"
            assert set(service_rows(spool)) == {"r000002-acme"}
        assert (broken / "journal.jsonl").read_bytes() == b"\x00\x01 not json"
