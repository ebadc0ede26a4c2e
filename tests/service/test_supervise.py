"""Unit tests for run supervision: ledger, quarantine, policy, breaker."""

from __future__ import annotations

import pytest

from repro.service.runs import QUARANTINED, RunRegistry
from repro.service.supervise import BreakerOpen, RetryPolicy, TenantBreaker

from tests.service.test_server import TINY_MATRIX, service_rows


@pytest.fixture
def registry(tmp_path):
    handle = RunRegistry(tmp_path / "spool")
    yield handle
    handle.close()


def _reloaded(registry, run_id):
    """The record as a fresh registry reads it back from the store."""
    fresh = RunRegistry(registry.spool)
    try:
        fresh.scan()
        return fresh.records[run_id]
    finally:
        fresh.close()


class TestAttemptLedger:
    def test_round_trip_accumulates_history(self, registry):
        record = registry.create("acme", TINY_MATRIX)
        for attempt, at in ((1, 10.0), (2, 20.0)):
            record.attempts = attempt
            record.history = [*record.history, {"attempt": attempt, "at": at}]
            registry.save(record)
        row = service_rows(registry.spool)[record.run_id]
        assert row["attempts"] == 2
        assert [h["attempt"] for h in row["history"]] == [1, 2]
        loaded = _reloaded(registry, record.run_id)
        assert loaded.attempts == 2
        assert loaded.history == record.history

    def test_absent_ledger_is_zero_attempts(self, registry):
        record = registry.create("acme", TINY_MATRIX)
        row = service_rows(registry.spool)[record.run_id]
        assert (row["attempts"], row["history"]) == (0, [])
        assert _reloaded(registry, record.run_id).attempts == 0


class TestQuarantineRecord:
    def test_round_trip(self, registry):
        record = registry.create("acme", TINY_MATRIX)
        payload = {"run_id": record.run_id, "reason": "budget exhausted"}
        record.state = QUARANTINED
        record.quarantine = payload
        registry.save(record)
        assert service_rows(registry.spool)[record.run_id]["quarantine"] == (
            payload
        )
        loaded = _reloaded(registry, record.run_id)
        assert loaded.quarantine == payload
        assert loaded.state == QUARANTINED

    def test_absent_is_none(self, registry):
        record = registry.create("acme", TINY_MATRIX)
        assert service_rows(registry.spool)[record.run_id]["quarantine"] is None
        assert _reloaded(registry, record.run_id).quarantine is None


class TestRetryPolicy:
    def test_budget_boundary(self):
        policy = RetryPolicy(max_attempts=3)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)
        assert policy.exhausted(4)

    def test_backoff_is_the_scheduler_curve(self):
        policy = RetryPolicy(backoff_base=0.5)
        assert [policy.backoff(n) for n in (1, 2, 3, 4)] == [
            0.5, 1.0, 2.0, 4.0,
        ]

    def test_backoff_clamps_attempt_floor(self):
        assert RetryPolicy(backoff_base=0.5).backoff(0) == 0.5


class TestTenantBreaker:
    def test_opens_after_threshold_consecutive_deaths(self):
        breaker = TenantBreaker(threshold=3, cooldown=30.0)
        breaker.record_death("acme", now=1.0)
        breaker.record_death("acme", now=2.0)
        assert breaker.open_for("acme", now=3.0) == 0.0
        breaker.record_death("acme", now=3.0)
        assert breaker.open_for("acme", now=4.0) == pytest.approx(29.0)

    def test_check_raises_with_retry_after(self):
        breaker = TenantBreaker(threshold=1, cooldown=10.0)
        breaker.record_death("acme", now=0.0)
        with pytest.raises(BreakerOpen) as excinfo:
            breaker.check("acme", now=4.0)
        assert excinfo.value.retry_after == pytest.approx(6.0)
        breaker.check("other", now=4.0)  # circuits are per tenant

    def test_success_closes_and_resets_strikes(self):
        breaker = TenantBreaker(threshold=2, cooldown=30.0)
        breaker.record_death("acme", now=0.0)
        breaker.record_success("acme")
        breaker.record_death("acme", now=1.0)
        # Not consecutive across the success: still below threshold.
        assert breaker.open_for("acme", now=2.0) == 0.0

    def test_cooldown_elapse_closes_and_forgets(self):
        breaker = TenantBreaker(threshold=1, cooldown=5.0)
        breaker.record_death("acme", now=0.0)
        assert breaker.open_for("acme", now=1.0) > 0
        assert breaker.open_for("acme", now=6.0) == 0.0
        # The elapsed cooldown forgot the strikes entirely.
        assert breaker.state(now=7.0) == []

    def test_state_for_healthz(self):
        breaker = TenantBreaker(threshold=2, cooldown=30.0)
        breaker.record_death("acme", now=0.0)
        breaker.record_death("acme", now=1.0)
        breaker.record_death("zeta", now=1.0)
        assert breaker.state(now=2.0) == [
            {"tenant": "acme", "strikes": 2, "open": True},
            {"tenant": "zeta", "strikes": 1, "open": False},
        ]
