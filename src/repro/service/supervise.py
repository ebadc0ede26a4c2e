"""Run supervision: attempt budgets, quarantine, tenant circuit breaker.

A run whose child dies without delivering an outcome must neither be
failed forever inside a living server nor re-enqueued on *every*
restart — a poison run (bad dataset, platform bug, hostile chaos plan)
would crash-loop the boot scan unboundedly. The service applies the
same discipline the job scheduler already applies to individual jobs:

* an **attempt ledger** in the run's lifecycle row (``attempts`` plus a
  per-launch ``history``) records every launch durably *before* the
  child starts, so attempt counts survive server SIGKILL — the budget
  is enforced across restarts, not per server lifetime;
* a **quarantine record** in the same row marks a run that exhausted
  its budget as terminally ``quarantined``: the spool keeps the
  journal and artifacts for post-mortem, the boot scan stops
  resurrecting it, and the API/CLI surface why;
* a **per-tenant circuit breaker** sheds new submissions with ``503 +
  Retry-After`` while a tenant's runs keep dying, so one tenant's
  poison matrix cannot monopolize run slots with doomed relaunches.

The decision itself — retry with exponential backoff vs. quarantine —
lives in :meth:`BenchmarkService._supervise` and is the *single* path
for both in-life child death and boot-scan recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.exceptions import GraphalyticsError

__all__ = [
    "BreakerOpen",
    "RetryPolicy",
    "TenantBreaker",
]


class BreakerOpen(GraphalyticsError):
    """A tenant's circuit breaker is open; submissions are shed."""

    def __init__(self, message: str, *, retry_after: float):
        super().__init__(message)
        self.retry_after = retry_after


# -- retry policy -------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget + exponential backoff, the scheduler's shape.

    :class:`~repro.runtime.scheduler.JobGraph` retries *jobs* with
    ``backoff_base * 2**(attempt-1)``; the service retries *runs* with
    the same curve so operators reason about one policy at both layers.
    """

    max_attempts: int = 3
    backoff_base: float = 0.5

    def exhausted(self, attempts: int) -> bool:
        return attempts >= self.max_attempts

    def backoff(self, attempt: int) -> float:
        return self.backoff_base * (2 ** (max(attempt, 1) - 1))


# -- the circuit breaker ------------------------------------------------------

class TenantBreaker:
    """Consecutive-death circuit breaker, one circuit per tenant.

    ``threshold`` consecutive child deaths open a tenant's circuit for
    ``cooldown`` seconds from the last death: new submissions are shed
    with :class:`BreakerOpen` (mapped to ``503 + Retry-After``), while
    already-admitted runs keep their retry budget — the breaker
    protects the *queue*, supervision protects the *slots*. Any run
    that completes (even ``ok: false``, which proves the child can
    exit cleanly) closes the circuit; so does an elapsed cooldown.
    """

    def __init__(self, threshold: int = 3, cooldown: float = 30.0):
        self.threshold = threshold
        self.cooldown = cooldown
        self._strikes: Dict[str, int] = {}
        self._last_death: Dict[str, float] = {}

    def record_death(self, tenant: str, *, now: float) -> None:
        self._strikes[tenant] = self._strikes.get(tenant, 0) + 1
        self._last_death[tenant] = now

    def record_success(self, tenant: str) -> None:
        self._strikes.pop(tenant, None)
        self._last_death.pop(tenant, None)

    def open_for(self, tenant: str, *, now: float) -> float:
        """Seconds the tenant's circuit stays open; 0 when closed."""
        strikes = self._strikes.get(tenant, 0)
        if strikes < self.threshold:
            return 0.0
        remaining = self.cooldown - (now - self._last_death.get(tenant, now))
        if remaining <= 0:
            # Cooldown elapsed: close the circuit, forget the strikes.
            self.record_success(tenant)
            return 0.0
        return remaining

    def check(self, tenant: str, *, now: float) -> None:
        """Raise :class:`BreakerOpen` when the tenant is shedding."""
        remaining = self.open_for(tenant, now=now)
        if remaining > 0:
            raise BreakerOpen(
                f"tenant {tenant!r} circuit is open after "
                f"{self._strikes.get(tenant, 0)} consecutive run deaths; "
                f"retry in {remaining:.1f}s",
                retry_after=remaining,
            )

    def state(self, *, now: float) -> List[Dict[str, object]]:
        """Per-tenant circuit state for ``/v1/healthz``."""
        out: List[Dict[str, object]] = []
        for tenant in sorted(self._strikes):
            strikes = self._strikes[tenant]
            out.append(
                {
                    "tenant": tenant,
                    "strikes": strikes,
                    "open": strikes >= self.threshold
                    and (now - self._last_death.get(tenant, now))
                    < self.cooldown,
                }
            )
        return out
