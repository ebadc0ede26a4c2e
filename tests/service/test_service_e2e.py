"""End-to-end: a real ``graphalytics serve`` process, killed and revived.

The full acceptance scenario from the service design:

* two tenants submit the same matrix concurrently and stream events;
* the server process is SIGKILLed mid-run (children die via the
  parent-death watchdog, tearing the journals wherever they happened
  to be);
* only the server records outcomes, so neither run is terminal after
  the kill, however far its child got;
* a restarted server on the same spool resumes both runs from their
  journals and completes them;
* no journal carries a duplicate ``job-done`` per job key, and the two
  tenants' results databases are bit-identical in canonical form.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness.results import ResultsDatabase
from repro.runtime.journal import RunJournal
from repro.service import ServiceClient
from repro.service.runs import TERMINAL_STATES

from tests.service.test_server import service_rows

#: Large enough that a kill lands mid-run, small enough to stay fast.
MATRIX = {
    "platforms": ["powergraph", "graphmat"],
    "datasets": ["R1", "R2"],
    "algorithms": ["bfs", "pr", "sssp"],
    "repetitions": 2,
}

_DEADLINE = 120.0


def _spawn_server(spool: Path, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--spool", str(spool), "--port", "0", "--max-running", "2",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(Path(__file__).resolve().parents[2]),
    )


def _read_address(proc: subprocess.Popen) -> ServiceClient:
    deadline = time.monotonic() + _DEADLINE
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError("server exited before announcing its address")
        if "listening on http://" in line:
            address = line.rsplit("http://", 1)[1].strip()
            host, port = address.rsplit(":", 1)
            return ServiceClient(host, int(port), timeout=_DEADLINE)
    raise AssertionError("server never announced its address")


def _wait_for_job_done(run_dir: Path, deadline: float = _DEADLINE) -> None:
    """Block until the run's journal holds at least one job-done."""
    path = RunJournal.journal_path(run_dir)
    limit = time.monotonic() + deadline
    while time.monotonic() < limit:
        if path.exists():
            try:
                replay = RunJournal.load(run_dir)
            except Exception:
                replay = None
            if replay is not None and any(
                record["type"] == "job-done" for record in replay.records
            ):
                return
        time.sleep(0.05)
    raise AssertionError(f"no job-done appeared in {path}")


def _wait_terminal(client: ServiceClient, run_id: str) -> dict:
    limit = time.monotonic() + _DEADLINE
    while time.monotonic() < limit:
        payload = client.run(run_id)
        if payload["state"] in ("done", "failed"):
            return payload
        time.sleep(0.1)
    raise AssertionError(f"run {run_id} did not settle")


def _terminate(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    if proc.stdout is not None:
        proc.stdout.close()


@pytest.mark.slow
def test_two_tenants_sigkill_resume_bit_identical(tmp_path):
    spool = tmp_path / "spool"
    server = _spawn_server(spool)
    try:
        client = _read_address(server)
        run_a = client.submit("alice", MATRIX)["run_id"]
        run_b = client.submit("bob", MATRIX)["run_id"]

        # Both children must be genuinely mid-run before the kill: each
        # journal holds completed work, neither run has an outcome.
        _wait_for_job_done(spool / run_a)
        _wait_for_job_done(spool / run_b)
        os.kill(server.pid, signal.SIGKILL)
        server.wait(timeout=30)

        # The server is the only writer of run state: with it dead, no
        # child can mark its run terminal, even one that finishes
        # before its parent-death watchdog fires.
        time.sleep(1.0)  # let watchdogs fire and journals settle
        rows = service_rows(spool)
        for run_id in (run_a, run_b):
            assert rows[run_id]["state"] not in TERMINAL_STATES, rows[run_id]
            assert rows[run_id]["outcome"] is None
    finally:
        _terminate(server)

    # Restart on the same spool: the boot scan re-enqueues both runs.
    server = _spawn_server(spool)
    try:
        client = _read_address(server)
        final_a = _wait_terminal(client, run_a)
        final_b = _wait_terminal(client, run_b)
        assert final_a["state"] == "done", final_a
        assert final_b["state"] == "done", final_b

        # SSE on a finished run replays the journal to the end event.
        events = list(client.events(run_a))
        names = [event for event, _payload in events]
        assert names[0] == "run"
        assert names[-1] == "end"
        assert "journal" in names

        for run_id, final in ((run_a, final_a), (run_b, final_b)):
            replay = RunJournal.load(spool / run_id)
            done_keys = [
                record["key"] for record in replay.records
                if record["type"] == "job-done"
            ]
            # Resume restored finished jobs instead of re-recording
            # them: every job key completes exactly once.
            assert len(done_keys) == len(set(done_keys)), (
                f"duplicate job-done records in {run_id}"
            )
            assert final["jobs"] > 0

        # Both tenants ran the identical matrix expansion.
        assert final_a["jobs"] == final_b["jobs"]

        # The interrupted tenant(s) actually resumed prior journal work.
        restored = final_a.get("restored_jobs", 0) + final_b.get(
            "restored_jobs", 0
        )
        assert restored > 0, "neither run resumed from its journal"

        # Bit-identical canonical results across tenants.
        database_a = ResultsDatabase.load(spool / run_a / "results.json")
        database_b = ResultsDatabase.load(spool / run_b / "results.json")
        assert database_a.canonical_json() == database_b.canonical_json()
    finally:
        _terminate(server)


@pytest.mark.slow
def test_cli_submit_watch_fetch_round_trip(tmp_path):
    """The CLI client subcommands against a live server process."""
    spool = tmp_path / "spool"
    server = _spawn_server(spool)
    try:
        client = _read_address(server)
        host, port = client.host, str(client.port)
        repo_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")

        matrix_path = tmp_path / "matrix.json"
        matrix_path.write_text(json.dumps(
            {
                "platforms": ["powergraph"],
                "datasets": ["R1"],
                "algorithms": ["bfs"],
                "repetitions": 1,
            }
        ))

        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "repro.cli", *args,
                 "--host", host, "--port", port],
                capture_output=True, text=True, env=env, cwd=str(repo_root),
                timeout=_DEADLINE,
            )

        submitted = cli("submit", str(matrix_path), "--tenant", "cli-test")
        assert submitted.returncode == 0, submitted.stdout + submitted.stderr
        run_id = next(
            token for token in submitted.stdout.split()
            if token.startswith("r") and "-cli-test" in token
        )

        watched = cli("watch", run_id)
        assert watched.returncode == 0, watched.stdout + watched.stderr
        assert "done" in watched.stdout

        out_path = tmp_path / "results.json"
        fetched = cli("fetch", run_id, "--artifact", "results",
                      "--output", str(out_path))
        assert fetched.returncode == 0, fetched.stdout + fetched.stderr
        rows = json.loads(out_path.read_text())
        assert rows and rows[0]["status"] == "succeeded"
    finally:
        _terminate(server)


# ---------------------------------------------------------------------------
# Chaos acceptance: seeded fault plans against real server processes.
# ---------------------------------------------------------------------------

#: Small enough to finish fast, big enough to write journal records.
CHAOS_MATRIX = {
    "platforms": ["powergraph"],
    "datasets": ["R1"],
    "algorithms": ["bfs", "pr"],
    "repetitions": 2,
}

#: SIGKILLs the run child after 3 journal appends — every attempt, since
#: fault counters are per process and each relaunch re-arms the plan.
KILL_PLAN = {
    "seed": 7,
    "faults": [{"point": "journal.append.write", "kind": "kill", "after": 3}],
}

#: Fails the journal's first group-commit fsync: the run completes with
#: a durability downgrade instead of dying.
FSYNC_PLAN = {
    "seed": 7,
    "faults": [{"point": "journal.append.fsync", "kind": "fsync-fail"}],
}

_SUPERVISION_FLAGS = (
    "--run-attempts", "3", "--run-backoff", "0.2",
    "--breaker-threshold", "10",  # keep the breaker out of this scenario
)


def _wait_ledger_attempts(spool: Path, run_id: str, minimum: int) -> None:
    """Block until the run's durable attempt ledger has counted ``minimum``."""
    limit = time.monotonic() + _DEADLINE
    while time.monotonic() < limit:
        if service_rows(spool)[run_id]["attempts"] >= minimum:
            return
        time.sleep(0.05)
    raise AssertionError(f"ledger of {run_id} never reached {minimum} attempts")


def _wait_quarantined(client: ServiceClient, run_id: str) -> dict:
    limit = time.monotonic() + _DEADLINE
    while time.monotonic() < limit:
        payload = client.run(run_id)
        if payload["state"] in ("quarantined", "done", "failed"):
            return payload
        time.sleep(0.1)
    raise AssertionError(f"run {run_id} never settled: {payload['state']}")


@pytest.mark.slow
def test_chaos_quarantine_and_degradation_survive_restart(tmp_path):
    """The robustness acceptance scenario over real server processes.

    A poison run (chaos plan kills its child every attempt) burns its
    launch budget — counted in the durable ledger across a server
    SIGKILL + restart — and lands in quarantine, never relaunched
    again.  A run with an injected fsync failure *completes*, flagged,
    bit-identical in canonical form to an unfaulted run, with no
    duplicate ``job-done`` records; ``/v1/healthz`` and the CLI
    ``health`` subcommand report both degradations.
    """
    spool = tmp_path / "spool"
    server = _spawn_server(spool, *_SUPERVISION_FLAGS)
    try:
        client = _read_address(server)
        poison = client.submit("poison", CHAOS_MATRIX, chaos=KILL_PLAN)
        flaky = client.submit("fsync", CHAOS_MATRIX, chaos=FSYNC_PLAN)
        clean = client.submit("clean", CHAOS_MATRIX)
        poison_id = poison["run_id"]

        # The degraded and clean runs complete despite the chaos plan.
        final_flaky = _wait_terminal(client, flaky["run_id"])
        final_clean = _wait_terminal(client, clean["run_id"])
        assert final_flaky["state"] == "done", final_flaky
        assert final_flaky["degraded"] == ["journal-fsync-degraded"]
        assert final_clean["state"] == "done", final_clean
        assert "degraded" not in final_clean

        # The poison child killed itself at least twice (pre-launch
        # ledger writes make the count durable), then the server dies.
        _wait_ledger_attempts(spool, poison_id, 2)
        os.kill(server.pid, signal.SIGKILL)
        server.wait(timeout=30)
        time.sleep(1.0)  # parent-death watchdog reaps the orphan child
    finally:
        _terminate(server)

    server = _spawn_server(spool, *_SUPERVISION_FLAGS)
    try:
        client = _read_address(server)

        # The restarted supervisor reads the ledger: at most ONE more
        # launch (the third) before quarantine — never a fresh budget.
        payload = _wait_quarantined(client, poison_id)
        assert payload["state"] == "quarantined", payload
        assert payload["attempts"] == 3  # exactly the budget, not 2x it
        assert payload["quarantine"]["budget"] == 3
        assert service_rows(spool)[poison_id]["attempts"] == 3

        # Completed runs stayed terminal across the restart, and no
        # journal re-recorded finished work.
        for run_id in (flaky["run_id"], clean["run_id"]):
            assert client.run(run_id)["state"] == "done"
            replay = RunJournal.load(spool / run_id)
            done_keys = [
                record["key"] for record in replay.records
                if record["type"] == "job-done"
            ]
            assert len(done_keys) == len(set(done_keys)), (
                f"duplicate job-done records in {run_id}"
            )

        # Bit-identical canonical results: the fsync fault cost a
        # durability tier, not a bit of output.
        flaky_db = ResultsDatabase.load(
            spool / flaky["run_id"] / "results.json"
        )
        clean_db = ResultsDatabase.load(
            spool / clean["run_id"] / "results.json"
        )
        assert flaky_db.canonical_json() == clean_db.canonical_json()

        # healthz carries both degradations over real HTTP...
        health = client.healthz()
        assert health["status"] == "degraded"
        assert poison_id in health["quarantined"]
        assert health["degraded_runs"][flaky["run_id"]] == [
            "journal-fsync-degraded"
        ]

        # ...and the CLI health subcommand exits non-zero on it.
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        probe = subprocess.run(
            [sys.executable, "-m", "repro.cli", "health",
             "--host", client.host, "--port", str(client.port)],
            capture_output=True, text=True, env=env,
            cwd=str(Path(__file__).resolve().parents[2]),
            timeout=_DEADLINE,
        )
        assert probe.returncode == 1, probe.stdout + probe.stderr
        assert "degraded" in probe.stdout
    finally:
        _terminate(server)
