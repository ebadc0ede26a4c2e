"""The three workloads, driven only through the program's public entry
points: ``BenchmarkRunner.run``, ``execute_matrix``, the
``graphalytics serve`` process and ``ServiceClient``.

Each workload builds its inputs from the seed it is given (the seed
becomes ``BenchmarkConfig.seed``), measures whole passes or whole
closed-loop cycles until the time is up, and checks every output.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import checks

ROOT = Path(__file__).resolve().parents[1]

#: Seconds between two ``GET /v1/runs/<id>`` polls of one tenant.
POLL_SECONDS = 0.01

#: Seconds a child process gets to boot, answer or stop.
CHILD_TIMEOUT = 60.0


@dataclass
class Measurement:
    """What one timed stretch of a workload produced."""

    #: Wall clock per timed unit: a matrix pass, or one service run from
    #: submit until its terminal state is observed.
    walls: List[float] = field(default_factory=list)
    jobs: int = 0
    #: Wall clock ``jobs`` were completed in.
    window_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Per-layer samples the workload measures itself, one per unit.
    samples: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    errors: List[str] = field(default_factory=list)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(reason)

    def layers(self) -> Dict[str, float]:
        """Mean of each per-layer sample series."""
        return {name: _mean(values) for name, values in self.samples.items()}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _first_line(proc: subprocess.Popen) -> str:
    """The child's first output line; kills it if none comes in time."""
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.start()
    try:
        return proc.stdout.readline()
    finally:
        timer.cancel()


class Workload:
    """Seeded inputs, a set-up, and timed units of work."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = Path(work)
        self.work.mkdir(parents=True, exist_ok=True)

    def settings(self) -> Dict[str, object]:
        """The resolved settings the run used."""
        raise NotImplementedError

    def probe_setup(self, index: int) -> float:
        """Seconds from a fresh interpreter until the set-up is done."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, m: Measurement,
                trace_dir: Optional[Path] = None) -> None:
        """Run whole units until ``seconds`` have gone by; ``trace_dir``
        receives the spans of processes the workload starts itself."""
        raise NotImplementedError

    def finish(self, m: Measurement) -> None:
        """Checks that need the whole run; called once, untraced."""

    def close(self) -> None:
        """Stop what the workload started."""


def fresh_tracer():
    """The program's span tracer as a new process would have it.

    The process-wide tracer keeps up to 65536 finished spans; passes
    repeated in one process would otherwise grow it with the pass count,
    which a ``graphalytics report`` process running once never does.
    """
    from repro.trace import Tracer, use_tracer

    return use_tracer(Tracer())


class BatchWorkload(Workload):
    """A matrix pass repeated until the time is up."""

    def run_pass(self, index: int, m: Measurement) -> None:
        raise NotImplementedError

    def probe_setup(self, index: int) -> float:
        probe = self.work / f"probe-{index}"
        command = [sys.executable, str(ROOT / "perfbench" / "child.py"),
                   "setup", self.name, str(self.seed), str(probe)]
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              env=child_env(), cwd=ROOT) as proc:
            line = _first_line(proc)
            elapsed = time.perf_counter() - started
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT)
        shutil.rmtree(probe, ignore_errors=True)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"{self.name} set-up probe failed (exit {code})")
        return elapsed

    def measure(self, seconds: float, m: Measurement,
                trace_dir: Optional[Path] = None) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            self.run_pass(len(m.walls), m)
            if time.perf_counter() >= deadline:
                break
        m.window_s = sum(m.walls)


class ReportMatrix(BatchWorkload):
    """``graphalytics report --workers auto --run-dir … --cache-dir …``."""

    name = "report-matrix"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        from repro.algorithms.registry import ALGORITHMS
        from repro.harness.config import BenchmarkConfig
        from repro.platforms.registry import PLATFORMS
        from repro.runtime.executor import resolve_workers

        self.workers = resolve_workers("auto")
        self.config = BenchmarkConfig(
            platforms=[*PLATFORMS, "pythonref"],
            datasets=["G24", "D1000", "R4"],
            algorithms=list(ALGORITHMS),
            seed=seed,
        )
        self.cache_dir = self.work / "cache"
        self.expected: Optional[List[str]] = None

    def settings(self) -> Dict[str, object]:
        return {"workers": self.workers, "platforms": self.config.platforms,
                "datasets": self.config.datasets,
                "algorithms": self.config.algorithms,
                "seed": self.seed, "cache": "persistent across passes",
                "run_dir": "fresh per pass"}

    def _runtime(self):
        from repro.runtime.executor import RuntimeConfig

        return RuntimeConfig(workers=self.workers, cache_dir=self.cache_dir)

    def setup(self) -> None:
        from repro.runtime.executor import execute_matrix

        execute_matrix(self.config, self._runtime(), include_execute=False)

    def run_pass(self, index: int, m: Measurement) -> None:
        from repro.harness.report import render_report
        from repro.harness.runner import BenchmarkRunner

        run_dir = self.work / "runs" / f"pass-{index}"
        with fresh_tracer():
            started = time.perf_counter()
            runner = BenchmarkRunner(self.config)
            database = runner.run(runtime=self._runtime(), run_dir=run_dir)
            render_report(database)
            m.walls.append(time.perf_counter() - started)

        outcome = runner.last_run
        m.jobs += len(database)
        m.attempted += outcome.job_count
        rows = checks.stable_rows([r.as_dict() for r in database])
        if self.expected is None:
            self.expected = rows
        for count, reason in (
            (checks.row_failures(database), "invalid or harness-failed rows"),
            (outcome.lost_jobs, "lost jobs"),
            (checks.differing_rows(rows, self.expected),
             "rows differ from the first pass"),
        ):
            if count:
                m.fail(count, f"pass {index}: {count} {reason}")
        journal = (run_dir / "journal.jsonl").read_bytes()
        m.samples["runtime.journal_records"].append(journal.count(b"\n"))
        m.samples["runtime.journal_bytes"].append(len(journal))
        shutil.rmtree(run_dir)


class ShardedMatrix(BatchWorkload):
    """The measured ``pythonref`` platform on 2 hash shards, serial."""

    name = "sharded-matrix"
    PARTITIONS = 2

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        from repro.harness.config import BenchmarkConfig

        self.config = BenchmarkConfig(
            platforms=["pythonref"],
            datasets=["G23", "D300"],
            algorithms=["bfs", "pr", "wcc", "cdlp", "sssp"],
            partitions=self.PARTITIONS,
            partition_strategy="hash",
            seed=seed,
        )
        # Installed before any tracer so the tracer wraps it, not the
        # other way round.
        self.capture = checks.OutputCapture()
        self.jobs_run = 0

    def settings(self) -> Dict[str, object]:
        return {"partitions": self.config.partitions,
                "partition_strategy": self.config.partition_strategy,
                "datasets": self.config.datasets,
                "algorithms": self.config.algorithms,
                "seed": self.seed, "workers": 1}

    def setup(self) -> None:
        from repro.harness.datasets import get_dataset

        for dataset_id in self.config.datasets:
            get_dataset(dataset_id).materialize(self.seed)

    def run_pass(self, index: int, m: Measurement) -> None:
        from repro.harness.runner import BenchmarkRunner

        with fresh_tracer():
            started = time.perf_counter()
            database = BenchmarkRunner(self.config).run()
            m.walls.append(time.perf_counter() - started)
        m.jobs += len(database)
        m.attempted += len(database)
        self.jobs_run += len(database)
        failed = checks.row_failures(database)
        if failed:
            m.fail(failed, f"pass {index}: {failed} invalid rows")

    def finish(self, m: Measurement) -> None:
        failed = self.capture.mismatches()
        if failed:
            m.fail(failed, f"{failed} sharded outputs differ from run_reference")
        if len(self.capture.outputs) != self.jobs_run:
            m.fail(1, "not every job ran on the partitioned engine")

    def close(self) -> None:
        self.capture.close()


class _Server:
    """One ``graphalytics serve --port 0`` child process."""

    def __init__(self, spool: Path, trace_dir: Optional[Path] = None):
        from repro.service import ServiceClient

        if trace_dir is None:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            command = [sys.executable, str(ROOT / "perfbench" / "child.py"),
                       "serve", str(trace_dir)]
        command += ["--port", "0", "--spool", str(spool)]
        self.spool = spool
        self.log = open(spool.with_suffix(".log"), "w", encoding="utf-8")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, text=True,
            env=child_env(), cwd=ROOT,
        )
        try:
            line = _first_line(self.proc)
            if "listening on http://" not in line:
                raise RuntimeError(f"service did not boot: {line!r}")
            host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
            self.client = ServiceClient(host, int(port), timeout=CHILD_TIMEOUT)
            while True:
                try:
                    self.client.healthz()
                    break
                except (OSError, http.client.HTTPException):
                    if time.perf_counter() - started > CHILD_TIMEOUT:
                        raise
                    time.sleep(0.005)
            self.boot_s = time.perf_counter() - started
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class ServiceClosedLoop(Workload):
    """Two tenants, each submitting its next run only after reading the
    last one's results over HTTP and from the live results store."""

    name = "service-closed-loop"
    TENANTS = 2

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        from repro.harness.config import BenchmarkConfig
        from repro.runtime.journal import config_payload

        self.matrix = config_payload(BenchmarkConfig(
            platforms=["graphmat", "powergraph"],
            datasets=["R1", "G22"],
            algorithms=["bfs", "wcc", "pr"],
            seed=seed,
        ))
        self.server: Optional[_Server] = None
        self._spools = 0

    def settings(self) -> Dict[str, object]:
        from dataclasses import fields

        from repro.runtime.executor import resolve_workers
        from repro.service import ServiceConfig

        defaults = {f.name: f.default for f in fields(ServiceConfig)}
        return {"tenants": self.TENANTS, "loop": "closed",
                "workers": resolve_workers(defaults["workers"]),
                "max_running": defaults["max_running"],
                "poll_s": POLL_SECONDS, "matrix": self.matrix}

    def _boot(self, trace_dir: Optional[Path] = None) -> _Server:
        self._spools += 1
        spool = self.work / f"spool-{self._spools}"
        return _Server(spool, trace_dir)

    def probe_setup(self, index: int) -> float:
        server = self._boot()
        server.stop()
        shutil.rmtree(server.spool, ignore_errors=True)
        return server.boot_s

    def setup(self) -> None:
        self.server = self._boot()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def _tenant(self, tenant: str, deadline: float, cycles: List[dict]) -> None:
        from repro.resultsdb.queries import top
        from repro.resultsdb.store import STORE_NAME, ResultsStore
        from repro.service import ServiceError
        from repro.service.runs import TERMINAL_STATES

        client = self.server.client
        store = None
        try:
            while time.perf_counter() < deadline:
                cycle = {"ok": False}
                cycles.append(cycle)
                try:
                    started = time.perf_counter()
                    run_id = client.submit(tenant, self.matrix)["run_id"]
                    cycle["submit_s"] = time.perf_counter() - started
                    status = client.run(run_id)
                    while status["state"] not in TERMINAL_STATES:
                        time.sleep(POLL_SECONDS)
                        status = client.run(run_id)
                    cycle["turnaround"] = time.perf_counter() - started
                    cycle["run_id"] = run_id
                    cycle["status"] = status
                    t = time.perf_counter()
                    results = client.fetch(run_id, "results")
                    cycle["fetch_s"] = time.perf_counter() - t
                    cycle["digest"] = hashlib.sha256("\n".join(
                        checks.stable_rows(json.loads(results))).encode()
                    ).hexdigest()
                    t = time.perf_counter()
                    if store is None:
                        store = ResultsStore(self.server.spool / STORE_NAME)
                    leaders = top(store, "bfs", "R1")
                    cycle["query_s"] = time.perf_counter() - t
                    cycle["leaders"] = sorted(e.platform for e in leaders)
                    cycle["ok"] = (status["state"] == "done"
                                   and status.get("failures") == 0)
                    if not cycle["ok"]:
                        cycle["error"] = (f"run {run_id} ended {status['state']}"
                                          f" {status.get('error', '')}")
                except ServiceError as exc:
                    cycle["error"] = str(exc)
                    cycle["rejected"] = exc.status in (429, 503)
                except (OSError, http.client.HTTPException, KeyError) as exc:
                    cycle["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if store is not None:
                store.close()

    def measure(self, seconds: float, m: Measurement,
                trace_dir: Optional[Path] = None) -> None:
        if trace_dir is not None:
            self.close()
            self.server = self._boot(trace_dir)
        per_tenant: List[List[dict]] = [[] for _ in range(self.TENANTS)]
        started = time.perf_counter()
        deadline = started + seconds
        threads = [
            threading.Thread(target=self._tenant,
                             args=(f"tenant-{i}", deadline, per_tenant[i]))
            for i in range(self.TENANTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
            if thread.is_alive():
                raise RuntimeError("a tenant did not finish its last cycle")
        m.window_s = time.perf_counter() - started
        cycles = [c for tenant in per_tenant for c in tenant]
        self._account(cycles, m)
        if trace_dir is not None:
            # The traced server's run children flush their spans as they
            # exit; stopping it flushes the server's own.
            self.close()

    def _account(self, cycles: List[dict], m: Measurement) -> None:
        ok = [c for c in cycles if c["ok"]]
        m.attempted += len(cycles)
        for cycle in cycles:
            if not cycle["ok"]:
                m.fail(1, cycle.get("error", "cycle failed"))
        digests = {c["digest"] for c in ok}
        if len(digests) > 1:
            first = ok[0]["digest"]
            m.fail(sum(1 for c in ok if c["digest"] != first),
                   "fetched results differ between runs of one matrix")
        for cycle in ok:
            if not cycle["leaders"] or not set(cycle["leaders"]) <= {
                    "GraphMat", "PowerGraph"}:
                m.fail(1, f"results-store top query answered {cycle['leaders']}")
        m.walls.extend(c["turnaround"] for c in ok)
        m.jobs += sum(int(c["status"].get("jobs", 0)) for c in ok)

        samples = m.samples
        for c in ok:
            status = c["status"]
            child = status["finished_at"] - status["started_at"]
            exec_s = float(status["elapsed_seconds"])
            samples["service.submit_s"].append(c["submit_s"])
            samples["service.queue_wait_s"].append(
                status["started_at"] - status["submitted_at"])
            samples["service.child_s"].append(child)
            samples["service.child_exec_s"].append(exec_s)
            samples["service.child_overhead_s"].append(child - exec_s)
            samples["service.observe_lag_s"].append(
                c["turnaround"]
                - (status["finished_at"] - status["submitted_at"]))
            samples["service.fetch_s"].append(c["fetch_s"])
            samples["resultsdb.query_s"].append(c["query_s"])
            journal = self.server.spool / c["run_id"] / "journal.jsonl"
            if journal.exists():
                data = journal.read_bytes()
                samples["runtime.journal_records"].append(data.count(b"\n"))
                samples["runtime.journal_bytes"].append(len(data))
        samples["service.rejected"].append(
            sum(1 for c in cycles if c.get("rejected")))
        if ok:
            store_bytes = sum(
                p.stat().st_size for p in self.server.spool.glob("results.db*")
                if not p.name.endswith("-shm"))
            samples["resultsdb.bytes_per_run"].append(store_bytes / len(ok))


WORKLOADS = {w.name: w for w in (ReportMatrix, ShardedMatrix, ServiceClosedLoop)}


def make(name: str, seed: int, work: Path):
    return WORKLOADS[name](seed, work)
