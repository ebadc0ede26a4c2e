"""Tests for the public results repository: the store behind submit_run.

The paper's repository (Figure 1, boxes 11-12) is a
:class:`~repro.resultsdb.store.ResultsStore`; harness runs enter it
through :func:`~repro.harness.full_run.submit_run`, which keeps the rule
that only validated results are stored, and the cross-run questions are
the canned queries behind ``graphalytics db top|regressions``.
"""

import multiprocessing

import pytest

from repro.exceptions import ConfigurationError, ValidationError
from repro.harness.full_run import submit_run
from repro.harness.results import BenchmarkResult, ResultsDatabase
from repro.resultsdb import queries
from repro.resultsdb.store import STORE_NAME, ResultsStore


def make_result(**overrides):
    defaults = dict(
        platform="GraphMat",
        algorithm="bfs",
        dataset="D300",
        machines=1,
        threads=32,
        status="succeeded",
        modeled_processing_time=0.3,
        sla_compliant=True,
        validated=True,
    )
    defaults.update(overrides)
    return BenchmarkResult(**defaults)


def meta(run_id, system_under_test="sut", **extra):
    return {
        "run_id": run_id,
        "system_under_test": system_under_test,
        "submitter": "",
        "description": "",
        **extra,
    }


def load(store, run_id):
    return ResultsDatabase(
        [BenchmarkResult(**record) for record in store.run_records(run_id)]
    )


@pytest.fixture
def repo(tmp_path):
    with ResultsStore(tmp_path / "repo" / STORE_NAME) as store:
        yield store


@pytest.fixture
def database():
    return ResultsDatabase([make_result()])


class TestMetadata:
    def test_valid(self, repo, database):
        assert submit_run(repo, meta("run-1", "GraphMat on DAS-5"), database) == (
            "run-1"
        )

    def test_invalid_run_id(self, repo, database):
        with pytest.raises(ConfigurationError, match="run id"):
            submit_run(repo, meta("bad/id"), database)
        assert repo.run_ids() == []

    def test_empty_sut(self, repo, database):
        with pytest.raises(ConfigurationError, match="system_under_test"):
            submit_run(repo, meta("run-1", ""), database)
        assert repo.run_ids() == []


class TestSubmission:
    def test_submit_and_reload(self, repo, database):
        submit_run(
            repo, meta("run-1", "GraphMat on DAS-5", submitter="intel"),
            database,
        )
        assert repo.path.exists()
        assert repo.run_ids() == ["run-1"]
        assert repo.run_metadata("run-1")["submitter"] == "intel"
        loaded = load(repo, "run-1")
        assert len(loaded) == 1
        assert loaded.one(platform="GraphMat").modeled_processing_time == 0.3

    def test_duplicate_rejected(self, repo, database):
        submit_run(repo, meta("run-1"), database)
        with pytest.raises(ConfigurationError, match="already exists"):
            submit_run(repo, meta("run-1"), database)

    def test_empty_run_rejected(self, repo):
        with pytest.raises(ConfigurationError, match="empty run"):
            submit_run(repo, meta("run-1"), ResultsDatabase())

    def test_unvalidated_results_rejected(self, repo):
        db = ResultsDatabase([make_result(validated=None)])
        with pytest.raises(ValidationError, match="lack output validation"):
            submit_run(repo, meta("run-1"), db)
        assert repo.run_ids() == []

    def test_unvalidated_allowed_when_opted_out(self, repo):
        db = ResultsDatabase([make_result(validated=None)])
        submit_run(repo, meta("run-1"), db, require_validation=False)
        assert repo.run_ids() == ["run-1"]

    def test_failed_jobs_do_not_need_validation(self, repo):
        db = ResultsDatabase(
            [make_result(), make_result(status="crashed", validated=None,
                                        sla_compliant=False)]
        )
        submit_run(repo, meta("run-1"), db)

    def test_unknown_run(self, repo):
        with pytest.raises(ConfigurationError, match="unknown run"):
            load(repo, "nope")


def _submit_burst(path, prefix, count, barrier):
    """Child-process writer: submit ``count`` runs as fast as possible."""
    database = ResultsDatabase([make_result()])
    with ResultsStore(path) as store:
        barrier.wait(timeout=30)
        for index in range(count):
            submit_run(store, meta(f"{prefix}-{index}"), database)


def _submit_same_run(path, run_id, barrier, queue):
    """Child-process writer: claim one fixed run id; report the verdict."""
    database = ResultsDatabase([make_result()])
    with ResultsStore(path) as store:
        barrier.wait(timeout=30)
        try:
            submit_run(store, meta(run_id), database)
            queue.put("stored")
        except ConfigurationError:
            queue.put("duplicate")


class TestConcurrentSubmission:
    """Concurrent submitters must not lose rows or share a run id.

    The legacy design serialized writers with an ``flock`` sidecar
    around a read-modify-write of ``.index.json`` — the lost-update
    these tests guarded against. The store inherits the obligation with
    SQLite transactions: every submission is a ``BEGIN IMMEDIATE``
    commit, so the same assertions must hold with no lock file and no
    index file at all.
    """

    WRITERS = 8

    def test_eight_writers_lose_no_runs(self, tmp_path):
        path = tmp_path / "repo" / STORE_NAME
        count = 5
        prefixes = [f"w{n}" for n in range(self.WRITERS)]
        barrier = multiprocessing.Barrier(self.WRITERS + 1)
        writers = [
            multiprocessing.Process(
                target=_submit_burst, args=(str(path), prefix, count, barrier)
            )
            for prefix in prefixes
        ]
        for proc in writers:
            proc.start()
        barrier.wait(timeout=30)  # release all writers together
        for proc in writers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        expected = {f"{prefix}-{index}"
                    for prefix in prefixes for index in range(count)}
        with ResultsStore(path) as store:
            assert set(store.run_ids()) == expected
            # Every stored run is also loadable in full: no torn rows.
            for run_id in expected:
                assert len(load(store, run_id)) == 1

    def test_duplicate_run_id_rejected_exactly_once(self, tmp_path):
        """Of N processes claiming one run id, exactly one wins."""
        path = tmp_path / "repo" / STORE_NAME
        barrier = multiprocessing.Barrier(self.WRITERS + 1)
        queue = multiprocessing.Queue()
        writers = [
            multiprocessing.Process(
                target=_submit_same_run,
                args=(str(path), "contested", barrier, queue),
            )
            for _ in range(self.WRITERS)
        ]
        for proc in writers:
            proc.start()
        barrier.wait(timeout=30)
        for proc in writers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        verdicts = [queue.get(timeout=10) for _ in range(self.WRITERS)]
        assert verdicts.count("stored") == 1
        assert verdicts.count("duplicate") == self.WRITERS - 1
        with ResultsStore(path) as store:
            assert store.run_ids() == ["contested"]
            assert len(load(store, "contested")) == 1

    def test_no_sidecar_files(self, repo, database):
        """The flock sidecar and shadow index are gone for good."""
        submit_run(repo, meta("run-1"), database)
        names = {p.name for p in repo.path.parent.iterdir()}
        assert ".lock" not in names
        assert ".index.json" not in names

    def test_safe_without_fcntl(self, tmp_path, monkeypatch):
        """Mutual exclusion survives platforms with no ``fcntl`` at all.

        The legacy locking degraded to a no-op where ``fcntl`` failed
        to import; the store's transactions must not care. Hide the
        module, reload the store module against the hidden world, and
        check both duplicate rejection and that nothing in the module
        references fcntl.
        """
        import importlib
        import sys

        import repro.resultsdb.store as store_module

        monkeypatch.setitem(sys.modules, "fcntl", None)
        reloaded = importlib.reload(store_module)
        try:
            assert not hasattr(reloaded, "fcntl")
            database = ResultsDatabase([make_result()])
            with reloaded.ResultsStore(tmp_path / "repo" / STORE_NAME) as store:
                submit_run(store, meta("run-1"), database)
                with pytest.raises(ConfigurationError, match="already exists"):
                    submit_run(store, meta("run-1"), database)
                assert store.run_ids() == ["run-1"]
        finally:
            monkeypatch.delitem(sys.modules, "fcntl")
            importlib.reload(store_module)


class TestCrossRunAnalysis:
    def test_best_platform(self, repo):
        submit_run(
            repo, meta("vendor-a", "A"),
            ResultsDatabase([make_result(platform="A", modeled_processing_time=2.0)]),
        )
        submit_run(
            repo, meta("vendor-b", "B"),
            ResultsDatabase([make_result(platform="B", modeled_processing_time=0.5)]),
        )
        best = queries.best_platform(repo, "bfs", "D300")
        assert best["platform"] == "B"
        assert best["run_id"] == "vendor-b"

    def test_best_platform_ignores_sla_breakers(self, repo):
        submit_run(
            repo, meta("r"),
            ResultsDatabase(
                [make_result(modeled_processing_time=0.1, sla_compliant=False)]
            ),
            require_validation=False,
        )
        assert queries.best_platform(repo, "bfs", "D300") is None

    def test_best_platform_no_match(self, repo, database):
        submit_run(repo, meta("r"), database)
        assert queries.best_platform(repo, "sssp", "R4") is None

    def test_regression_detection(self, repo):
        submit_run(
            repo, meta("v1"),
            ResultsDatabase([make_result(modeled_processing_time=1.0)]),
        )
        submit_run(
            repo, meta("v2"),
            ResultsDatabase([make_result(modeled_processing_time=1.5)]),
        )
        regressions = queries.regressions(repo, "v1", "v2")
        assert len(regressions) == 1
        assert regressions[0].slowdown == pytest.approx(1.5)

    def test_no_regression_below_threshold(self, repo):
        submit_run(
            repo, meta("v1"),
            ResultsDatabase([make_result(modeled_processing_time=1.0)]),
        )
        submit_run(
            repo, meta("v2"),
            ResultsDatabase([make_result(modeled_processing_time=1.05)]),
        )
        assert queries.regressions(repo, "v1", "v2") == []

    def test_improvements_are_not_regressions(self, repo):
        submit_run(
            repo, meta("v1"),
            ResultsDatabase([make_result(modeled_processing_time=1.0)]),
        )
        submit_run(
            repo, meta("v2"),
            ResultsDatabase([make_result(modeled_processing_time=0.5)]),
        )
        assert queries.regressions(repo, "v1", "v2") == []

    def test_regressions_sorted_by_slowdown(self, repo):
        old = ResultsDatabase(
            [
                make_result(dataset="D300", modeled_processing_time=1.0),
                make_result(dataset="G22", modeled_processing_time=1.0),
            ]
        )
        new = ResultsDatabase(
            [
                make_result(dataset="D300", modeled_processing_time=2.0),
                make_result(dataset="G22", modeled_processing_time=5.0),
            ]
        )
        submit_run(repo, meta("v1"), old)
        submit_run(repo, meta("v2"), new)
        regressions = queries.regressions(repo, "v1", "v2")
        assert [r.dataset for r in regressions] == ["G22", "D300"]
