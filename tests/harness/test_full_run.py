"""Tests for the full-benchmark orchestration."""

import pytest

from repro.harness.full_run import run_full_benchmark
from repro.resultsdb.store import ResultsStore


class TestSelectedExperiments:
    def test_two_experiments_share_a_database(self):
        result = run_full_benchmark(
            experiment_ids=["algorithm-variety", "variability"]
        )
        assert set(result.reports) == {"algorithm-variety", "variability"}
        assert result.job_count > 100  # 72 + 110 jobs

    def test_notes_prefixed_with_experiment(self):
        result = run_full_benchmark(experiment_ids=["stress-test"])
        assert result.notes
        assert all(note.startswith("[stress-test]") for note in result.notes)

    def test_render(self):
        result = run_full_benchmark(experiment_ids=["algorithm-variety"])
        text = result.render()
        assert "# Graphalytics full benchmark run" in text
        assert "## LCC" in text

    def test_report_written(self, tmp_path):
        path = tmp_path / "report.md"
        run_full_benchmark(
            experiment_ids=["variability"], report_path=path
        )
        assert "## BFS" in path.read_text()


class TestRepositorySubmission:
    def test_validated_run_submitted(self, tmp_path):
        with ResultsStore(tmp_path / "repo" / "results.db") as store:
            result = run_full_benchmark(
                experiment_ids=["algorithm-variety"],
                store=store,
                seed=3,
            )
            assert store.run_ids() == ["full-run-seed3"]
            stored = store.run_records("full-run-seed3")
            assert len(stored) == result.job_count > 0
            assert store.run_metadata("full-run-seed3")[
                "system_under_test"
            ] == "simulated Table 5 platforms on DAS-5 model"


@pytest.mark.slow
class TestCompleteSuite:
    def test_all_eight_experiments(self):
        result = run_full_benchmark()
        assert len(result.reports) == 8
        assert result.job_count > 500
