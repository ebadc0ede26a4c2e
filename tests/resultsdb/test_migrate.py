"""Legacy JSON-repository migration: losslessness and answer identity.

The reference implementations of ``best_platform`` and ``regressions``
here are the retired JSON backend's loops, transcribed over the raw
archive payloads — the migrated store must answer every canned query
exactly as the directory of JSON blobs did.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

import pytest

from repro.exceptions import ConfigurationError
from repro.faults.points import IoFault, IoFaultPlan, InjectedIOError, io_faults
from repro.resultsdb import queries
from repro.resultsdb.migrate import import_json_repository
from repro.resultsdb.store import STORE_NAME, ResultsStore

from tests.resultsdb.conftest import make_metadata, make_record


def _write_archive(root, run_id, records, **metadata):
    """One legacy run archive, byte-for-byte as the old backend wrote it."""
    payload = {
        "metadata": make_metadata(run_id, **metadata),
        "results": records,
    }
    raw = json.dumps(payload, indent=1).encode("utf-8")
    (root / f"{run_id}.json").write_bytes(raw)
    return raw


def _legacy_repo(tmp_path, *, with_sidecars=True):
    """A three-run legacy repository with varied workloads."""
    root = tmp_path / "legacy"
    root.mkdir()
    raw = {}
    raw["run-2016-a"] = _write_archive(root, "run-2016-a", [
        make_record(platform="GraphMat", modeled_processing_time=0.5),
        make_record(platform="Giraph", modeled_processing_time=0.9),
        make_record(platform="GraphMat", algorithm="pr",
                    modeled_processing_time=2.0),
    ])
    raw["run-2016-b"] = _write_archive(root, "run-2016-b", [
        make_record(platform="Giraph", modeled_processing_time=0.4),
        make_record(platform="GraphMat", algorithm="pr",
                    modeled_processing_time=3.0),
        make_record(platform="PGX.D", status="failed",
                    modeled_processing_time=None),
    ], description="second sweep")
    raw["run-2016-c"] = _write_archive(root, "run-2016-c", [
        make_record(platform="PGX.D", modeled_processing_time=0.5),
        make_record(platform="Giraph", sla_compliant=False,
                    modeled_processing_time=0.1),
    ])
    if with_sidecars:
        (root / ".index.json").write_text("{}", encoding="utf-8")
        (root / ".lock").write_text("", encoding="utf-8")
    return root, raw


# -- the retired JSON backend's loops, over raw archives ----------------------

def _json_payloads(root) -> Dict[str, dict]:
    payloads = {}
    for path in sorted(root.glob("*.json")):
        if path.name.startswith("."):
            continue
        payloads[path.stem] = json.loads(path.read_bytes())
    return payloads


def _json_best_platform(root, algorithm, dataset) -> Optional[dict]:
    best = None
    for run_id in sorted(_json_payloads(root)):
        for record in _json_payloads(root)[run_id]["results"]:
            if (
                record.get("algorithm") == algorithm.lower()
                and record.get("dataset") == dataset
                and record.get("status") == "succeeded"
                and record.get("sla_compliant")
                and record.get("modeled_processing_time") is not None
            ):
                tproc = record["modeled_processing_time"]
                if best is None or tproc < best["tproc"]:
                    best = {
                        "run_id": run_id,
                        "platform": record["platform"],
                        "tproc": tproc,
                    }
    return best


def _json_regressions(root, old_run, new_run, threshold=1.10) -> List[tuple]:
    payloads = _json_payloads(root)

    def key(record):
        return (
            record.get("platform"), record.get("algorithm"),
            record.get("dataset"), record.get("machines"),
            record.get("threads"),
        )

    old_index = {}
    for record in payloads[old_run]["results"]:
        if record.get("status") == "succeeded" and record.get(
            "modeled_processing_time"
        ):
            old_index[key(record)] = record["modeled_processing_time"]
    found = []
    for record in payloads[new_run]["results"]:
        if not (
            record.get("status") == "succeeded"
            and record.get("modeled_processing_time")
        ):
            continue
        if key(record) in old_index:
            old_time = old_index[key(record)]
            new_time = record["modeled_processing_time"]
            if new_time > threshold * old_time:
                found.append(
                    (record["platform"], record["algorithm"],
                     record["dataset"], old_time, new_time)
                )
    return sorted(found, key=lambda row: -(row[4] / row[3]))


class TestImport:
    def test_imports_all_runs_and_skips_sidecars(self, tmp_path):
        root, _raw = _legacy_repo(tmp_path)
        summary = import_json_repository(root)
        assert summary["imported"] == [
            "run-2016-a", "run-2016-b", "run-2016-c",
        ]
        assert summary["skipped"] == [".index.json", ".lock"]
        assert summary["verified"] is True
        assert summary["stats"]["runs"] == 3
        with ResultsStore(root / STORE_NAME) as store:
            assert store.run_ids() == [
                "run-2016-a", "run-2016-b", "run-2016-c",
            ]

    def test_pre_pr7_repository_without_index_imports_identically(
        self, tmp_path
    ):
        root, raw = _legacy_repo(tmp_path, with_sidecars=False)
        summary = import_json_repository(root)
        assert summary["skipped"] == []
        with ResultsStore(root / STORE_NAME) as store:
            for run_id, source in raw.items():
                assert store.canonical_bytes(run_id) == source

    def test_byte_identical_round_trip(self, tmp_path):
        root, raw = _legacy_repo(tmp_path)
        import_json_repository(root)
        with ResultsStore(root / STORE_NAME) as store:
            for run_id, source in raw.items():
                assert store.canonical_bytes(run_id) == source
                assert json.loads(source) == store.canonical_payload(run_id)

    def test_metadata_key_order_is_preserved(self, tmp_path):
        # An archive whose metadata block has a non-standard key order
        # must still round-trip byte-for-byte: the run record column
        # stores the mapping verbatim.
        root = tmp_path / "legacy"
        root.mkdir()
        payload = {
            "metadata": {
                "description": "reordered",
                "run_id": "run-odd",
                "submitter": "ops",
                "system_under_test": "X",
            },
            "results": [make_record()],
        }
        raw = json.dumps(payload, indent=1).encode("utf-8")
        (root / "run-odd.json").write_bytes(raw)
        import_json_repository(root)
        with ResultsStore(root / STORE_NAME) as store:
            assert store.canonical_bytes("run-odd") == raw

    def test_duplicate_import_refused_then_replace_succeeds(self, tmp_path):
        root, _raw = _legacy_repo(tmp_path)
        import_json_repository(root)
        with pytest.raises(ConfigurationError, match="already exists"):
            import_json_repository(root)
        summary = import_json_repository(root, replace=True)
        assert summary["stats"]["runs"] == 3

    def test_mismatched_run_id_rejected(self, tmp_path):
        root = tmp_path / "legacy"
        root.mkdir()
        payload = {
            "metadata": make_metadata("other-id"),
            "results": [make_record()],
        }
        (root / "run-a.json").write_text(
            json.dumps(payload, indent=1), encoding="utf-8"
        )
        with pytest.raises(ConfigurationError, match="claims run id"):
            import_json_repository(root)
        assert not (root / STORE_NAME).exists()

    def test_torn_archive_aborts_before_writing(self, tmp_path):
        root, _raw = _legacy_repo(tmp_path)
        (root / "run-torn.json").write_bytes(b'{"metadata": {"ru')
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            import_json_repository(root)
        assert not (root / STORE_NAME).exists()

    def test_non_canonical_formatting_fails_verification(self, tmp_path):
        # A hand-edited archive (2-space indent) cannot be reproduced
        # losslessly; verify aborts with the store untouched.
        root = tmp_path / "legacy"
        root.mkdir()
        payload = {
            "metadata": make_metadata("run-edited"),
            "results": [make_record()],
        }
        (root / "run-edited.json").write_text(
            json.dumps(payload, indent=2), encoding="utf-8"
        )
        with pytest.raises(ConfigurationError, match="round-trip"):
            import_json_repository(root)
        assert not (root / STORE_NAME).exists()
        # --no-verify imports it anyway (semantically, not byte-wise).
        summary = import_json_repository(root, verify=False)
        assert summary["imported"] == ["run-edited"]

    def test_not_a_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not a directory"):
            import_json_repository(tmp_path / "missing")


class TestOneTransaction:
    def test_fault_at_commit_leaves_store_unmigrated_whole(self, tmp_path):
        root, _raw = _legacy_repo(tmp_path)
        plan = IoFaultPlan(
            [IoFault(point="resultsdb.commit", kind="enospc")], seed=5
        )
        with io_faults(plan):
            with pytest.raises(InjectedIOError):
                import_json_repository(root)
        # All three runs share ONE transaction: none of them landed.
        with ResultsStore(root / STORE_NAME) as store:
            assert store.run_ids() == []
        # The retry migrates everything.
        assert import_json_repository(root)["stats"]["runs"] == 3


class TestAnswerIdentity:
    """Every canned query matches the JSON backend's answer."""

    def test_best_platform_identical_for_every_workload(self, tmp_path):
        root, _raw = _legacy_repo(tmp_path)
        import_json_repository(root)
        with ResultsStore(root / STORE_NAME) as store:
            for algorithm, dataset in [
                ("bfs", "D300"), ("pr", "D300"), ("BFS", "D300"),
                ("wcc", "D300"), ("bfs", "D1000"),
            ]:
                assert queries.best_platform(
                    store, algorithm, dataset
                ) == _json_best_platform(root, algorithm, dataset)

    def test_top_rank_one_is_the_json_best(self, tmp_path):
        root, _raw = _legacy_repo(tmp_path)
        import_json_repository(root)
        with ResultsStore(root / STORE_NAME) as store:
            entries = queries.top(store, "bfs", "D300")
            best = _json_best_platform(root, "bfs", "D300")
            assert entries[0].platform == best["platform"]
            assert entries[0].run_id == best["run_id"]
            assert entries[0].tproc == best["tproc"]

    def test_regressions_identical_both_directions(self, tmp_path):
        root, _raw = _legacy_repo(tmp_path)
        import_json_repository(root)
        with ResultsStore(root / STORE_NAME) as store:
            for old, new in [
                ("run-2016-a", "run-2016-b"),
                ("run-2016-b", "run-2016-a"),
                ("run-2016-a", "run-2016-c"),
            ]:
                got = [
                    (r.platform, r.algorithm, r.dataset,
                     r.old_seconds, r.new_seconds)
                    for r in queries.regressions(store, old, new)
                ]
                assert got == _json_regressions(root, old, new)

    def test_facade_queries_match_over_a_migrated_directory(self, tmp_path, capsys):
        # The query front end, pointed at the migrated directory, keeps
        # answering: ``db --store <root>`` lists the imported runs and
        # its leaderboard leads with the JSON backend's best platform.
        from repro.cli import main

        root, _raw = _legacy_repo(tmp_path)
        import_json_repository(root)
        assert main(["db", "--store", str(root), "stats"]) == 0
        listed = [
            line.split()[0] for line in capsys.readouterr().out.splitlines()
            if line.startswith("run-")
        ]
        assert listed == ["run-2016-a", "run-2016-b", "run-2016-c"]
        best = _json_best_platform(root, "bfs", "D300")
        assert main(["db", "--store", str(root), "top", "bfs", "D300"]) == 0
        leader = capsys.readouterr().out.splitlines()[0]
        assert leader.startswith(f" 1. {best['platform']}")
        assert f"(run {best['run_id']})" in leader
