"""Output checks. Every failed check counts as a failed operation in
``error_rate``."""

from __future__ import annotations

import json
from typing import List, Tuple

from perfbench.tracing import rebind

#: Result fields the measured ``pythonref`` platform fills from its own
#: wall clock (``ReferenceDriver`` reports measured time as Tproc).
#: ``ResultsDatabase.canonical_json`` nulls only the ``measured_*``
#: fields, so on its rows these five also differ from run to run.
WALL_CLOCK_FIELDS = (
    "modeled_processing_time", "modeled_makespan", "modeled_upload_time",
    "eps", "evps",
)


def stable_rows(records: List[dict]) -> List[str]:
    """One deterministic JSON string per result record: the
    ``canonical_json`` rule (``measured_*`` nulled), plus the wall-clock
    fields of the measured platform's rows nulled."""
    from repro.platforms.reference import REFERENCE_INFO

    rows = []
    for record in records:
        row = dict(record)
        for key in row:
            if key.startswith("measured_"):
                row[key] = None
        if row["platform"] == REFERENCE_INFO.name:
            for key in WALL_CLOCK_FIELDS:
                row[key] = None
        rows.append(json.dumps(row, sort_keys=True))
    return rows


def differing_rows(rows: List[str], expected: List[str]) -> int:
    """Rows that differ from the first pass, counting missing or extra
    rows as differing."""
    differ = sum(1 for a, b in zip(rows, expected) if a != b)
    return differ + abs(len(rows) - len(expected))


def row_failures(database) -> int:
    """Harness-failure rows plus succeeded jobs that did not validate.

    Modeled platform failures (failed-memory, crashed, not-supported)
    are correct outputs and do not count.
    """
    failed = 0
    for result in database:
        if result.status.startswith("harness-"):
            failed += 1
        elif result.succeeded and result.validated is not True:
            failed += 1
    return failed


class OutputCapture:
    """Keeps every array ``repro.engines.partitioned.run_algorithm``
    returns, with its inputs, so it can be compared with the reference
    kernel after the timed passes."""

    def __init__(self):
        import repro.engines.partitioned as partitioned

        self.outputs: List[Tuple[object, str, dict, object]] = []
        original = partitioned.run_algorithm

        def capture(graph, algorithm, params=None, **options):
            output = original(graph, algorithm, params, **options)
            self.outputs.append((graph, algorithm, dict(params or {}), output))
            return output

        self._undo = rebind(original, capture)

    def close(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def mismatches(self) -> int:
        """Captured outputs that are not byte-identical to the reference
        kernel's output on the same input."""
        from repro.algorithms.registry import run_reference

        expected = {}
        failed = 0
        for graph, algorithm, params, output in self.outputs:
            key = (id(graph), algorithm, json.dumps(params, sort_keys=True))
            if key not in expected:
                expected[key] = run_reference(algorithm, graph, params)
            reference = expected[key]
            if (output.dtype != reference.dtype
                    or output.shape != reference.shape
                    or output.tobytes() != reference.tobytes()):
                failed += 1
        return failed
