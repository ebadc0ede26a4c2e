"""One-transaction migration of a legacy JSON results repository.

Through PR 9 the repository was a directory of ``{run_id}.json``
archives plus a ``.index.json`` shadow index and an ``.lock`` flock
sidecar. This module moves such a directory into a
:class:`~repro.resultsdb.store.ResultsStore` in a single transaction —
a crash (or an injected ``resultsdb.commit`` fault) mid-import leaves
the store untouched, never half-migrated — and proves losslessness by
round-tripping every imported run back to its exact archive bytes
before committing. Pre-PR-7 repositories (no index file at all) import
identically: the migration reads only the run archives, never the
index, which is retired rather than migrated.

Surfaced as ``graphalytics db import``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.exceptions import ConfigurationError
from repro.resultsdb.store import STORE_NAME, ResultsStore

__all__ = ["import_json_repository"]

#: Legacy sidecar files a JSON repository may contain; never archives.
_LEGACY_SIDECARS = (".index.json", ".lock")


def import_json_repository(
    root: Union[str, Path],
    store_path: Union[str, Path, None] = None,
    *,
    replace: bool = False,
    verify: bool = True,
) -> Dict[str, object]:
    """Import every run archive under ``root`` into the store.

    ``store_path`` defaults to ``root / results.db``, so a migrated
    directory answers ``graphalytics db --store <root>`` and takes
    ``full-run --repository <root>`` submissions.
    With ``verify`` (the default) every archive must round-trip to its
    exact source bytes before anything is written, and each stored run
    is re-serialized from SQL afterwards and compared again; the first
    check aborts with the store untouched, the second can only fail on
    a store defect and would name the run.

    Returns a summary: imported run ids, skipped sidecar names, the
    store path, and post-import store stats.
    """
    root = Path(root)
    if not root.is_dir():
        raise ConfigurationError(
            f"legacy repository {str(root)!r} is not a directory"
        )
    if store_path is None:
        store_path = root / STORE_NAME
    # Dotfiles are the legacy layout's sidecars (.index.json, .lock),
    # not run archives — run ids never start with a dot. The store has
    # no such ambiguity; this is the last place the rule matters.
    archives = sorted(
        path
        for path in root.glob("*.json")
        if not path.name.startswith(".")
    )
    skipped = sorted(
        path.name for path in root.iterdir() if path.name in _LEGACY_SIDECARS
    )
    payloads: List[Dict[str, object]] = []
    source_bytes: Dict[str, bytes] = {}
    for path in archives:
        raw = path.read_bytes()
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"legacy archive {path.name} is not valid JSON: {exc}"
            ) from exc
        metadata = payload.get("metadata")
        if not isinstance(metadata, dict) or "run_id" not in metadata:
            raise ConfigurationError(
                f"legacy archive {path.name} lacks run metadata"
            )
        if str(metadata["run_id"]) != path.stem:
            raise ConfigurationError(
                f"legacy archive {path.name} claims run id "
                f"{metadata['run_id']!r}"
            )
        if verify:
            round_trip = json.dumps(payload, indent=1).encode("utf-8")
            if round_trip != raw:
                raise ConfigurationError(
                    f"legacy archive {path.name} does not round-trip to "
                    f"its own bytes; refusing to import a repository the "
                    f"store could not reproduce losslessly"
                )
        payloads.append(payload)
        source_bytes[path.stem] = raw
    with ResultsStore(store_path) as store:
        run_ids = store.submit_payloads(payloads, replace=replace)
        if verify:
            for run_id in run_ids:
                stored = store.canonical_bytes(run_id)
                if stored != source_bytes[run_id]:
                    raise ConfigurationError(
                        f"round-trip mismatch for run {run_id!r}: the "
                        f"store would not reproduce the archive bytes"
                    )
        stats = store.stats()
    return {
        "store": str(store_path),
        "imported": run_ids,
        "skipped": skipped,
        "verified": bool(verify),
        "stats": stats,
    }
