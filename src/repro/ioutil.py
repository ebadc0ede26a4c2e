"""Crash-safe file persistence: the one `atomic_write` everything uses.

A benchmark run is only as durable as its artifacts. A plain
``open(path, "w")`` that dies mid-write — OOM kill, SIGKILL, power loss
— leaves a truncated, unparseable file where a valid one used to be,
which for a results database means the whole run is lost (exactly the
failure mode the paper's multi-hour robustness experiments, §2.3/§4.6,
cannot afford). :func:`atomic_write` gives every writer the standard
crash-consistency recipe instead:

1. write the full payload to a temporary file *in the same directory*
   (same filesystem, so the final rename cannot degrade to a copy);
2. flush and ``fsync`` the temp file, so the bytes are on disk before
   the name is;
3. ``os.replace`` it over the destination — atomic on POSIX and
   Windows, so readers observe either the old complete file or the new
   complete file, never a mixture;
4. best-effort ``fsync`` of the containing directory, so the rename
   itself survives a crash.

Lint rule ROB001 enforces statically that run-artifact writers in
``harness``, ``runtime``, ``granula``, and ``lint`` go through this
helper rather than bare ``open(..., "w")`` / ``write_text``; ROB002
extends the same discipline to service and runtime spool writers.

Every write is threaded through the named fault points of
:mod:`repro.faults.points` (``ioutil.atomic_write.write`` / ``.fsync``
/ ``.replace``), so chaos plans can fail the payload write, the flush,
or the rename independently — and because the failure always lands on
the temp file or the rename, an injected fault never tears the
destination: the atomicity contract is exactly what the fault suite
verifies. Callers guarding a domain artifact (the cache spill) pass
``fault_point=`` to expose a site-specific point that fires before any
bytes move.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Optional, Union

from repro.faults import points as fault_points

__all__ = ["atomic_write", "fsync_directory"]


def fsync_directory(directory: Union[str, Path]) -> None:
    """Flush a directory's entries to disk (best-effort, POSIX only).

    After ``os.replace`` the *file* is durable but the directory entry
    pointing at it may not be; syncing the directory closes that window.
    Platforms that cannot open directories simply skip it.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(
    path: Union[str, Path],
    data: Union[str, bytes],
    *,
    encoding: str = "utf-8",
    durable: bool = True,
    fault_point: Optional[str] = None,
) -> Path:
    """Write ``data`` to ``path`` atomically; returns the path.

    The destination either keeps its previous content or holds the new
    content in full — a crash at any point never leaves a torn file.
    ``durable=False`` skips the fsyncs (for tests and scratch output
    where atomicity matters but the extra flushes do not).
    ``fault_point`` names an additional registered injection point
    checked before any bytes are written, so chaos plans can target
    one artifact (the cache spill) without failing every atomic write
    in the process.
    """
    path = Path(path)
    if fault_point is not None:
        fault_points.check(fault_point)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = data.encode(encoding) if isinstance(data, str) else data
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            fault_points.write_through(
                "ioutil.atomic_write.write", handle, payload
            )
            handle.flush()
            if durable:
                fault_points.check("ioutil.atomic_write.fsync")
                os.fsync(handle.fileno())
        fault_points.check("ioutil.atomic_write.replace")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if durable:
        fsync_directory(path.parent)
    return path
