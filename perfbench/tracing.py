"""Layer spans recorded from outside the program, for the traced run.

:class:`LayerTracer` wraps the public function of each layer (the
``LAYERS`` table) so every call records a span: name, start, end, the
process it ran in and its nesting depth there. Nothing under ``src/``
changes; the wrappers replace the module and class attributes, and every
already-imported module that bound the same function with
``from ... import`` is rebound too.

Install the tracer before any pool, shard or run child forks: a forked
child inherits the wrappers and the :class:`SpanStore`. Each process
keeps its spans in memory. A forked child drops the spans it inherited
on its first record and writes its own to ``<out_dir>/spans-<pid>.jsonl``
when it exits normally; the process that created the store writes or
returns its spans when the benchmark ends (:meth:`SpanStore.gather`).
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    pid: int
    depth: int
    phase: str
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanStore:
    """Spans of one process, kept in memory; forked children flush theirs
    to ``out_dir`` at exit."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        #: Tag stamped on every span; children inherit it at fork time.
        self.phase = "measure"
        self._pid = os.getpid()
        self._spans: List[Span] = []
        self._local = threading.local()

    def _claim(self) -> None:
        pid = os.getpid()
        if pid == self._pid:
            return
        # First record in a forked child: the parent's spans and open
        # nesting were copied by the fork and are not this process's.
        self._pid = pid
        self._spans = []
        self._local = threading.local()
        multiprocessing.util.Finalize(None, self.flush, exitpriority=10)

    def enter(self) -> int:
        self._claim()
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        return depth

    def leave(self, depth: int, span: Span) -> None:
        self._local.depth = depth
        self._spans.append(span)

    def flush(self) -> None:
        """Append this process's spans to its file and forget them."""
        spans, self._spans = self._spans, []
        if not spans:
            return
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(asdict(span)) + "\n")

    def gather(self) -> List[Span]:
        """Every span recorded so far: this process's plus those the
        children have flushed."""
        spans = list(self._spans)
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            with open(path, "r", encoding="utf-8") as handle:
                spans.extend(Span(**json.loads(line)) for line in handle)
        return spans


def _arg(index: int, name: str) -> Callable:
    """Span attribute ``algorithm`` taken from a positional or keyword
    argument of the wrapped call."""

    def attrs(args, kwargs) -> Dict[str, object]:
        value = args[index] if len(args) > index else kwargs.get(name)
        return {"algorithm": str(value).lower()}

    return attrs


def _run_counters(result) -> Dict[str, object]:
    """RuntimeRunResult counters, read where execute_matrix returns."""
    return {
        "jobs": result.job_count,
        "workers": result.workers,
        "cache_hits": result.cache_stats.hits,
        "cache_misses": result.cache_stats.misses,
        "retries": result.events.count("retry"),
        "failures": len(result.failures),
        "lost": result.lost_jobs,
    }


#: (span name, module, attribute path, call attributes, result attributes)
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("datasets.materialize", "repro.harness.datasets", "Dataset.materialize",
     None, None),
    ("algorithms.reference", "repro.algorithms.registry", "run_reference",
     _arg(0, "acronym"), None),
    ("platforms.upload", "repro.platforms.base", "PlatformDriver.upload",
     None, None),
    ("platforms.execute", "repro.platforms.base", "PlatformDriver.execute",
     _arg(2, "algorithm"), None),
    ("platforms.execute", "repro.platforms.reference",
     "ReferenceDriver.execute", _arg(2, "algorithm"), None),
    ("validation.validate", "repro.algorithms.validation", "validate_output",
     None, None),
    ("granula.archive", "repro.granula.archiver", "build_archive", None, None),
    ("report.render", "repro.harness.report", "render_report", None, None),
    ("partitioned.run", "repro.engines.partitioned", "run_algorithm",
     _arg(1, "algorithm"), None),
    ("runtime.execute_matrix", "repro.runtime.executor", "execute_matrix",
     None, _run_counters),
    ("runtime.run_job_spec", "repro.runtime.pool", "run_job_spec", None, None),
)


def rebind(original, replacement) -> List[Tuple[object, str, object]]:
    """Point every ``repro``/``perfbench`` module global bound to
    ``original`` at ``replacement``; returns the undo list."""
    undo = []
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", None) or ""
        if name.split(".")[0] not in ("repro", "perfbench"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


class LayerTracer:
    """Installs and removes the span-recording wrappers."""

    def __init__(self, store: SpanStore):
        self.store = store
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, name, func, call_attrs, result_attrs):
        store = self.store

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            depth = store.enter()
            attrs = call_attrs(args, kwargs) if call_attrs else {}
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                attrs["error"] = True
                raise
            else:
                if result_attrs is not None:
                    attrs.update(result_attrs(result))
                return result
            finally:
                store.leave(depth, Span(
                    name, start, time.perf_counter(), os.getpid(), depth,
                    store.phase, attrs,
                ))

        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("layer tracer already installed")
        for name, module_name, path, call_attrs, result_attrs in LAYERS:
            module = importlib.import_module(module_name)
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(module, owner_name)
                original = vars(owner)[attr]
                setattr(owner, attr,
                        self._wrap(name, original, call_attrs, result_attrs))
                self._undo.append((owner, attr, original))
            else:
                original = getattr(module, path)
                wrapper = self._wrap(name, original, call_attrs, result_attrs)
                self._undo.extend(rebind(original, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []


def totals(spans: List[Span], phase: str = "measure") -> Dict[str, float]:
    """Seconds and call counts per layer (``<name>`` and
    ``<name>.<algorithm>``) over the spans of one phase."""
    sums: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span.phase != phase:
            continue
        keys = [span.name]
        if "algorithm" in span.attrs:
            keys.append(f"{span.name}.{span.attrs['algorithm']}")
        for key in keys:
            sums[f"{key}:s"] += span.duration
            sums[f"{key}:calls"] += 1
        for counter in ("jobs", "workers", "cache_hits", "cache_misses",
                        "retries", "failures", "lost"):
            if counter in span.attrs:
                sums[f"{span.name}:{counter}"] += span.attrs[counter]
    return sums
