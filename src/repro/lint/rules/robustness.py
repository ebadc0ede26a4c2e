"""Harness robustness rules: EXC001, RUN001, ROB001, ROB002, ROB003.

The harness records modeled failures (OOM, crash, SLA breach) as data;
what it must never do is *swallow* them. An over-broad ``except`` in a
retry or orchestration path can turn a failed job into a silently
missing row, corrupting the benchmark's failure statistics (paper §4.6
stress test counts failures explicitly). The concurrent runtime
sharpens the contract (RUN001): its worker and job entrypoints may
catch broadly — that is how a crashing job becomes a ``harness-*`` row
— but only if the handler demonstrably converts the exception into a
structured failure record or re-raises.

Crash-safety extends the same discipline to persistence (ROB001): a
run artifact written with ``open(..., "w")`` or ``write_text`` is
truncated before the new bytes land, so a crash mid-write destroys the
previous good copy. Every run artifact must go through
:func:`repro.ioutil.atomic_write` (write-to-temp, fsync, rename);
append-mode writes — the journal's own medium — are exempt.

The fault-injection plane tightens it once more for the service and
the concurrent runtime (ROB002): chaos testing can only exercise
writes that flow through the registered fault points in
:mod:`repro.ioutil` and :mod:`repro.runtime.journal`. A raw ``open``
write in those layers — even an append — is invisible to every seeded
chaos plan, so its ENOSPC/EIO handling is never tested and the
supervision invariants (quarantine after N attempts, bounded
re-enqueues) cannot be asserted over it.

The results store closes the set (ROB003): SQLite connections carry
their own durability contract — WAL, ``synchronous=FULL``, ``BEGIN
IMMEDIATE`` writer serialization, the ``resultsdb.commit`` fault point
— and that contract lives in exactly one place,
:class:`repro.resultsdb.store.ResultsStore`. A ``sqlite3.connect``
anywhere else is a second, incompatible opinion about the same
database file.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.core import (
    Finding,
    Module,
    Rule,
    Severity,
    names_in,
    register_rule,
)

__all__ = [
    "SwallowedExceptionRule",
    "RuntimeFailureRecordRule",
    "AtomicArtifactWriteRule",
    "FaultPointRoutedWriteRule",
    "SanctionedSqliteConnectRule",
]

#: Exception names considered over-broad for a silent handler: the
#: builtins plus the library's own base class (catching a *specific*
#: GraphalyticsError subclass is legitimate harness behavior).
_BROAD_NAMES = {"Exception", "BaseException", "GraphalyticsError"}


def _handler_names(handler: ast.ExceptHandler) -> List[str]:
    if handler.type is None:
        return []
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names = []
    for t in types:
        if isinstance(t, ast.Name):
            names.append(t.id)
        elif isinstance(t, ast.Attribute):
            names.append(t.attr)
    return names


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) for node in ast.walk(handler))


@register_rule
class SwallowedExceptionRule(Rule):
    """EXC001: broad except swallowing benchmark failures.

    A bare ``except:``, ``except Exception``, or ``except
    GraphalyticsError`` that neither re-raises nor narrows the type can
    absorb SLA violations, validation failures, and driver errors in
    harness retry paths. Catch the specific subclass you can handle, or
    re-raise after recording.
    """

    rule_id = "EXC001"
    severity = Severity.WARNING
    description = "broad except swallows GraphalyticsError in harness paths"
    scope = ("harness", "platforms", "granula")

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _reraises(node):
                continue
            if node.type is None:
                yield module.finding(
                    self, node,
                    "bare `except:` swallows every failure, including "
                    "benchmark errors; catch a specific exception",
                )
                continue
            broad = [n for n in _handler_names(node) if n in _BROAD_NAMES]
            if broad:
                yield module.finding(
                    self, node,
                    f"`except {'/'.join(broad)}` without re-raise can "
                    f"swallow benchmark failures; catch the specific "
                    f"subclass or re-raise after recording",
                )


#: Function-name tokens identifying runtime worker/job entrypoints: the
#: paths where an exception IS a job outcome and must become data.
_ENTRYPOINT_TOKENS = (
    "worker", "job", "dispatch", "task", "attempt", "envelope", "run_",
)

#: Identifier fragments that show the handler produces a structured
#: failure record (JobFailure, AttemptRecord, failure envelopes, the
#: scheduler's record_attempt / attempt_failed transitions).
_RECORD_TOKENS = ("fail", "attempt")


def _innermost_function(module: Module, node: ast.AST) -> Optional[str]:
    current = module.parent(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current.name
        current = module.parent(current)
    return None


def _records_failure(handler: ast.ExceptHandler) -> bool:
    found = names_in(handler)
    return any(
        token in name.lower() for name in found for token in _RECORD_TOKENS
    )


@register_rule
class RuntimeFailureRecordRule(Rule):
    """RUN001: runtime entrypoint drops an exception without a record.

    In ``repro.runtime``, a worker loop or job-execution function that
    catches broadly must turn the exception into a structured failure
    record (an :class:`~repro.runtime.jobs.AttemptRecord` /
    :class:`~repro.runtime.jobs.JobFailure` / failure envelope) or
    re-raise. Anything else silently loses a job — the exact failure
    mode the runtime exists to make impossible.
    """

    rule_id = "RUN001"
    severity = Severity.ERROR
    description = (
        "runtime worker/job entrypoint must re-raise or convert "
        "exceptions into structured failure records"
    )
    scope = ("runtime",)

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            function = _innermost_function(module, node)
            if function is None or not any(
                token in function.lower() for token in _ENTRYPOINT_TOKENS
            ):
                continue
            handled = _handler_names(node)
            if node.type is not None and not any(
                name in _BROAD_NAMES for name in handled
            ):
                continue  # narrow handler: not a job-outcome path
            if _reraises(node) or _records_failure(node):
                continue
            caught = "/".join(handled) if handled else "bare except"
            yield module.finding(
                self, node,
                f"`{caught}` in runtime entrypoint `{function}` neither "
                f"re-raises nor produces a structured failure record "
                f"(AttemptRecord/JobFailure/failure envelope); the job "
                f"would be silently lost",
            )


#: Path-like methods that replace a file's contents in place.
_WRITE_METHODS = ("write_text", "write_bytes")


def _open_mode(call: ast.Call, *, is_method: bool) -> Optional[ast.expr]:
    """The mode expression of an ``open``-shaped call, if present.

    Builtin ``open(path, mode)`` takes the mode second; the
    ``Path.open(mode)`` method takes it first.
    """
    index = 0 if is_method else 1
    if len(call.args) > index:
        return call.args[index]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return None


def _is_truncating_mode(mode: Optional[ast.expr]) -> bool:
    # Only constant modes are decidable; "w" and "x" truncate/replace,
    # append and read modes do not.
    return (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and any(flag in mode.value for flag in ("w", "x"))
    )


def _truncating_writes(tree: ast.AST) -> Iterator[Tuple[ast.Call, str]]:
    """Every in-place truncating write under ``tree``, with a short
    description of the offending call — shared by the per-file pass and
    the interprocedural taint pass."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _WRITE_METHODS:
            yield node, f".{func.attr}()"
            continue
        is_open = (
            isinstance(func, ast.Name) and func.id == "open"
        ) or (
            isinstance(func, ast.Attribute) and func.attr == "open"
        )
        if not is_open:
            continue
        mode = _open_mode(node, is_method=isinstance(func, ast.Attribute))
        if _is_truncating_mode(mode):
            yield node, f"open(..., {mode.value!r})"  # type: ignore[union-attr]


@register_rule
class AtomicArtifactWriteRule(Rule):
    """ROB001: run artifact written without ``atomic_write``.

    ``open(path, "w")`` truncates the destination before the new bytes
    are written, and ``Path.write_text`` is the same operation spelled
    differently: a crash (SIGKILL, OOM) between truncate and close
    leaves a torn or empty file where the last good artifact used to
    be. Resumable runs depend on every results database, report,
    baseline, and journal checkpoint surviving a crash, so run
    artifacts must be produced via :func:`repro.ioutil.atomic_write`
    (temp file + fsync + atomic rename). Append-mode opens are exempt:
    appends never destroy prior records, and the write-ahead journal
    itself is an append-only file.
    """

    rule_id = "ROB001"
    severity = Severity.ERROR
    description = (
        "run artifacts must be written via repro.ioutil.atomic_write, "
        "not in-place open('w')/write_text"
    )
    scope = ("harness", "runtime", "granula", "lint")

    def check(self, module: Module) -> Iterator[Finding]:
        for node, desc in _truncating_writes(module.tree):
            if desc.startswith("."):
                yield module.finding(
                    self, node,
                    f"`{desc}` replaces the file non-atomically; "
                    f"a crash mid-write leaves a torn artifact — use "
                    f"repro.ioutil.atomic_write",
                )
            else:
                yield module.finding(
                    self, node,
                    f"`{desc}` truncates in place; a "
                    f"crash mid-write leaves a torn run artifact — use "
                    f"repro.ioutil.atomic_write (append modes are exempt)",
                )

    def check_project(self, project) -> Iterator[Finding]:
        """Interprocedural pass: an in-scope module that routes its
        write through a helper in an *out-of-scope* module (``from
        repro.util import dump_json``) still tears the artifact on
        crash — the per-file pass never sees the helper's ``open``.
        Taint every out-of-scope function containing a truncating
        write, close over reverse call edges, and flag the in-scope
        call sites that cross into the tainted region.
        """
        scope = project.scope_overrides.get(self.rule_id)
        tainted: Dict[str, str] = {}
        for info in project.modules.values():
            if self.applies_to(info.module, scope):
                continue  # in-scope writes are the per-file pass's job
            for node, desc in _truncating_writes(info.module.tree):
                fn = info.function_at(node)
                if fn is not None:
                    tainted.setdefault(fn.key, desc)
        if not tainted:
            return
        sink = self._sink_origins(project.call_graph, tainted)
        for site in project.call_graph.call_sites:
            callee = project.call_graph.nodes.get(site.callee)
            caller = project.call_graph.nodes.get(site.caller)
            if callee is None or caller is None or site.callee not in sink:
                continue
            if self.applies_to(callee.module.module, scope):
                continue  # the callee's own write is flagged directly
            if not self.applies_to(caller.module.module, scope):
                continue  # only flag where the taint enters scoped code
            root = sink[site.callee]
            yield caller.module.module.finding(
                self, site.node,
                f"call to `{site.callee}` ends in a non-atomic "
                f"`{tainted[root]}` (inside `{root}`); the artifact is "
                f"torn on crash exactly as if written here — route the "
                f"write through repro.ioutil.atomic_write",
            )

    @staticmethod
    def _sink_origins(graph, tainted: Dict[str, str]) -> Dict[str, str]:
        """Every function from which a tainted writer is reachable,
        mapped to the tainted function it first reaches."""
        origin = {key: key for key in tainted}
        queue = deque(sorted(tainted))
        while queue:
            current = queue.popleft()
            for prev in sorted(graph.reverse.get(current, ())):
                if prev not in origin:
                    origin[prev] = origin[current]
                    queue.append(prev)
        return origin


#: Modules whose file writes ARE the fault-injection plane: the
#: ``atomic_write`` helper (every write/fsync/replace is a registered
#: fault point) and the run journal (its append path routes through
#: ``journal.append.*``). Everything else must call into them.
_PLANE_MODULE_STEMS = frozenset({"ioutil", "journal"})


def _is_write_mode(mode: Optional[ast.expr]) -> bool:
    # Any constant mode that can emit bytes: truncate ("w"), create
    # ("x"), append ("a"), or update ("+"). Dynamic modes stay
    # undecidable and unflagged, as in ROB001.
    return (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and any(flag in mode.value for flag in ("w", "x", "a", "+"))
    )


def _raw_writes(tree: ast.AST) -> Iterator[Tuple[ast.Call, str]]:
    """Every file-writing call under ``tree`` — including appends —
    with a short description of the offending call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _WRITE_METHODS:
            yield node, f".{func.attr}()"
            continue
        is_open = (
            isinstance(func, ast.Name) and func.id == "open"
        ) or (
            isinstance(func, ast.Attribute) and func.attr == "open"
        )
        if not is_open:
            continue
        mode = _open_mode(node, is_method=isinstance(func, ast.Attribute))
        if _is_write_mode(mode):
            yield node, f"open(..., {mode.value!r})"  # type: ignore[union-attr]


#: The one package allowed to open SQLite connections: the results
#: store owns the pragmas (WAL, synchronous=FULL), the BEGIN IMMEDIATE
#: transaction discipline, and the ``resultsdb.commit`` fault point. A
#: connection opened anywhere else silently opts out of all three.
_SQLITE_SANCTUARY = "resultsdb"


def _in_resultsdb(module: Module) -> bool:
    return _SQLITE_SANCTUARY in module.segments


def _sqlite_connect_calls(tree: ast.AST) -> Iterator[Tuple[ast.Call, str]]:
    """Every call under ``tree`` that resolves to ``sqlite3.connect``,
    with a short description — shared by the per-file pass and the
    interprocedural taint pass. Tracks ``import sqlite3`` aliases and
    ``from sqlite3 import connect`` (with renames); attribute calls on
    other receivers (``client.connect()``) are not sqlite."""
    module_aliases = {"sqlite3"}
    connect_aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "sqlite3":
                    module_aliases.add(alias.asname or "sqlite3")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "sqlite3":
                for alias in node.names:
                    if alias.name == "connect":
                        connect_aliases.add(alias.asname or "connect")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "connect"
            and isinstance(func.value, ast.Name)
            and func.value.id in module_aliases
        ):
            yield node, f"{func.value.id}.connect(...)"
        elif isinstance(func, ast.Name) and func.id in connect_aliases:
            yield node, f"{func.id}(...)"


@register_rule
class SanctionedSqliteConnectRule(Rule):
    """ROB003: SQLite connection opened outside ``repro.resultsdb``.

    The results store is *one* database with one durability contract:
    WAL mode, ``synchronous=FULL``, writers serialized by ``BEGIN
    IMMEDIATE``, and every COMMIT threaded through the registered
    ``resultsdb.commit`` fault point. A ``sqlite3.connect`` anywhere
    else produces a connection with none of those properties — default
    journal mode, autocommit surprises, and writes no chaos plan can
    reach — silently forking the store's semantics. Like ROB002, the
    rule is interprocedural: handing the path to an out-of-scope helper
    that opens the connection for you is the same hole.
    """

    rule_id = "ROB003"
    severity = Severity.ERROR
    description = (
        "sqlite3 connections may only be opened inside repro.resultsdb; "
        "everywhere else must go through ResultsStore"
    )
    scope = (
        "harness", "service", "granula", "runtime", "cli", "faults",
        "engines", "benchmarks",
    )

    def check(self, module: Module) -> Iterator[Finding]:
        if _in_resultsdb(module):
            return  # the sanctioned layer: connections live here
        for node, desc in _sqlite_connect_calls(module.tree):
            yield module.finding(
                self, node,
                f"`{desc}` opens a raw SQLite connection outside "
                f"repro.resultsdb: it skips the store's WAL/synchronous "
                f"pragmas, its BEGIN IMMEDIATE writer discipline, and "
                f"the resultsdb.commit fault point — go through "
                f"repro.resultsdb.ResultsStore",
            )

    def check_project(self, project) -> Iterator[Finding]:
        """Interprocedural pass: an in-scope module that opens its
        connection through a helper in an out-of-scope module (``from
        repro.util.db import open_db``) forks the store's semantics
        just the same — the per-file pass never sees the helper's
        ``connect``. Same taint closure as ROB001/ROB002; helpers
        inside ``repro.resultsdb`` are the sanctioned surface and never
        taint their callers.
        """
        scope = project.scope_overrides.get(self.rule_id)
        tainted: Dict[str, str] = {}
        for info in project.modules.values():
            if _in_resultsdb(info.module):
                continue  # ResultsStore's own connect is the point
            if self.applies_to(info.module, scope):
                continue  # in-scope connects are the per-file pass's job
            for node, desc in _sqlite_connect_calls(info.module.tree):
                fn = info.function_at(node)
                if fn is not None:
                    tainted.setdefault(fn.key, desc)
        if not tainted:
            return
        sink = AtomicArtifactWriteRule._sink_origins(
            project.call_graph, tainted
        )
        for site in project.call_graph.call_sites:
            callee = project.call_graph.nodes.get(site.callee)
            caller = project.call_graph.nodes.get(site.caller)
            if callee is None or caller is None or site.callee not in sink:
                continue
            if self.applies_to(callee.module.module, scope):
                continue  # the callee's own connect is flagged directly
            caller_module = caller.module.module
            if not self.applies_to(caller_module, scope):
                continue  # only flag where the connection enters scoped code
            if _in_resultsdb(caller_module):
                continue
            root = sink[site.callee]
            yield caller_module.finding(
                self, site.node,
                f"call to `{site.callee}` ends in a raw "
                f"`{tainted[root]}` (inside `{root}`) outside "
                f"repro.resultsdb — the connection skips the store's "
                f"pragmas, transactions, and the resultsdb.commit fault "
                f"point; go through repro.resultsdb.ResultsStore",
            )


@register_rule
class FaultPointRoutedWriteRule(Rule):
    """ROB002: service/runtime write that bypasses the fault plane.

    The chaos harness can only inject ENOSPC/EIO/failed-fsync at the
    *registered fault points* — the ones ``atomic_write`` and the run
    journal thread every byte through. A raw ``open(..., "w")`` (or
    append, or ``write_text``) in service or runtime code is a write
    the seeded fault plans can never reach: its error handling is
    untestable, and a full disk or flaky device hits it in production
    as the first-ever exercise of that path. Unlike ROB001, append
    modes are **not** exempt here — an unreachable append is just as
    untested as an unreachable truncate. The sanctioned media are
    :func:`repro.ioutil.atomic_write` (pass ``fault_point=`` for a
    site-specific point) and :class:`repro.runtime.journal.RunJournal`.
    """

    rule_id = "ROB002"
    severity = Severity.ERROR
    description = (
        "service/runtime file writes must route through the "
        "fault-point-aware ioutil helpers or the run journal"
    )
    scope = ("service", "runtime")

    def check(self, module: Module) -> Iterator[Finding]:
        if module.stem in _PLANE_MODULE_STEMS:
            return  # the plane itself: its writes carry the fault points
        for node, desc in _raw_writes(module.tree):
            yield module.finding(
                self, node,
                f"`{desc}` bypasses the fault-injection plane: no chaos "
                f"plan can reach it, so its ENOSPC/EIO handling is never "
                f"exercised — route the write through "
                f"repro.ioutil.atomic_write (with fault_point=...) or "
                f"the run journal",
            )

    def check_project(self, project) -> Iterator[Finding]:
        """Interprocedural pass: a service/runtime module that hands
        its bytes to a helper in an out-of-scope module still leaves
        the plane — the helper's raw ``open`` is exactly as unreachable
        for a chaos plan as one written inline. Same taint closure as
        ROB001, over the broader any-write matcher.
        """
        scope = project.scope_overrides.get(self.rule_id)
        tainted: Dict[str, str] = {}
        for info in project.modules.values():
            if info.module.stem in _PLANE_MODULE_STEMS:
                continue  # atomic_write's own temp-file write is the plane
            if self.applies_to(info.module, scope):
                continue  # in-scope writes are the per-file pass's job
            for node, desc in _raw_writes(info.module.tree):
                fn = info.function_at(node)
                if fn is not None:
                    tainted.setdefault(fn.key, desc)
        if not tainted:
            return
        sink = AtomicArtifactWriteRule._sink_origins(
            project.call_graph, tainted
        )
        for site in project.call_graph.call_sites:
            callee = project.call_graph.nodes.get(site.callee)
            caller = project.call_graph.nodes.get(site.caller)
            if callee is None or caller is None or site.callee not in sink:
                continue
            if self.applies_to(callee.module.module, scope):
                continue  # the callee's own write is flagged directly
            caller_module = caller.module.module
            if not self.applies_to(caller_module, scope):
                continue  # only flag where bytes leave scoped code
            if caller_module.stem in _PLANE_MODULE_STEMS:
                continue
            root = sink[site.callee]
            yield caller_module.finding(
                self, site.node,
                f"call to `{site.callee}` ends in a raw "
                f"`{tainted[root]}` (inside `{root}`) that no chaos plan "
                f"can reach — route the write through "
                f"repro.ioutil.atomic_write or the run journal",
            )
