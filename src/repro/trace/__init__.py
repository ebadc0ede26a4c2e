"""``repro.trace`` — the span-based tracing core of the reproduction.

One observability substrate for the whole stack (see
docs/observability.md): engines emit per-superstep/per-iteration spans,
platform drivers emit upload/execute sub-phase spans, the runtime emits
dispatch/attempt spans plus cache and journal counters, and the harness
wraps every benchmark job in a ``job`` span carrying its Tproc/makespan
metrics. Granula consumes the result: measured spans become
``source="measured"`` archive records, with the paper-model
:class:`~repro.granula.model.ChildRule` fractions kept only as a
fallback for unmeasured children.

Design pillars:

* an injectable monotonic :class:`Clock` (``FakeClock`` for
  deterministic tests) owned by a per-process :class:`Tracer`;
* deterministic span ids and a bounded finished-span buffer;
* JSONL export/import via :func:`repro.ioutil.atomic_write`;
* a merge step (:mod:`repro.trace.merge`) that re-bases worker-process
  spans onto the dispatcher's timeline so cross-process durations are
  comparable.
"""

from repro.trace.clock import Clock, FakeClock, MonotonicClock
from repro.trace.merge import (
    SpanNode,
    rebase_spans,
    render_tree,
    span_paths,
    span_tree,
    validate_tree,
)
from repro.trace.tracer import (
    Span,
    Tracer,
    counter,
    current_tracer,
    read_span_dicts,
    read_trace,
    set_tracer,
    span,
    use_tracer,
    write_trace,
)

__all__ = [
    "Clock",
    "MonotonicClock",
    "FakeClock",
    "Span",
    "SpanNode",
    "Tracer",
    "current_tracer",
    "set_tracer",
    "use_tracer",
    "span",
    "counter",
    "read_span_dicts",
    "read_trace",
    "write_trace",
    "rebase_spans",
    "span_tree",
    "span_paths",
    "validate_tree",
    "render_tree",
]
