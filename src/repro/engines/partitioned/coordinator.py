"""The partitioned coordinator: barriers, merge, supervision.

:class:`PartitionedEngine` drives the reference kernels' iterations with
the per-vertex sweep of each iteration split across shards. Each
barrier:

1. **compute** — the coordinator broadcasts the previous global state
   as one numpy array and every shard computes the next state of its
   owned vertices (a ``shard-compute`` span, rebased onto the
   coordinator's timeline via the clock-offset handshake);
2. **barrier-wait** — per shard, the gap between its reply and the
   slowest shard's reply (one ``barrier-wait`` span per shard): the
   straggler cost that strong-scaling curves are made of;
3. **exchange** — the coordinator scatters the owned slices into the
   next global array (an ``exchange`` span) and then repeats the
   reference kernel's global arithmetic on it (PageRank's dangling-mass
   fold, WCC's pointer jumping, every convergence test).

Two transports run the same :class:`~repro.engines.partitioned.shard.
ShardState` logic: ``inline`` (in-process, for fast deterministic
tests) and ``pipes`` (real fork-context worker processes with the
runtime pool's private-pipe discipline). Shards hold no state between
barriers, so pipes supervision is plain: when a shard dies
mid-superstep (crash, OOM kill, chaos plan) the coordinator respawns it,
re-inits it, and re-sends the in-flight command — bounded by a
:class:`~repro.service.supervise.RetryPolicy` budget — and the run
completes bit-identically.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing.connection
from typing import Callable, Dict, Mapping, Optional

import numpy as np

from repro.algorithms.bfs import BFS_UNREACHABLE
from repro.algorithms.cdlp import _label_ranks
from repro.algorithms.registry import get_algorithm
from repro.algorithms.sssp import SSSP_UNREACHABLE
from repro.engines.partitioned.partition import PartitionSet, partition_graph
from repro.engines.partitioned.shard import (
    ShardState,
    graph_payload,
    shard_main,
)
from repro.exceptions import (
    ConfigurationError,
    GenerationError,
    GraphalyticsError,
    GraphFormatError,
)
from repro.graph.graph import Graph
from repro.runtime.pool import default_mp_context
from repro.service.supervise import RetryPolicy
from repro.trace import Span, current_tracer, rebase_spans

__all__ = ["PartitionedEngine", "ShardFailure"]

#: One barrier: ``sweep(superstep, state, dtype=None)`` -> next state.
Sweep = Callable[..., np.ndarray]


class ShardFailure(GraphalyticsError):
    """A shard failed permanently (bug, or supervision budget spent)."""


class _InlineTransport:
    """Shards as in-process objects: same logic, no processes.

    The parity matrix runs through this — partition, sweep, merge, and
    termination behavior are identical to pipes; only the process
    boundary (and therefore supervision) is elided.
    """

    def __init__(self, graph: Graph, partition_set: PartitionSet, algorithm: str):
        self.shards: Dict[int, ShardState] = {
            p.shard_id: ShardState(graph, p.owned, algorithm)
            for p in partition_set.shards
        }

    def broadcast(
        self, command: Dict[str, object], parent_span=None
    ) -> Dict[int, np.ndarray]:
        tracer = current_tracer()
        bodies: Dict[int, np.ndarray] = {}
        for shard_id in sorted(self.shards):
            with tracer.span(
                "shard-compute", shard=shard_id, superstep=command["superstep"],
            ):
                bodies[shard_id] = self.shards[shard_id].step(
                    command["superstep"], command["state"]
                )
        return bodies

    def shutdown(self) -> None:
        self.shards.clear()


class _ShardHandle:
    """Bookkeeping for one shard worker process."""

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.process = None
        self.task_send = None
        self.result_recv = None
        self.attempts = 1

    def close(self) -> None:
        for conn_name in ("task_send", "result_recv"):
            conn = getattr(self, conn_name)
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
                setattr(self, conn_name, None)


class _PipesTransport:
    """Shards as worker processes behind private pipes, supervised."""

    def __init__(
        self,
        graph: Graph,
        partition_set: PartitionSet,
        algorithm: str,
        *,
        retry: RetryPolicy,
        chaos_plan: Optional[Dict[str, object]] = None,
        context=None,
    ):
        self.partition_set = partition_set
        self.algorithm = algorithm
        self.retry = retry
        self.clock = current_tracer().clock
        self._ctx = context or default_mp_context()
        self._graph_payload = graph_payload(graph)
        self._handles: Dict[int, _ShardHandle] = {}
        self.respawns = 0
        for p in partition_set.shards:
            handle = _ShardHandle(p.shard_id)
            self._handles[p.shard_id] = handle
            self._spawn(handle)
            # First launch arms the chaos plan; relaunches never re-arm
            # it (fault counters are per-process — re-arming would kill
            # every attempt and defeat supervision).
            self._send(p.shard_id, self._init_payload(p.shard_id, chaos=chaos_plan))
        self._await_replies(dict.fromkeys(self._handles, None), parent_span=None)

    # -- process lifecycle -------------------------------------------------

    def _spawn(self, handle: _ShardHandle) -> None:
        handle.close()
        result_recv, result_send = self._ctx.Pipe(duplex=False)
        task_recv, task_send = self._ctx.Pipe(duplex=False)
        handle.task_send = task_send
        handle.result_recv = result_recv
        handle.process = self._ctx.Process(
            target=shard_main,
            name=f"graphalytics-shard-{handle.shard_id}",
            args=(handle.shard_id, task_recv, result_send),
            daemon=True,
        )
        handle.process.start()
        # Close the parent's copies of the child-held ends so EOF is
        # observable on both sides (same discipline as the worker pool).
        result_send.close()
        task_recv.close()

    def _init_payload(self, shard_id: int, *, chaos=None) -> Dict[str, object]:
        return {
            "cmd": "init",
            "graph": self._graph_payload,
            "owned": self.partition_set.shards[shard_id].owned,
            "algorithm": self.algorithm,
            "chaos": chaos,
        }

    def _send(self, shard_id: int, payload: Dict[str, object]) -> None:
        # The coordinator-clock send stamp; the shard subtracts its own
        # receive stamp to produce the rebase offset for its spans.
        self._handles[shard_id].task_send.send((payload, self.clock.now()))

    # -- supervised exchange ----------------------------------------------

    def broadcast(
        self, command: Dict[str, object], parent_span=None
    ) -> Dict[int, np.ndarray]:
        for shard_id in sorted(self._handles):
            self._send(shard_id, command)
        return self._await_replies(
            dict.fromkeys(self._handles, command), parent_span=parent_span
        )

    def _await_replies(
        self,
        outstanding: Dict[int, Optional[Dict[str, object]]],
        *,
        parent_span,
    ) -> Dict[int, np.ndarray]:
        """Collect one reply per shard, supervising deaths.

        ``outstanding`` maps shard id -> the in-flight command (``None``
        during init, which needs no resend payload — a shard that dies
        in init is re-inited directly). Emits per-shard ``barrier-wait``
        spans once the last reply lands.
        """
        tracer = current_tracer()
        outstanding = dict(outstanding)
        bodies: Dict[int, np.ndarray] = {}
        arrivals: Dict[int, float] = {}
        while outstanding:
            conns = {
                handle.result_recv: shard_id
                for shard_id, handle in sorted(self._handles.items())
                if shard_id in outstanding and handle.result_recv is not None
            }
            ready = multiprocessing.connection.wait(list(conns), timeout=0.25)
            for conn in ready:
                shard_id = conns[conn]
                try:
                    envelope = conn.recv()
                except (EOFError, OSError):
                    self._handles[shard_id].close()
                    continue  # death handled by the liveness sweep below
                self._ingest(
                    shard_id, envelope, bodies, arrivals, outstanding,
                    parent_span, tracer,
                )
            for shard_id in sorted(outstanding):
                handle = self._handles[shard_id]
                if handle.process is not None and handle.process.is_alive():
                    continue
                # Dead — but drain any reply that beat the death.
                drained = False
                if handle.result_recv is not None and handle.result_recv.poll(0):
                    try:
                        envelope = handle.result_recv.recv()
                    except (EOFError, OSError):
                        envelope = None
                    if envelope is not None:
                        self._ingest(
                            shard_id, envelope, bodies, arrivals,
                            outstanding, parent_span, tracer,
                        )
                        drained = True
                if not drained:
                    self._supervise(shard_id, outstanding.get(shard_id))
        if parent_span is not None and arrivals:
            barrier_end = max(arrivals.values())
            for shard_id, arrived in sorted(arrivals.items()):
                tracer.record(
                    Span(
                        name="barrier-wait",
                        span_id=tracer._new_id(),
                        trace_id=tracer.trace_id,
                        parent_id=parent_span.span_id,
                        start=arrived,
                        end=barrier_end,
                        process=tracer.process,
                        attributes={"shard": shard_id},
                    )
                )
        return bodies

    def _ingest(
        self, shard_id, envelope, bodies, arrivals, outstanding,
        parent_span, tracer,
    ) -> None:
        if envelope.get("event") == "fail":
            raise ShardFailure(
                f"shard {shard_id} failed: {envelope.get('detail')}\n"
                f"{envelope.get('traceback', '')}"
            )
        offset = float(envelope.get("clock_offset", 0.0))
        shard_spans = [
            Span.from_dict(record) for record in envelope.get("spans", [])
        ]
        for span in rebase_spans(shard_spans, offset, parent=parent_span):
            tracer.record(span)
        bodies[shard_id] = envelope.get("body")
        arrivals[shard_id] = tracer.clock.now()
        outstanding.pop(shard_id, None)

    def _supervise(self, shard_id: int, inflight: Optional[Dict[str, object]]) -> None:
        """A shard died holding a command: respawn, re-init, resend."""
        handle = self._handles[shard_id]
        handle.attempts += 1
        if self.retry.exhausted(handle.attempts):
            raise ShardFailure(
                f"shard {shard_id} died {handle.attempts} times; "
                f"supervision budget ({self.retry.max_attempts}) spent"
            )
        self.clock.sleep(self.retry.backoff(handle.attempts - 1))
        self.respawns += 1
        self._spawn(handle)
        self._send(shard_id, self._init_payload(shard_id))
        # Block for the init ack, then re-send the in-flight command;
        # the outer loop keeps waiting for its reply as usual.
        while True:
            if handle.result_recv.poll(0.25):
                try:
                    ack = handle.result_recv.recv()
                except (EOFError, OSError):
                    ack = None
                if ack is not None and ack.get("event") == "fail":
                    raise ShardFailure(
                        f"shard {shard_id} failed during supervised re-init: "
                        f"{ack.get('detail')}"
                    )
                if ack is not None:
                    break
            if handle.process is None or not handle.process.is_alive():
                # Died again before acking init — recurse into the
                # budget-bounded path.
                self._supervise(shard_id, inflight)
                return
        if inflight is not None:
            self._send(shard_id, inflight)

    def shutdown(self) -> None:
        for shard_id in sorted(self._handles):
            handle = self._handles[shard_id]
            if handle.process is not None and handle.process.is_alive():
                try:
                    handle.task_send.send(None)
                except (OSError, ValueError):
                    handle.process.terminate()
        for shard_id in sorted(self._handles):
            handle = self._handles[shard_id]
            if handle.process is not None:
                handle.process.join(timeout=5.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=5.0)
            handle.close()
        self._handles.clear()


def _bound_params(
    graph: Graph, algorithm: str, params: Optional[Mapping[str, object]]
) -> Dict[str, object]:
    """The algorithm loop's keyword arguments, rejected wherever
    :func:`repro.algorithms.run_reference` rejects them, with the same
    exception types — checked before any shard is spawned."""
    params = dict(params or {})
    unknown = set(params) - set(get_algorithm(algorithm).parameters)
    if unknown:
        raise ConfigurationError(
            f"{algorithm}: unknown parameters {sorted(unknown)}"
        )
    if algorithm in ("bfs", "sssp"):
        source = params.get("source_vertex")
        if source is None:
            raise ConfigurationError(
                f"{algorithm} requires a source_vertex parameter"
            )
        if algorithm == "sssp" and not graph.is_weighted:
            raise GraphFormatError("SSSP requires a weighted graph")
        if not graph.has_vertex(source):
            raise GraphFormatError(
                f"{algorithm.upper()} source vertex {source} not in graph"
            )
        weights = graph.out_weights
        if algorithm == "sssp" and len(weights) and float(weights.min()) < 0:
            raise GraphFormatError("SSSP requires non-negative edge weights")
    if params.get("iterations", 0) < 0:
        raise GenerationError(
            f"iterations must be >= 0, got {params['iterations']}"
        )
    if not 0.0 <= params.get("damping", 0.0) <= 1.0:
        raise GenerationError(
            f"damping must be in [0,1], got {params['damping']}"
        )
    return params


# -- the reference kernels' loops, one sweep per barrier -------------------


def _pagerank(graph: Graph, sweep: Sweep, iterations: int = 30,
              damping: float = 0.85) -> np.ndarray:
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.float64)
    out_degree = graph.out_degrees().astype(np.float64)
    dangling = out_degree == 0
    rank = np.full(n, 1.0 / n, dtype=np.float64)
    base = (1.0 - damping) / n
    for iteration in range(iterations):
        contrib = np.zeros(n, dtype=np.float64)
        np.divide(rank, out_degree, out=contrib, where=~dangling)
        incoming = sweep(iteration, contrib)
        dangling_share = rank[dangling].sum() / n
        rank = base + damping * (incoming + dangling_share)
    return rank


def _bfs(graph: Graph, sweep: Sweep, source_vertex: int) -> np.ndarray:
    depth = np.full(graph.num_vertices, BFS_UNREACHABLE, dtype=np.int64)
    depth[graph.index_of(source_vertex)] = 0
    for level in itertools.count():
        reached = sweep(level, depth)
        if np.array_equal(reached, depth):
            return depth
        depth = reached


def _sssp(graph: Graph, sweep: Sweep, source_vertex: int) -> np.ndarray:
    # Jacobi min-plus relaxation to the same fixpoint the reference
    # kernel's frontier relaxation reaches, so distances match bit for bit.
    dist = np.full(graph.num_vertices, SSSP_UNREACHABLE, dtype=np.float64)
    dist[graph.index_of(source_vertex)] = 0.0
    for superstep in itertools.count():
        relaxed = sweep(superstep, dist)
        if np.array_equal(relaxed, dist):
            return dist
        dist = relaxed


def _wcc(graph: Graph, sweep: Sweep) -> np.ndarray:
    labels = np.arange(graph.num_vertices, dtype=np.int64)
    for superstep in itertools.count():
        new_labels = sweep(superstep, labels)
        while True:
            jumped = new_labels[new_labels]
            if np.array_equal(jumped, new_labels):
                break
            new_labels = jumped
        if np.array_equal(new_labels, labels):
            return graph.vertex_ids[labels]
        labels = new_labels


def _cdlp(graph: Graph, sweep: Sweep, iterations: int = 10) -> np.ndarray:
    labels, ids_by_rank = _label_ranks(graph)
    for iteration in range(iterations):
        updated = sweep(iteration, labels)
        if np.array_equal(updated, labels):
            break
        labels = updated
    return ids_by_rank[labels]


def _lcc(graph: Graph, sweep: Sweep) -> np.ndarray:
    return sweep(0, None, np.float64)


_LOOPS = {
    "pr": _pagerank, "bfs": _bfs, "sssp": _sssp,
    "wcc": _wcc, "cdlp": _cdlp, "lcc": _lcc,
}


class PartitionedEngine:
    """Vertex-partitioned execution of the six reference kernels.

    Bit-identity contract: for any ``partitions`` count and either
    partition ``strategy``, the returned array is byte-for-byte equal to
    :func:`repro.algorithms.run_reference`'s (enforced by
    ``tests/engines/test_partitioned_parity.py``).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        partitions: int = 2,
        strategy: str = "hash",
        transport: str = "pipes",
        chaos_plan: Optional[Dict[str, object]] = None,
        retry: Optional[RetryPolicy] = None,
        context=None,
    ):
        self.graph = graph
        self.partition_set = partition_graph(graph, partitions, strategy)
        self.transport_kind = transport
        self.chaos_plan = chaos_plan
        self.retry = retry or RetryPolicy(max_attempts=3, backoff_base=0.05)
        self._context = context
        if transport not in ("pipes", "inline"):
            raise ConfigurationError(
                f"unknown partitioned transport {transport!r}"
            )
        #: Supervised shard relaunches during the last run.
        self.respawns = 0

    def run(
        self, algorithm: str, params: Optional[Mapping[str, object]] = None
    ) -> np.ndarray:
        algorithm = algorithm.lower()
        kwargs = _bound_params(self.graph, algorithm, params)
        tracer = current_tracer()
        transport = self._make_transport(algorithm)
        try:
            with tracer.span(
                "partitioned",
                algorithm=algorithm,
                shards=self.partition_set.num_shards,
                strategy=self.partition_set.strategy,
                transport=self.transport_kind,
            ):
                sweep = functools.partial(self._sweep, transport)
                return _LOOPS[algorithm](self.graph, sweep, **kwargs)
        finally:
            self.respawns = getattr(transport, "respawns", 0)
            transport.shutdown()

    def _make_transport(self, algorithm: str):
        if self.transport_kind == "inline":
            return _InlineTransport(self.graph, self.partition_set, algorithm)
        return _PipesTransport(
            self.graph, self.partition_set, algorithm,
            retry=self.retry, chaos_plan=self.chaos_plan,
            context=self._context,
        )

    def _sweep(self, transport, superstep: int, state: Optional[np.ndarray],
               dtype=None) -> np.ndarray:
        """One barrier: broadcast ``state``, merge the owned slices."""
        tracer = current_tracer()
        shards = self.partition_set.shards
        with tracer.span(
            "superstep", engine="partitioned", index=superstep,
            shards=len(shards),
        ) as superstep_span:
            slices = transport.broadcast(
                {"cmd": "step", "superstep": superstep, "state": state},
                parent_span=superstep_span,
            )
            with tracer.span("exchange", index=superstep):
                merged = np.empty(
                    self.graph.num_vertices, dtype=dtype or state.dtype
                )
                for shard in shards:
                    merged[shard.owned] = slices[shard.shard_id]
        return merged
