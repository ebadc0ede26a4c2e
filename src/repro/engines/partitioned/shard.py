"""One shard: the CSR slice of its owned vertices and the worker entrypoint.

:class:`ShardState` is the whole of a shard's behavior. At init it
builds, once, the CSR slice of the vertices it owns; at every barrier
it receives the previous global state as one numpy array (PageRank
contributions, BFS depths, SSSP distances, WCC or CDLP labels) and
returns one array for its owned slice — the same numpy sweep the
reference kernel in :mod:`repro.algorithms` runs, restricted to those
rows. It keeps no mutable state between barriers, so a replacement
shard needs only the init payload and the in-flight command.

It is transport-agnostic: the inline transport calls it in-process
(fast deterministic tests), and :func:`shard_main` wraps it in the
runtime pool's worker discipline — private task/result pipes, the
orphan guard, a per-process tracer whose spans ship home with the
clock-offset handshake, and a ``partitioned.shard.step`` fault-point
check that lets a chaos plan SIGKILL the shard mid-superstep.

Bit-identity with the reference kernels rests on the slice layout: a
slot's target is an owned vertex and its source the vertex it hears
from, and one target's slots are contiguous in ascending source order —
the order the reference PageRank's ``np.bincount`` over out-CSR slots
adds each target's contributions in. Every other sweep is a min or a
label count, which no order can change.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import numpy as np

from repro.algorithms.bfs import BFS_UNREACHABLE
from repro.algorithms.cdlp import _most_frequent_min_label
from repro.algorithms.common import gather_neighbors
from repro.algorithms.lcc import local_clustering_coefficient
from repro.faults.points import check
from repro.graph.graph import Graph
from repro.trace import Tracer, set_tracer

__all__ = ["STEP_FAULT_POINT", "ShardState", "shard_main", "graph_payload", "graph_from_payload"]

#: Name in :data:`repro.faults.points.FAULT_POINTS`; checked before each
#: compute command so a chaos plan can kill a shard mid-superstep.
STEP_FAULT_POINT = "partitioned.shard.step"


def graph_payload(graph: Graph) -> Dict[str, object]:
    """The constructor arrays of a graph, as a picklable dict."""
    return {
        "vertex_ids": graph.vertex_ids,
        "src": graph.edge_src,
        "dst": graph.edge_dst,
        "directed": graph.directed,
        "weights": graph.edge_weights,
        "name": graph.name,
    }


def graph_from_payload(payload: Dict[str, object]) -> Graph:
    return Graph(
        vertex_ids=payload["vertex_ids"],
        src=payload["src"],
        dst=payload["dst"],
        directed=bool(payload["directed"]),
        weights=payload["weights"],
        name=str(payload["name"]),
    )


class ShardState:
    """One shard's CSR slice and its per-barrier sweep.

    ``targets[k]`` is the owned-slice position of the vertex slot ``k``
    feeds, ``sources[k]`` the dense index of the vertex it hears from,
    and ``weights[k]`` that edge's weight (SSSP only). Every algorithm
    pulls along in-edges; WCC and CDLP on directed graphs also hear
    out-neighbors, as their reference kernels do.
    """

    def __init__(self, graph: Graph, owned, algorithm: str):
        self.graph = graph
        self.owned = np.asarray(owned, dtype=np.int64)
        self.algorithm = algorithm
        self.size = len(self.owned)
        rows = [(graph.in_indptr, graph.in_indices, graph.in_weights)]
        if algorithm in ("wcc", "cdlp") and graph.directed:
            rows.append((graph.out_indptr, graph.out_indices, None))
        targets, sources, weights = [], [], []
        for indptr, indices, edge_weights in rows:
            slots = gather_neighbors(
                indptr, np.arange(indptr[-1], dtype=np.int64), self.owned
            )
            targets.append(np.repeat(
                np.arange(self.size, dtype=np.int64),
                indptr[self.owned + 1] - indptr[self.owned],
            ))
            sources.append(indices[slots])
            if edge_weights is not None:
                weights.append(edge_weights[slots])
        self.targets = np.concatenate(targets)
        self.sources = np.concatenate(sources)
        self.weights = np.concatenate(weights) if weights else None

    def step(self, superstep: int, state: Optional[np.ndarray]) -> np.ndarray:
        """The owned slice of the next global state."""
        return getattr(self, f"_step_{self.algorithm}")(superstep, state)

    def _step_pr(self, superstep: int, contrib: np.ndarray) -> np.ndarray:
        return np.bincount(
            self.targets, weights=contrib[self.sources], minlength=self.size
        )

    def _step_bfs(self, level: int, depth: np.ndarray) -> np.ndarray:
        heard = self.targets[depth[self.sources] == level]
        reached = depth[self.owned]
        fresh = (np.bincount(heard, minlength=self.size) > 0) & (
            reached == BFS_UNREACHABLE
        )
        reached[fresh] = level + 1
        return reached

    def _step_sssp(self, superstep: int, dist: np.ndarray) -> np.ndarray:
        relaxed = dist[self.owned]
        np.minimum.at(relaxed, self.targets, dist[self.sources] + self.weights)
        return relaxed

    def _step_wcc(self, superstep: int, labels: np.ndarray) -> np.ndarray:
        lowest = labels[self.owned]
        np.minimum.at(lowest, self.targets, labels[self.sources])
        return lowest

    def _step_cdlp(self, superstep: int, labels: np.ndarray) -> np.ndarray:
        heard = _most_frequent_min_label(
            self.size, self.targets, labels[self.sources],
            self.graph.num_vertices,
        )
        return np.where(heard >= 0, heard, labels[self.owned])

    def _step_lcc(self, superstep: int, state: None) -> np.ndarray:
        values = local_clustering_coefficient(self.graph, vertices=self.owned)
        return values[self.owned]


def shard_main(shard_id: int, task_conn, result_conn) -> None:
    """Shard worker entrypoint: the runtime pool's worker discipline.

    Same contract as :func:`repro.runtime.pool._worker_main`: private
    pipes, orphan-guard poll so a SIGKILLed coordinator cannot leak the
    process, fresh per-process tracer, and every reply carries the spans
    plus the ``sent_at - received_at`` clock offset so the coordinator
    can rebase them onto its superstep timeline. Every exception becomes
    a structured failure envelope (RUN001) — except the chaos kill,
    which is the point.
    """
    tracer = Tracer(process=f"shard-{shard_id}")
    set_tracer(tracer)
    state: Optional[ShardState] = None
    parent = os.getppid()
    while True:
        if not task_conn.poll(1.0):
            if os.getppid() != parent:
                return
            continue
        try:
            task = task_conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        payload, sent_at = task
        received_at = tracer.clock.now()
        clock_offset = sent_at - received_at
        cmd = payload["cmd"]
        try:
            if cmd == "init":
                chaos = payload.get("chaos")
                if chaos is not None:
                    from repro.faults.points import IoFaultPlan, install_io_plan

                    install_io_plan(IoFaultPlan.from_dict(chaos))
                state = ShardState(
                    graph_from_payload(payload["graph"]),
                    payload["owned"],
                    payload["algorithm"],
                )
                body = None
            else:
                # The chaos plane's hook: a kill-kind fault here is a
                # shard dying between the barrier and its compute.
                check(STEP_FAULT_POINT)
                with tracer.span(
                    "shard-compute", shard=shard_id,
                    superstep=payload["superstep"],
                ):
                    body = state.step(payload["superstep"], payload["state"])
        except Exception as exc:  # noqa: BLE001 — converted, not swallowed
            import traceback

            result_conn.send(
                {
                    "event": "fail",
                    "shard": shard_id,
                    "cmd": cmd,
                    "detail": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(limit=8),
                    "spans": [span.as_dict() for span in tracer.drain()],
                    "clock_offset": clock_offset,
                }
            )
            continue
        result_conn.send(
            {
                "event": "done",
                "shard": shard_id,
                "cmd": cmd,
                "body": body,
                "spans": [span.as_dict() for span in tracer.drain()],
                "clock_offset": clock_offset,
            }
        )
