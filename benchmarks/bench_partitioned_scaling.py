"""Measured strong scaling of the partitioned engine, recorded to
``BENCH_partitioned.json`` (ROADMAP item 3: measured curves next to the
calibrated model's).

The curve: PageRank and BFS on a G(n, p) graph at 1/2/4 shards over the
pipes transport, wall-clock per shard count, speedup vs the 1-shard run.
Next to it, the calibrated platform models' ``machine_scaling_factor``
for the same machine counts, and the measured-vs-modeled delta — the
number the paper's §6 experiments could only simulate before.

Each shard count's wall clock is also recorded over the reference
kernel's (``vs_reference_x``): the layer the sharded engine claims
parity with. The host's CPU count and Python and numpy versions are
recorded next to the curve.

Gated everywhere: every shard count's output is bit-identical to
:func:`repro.algorithms.run_reference`, and the traced run's
``trace.jsonl`` carries the per-superstep ``shard-compute`` /
``exchange`` / ``barrier-wait`` spans. Gated only on multi-CPU hardware
(this is a real fork-and-pipe system — on one core more shards just add
exchange overhead): 2-shard speedup > 1.
"""

import json
import multiprocessing
import os
import platform
from pathlib import Path

import numpy as np

from repro.algorithms import run_reference
from repro.engines.partitioned import run_algorithm
from repro.graph.generators import erdos_renyi
from repro.trace import MonotonicClock, Tracer, read_trace, use_tracer, write_trace

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_partitioned.json"
SHARD_COUNTS = (1, 2, 4)
PR_ITERATIONS = 30

#: The calibrated distributed-platform models whose strong-scaling
#: curves the measured one sits next to (rate multiplier vs 1 machine).
_MODELED = {}


def _load_models():
    from repro.platforms.giraph import GIRAPH_MODEL
    from repro.platforms.graphmat import GRAPHMAT_MODEL
    from repro.platforms.graphx import GRAPHX_MODEL
    from repro.platforms.pgxd import PGXD_MODEL
    from repro.platforms.powergraph import POWERGRAPH_MODEL

    _MODELED.update({
        "Giraph": GIRAPH_MODEL,
        "GraphMat": GRAPHMAT_MODEL,
        "GraphX": GRAPHX_MODEL,
        "PGX.D": PGXD_MODEL,
        "PowerGraph": POWERGRAPH_MODEL,
    })


_WALL = MonotonicClock()


def _bench_graph():
    return erdos_renyi(320, 0.04, directed=True, seed=42, name="bench-er")


def _arms(graph):
    return {
        "pr": {"iterations": PR_ITERATIONS},
        "bfs": {"source_vertex": int(graph.vertex_ids[0])},
    }


def _timed_partitioned(graph, algorithm, params, shards):
    started = _WALL.now()
    values = run_algorithm(
        graph,
        algorithm,
        dict(params),
        partitions=shards,
        strategy="hash",
        transport="pipes",
    )
    return values, _WALL.now() - started


def _timed_reference(graph, algorithm, params, repeats=5):
    """Best of ``repeats`` calls: the first call in a process is cold."""
    best = float("inf")
    for _ in range(repeats):
        started = _WALL.now()
        values = run_reference(algorithm, graph, dict(params))
        best = min(best, _WALL.now() - started)
    return values, best


def test_partitioned_strong_scaling(benchmark, tmp_path):
    _load_models()
    graph = _bench_graph()
    arms = _arms(graph)

    def rounds():
        measured = {}
        for algorithm, params in arms.items():
            measured[algorithm] = {
                shards: _timed_partitioned(graph, algorithm, params, shards)
                for shards in SHARD_COUNTS
            }
            measured[algorithm]["reference"] = _timed_reference(
                graph, algorithm, params
            )
        return measured

    measured = benchmark.pedantic(rounds, rounds=1, iterations=1)

    payload = {
        "graph": "erdos_renyi(320, 0.04, directed, seed=42)",
        "vertices": int(graph.num_vertices),
        "edges": int(graph.num_edges),
        "transport": "pipes",
        "strategy": "hash",
        "cpu_count": multiprocessing.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "algorithms": {},
    }

    for algorithm in arms:
        baseline, reference_elapsed = measured[algorithm]["reference"]
        serial_elapsed = measured[algorithm][1][1]
        curve = {}
        for shards in SHARD_COUNTS:
            values, elapsed = measured[algorithm][shards]
            # The gate that holds on any hardware: sharding never
            # changes a single bit of the output.
            assert values.tobytes() == baseline.tobytes(), (
                f"{algorithm} at {shards} shards diverged from the "
                f"reference kernel"
            )
            curve[str(shards)] = {
                "wall_clock_seconds": round(elapsed, 4),
                "speedup_vs_1_shard": round(
                    serial_elapsed / elapsed if elapsed > 0 else 0.0, 3
                ),
                "vs_reference_x": round(
                    elapsed / reference_elapsed if reference_elapsed > 0
                    else 0.0, 1
                ),
            }
        modeled = {
            name: {
                str(m): round(model.machine_scaling_factor(algorithm, m), 3)
                for m in SHARD_COUNTS
            }
            for name, model in sorted(_MODELED.items())
        }
        delta = {
            name: {
                m: round(
                    curve[m]["speedup_vs_1_shard"] - series[m], 3
                )
                for m in series
            }
            for name, series in modeled.items()
        }
        payload["algorithms"][algorithm] = {
            "reference_seconds": round(reference_elapsed, 5),
            "measured": curve,
            "modeled_speedup": modeled,
            "measured_minus_modeled": delta,
        }

    # One traced 2-shard run: the span timeline the docs promise must
    # land in trace.jsonl (shard compute, exchange, barrier-wait).
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        _timed_partitioned(graph, "pr", arms["pr"], 2)
    trace_path = tmp_path / "trace.jsonl"
    write_trace(trace_path, tracer.finished_spans())
    spans, _ = read_trace(trace_path)
    kinds = {}
    for span in spans:
        kinds[span.name] = kinds.get(span.name, 0) + 1
    for required in ("shard-compute", "exchange", "barrier-wait"):
        assert kinds.get(required, 0) > 0, f"missing {required} spans"
    payload["trace_span_counts"] = dict(sorted(kinds.items()))

    OUTPUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    print()
    print(f"Partitioned strong scaling — {payload['graph']}, "
          f"{payload['cpu_count']} cores, Python {payload['python']}, "
          f"numpy {payload['numpy']}")
    print(f"{'algorithm':>10s} {'shards':>7s} {'wall s':>9s} {'speedup':>8s} "
          f"{'vs ref':>8s}")
    for algorithm in arms:
        for shards in SHARD_COUNTS:
            cell = payload["algorithms"][algorithm]["measured"][str(shards)]
            print(f"{algorithm:>10s} {shards:>7d} "
                  f"{cell['wall_clock_seconds']:>9.3f} "
                  f"{cell['speedup_vs_1_shard']:>7.2f}x "
                  f"{cell['vs_reference_x']:>7.1f}x")
    print(f"written to {OUTPUT.name}")

    # The speedup gate is only meaningful with real parallel hardware.
    if payload["cpu_count"] >= 2 and not os.environ.get(
        "GRAPHALYTICS_SKIP_SPEEDUP_CHECK"
    ):
        assert (
            payload["algorithms"]["pr"]["measured"]["2"]["speedup_vs_1_shard"]
            > 1.0
        )
