"""``repro.engines.partitioned`` — sharded, measured graph execution.

The paper's horizontal-scaling experiments (§6), as a *mechanistic*
system instead of a calibrated formula. A graph is edge-cut partitioned
across shard workers (hash or range strategy); each shard holds the CSR
slice of its owned vertices and, at every bulk-synchronous barrier, runs
the reference kernel's numpy sweep over that slice, while the
coordinator repeats the kernel's global arithmetic — so any shard
count, either strategy, and either transport produce **bit-identical**
outputs to :func:`repro.algorithms.run_reference`.

See docs/scaling.md for the partitioner, the barrier protocol and span
timeline, supervision, and the measured scaling curves
(``benchmarks/bench_partitioned_scaling.py`` → ``BENCH_partitioned.json``).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.engines.partitioned.coordinator import PartitionedEngine, ShardFailure
from repro.engines.partitioned.partition import (
    PARTITION_STRATEGIES,
    Partition,
    PartitionSet,
    partition_graph,
)
from repro.engines.partitioned.shard import STEP_FAULT_POINT, ShardState
from repro.graph.graph import Graph

__all__ = [
    "PARTITION_STRATEGIES",
    "STEP_FAULT_POINT",
    "Partition",
    "PartitionSet",
    "PartitionedEngine",
    "ShardFailure",
    "ShardState",
    "partition_graph",
    "run_algorithm",
]


def run_algorithm(
    graph: Graph,
    algorithm: str,
    params: Optional[Dict[str, object]] = None,
    *,
    partitions: int = 2,
    strategy: str = "hash",
    transport: str = "pipes",
    chaos_plan: Optional[Dict[str, object]] = None,
) -> np.ndarray:
    """Run one core algorithm partitioned; returns the output array."""
    engine = PartitionedEngine(
        graph,
        partitions=partitions,
        strategy=strategy,
        transport=transport,
        chaos_plan=chaos_plan,
    )
    return engine.run(algorithm, params)
