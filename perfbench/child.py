"""Child-process entry points of the benchmark.

``python3 perfbench/child.py setup <workload> <seed> <work_dir>``
    Performs one workload's set-up in a fresh interpreter and prints
    ``ready``; the parent times it from start to that line (``setup_s``).

``python3 perfbench/child.py serve <trace_dir> <serve arguments...>``
    Runs ``graphalytics serve`` with the layer tracer installed, so the
    run children and their worker pools record spans into ``trace_dir``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv) -> int:
    if argv[0] == "setup":
        from perfbench.workloads import make

        workload = make(argv[1], int(argv[2]), Path(argv[3]))
        try:
            workload.setup()
            print("ready", flush=True)
        finally:
            workload.close()
        return 0
    if argv[0] == "serve":
        from perfbench.tracing import LayerTracer, SpanStore
        from repro.cli import main as cli_main

        store = SpanStore(Path(argv[1]))
        tracer = LayerTracer(store)
        tracer.install()
        try:
            return cli_main(["serve", *argv[2:]])
        finally:
            tracer.uninstall()
            store.flush()
    raise SystemExit(f"unknown child command {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
