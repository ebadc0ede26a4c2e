"""Run the repository benchmark.

One workload::

    python3 perfbench/run.py --workload report-matrix --seed 1 --seconds 30 --trace 0

Every workload, untraced and traced, then rewrite ``BENCHMARK.json``::

    python3 perfbench/run.py --all

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Everything above it is for people. A record of the run, with the host
fingerprint and the resolved settings, goes to ``.perfbench/results/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import measure, spec  # noqa: E402

OUT = ROOT / ".perfbench"


def _layer_metrics(spans, untraced, traced, main_pid) -> dict:
    """The per-layer metrics of a traced run; 0 where a layer did no work."""
    from perfbench.tracing import totals

    t = totals(spans)
    units = max(1, len(traced.walls))

    def per_unit(key: str) -> float:
        return t.get(key, 0.0) / units

    out = {m.name: 0.0 for m in spec.PER_LAYER}
    out["datasets.materialize_s"] = per_unit("datasets.materialize:s")
    out["datasets.setup_materialize_s"] = totals(spans, "setup").get(
        "datasets.materialize:s", 0.0)
    out["algorithms.reference_s"] = per_unit("algorithms.reference:s")
    out["algorithms.reference_calls"] = per_unit("algorithms.reference:calls")
    for alg in spec.BATCH_ALGORITHMS:
        out[f"platforms.execute_s.{alg}"] = per_unit(f"platforms.execute.{alg}:s")
    for name in ("platforms.upload", "validation.validate", "granula.archive",
                 "report.render", "runtime.execute_matrix"):
        out[f"{name}_s"] = per_unit(f"{name}:s")
    for alg in spec.SHARDED_ALGORITHMS:
        sharded = t.get(f"partitioned.run.{alg}:s", 0.0)
        reference = t.get(f"algorithms.reference.{alg}:s", 0.0)
        out[f"partitioned.run_s.{alg}"] = sharded / units
        if sharded and reference:
            out[f"partitioned.vs_reference_x.{alg}"] = sharded / reference
    matrix_s = t.get("runtime.execute_matrix:s", 0.0)
    calls = t.get("runtime.execute_matrix:calls", 0.0)
    if matrix_s and calls:
        workers = t["runtime.execute_matrix:workers"] / calls
        out["runtime.worker_busy_frac"] = (
            t.get("runtime.run_job_spec:s", 0.0) / (workers * matrix_s))
    hits = t.get("runtime.execute_matrix:cache_hits", 0.0)
    misses = t.get("runtime.execute_matrix:cache_misses", 0.0)
    if hits + misses:
        out["runtime.cache_hit_rate"] = hits / (hits + misses)
    out["runtime.cache_misses"] = per_unit("runtime.execute_matrix:cache_misses")
    out["runtime.retries"] = per_unit("runtime.execute_matrix:retries")
    out["runtime.harness_failures"] = per_unit("runtime.execute_matrix:failures")
    out["runtime.lost_jobs"] = per_unit("runtime.execute_matrix:lost")
    out.update(traced.layers())
    # Top-level layer time: spans the benchmark process entered directly,
    # and for the service the run children's execute_matrix.
    top = sum(
        s.duration for s in spans
        if s.phase == "measure" and s.depth == 0
        and (s.pid == main_pid or s.name == "runtime.execute_matrix")
    )
    if traced.walls:
        out["harness.untraced_s"] = (sum(traced.walls) - top) / units
    if traced.walls and untraced.walls:
        out["harness.trace_overhead_frac"] = (
            measure.median(traced.walls) / measure.median(untraced.walls) - 1.0)
    return out


def _end_to_end(setup_samples, m) -> dict:
    return {
        "setup_s": measure.median(setup_samples),
        "makespan_p50_s": measure.median(m.walls),
        "jobs_per_s": m.jobs / m.window_s,
        "peak_rss_mb": measure.peak_rss_mb(),
        "error_rate": measure.error_rate(m.failed, m.attempted),
        "runs_per_s": len(m.walls) / m.window_s,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Set up, measure and check one workload; returns the run record."""
    from perfbench.tracing import LayerTracer, SpanStore
    from perfbench.workloads import Measurement, make

    work = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    setup_samples = []
    probes = 0 if trace else 1 if smoke else spec.SETUP_SAMPLES
    before = (probes + 1) // 2
    workload = make(name, seed, work)
    try:
        setup_samples += [workload.probe_setup(i) for i in range(before)]
        store = tracer = None
        if trace:
            store = SpanStore(work / "spans")
            tracer = LayerTracer(store)
            store.phase = "setup"
            tracer.install()
        workload.setup()
        if trace:
            tracer.uninstall()
            untraced = Measurement()
            workload.measure(seconds / 2, untraced)
            store.phase = "measure"
            tracer.install()
            m = Measurement()
            workload.measure(seconds / 2, m, trace_dir=store.out_dir)
            tracer.uninstall()
        else:
            m = Measurement()
            workload.measure(seconds, m)
        workload.finish(m)
        workload.close()
        setup_samples += [workload.probe_setup(i)
                          for i in range(before, probes)]
    finally:
        workload.close()
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "settings": workload.settings(),
        "host": measure.fingerprint(ROOT),
        "units": len(m.walls), "attempted": m.attempted, "failed": m.failed,
        "errors": m.errors, "walls": m.walls,
    }
    if trace:
        spans = store.gather()
        record["metrics"] = _layer_metrics(spans, untraced, m, os.getpid())
        record["untraced_walls"] = untraced.walls
        record["attempted"] += untraced.attempted
        record["failed"] += untraced.failed
        record["errors"] += untraced.errors
        trace_path = OUT / "traces" / f"{name}-seed{seed}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.__dict__) + "\n")
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        record["setup_samples"] = setup_samples
        record["metrics"] = _end_to_end(setup_samples, m)
        if name == "service-closed-loop":
            record["metrics"]["turnaround_p50_s"] = record["metrics"]["makespan_p50_s"]
            tail = measure.tail(m.walls)
            if tail is not None:
                record["metrics"]["turnaround_tail_s"] = tail[0]
                record["metrics"]["turnaround_tail_pct"] = tail[1]
    shutil.rmtree(work, ignore_errors=True)
    return record


def _print_record(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} units={record['units']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    print(f"# host {json.dumps(record['host'], sort_keys=True)}")
    print(f"# settings {json.dumps(record['settings'], sort_keys=True)}")
    for error in record["errors"]:
        print(f"# error: {error}")
    for name, value in record["metrics"].items():
        print(f"{record['workload']:20s} {name:36s} {value:14.6g} "
              f"{spec.UNITS[name]}")


def _result_line(record: dict) -> dict:
    names = spec.metric_names(record["trace"])
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": spec.UNITS[name]}
            for name in names
        },
    }


def _run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh interpreter."""
    ok = True
    for name in spec.WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [sys.executable, __file__, "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            proc = subprocess.run(command, capture_output=True, text=True,
                                  cwd=ROOT)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            ok = ok and json.loads(lines[-1])["correct"]
    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(spec.benchmark_json(), indent=2) + "\n", encoding="utf-8")
    print(f"# wrote BENCHMARK.json; all outputs correct: {ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up sample instead of several")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all:
        return _run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    started = time.perf_counter()
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke)
    record["benchmark_wall_s"] = time.perf_counter() - started
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                      f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    _print_record(record)
    print(json.dumps(_result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
