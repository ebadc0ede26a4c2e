"""The Graphalytics test harness (paper §2.3–§2.5, Figure 1).

Processes the benchmark description and configuration, orchestrates
drivers, validates outputs against the reference implementations,
computes the benchmark metrics, and stores results.
"""

from repro.harness.scale import graph_scale, scale_class, SCALE_CLASSES, class_order
from repro.harness.datasets import (
    Dataset,
    DATASETS,
    get_dataset,
    dataset_ids,
    datasets_up_to_class,
)
from repro.harness.metrics import (
    edges_per_second,
    edges_and_vertices_per_second,
    speedup,
    coefficient_of_variation,
)
from repro.harness.sla import SLA_MAKESPAN_SECONDS, sla_compliant
from repro.harness.config import BenchmarkConfig
from repro.harness.results import ResultsDatabase, BenchmarkResult
from repro.harness.runner import BenchmarkRunner
from repro.harness.survey import (
    SURVEY_UNWEIGHTED,
    SURVEY_WEIGHTED,
    survey_table,
    two_stage_selection,
)
from repro.harness.experiments import EXPERIMENTS, Experiment, get_experiment
from repro.harness.renewal import RenewalProcess
from repro.harness.report import render_report, save_report, summarize
from repro.harness.archive import materialize_archive, archive_manifest
from repro.harness.full_run import (
    FullRunResult,
    run_full_benchmark,
    submit_run,
)
from repro.harness.figures import render_dataset_variety, render_scaling
from repro.harness.analysis import (
    summarize_measurements,
    speedup_matrix,
    compare_platforms,
)

__all__ = [
    "graph_scale",
    "scale_class",
    "SCALE_CLASSES",
    "class_order",
    "Dataset",
    "DATASETS",
    "get_dataset",
    "dataset_ids",
    "datasets_up_to_class",
    "edges_per_second",
    "edges_and_vertices_per_second",
    "speedup",
    "coefficient_of_variation",
    "SLA_MAKESPAN_SECONDS",
    "sla_compliant",
    "BenchmarkConfig",
    "ResultsDatabase",
    "BenchmarkResult",
    "BenchmarkRunner",
    "SURVEY_UNWEIGHTED",
    "SURVEY_WEIGHTED",
    "survey_table",
    "two_stage_selection",
    "EXPERIMENTS",
    "Experiment",
    "get_experiment",
    "RenewalProcess",
    "render_report",
    "save_report",
    "summarize",
    "materialize_archive",
    "archive_manifest",
    "FullRunResult",
    "run_full_benchmark",
    "submit_run",
    "render_dataset_variety",
    "render_scaling",
    "summarize_measurements",
    "speedup_matrix",
    "compare_platforms",
]
