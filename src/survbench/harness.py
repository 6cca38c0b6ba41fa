"""Benchmark orchestration: replicated simulation, metric diffs, reports."""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .core import (
    RandomStream,
    StructureError,
    StudyDataset,
    StudyMetadata,
    check_labels,
    json_field,
    json_value,
    load_dataset,
    load_metadata,
    read_json,
)
from .engines import ArmModel, ModelBuildError, build_model, canonical_engine, simulate
from .evaluate import EvaluationResult, evaluate_dataset

ALL_METRICS = (
    "logrank_p", "hazard_ratio", "median_arm1", "median_arm2", "rmstd", "tie_ratio", "logrank_statistic"
)


@dataclass
class SixNumberSummary:
    minimum: float
    q1: float
    median: float
    mean: float
    q3: float
    maximum: float


def summarize(values) -> SixNumberSummary:
    """Min, linear-interpolation quartiles, mean and max of a sample."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("cannot summarize an empty sample")
    q1, med, q3 = np.quantile(x, [0.25, 0.5, 0.75])
    return SixNumberSummary(
        float(np.min(x)), float(q1), float(med), float(np.mean(x)), float(q3), float(np.max(x))
    )


@dataclass
class StudyRecord:
    """One benchmark input: data, published figures, recomputed reference."""

    dataset: StudyDataset
    metadata: StudyMetadata
    reference: EvaluationResult


@dataclass
class BenchmarkConfig:
    studies: list[StudyRecord]
    engines: list[str]
    iterations: int = 10000
    base_seed: int = 0
    output_dir: str | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        self.engines = [canonical_engine(e) for e in self.engines]
        if len(set(self.engines)) != len(self.engines):
            raise ValueError("engines must be unique")
        if not self.studies or not self.engines:
            raise ValueError("need at least one study and one engine")
        ids = [rec.metadata.study_id for rec in self.studies]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate study ids: {ids}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        RandomStream(self.base_seed, 0)  # a seed outside [0, 2**64) fails here, before any fit


@dataclass
class MetricDiffs:
    """Per (study, engine, metric): (iteration, value) pairs of the defined values.

    Diff metrics hold simulated-minus-reference values; raw metrics
    (tie_ratio, logrank_statistic) hold the simulated values themselves.
    An iteration whose value is undefined leaves no pair.
    """

    iterations: int
    values: dict[tuple[str, str, str], list[tuple[int, float]]] = field(default_factory=dict)

    @property
    def undefined(self) -> dict[tuple[str, str, str], int]:
        """Per key, the number of iterations whose value is undefined."""
        return {key: self.iterations - len(pairs) for key, pairs in self.values.items()}

    def series(self, study: str, engine: str, metric: str) -> list[float]:
        return [v for _, v in self.values.get((study, engine, metric), [])]


@dataclass
class RuntimeRecord:
    """Per (study, engine): simulate-call wall seconds, first iteration dropped."""

    seconds: dict[tuple[str, str], list[float]] = field(default_factory=dict)


@dataclass
class BenchmarkResult:
    diffs: MetricDiffs
    runtimes: RuntimeRecord
    skipped: list[dict]
    elapsed_seconds: float
    output_files: list[str] = field(default_factory=list)


def _iteration_values(result: EvaluationResult, record: StudyRecord) -> dict[str, float | None]:
    """One replicate's stored value per metric, None where it is undefined.

    Diff metrics are simulated minus the study's reference; raw metrics
    have no reference and are the simulated values.
    """
    labels = record.dataset.labels
    metadata = record.metadata
    simulated_and_reference = {
        "logrank_p": (result.logrank_p, metadata.reported_logrank_p),
        "hazard_ratio": (result.hazard_ratio, metadata.reported_hazard_ratio),
        "median_arm1": (result.medians[labels[0]], metadata.reported_medians.get(labels[0])),
        "median_arm2": (result.medians[labels[1]], metadata.reported_medians.get(labels[1])),
        "rmstd": (result.rmstd, record.reference.rmstd),
    }
    values = {
        metric: None if sim is None or ref is None else sim - ref
        for metric, (sim, ref) in simulated_and_reference.items()
    }
    values["tie_ratio"] = result.tie_ratio
    values["logrank_statistic"] = result.logrank_statistic
    return values


def run_benchmark(config: BenchmarkConfig) -> BenchmarkResult:
    """Run every (study, engine) pair for the configured iteration count.

    Iteration i consumes only RandomStream(base_seed, i), so the metric
    output is identical no matter how many workers split the iterations.
    Each iteration's rows are folded into the result as they arrive, in
    iteration order. Only the simulate calls are timed, and the first
    iteration's time is dropped as warm-up.
    """
    started = time.perf_counter()
    skipped: list[dict] = []
    models: dict[tuple[str, str], tuple[StudyRecord, tuple[ArmModel, ArmModel]]] = {}
    for record in config.studies:
        sid = record.metadata.study_id
        for engine in config.engines:
            try:
                pair = tuple(build_model(engine, arm) for arm in record.dataset.arms)
            except ModelBuildError as exc:
                skipped.append({"study": sid, "engine": engine, "reason": str(exc)})
                continue
            models[(sid, engine)] = (record, pair)  # type: ignore[assignment]

    def one_iteration(i: int) -> list[tuple[tuple[str, str], dict[str, float | None], float]]:
        """(pair, stored values, simulate seconds) for every modelled pair."""
        stream = RandomStream(config.base_seed, i)
        rows = []
        for key, (record, pair) in models.items():
            sizes = (len(record.dataset.arms[0]), len(record.dataset.arms[1]))
            t0 = time.perf_counter_ns()
            arm1 = simulate(pair[0], sizes[0], stream)
            arm2 = simulate(pair[1], sizes[1], stream)
            elapsed = (time.perf_counter_ns() - t0) / 1e9
            result = evaluate_dataset(StudyDataset((arm1, arm2)))
            rows.append((key, _iteration_values(result, record), elapsed))
        return rows

    diffs = MetricDiffs(config.iterations)
    runtimes = RuntimeRecord()
    for sid, engine in models:
        runtimes.seconds[(sid, engine)] = []
        for metric in ALL_METRICS:
            diffs.values[(sid, engine, metric)] = []

    with ThreadPoolExecutor(config.workers) if config.workers > 1 else nullcontext() as pool:
        results = (map if pool is None else pool.map)(one_iteration, range(config.iterations))
        for i, rows in enumerate(results):
            for (sid, engine), values, elapsed in rows:
                if i > 0:
                    runtimes.seconds[(sid, engine)].append(elapsed)
                for metric in ALL_METRICS:
                    value = values[metric]
                    if value is not None:
                        diffs.values[(sid, engine, metric)].append((i, value))

    result = BenchmarkResult(diffs, runtimes, skipped, time.perf_counter() - started)
    if config.output_dir is not None:
        result.output_files = emit_reports(config, result, config.output_dir)
    result.elapsed_seconds = time.perf_counter() - started
    return result


def runtime_stats(runtimes: RuntimeRecord) -> dict[str, SixNumberSummary]:
    """Summaries pooled across studies, one row per engine."""
    pooled: dict[str, list[float]] = {}
    for (_, engine), seconds in runtimes.seconds.items():
        pooled.setdefault(engine, []).extend(seconds)
    return {engine: summarize(vals) for engine, vals in pooled.items() if vals}


_SUMMARY_COLUMNS = ("minimum", "q1", "median", "mean", "q3", "maximum")


def emit_reports(config: BenchmarkConfig, result: BenchmarkResult, outdir: str) -> list[str]:
    """Write summary/long CSVs per metric, runtimes.csv and report.json."""
    os.makedirs(outdir, exist_ok=True)
    written: list[str] = []
    pairs = [
        (rec.metadata.study_id, engine)
        for rec in config.studies
        for engine in config.engines
        if (rec.metadata.study_id, engine) in result.runtimes.seconds
    ]
    undefined = result.diffs.undefined
    for metric in ALL_METRICS:
        summary_path = os.path.join(outdir, f"summary_{metric}.csv")
        with open(summary_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["study", "engine", *_SUMMARY_COLUMNS, "undefined"])
            for sid, engine in pairs:
                values = result.diffs.series(sid, engine, metric)
                if values:
                    s = summarize(values)
                    stats = [repr(getattr(s, col)) for col in _SUMMARY_COLUMNS]
                else:
                    stats = [""] * len(_SUMMARY_COLUMNS)
                writer.writerow([sid, engine, *stats, undefined[(sid, engine, metric)]])
        written.append(summary_path)

        long_path = os.path.join(outdir, f"long_{metric}.csv")
        with open(long_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["study", "engine", "iteration", "value"])
            for sid, engine in pairs:
                for i, value in result.diffs.values[(sid, engine, metric)]:
                    writer.writerow([sid, engine, i, repr(value)])
        written.append(long_path)

    runtimes_path = os.path.join(outdir, "runtimes.csv")
    with open(runtimes_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["engine", *_SUMMARY_COLUMNS, "count"])
        stats = runtime_stats(result.runtimes)
        for engine in config.engines:
            if engine not in stats:
                continue
            s = stats[engine]
            count = sum(
                len(v) for (_, e), v in result.runtimes.seconds.items() if e == engine
            )
            writer.writerow([engine, *[repr(getattr(s, col)) for col in _SUMMARY_COLUMNS], count])
    written.append(runtimes_path)

    report_path = os.path.join(outdir, "report.json")
    payload = {
        "iterations": config.iterations,
        "base_seed": config.base_seed,
        "engines": config.engines,
        "studies": [
            {"id": rec.metadata.study_id, "arms": list(rec.dataset.labels)}
            for rec in config.studies
        ],
        "skipped": result.skipped,
        "elapsed_seconds": result.elapsed_seconds,
        "outputs": [os.path.basename(p) for p in written],
    }
    with open(report_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    written.append(report_path)
    return written


def load_config(path: str) -> BenchmarkConfig:
    """Read a benchmark-config JSON; study paths resolve relative to it.

    Each study's ``reported_medians`` must name arms of its dataset (the label rule).
    """
    raw = json_value(path, read_json(path), "a JSON object")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base, p)

    def items(key: str, kind: str) -> list:
        values = json_field(path, raw, key, "a JSON array", "config")
        return [json_value(path, v, kind, f"{key}[{i}]") for i, v in enumerate(values)]

    entries = [
        [resolve(json_field(path, entry, key, "a JSON string", "config")) for key in ("dataset", "metadata")]
        for entry in items("studies", "a JSON object")
    ]
    engines = items("engines", "a JSON string")
    studies = []
    for dataset_path, metadata_path in entries:
        dataset = load_dataset(dataset_path)
        metadata = load_metadata(metadata_path)
        studies.append(StudyRecord(dataset, metadata, evaluate_dataset(dataset)))
    iterations, seed, workers = (
        json_field(path, raw, key, "a JSON integer", "config", default)
        for key, default in (("iterations", 10000), ("seed", 0), ("workers", 1))
    )
    try:
        config = BenchmarkConfig(studies, engines, iterations, seed, workers=workers)
    except (TypeError, ValueError) as exc:
        raise StructureError(f"{path}: {exc}") from None
    for record, (_, metadata_path) in zip(studies, entries):
        check_labels(metadata_path, record.metadata.reported_medians, record.dataset.labels)
    return config
