"""Benchmark orchestration: replicated simulation, metric diffs, reports."""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (
    RandomStream,
    StructureError,
    StudyDataset,
    StudyMetadata,
    load_dataset,
    load_metadata,
)
from .engines import ArmModel, ModelBuildError, build_model, canonical_engine, simulate
from .evaluate import EvaluationResult, evaluate_dataset

DIFF_METRICS = ("logrank_p", "hazard_ratio", "median_arm1", "median_arm2", "rmstd")
RAW_METRICS = ("tie_ratio", "logrank_statistic")
ALL_METRICS = DIFF_METRICS + RAW_METRICS


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


@dataclass
class MetricDiffs:
    """Per (study, engine, metric): (iteration, value) pairs plus undefined counts.

    Diff metrics hold simulated-minus-reference values; raw metrics
    (tie_ratio, logrank_statistic) hold the simulated values themselves.
    """

    iterations: int
    values: dict[tuple[str, str, str], list[tuple[int, float]]] = field(default_factory=dict)
    undefined: dict[tuple[str, str, str], int] = field(default_factory=dict)

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


def _iteration_metrics(result: EvaluationResult, labels: tuple[str, str]) -> dict[str, float | None]:
    return {
        "logrank_p": result.logrank_p,
        "hazard_ratio": result.hazard_ratio,
        "median_arm1": result.medians[labels[0]],
        "median_arm2": result.medians[labels[1]],
        "rmstd": result.rmstd,
        "tie_ratio": result.tie_ratio,
        "logrank_statistic": result.logrank_statistic,
    }


def _reference_values(record: StudyRecord) -> dict[str, float | None]:
    labels = record.dataset.labels
    return {
        "logrank_p": record.metadata.reported_logrank_p,
        "hazard_ratio": record.metadata.reported_hazard_ratio,
        "median_arm1": record.metadata.reported_medians.get(labels[0]),
        "median_arm2": record.metadata.reported_medians.get(labels[1]),
        "rmstd": record.reference.rmstd,
    }


def run_benchmark(config: BenchmarkConfig) -> BenchmarkResult:
    """Run every (study, engine) pair for the configured iteration count.

    Iteration i consumes only RandomStream(base_seed, i), so the metric
    output is identical no matter how many workers split the iterations.
    Only the simulate calls are timed, and the first iteration's time is
    dropped as warm-up.
    """
    started = time.perf_counter()
    skipped: list[dict] = []
    models: dict[tuple[str, str], tuple[ArmModel, ArmModel]] = {}
    for record in config.studies:
        sid = record.metadata.study_id
        for engine in config.engines:
            try:
                pair = tuple(build_model(engine, arm) for arm in record.dataset.arms)
            except ModelBuildError as exc:
                skipped.append({"study": sid, "engine": engine, "reason": str(exc)})
                continue
            models[(sid, engine)] = pair  # type: ignore[assignment]

    def one_iteration(i: int) -> dict[tuple[str, str], tuple[dict, float]]:
        stream = RandomStream(config.base_seed, i)
        out: dict[tuple[str, str], tuple[dict, float]] = {}
        for record in config.studies:
            sid = record.metadata.study_id
            labels = record.dataset.labels
            sizes = (len(record.dataset.arms[0]), len(record.dataset.arms[1]))
            for engine in config.engines:
                pair = models.get((sid, engine))
                if pair is None:
                    continue
                t0 = time.perf_counter_ns()
                arm1 = simulate(pair[0], sizes[0], stream)
                arm2 = simulate(pair[1], sizes[1], stream)
                elapsed = (time.perf_counter_ns() - t0) / 1e9
                result = evaluate_dataset(StudyDataset((arm1, arm2)))
                out[(sid, engine)] = (_iteration_metrics(result, labels), elapsed)
        return out

    if config.workers == 1:
        per_iteration = [one_iteration(i) for i in range(config.iterations)]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            per_iteration = list(pool.map(one_iteration, range(config.iterations)))

    diffs = MetricDiffs(config.iterations)
    runtimes = RuntimeRecord()
    for record in config.studies:
        sid = record.metadata.study_id
        refs = _reference_values(record)
        for engine in config.engines:
            if (sid, engine) not in models:
                continue
            runtimes.seconds[(sid, engine)] = []
            for metric in ALL_METRICS:
                diffs.values[(sid, engine, metric)] = []
                diffs.undefined[(sid, engine, metric)] = 0
            for i, row in enumerate(per_iteration):
                metrics, elapsed = row[(sid, engine)]
                if i > 0:
                    runtimes.seconds[(sid, engine)].append(elapsed)
                for metric in DIFF_METRICS:
                    sim = metrics[metric]
                    ref = refs[metric]
                    if sim is None or ref is None:
                        diffs.undefined[(sid, engine, metric)] += 1
                    else:
                        diffs.values[(sid, engine, metric)].append((i, sim - ref))
                for metric in RAW_METRICS:
                    sim = metrics[metric]
                    if sim is None:
                        diffs.undefined[(sid, engine, metric)] += 1
                    else:
                        diffs.values[(sid, engine, metric)].append((i, sim))

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
    for metric in ALL_METRICS:
        summary_path = os.path.join(outdir, f"summary_{metric}.csv")
        with open(summary_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["study", "engine", *_SUMMARY_COLUMNS, "undefined"])
            for sid, engine in pairs:
                values = result.diffs.series(sid, engine, metric)
                undefined = result.diffs.undefined[(sid, engine, metric)]
                if values:
                    s = summarize(values)
                    stats = [repr(getattr(s, col)) for col in _SUMMARY_COLUMNS]
                else:
                    stats = [""] * len(_SUMMARY_COLUMNS)
                writer.writerow([sid, engine, *stats, undefined])
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
    """Read a benchmark-config JSON; study paths resolve relative to it."""
    with open(path) as fh:
        raw = json.load(fh)
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base, p)

    try:
        entries = [(entry["dataset"], entry["metadata"]) for entry in raw["studies"]]
        engines = list(raw["engines"])
    except KeyError as exc:
        raise StructureError(f"{path}: missing config key {exc}") from None
    studies = []
    for dataset_path, metadata_path in entries:
        dataset = load_dataset(resolve(dataset_path))
        metadata = load_metadata(resolve(metadata_path))
        studies.append(StudyRecord(dataset, metadata, evaluate_dataset(dataset)))
    return BenchmarkConfig(
        studies=studies,
        engines=engines,
        iterations=int(raw.get("iterations", 10000)),
        base_seed=int(raw.get("seed", 0)),
        workers=int(raw.get("workers", 1)),
    )
