"""Benchmark orchestration: replicated simulation, metric diffs, reports."""

from __future__ import annotations

import csv
import hashlib
import json
import math
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
    store_json,
)
from .engines import ENGINE_KINDS, ArmModel, ModelBuildError, build_model, canonical_engine, simulate
from .evaluate import EvaluationResult, evaluate_dataset

ALL_METRICS = (
    "logrank_p", "hazard_ratio", "median_arm1", "median_arm2", "rmstd", "tie_ratio", "logrank_statistic"
)

BLOCK = 64  # iterations a pair draws, in turn, from one stream


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
    """Per (study, engine): one float64 row per iteration, columns in ALL_METRICS order.

    Diff metrics hold simulated-minus-reference values; raw metrics
    (tie_ratio, logrank_statistic) hold the simulated values themselves.
    NaN marks an undefined value. A skipped pair has no table.
    """

    iterations: int
    table: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)

    def _defined(self, key: tuple[str, str], metric: str) -> tuple[list[int], list[float]]:
        """Iterations and values of one metric's defined entries, as Python numbers."""
        column = self.table[key][:, ALL_METRICS.index(metric)]
        kept = np.flatnonzero(~np.isnan(column))
        return kept.tolist(), column[kept].tolist()

    @property
    def values(self) -> dict[tuple[str, str, str], list[tuple[int, float]]]:
        """Per (study, engine, metric): (iteration, value) pairs of the defined values."""
        return {
            (*key, metric): list(zip(*self._defined(key, metric))) for key in self.table for metric in ALL_METRICS
        }

    def series(self, study: str, engine: str, metric: str) -> list[float]:
        return self._defined((study, engine), metric)[1] if (study, engine) in self.table else []


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


def _iteration_values(result: EvaluationResult, record: StudyRecord) -> list[float]:
    """One replicate's row in ALL_METRICS order, NaN where a value is undefined.

    Diff metrics are simulated minus the study's reference; raw metrics
    have no reference, and subtracting 0.0 keeps their simulated values
    bit for bit (-0.0 included).
    """
    labels = record.dataset.labels
    metadata = record.metadata
    simulated_and_reference = (
        (result.logrank_p, metadata.reported_logrank_p),
        (result.hazard_ratio, metadata.reported_hazard_ratio),
        (result.medians[labels[0]], metadata.reported_medians.get(labels[0])),
        (result.medians[labels[1]], metadata.reported_medians.get(labels[1])),
        (result.rmstd, record.reference.rmstd),
        (result.tie_ratio, 0.0),
        (result.logrank_statistic, 0.0),
    )
    return [math.nan if sim is None or ref is None else sim - ref for sim, ref in simulated_and_reference]


def _stream_id(study_id: str, engine: str, block: int) -> int:
    text = json.dumps([study_id, ENGINE_KINDS.index(engine), block])  # ASCII, one text per key
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def run_benchmark(config: BenchmarkConfig) -> BenchmarkResult:
    """Run every (study, engine) pair for the configured iteration count.

    A pair draws iterations BLOCK*b to BLOCK*b + BLOCK - 1, in order, from
    RandomStream(base_seed, id) alone, where id is the first 8 bytes,
    big-endian, of the blake2b digest of json.dumps([study id, the engine's
    index in ENGINE_KINDS, b]). So a pair's rows depend only on the seed, its
    study, its engine and the iteration: not on the other pairs or the worker
    count, and a shorter run gives a longer one's first rows. Only the
    simulate calls are timed, and the first iteration's time is dropped.
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

    shape = (config.iterations, len(ALL_METRICS))
    diffs = MetricDiffs(config.iterations, {key: np.empty(shape) for key in models})
    seconds = {key: [0.0] * config.iterations for key in models}

    def run_block(task: tuple[tuple[str, str], int]) -> None:
        """One pair's iterations of one block, each row and time written in place."""
        key, start = task
        record, (model1, model2) = models[key]
        sizes = (len(record.dataset.arms[0]), len(record.dataset.arms[1]))
        stream = RandomStream(config.base_seed, _stream_id(*key, start // BLOCK))
        stream.generator  # built here, outside the timed calls
        table, times = diffs.table[key], seconds[key]
        for i in range(start, min(start + BLOCK, config.iterations)):
            t0 = time.perf_counter_ns()
            arm1 = simulate(model1, sizes[0], stream)
            arm2 = simulate(model2, sizes[1], stream)
            times[i] = (time.perf_counter_ns() - t0) / 1e9
            table[i] = _iteration_values(evaluate_dataset(StudyDataset((arm1, arm2))), record)

    tasks = [(key, start) for start in range(0, config.iterations, BLOCK) for key in models]
    with ThreadPoolExecutor(config.workers) if config.workers > 1 else nullcontext() as pool:
        list((map if pool is None else pool.map)(run_block, tasks))
    runtimes = RuntimeRecord({key: times[1:] for key, times in seconds.items()})

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
    for metric in ALL_METRICS:
        columns = {key: result.diffs._defined(key, metric) for key in result.diffs.table}
        summary_path = os.path.join(outdir, f"summary_{metric}.csv")
        with open(summary_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["study", "engine", *_SUMMARY_COLUMNS, "undefined"])
            for (sid, engine), (_, values) in columns.items():
                if values:
                    s = summarize(values)
                    stats = [repr(getattr(s, col)) for col in _SUMMARY_COLUMNS]
                else:
                    stats = [""] * len(_SUMMARY_COLUMNS)
                writer.writerow([sid, engine, *stats, config.iterations - len(values)])
        written.append(summary_path)

        long_path = os.path.join(outdir, f"long_{metric}.csv")
        with open(long_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["study", "engine", "iteration", "value"])
            for (sid, engine), (kept, values) in columns.items():
                writer.writerows([sid, engine, i, repr(value)] for i, value in zip(kept, values))
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
    store_json(payload, report_path)
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
