"""The benchmark workloads: inputs, set-up, measured loop and output checks.

Why each workload exists:

- ``fidelity``: the criterion-4 shape, one study with n=600 per arm,
  engines ``case`` and ``kde``, ``workers=1``. Large arms make this the
  workload where ``evaluate`` and the kde accept-reject sampler dominate,
  measured serially.
- ``all-engines``: the criterion-5 shape, one study with n=150 per arm,
  all four engines, ``workers=1``. It is the only workload that fits
  parametric models, so it covers ``distributions`` in set-up, and the
  only one that runs ``condboot``. Small arms make per-call overhead count
  more than array size. The criterion-5 shape has ``workers=2``, but on a
  shared 2-vCPU host the thread pool's throughput moved by 7 to 15 percent
  (quartile spread over median, five seeds) whichever clock measured it,
  and the single-thread calibration kernel below does not follow a
  two-thread pool; the pool is left to a quieter host.
- ``reconstruct``: a corpus of two-arm studies, half with fine digitized
  inputs (many short intervals) and half with coarse ones (few long
  intervals), each read, reconstructed and written. It uses no engine and
  no ``evaluate`` beyond its checks, so it is the control that those
  layers' optimisations should leave unchanged.

The measured calls go through module attributes (``harness.run_benchmark``
and so on) so that the traced run's wrappers see them; the output checks
use the names imported below, which the wrappers never replace.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from survbench import core, distributions, engines, harness, reconstruct
from survbench.core import km_estimate, median_survival
from survbench.evaluate import DegenerateTestError, logrank_test, rmst

import inputs
from spans import ENGINE_SHORT, LAYERS, SpanRecorder, span_totals, tracing

# Criterion-4 tolerances on the median simulated-minus-reported diff; the
# rmstd tolerance is this share of the mean of the two arms' RMST.
FIDELITY_TOLERANCE = {"logrank_p": 0.05, "hazard_ratio": 0.05, "rmstd": 0.05}
# Only case resampling is held to them. kde smooths the event times, and
# on about three in ten studies of this shape its medians fall outside them
# (criterion 4 holds on its own study); kde's medians are reported only.
FIDELITY_CHECKED_ENGINES = ("case-resampling",)
# Criterion-2 round-trip tolerances. Fine inputs must round-trip: a study
# that does not is a failed operation. Coarse inputs lose information, and
# criterion 2 holds them to their tolerances as a corpus (18 of 20 studies),
# not one by one: a coarse study outside them is not a failed operation.
# The run fails if fewer than MIN_COARSE_WITHIN_TOLERANCE of the distinct
# coarse studies it reconstructed are within them. On this corpus about
# 5 % miss (1 to 12 of 120 over seeds 1-24), so 18 of 20 would fail a
# correct program on some seeds; 0.8 fails it only when reconstruction
# has got worse.
FINE_P_TOLERANCE = 1e-6
COARSE_P_TOLERANCE = 0.02
COARSE_MEDIAN_TOLERANCE = 0.7
MIN_COARSE_WITHIN_TOLERANCE = 0.8
# Resampling engines tie by construction: every replicate has ties and the
# chunk's median tie ratio is above 0.5. Criterion 3 asks above 0.5 of every
# replicate, but condboot on n=150 (mean 0.61, sd 0.03) dips below 0.5
# in about one replicate in several thousand. The smooth engines (kde,
# parametric) draw continuous times and never tie.
RESAMPLING_ENGINES = ("case-resampling", "conditional-bootstrap")

PROBLEM_LIMIT = 20

# In the traced run the layer spans under run_benchmark (model building,
# simulate, evaluate_dataset, emit_reports) must cover at least this share
# of it; the rest is run_benchmark's own bookkeeping. A lower share means
# some work runs outside every wrapper.
MIN_ACCOUNTED_FRAC = 0.95

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# The host's speed drifts by ten percent and more over minutes (other
# guests of a shared machine), in CPU time as much as in wall time. A fixed
# kernel of interpreter and array work is timed before and after every
# chunk, and each chunk's time is rescaled to a host on which the kernel
# takes CALIBRATION_REFERENCE_S. Over ten seeds this cut the quartile
# spread of the throughput medians from 10-25 % to 3-10 %; the raw
# wall-clock figures stay in the result file.
CALIBRATION_REFERENCE_S = 0.004
_CALIBRATION_ROWS = np.random.default_rng(0).random(600)
_CALIBRATION_COLUMNS = np.random.default_rng(1).random(500)


def calibration_seconds(repeats: int = 3) -> float:
    """Median time of the calibration kernel."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        table = {}
        for i in range(3000):
            total += (i * 7) % 13
            table[i & 255] = total
        sorted([(i % 17, float(i)) for i in range(1500)])
        z = _CALIBRATION_ROWS[:, None] - _CALIBRATION_COLUMNS[None, :]
        np.exp(-0.5 * z * z).sum()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


@dataclass
class Timer:
    """Accumulated wall seconds of the blocks run under it."""

    wall: float = 0.0

    @contextlib.contextmanager
    def running(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - started


@dataclass
class ChunkResult:
    """One measured call: a run_benchmark call, or one slice of the corpus.

    Chunks with equal `key` do the same work, so their times differ only
    by noise.
    """

    key: int
    ops: int
    failed: int
    seconds: float | None  # wall time of the program calls; None if the call raised
    calibration_s: float = CALIBRATION_REFERENCE_S  # kernel time around the chunk


def ops_per_second(results: list[ChunkResult], calibrate: bool = True) -> float:
    """Operations over the summed median time of each distinct chunk.

    Times are calibrated unless `calibrate` is false. The median per key
    drops chunks slowed by other guests of a shared host; summing over
    keys weighs every slice of the corpus equally however many times the
    run reached it.
    """
    by_key: dict[int, list[ChunkResult]] = {}
    for r in results:
        if r.seconds:
            by_key.setdefault(r.key, []).append(r)
    if not by_key:
        return 0.0
    ops = sum(group[0].ops for group in by_key.values())
    def seconds(r):
        return r.seconds * CALIBRATION_REFERENCE_S / r.calibration_s if calibrate else r.seconds

    return ops / sum(statistics.median(seconds(r) for r in group) for group in by_key.values())


@dataclass
class Problems:
    messages: list[str] = field(default_factory=list)
    count: int = 0

    def add(self, message: str) -> None:
        self.count += 1
        if len(self.messages) < PROBLEM_LIMIT:
            self.messages.append(message)


# ---------------------------------------------------------------------------
# replication workloads


@dataclass(frozen=True)
class ReplicationSpec:
    name: str
    n: int
    engines: tuple[str, ...]
    # Iterations per run_benchmark call. Every call rebuilds its models and
    # writes its reports; the traced run reports both per replicate
    # (engines.build_model.in_run.s, harness.emit_reports.s).
    chunk_iterations: int
    study_shape: dict
    check_fidelity: bool
    setup_repeats: int = 9

    def start(self, workdir: str, seed: int) -> "ReplicationRun":
        return ReplicationRun(self, workdir, seed)


class ReplicationRun:
    """`survbench bench` replayed in chunks of `chunk_iterations`."""

    def __init__(self, spec: ReplicationSpec, workdir: str, seed: int) -> None:
        self.spec = spec
        self.outdir = os.path.join(workdir, "out")
        rng = inputs.workload_rng(seed, spec.name)
        dataset = inputs.synth_study(rng, spec.n, **spec.study_shape)
        self.config_path = inputs.write_replication_inputs(
            os.path.join(workdir, "in"),
            dataset,
            study_id=spec.name,
            engines=list(spec.engines),
            iterations=spec.chunk_iterations,
            seed=int(rng.integers(0, 2**31)),
        )
        self.config: harness.BenchmarkConfig | None = None
        self.problems = Problems()
        self.pooled: dict[tuple[str, str], list[float]] = {}
        self.detail: dict = {}

    def setup(self) -> float:
        """Parse the inputs, evaluate the reference and fit every pair."""
        started = time.perf_counter()
        config = harness.load_config(self.config_path)
        for record in config.studies:
            for engine in config.engines:
                for arm in record.dataset.arms:
                    engines.build_model(engine, arm)
        self.config = config
        return time.perf_counter() - started

    def chunk(self, k: int, recorder: SpanRecorder | None = None) -> ChunkResult:
        config = replace(self.config, base_seed=self.config.base_seed + k, output_dir=self.outdir)
        ops = config.iterations * len(config.studies) * len(config.engines)
        started = time.perf_counter()
        try:
            result = harness.run_benchmark(config)
        except Exception:
            self.problems.add(f"chunk {k}: run_benchmark raised\n{traceback.format_exc()}")
            return ChunkResult(0, ops, ops, None)
        elapsed = time.perf_counter() - started
        return ChunkResult(0, ops, self._check(config, result), elapsed)

    def _check(self, config: harness.BenchmarkConfig, result: harness.BenchmarkResult) -> int:
        """Count failed replicates; a replicate is one (iteration, study, engine)."""
        ops = config.iterations * len(config.studies) * len(config.engines)
        report_path = os.path.join(config.output_dir, "report.json")
        missing = [p for p in result.output_files if not os.path.isfile(p)]
        if missing or report_path not in result.output_files:
            self.problems.add(f"seed {config.base_seed}: report files missing: {missing}")
            return ops
        with open(report_path) as fh:
            listed = json.load(fh)["outputs"]
        if sorted(listed) != sorted(os.path.basename(p) for p in result.output_files if p != report_path):
            self.problems.add(f"seed {config.base_seed}: report.json lists {listed}")
            return ops
        for skipped in result.skipped:
            self.problems.add(f"seed {config.base_seed}: pair skipped: {skipped}")

        bad: set[tuple[str, str, int]] = set()
        for record in config.studies:
            sid = record.metadata.study_id
            p_ref = record.metadata.reported_logrank_p
            for engine in config.engines:
                if (sid, engine) not in result.runtimes.seconds:
                    bad |= {(sid, engine, i) for i in range(config.iterations)}
                    continue
                for i, diff in result.diffs.values[(sid, engine, "logrank_p")]:
                    if not -1e-12 <= diff + p_ref <= 1.0 + 1e-12:
                        self.problems.add(f"{sid}/{engine} iteration {i}: p {diff + p_ref} outside [0, 1]")
                        bad.add((sid, engine, i))
                ties = dict(result.diffs.values[(sid, engine, "tie_ratio")])
                for i in range(config.iterations):
                    ratio = ties.get(i)
                    if ratio is None or not 0.0 <= ratio <= 1.0:
                        split_ok = False
                    elif engine in RESAMPLING_ENGINES:
                        split_ok = ratio > 0.0
                    else:
                        split_ok = ratio == 0.0
                    if not split_ok:
                        self.problems.add(f"{sid}/{engine} iteration {i}: tie ratio {ratio}")
                        bad.add((sid, engine, i))
                if engine in RESAMPLING_ENGINES and ties and statistics.median(ties.values()) <= 0.5:
                    self.problems.add(f"{sid}/{engine}: median tie ratio {statistics.median(ties.values())}")
                    bad |= {(sid, engine, i) for i in range(config.iterations)}
                if self.spec.check_fidelity:
                    for metric in FIDELITY_TOLERANCE:
                        self.pooled.setdefault((engine, metric), []).extend(
                            result.diffs.series(sid, engine, metric)
                        )
        return len(bad)

    def final_check(self) -> None:
        if not self.spec.check_fidelity:
            return
        medians = self.detail["fidelity_median_over_tolerance"] = {}
        for record in self.config.studies:
            tau = record.reference.tau
            rmst_scale = 0.5 * sum(rmst(arm, tau) for arm in record.dataset.arms)
            for engine in self.config.engines:
                for metric, share in FIDELITY_TOLERANCE.items():
                    tolerance = share * rmst_scale if metric == "rmstd" else share
                    series = self.pooled.get((engine, metric), [])
                    checked = engine in FIDELITY_CHECKED_ENGINES
                    if not series:
                        if checked:
                            self.problems.add(f"{engine}/{metric}: no defined iterations")
                        continue
                    median = float(np.median(series))
                    medians[f"{engine}/{metric}"] = median / tolerance
                    if checked and abs(median) > tolerance:
                        self.problems.add(f"{engine}/{metric}: median diff {median:+.4f} beyond +/-{tolerance:.4f}")


# ---------------------------------------------------------------------------
# reconstruction workload


@dataclass(frozen=True)
class ReconstructSpec:
    name: str
    studies: int
    chunk_studies: int  # a chunk is this many consecutive studies, half fine and half coarse
    setup_repeats: int = 3

    def __post_init__(self) -> None:
        if self.studies % self.chunk_studies or self.chunk_studies % 2:
            raise ValueError("the corpus must split into slices of an even number of studies")

    def start(self, workdir: str, seed: int) -> "ReconstructRun":
        return ReconstructRun(self, workdir, seed)


class ReconstructRun:
    """Read, reconstruct and write every corpus study, once per chunk."""

    def __init__(self, spec: ReconstructSpec, workdir: str, seed: int) -> None:
        self.spec = spec
        self.outdir = os.path.join(workdir, "out")
        os.makedirs(self.outdir, exist_ok=True)
        self.corpus = inputs.write_corpus(
            os.path.join(workdir, "in"), inputs.workload_rng(seed, spec.name), spec.studies
        )
        self.expected = [self._statistics(entry.original) for entry in self.corpus]
        self.problems = Problems()
        self.coarse_within: dict[str, bool] = {}  # study id -> within the criterion-2 tolerances
        self.detail: dict = {}

    @staticmethod
    def _statistics(dataset: core.StudyDataset) -> tuple[float, list[float | None]]:
        return (
            logrank_test(dataset).p_value,
            [median_survival(km_estimate(arm)) for arm in dataset.arms],
        )

    def _read(self, entry: inputs.CorpusEntry) -> tuple:
        with open(entry.totals_path) as fh:
            totals = json.load(fh)
        return tuple(
            reconstruct.load_digitized_arm(label, coords, risk, totals.get(label))
            for label, (coords, risk) in entry.arm_files.items()
        )

    def setup(self) -> float:
        """Load every digitized CSV of the corpus."""
        started = time.perf_counter()
        for entry in self.corpus:
            self._read(entry)
        return time.perf_counter() - started

    def chunk(self, k: int, recorder: SpanRecorder | None = None) -> ChunkResult:
        """Slice k of the corpus, wrapping around at its end."""
        size = self.spec.chunk_studies
        key = k % (len(self.corpus) // size)
        timer = Timer()
        failed = 0
        for j in range(key * size, (key + 1) * size):
            entry = self.corpus[j]
            if recorder is not None:
                recorder.set_iteration(j)
            out_path = os.path.join(self.outdir, f"{entry.study_id}.csv")
            try:
                with timer.running():
                    arms = self._read(entry)
                    rebuilt, _ = reconstruct.reconstruct_study(arms, entry.study_id)
                    core.store_dataset(rebuilt, out_path)
            except Exception:
                self.problems.add(f"{entry.study_id}: raised\n{traceback.format_exc()}")
                failed += 1
                continue
            failed += not self._check(entry, self.expected[j], rebuilt, out_path)
        return ChunkResult(key, size, failed, timer.wall)

    def _check(self, entry, expected, rebuilt: core.StudyDataset, out_path: str) -> bool:
        """Whether one study was reconstructed and written; records its coarse round trip."""
        p_before, medians_before = expected
        try:
            p_after, medians_after = self._statistics(rebuilt)
        except DegenerateTestError:
            p_after, medians_after = math.nan, [None, None]
        p_diff = abs(p_before - p_after)
        if not os.path.isfile(out_path):
            self.problems.add(f"{entry.study_id}: {out_path} not written")
            return False
        if entry.kind == "fine":
            if not p_diff <= FINE_P_TOLERANCE:
                self.problems.add(f"{entry.study_id}: fine round trip p deviates by {p_diff:.2e}")
                return False
            return True
        self.coarse_within[entry.study_id] = p_diff <= COARSE_P_TOLERANCE and all(
            a is not None and b is not None and abs(a - b) <= COARSE_MEDIAN_TOLERANCE
            for a, b in zip(medians_before, medians_after)
        )
        return True

    def final_check(self) -> None:
        """Criterion 2 over the distinct coarse studies of the run."""
        within = sum(self.coarse_within.values())
        total = len(self.coarse_within)
        self.detail["coarse_within_tolerance"] = f"{within}/{total}"
        if total and within < MIN_COARSE_WITHIN_TOLERANCE * total:
            self.problems.add(
                f"coarse round trip within the criterion-2 tolerances in only {within}/{total} studies"
            )


WORKLOADS = {
    "fidelity": ReplicationSpec(
        name="fidelity",
        n=600,
        engines=("case", "kde"),
        # building case and kde models is cheap: at 10 iterations the
        # one-time work is about 3 % of a call. Calls of 50 iterations
        # (4 s) left the calibration kernel too far from the work and
        # spread the throughput median by 16 % over five seeds, against
        # 5 % at 10.
        chunk_iterations=10,
        study_shape=dict(shape=1.4, scale1=10.0, scale2=12.0, censor_low=20.0, censor_high=55.0),
        check_fidelity=True,
    ),
    "all-engines": ReplicationSpec(
        name="all-engines",
        n=150,
        engines=("parametric", "kde", "case", "condboot"),
        # parametric fitting makes each call's model building about 0.3 s:
        # a third of a 25-iteration call, about 4 % of a 300-iteration one
        chunk_iterations=300,
        study_shape={},
        check_fidelity=False,
    ),
    "reconstruct": ReconstructSpec(name="reconstruct", studies=240, chunk_studies=20),
}


# ---------------------------------------------------------------------------
# running a workload


def measure(run, seconds: float) -> list[ChunkResult]:
    """Run chunks until `seconds` have passed, and at least one."""
    results = []
    started = time.perf_counter()
    while not results or time.perf_counter() - started < seconds:
        before = calibration_seconds()
        result = run.chunk(len(results))
        result.calibration_s = (before + calibration_seconds()) / 2
        results.append(result)
    return results


def peak_rss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one benchmark process measured and checked."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    problems: list[str]
    detail: dict


def run_untraced(spec, workdir: str, seed: int, seconds: float) -> Outcome:
    """The end-to-end metrics, as medians over set-ups and over chunks."""
    run = spec.start(workdir, seed)
    setups = []
    for _ in range(spec.setup_repeats):
        before = calibration_seconds()
        wall = run.setup()
        setups.append((wall, (before + calibration_seconds()) / 2))
    results = measure(run, seconds)
    run.final_check()
    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    rate = ops_per_second(results)
    metrics = {
        "setup_s": statistics.median(wall * CALIBRATION_REFERENCE_S / cal for wall, cal in setups),
        "ops_per_s": rate,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (attempted - failed) / attempted,
    }
    return Outcome(
        correct=not run.problems.count and rate > 0,
        attempted=attempted,
        failed=failed,
        metrics={name: (value, E2E_UNITS[name]) for name, value in metrics.items()},
        problems=run.problems.messages,
        detail={
            "setup_s": setups,
            "raw_setup_s": statistics.median(wall for wall, _ in setups),
            "raw_ops_per_s": ops_per_second(results, calibrate=False),
            "chunks": [(r.key, r.ops, r.seconds, r.calibration_s) for r in results],
            **run.detail,
        },
    )


def run_traced(spec, workdir: str, seed: int, seconds: float, spans_path: str) -> Outcome:
    """Each chunk runs untraced and then traced; per-layer figures come from the latter.

    Interleaving the two keeps drift in the host's speed out of the
    tracing overhead (traced wall time over untraced wall time, minus one).
    """
    run = spec.start(workdir, seed)
    recorder = SpanRecorder()
    with tracing(recorder):
        run.setup()
    recorder.phase = "measure"
    untraced: list[ChunkResult] = []
    traced: list[ChunkResult] = []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        k = len(traced)
        untraced.append(run.chunk(k))
        recorder.chunk = k
        with tracing(recorder):
            traced.append(run.chunk(k, recorder))
    run.final_check()
    recorder.write(spans_path)

    attempted = sum(r.ops for r in untraced + traced)
    failed = sum(r.failed for r in untraced + traced)
    wall_untraced = sum(r.seconds or 0.0 for r in untraced)
    wall_traced = sum(r.seconds or 0.0 for r in traced)
    overhead = wall_traced / wall_untraced - 1.0 if wall_untraced else 0.0
    metrics = layer_metrics(recorder, sum(r.ops for r in traced), overhead)
    if isinstance(spec, ReplicationSpec):
        accounted = metrics["harness.accounted_frac"][0]
        if accounted < MIN_ACCOUNTED_FRAC:
            run.problems.add(f"layer spans cover only {accounted:.4f} of run_benchmark; a wrapper misses work")
    return Outcome(
        correct=not run.problems.count,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        problems=run.problems.messages,
        detail={
            "spans": os.path.basename(spans_path),
            "chunks": len(traced),
            "wall_untraced_s": wall_untraced,
            "wall_traced_s": wall_traced,
            **run.detail,
        },
    )


PER_OP_SECONDS = (
    "evaluate.evaluate_dataset",
    "evaluate.logrank_test",
    "evaluate.cox_hazard_ratio",
    "evaluate.rmstd",
    "evaluate.tie_ratio",
    "core.km_estimate",
    "core.arm_from_arrays",
    "core.store_dataset",
    "harness.run_benchmark",
    "harness.emit_reports",
    "reconstruct.load_digitized_arm",
    "reconstruct.reconstruct_study.fine",
    "reconstruct.reconstruct_study.coarse",
) + tuple(f"engines.simulate.{engine}" for engine in ENGINE_SHORT.values())

SETUP_SECONDS = (
    "harness.load_config",
    "distributions.select_distribution",
) + tuple(f"engines.build_model.{engine}" for engine in ENGINE_SHORT.values()) + tuple(
    f"distributions.fit_mle.{family}" for family in distributions.CANONICAL_FAMILIES
)

UNDEFINED_METRICS = ("logrank_p", "hazard_ratio", "median_arm1", "median_arm2")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, ops: int, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced run.

    Names in SETUP_SECONDS come from the one traced set-up and read in
    seconds per set-up. Everything else comes from the traced measured
    pass and is divided by its operation count (replicates, or studies on
    ``reconstruct``). A layer that did no work reads 0, as does a ratio
    whose base is 0. ``harness.self_s`` is the ``run_benchmark`` span
    minus its child spans, and ``harness.accounted_frac`` the share of the
    span that the child spans cover; the two add up to the span.
    ``engines.build_model.in_run.s`` is the model building that
    ``run_benchmark`` repeats inside every call, which the measured
    throughput includes.
    """
    setup = span_totals(recorder.spans, "setup")
    measured = span_totals(recorder.spans, "measure")

    def counted(name: str) -> float:
        return recorder.counts.get(("measure", name), 0)

    out: dict[str, tuple[float, str]] = {}
    for name in PER_OP_SECONDS:
        out[f"{name}.s"] = (_ratio(measured.seconds.get(name, 0.0), ops), "s/op")
    for name in SETUP_SECONDS:
        out[f"{name}.s"] = (setup.seconds.get(name, 0.0), "s")
    out["distributions.fit_mle.converged_frac"] = (
        _ratio(
            recorder.counts.get(("setup", "distributions.fit_mle.converged"), 0),
            recorder.counts.get(("setup", "distributions.fit_mle.calls"), 0),
        ),
        "ratio",
    )
    out["core.km_estimate.calls"] = (_ratio(measured.calls.get("core.km_estimate", 0), ops), "count/op")
    out["evaluate.cox.newton_iters"] = (_ratio(counted("evaluate.cox.newton_iters"), ops), "count/op")
    for metric in UNDEFINED_METRICS:
        out[f"evaluate.undefined.{metric}"] = (_ratio(counted(f"evaluate.undefined.{metric}"), ops), "count/op")
    out["engines.kde.density_points"] = (_ratio(counted("engines.kde.density_points"), ops), "count/op")
    out["engines.kde.accept_ratio"] = (
        _ratio(counted("engines.kde.samples"), counted("engines.kde.density_points")),
        "ratio",
    )
    for layer in LAYERS:
        if layer != "harness":
            out[f"{layer}.self_s"] = (_ratio(measured.layer_self_seconds[layer], ops), "s/op")
    span_s = measured.seconds.get("harness.run_benchmark", 0.0)
    self_s = measured.self_seconds.get("harness.run_benchmark", 0.0)
    out["harness.self_s"] = (_ratio(self_s, ops), "s/op")
    out["harness.accounted_frac"] = (_ratio(span_s - self_s, span_s), "ratio")
    rebuilt = sum(v for k, v in measured.seconds.items() if k.startswith("engines.build_model."))
    out["engines.build_model.in_run.s"] = (_ratio(rebuilt, ops), "s/op")
    out["reconstruct.iterations"] = (_ratio(counted("reconstruct.iterations"), ops), "count/op")
    out["reconstruct.converged_frac"] = (
        _ratio(counted("reconstruct.converged"), counted("reconstruct.arms")),
        "ratio",
    )
    out["reconstruct.max_survival_deviation"] = (counted("reconstruct.max_survival_deviation"), "prob")
    out["trace.overhead_frac"] = (overhead, "ratio")
    out["trace.spans"] = (_ratio(sum(measured.calls.values()), ops), "count/op")
    return out
