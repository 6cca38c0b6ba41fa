"""Implementations that the package replaced, kept as a reference.

``LatentPair`` and ``observe`` are the scalar observation rule that
``observe_arrays`` vectorises. Most other functions repeat the per-step or
per-subject loop the package used to run, working on plain Python values;
the kde functions evaluate the whole kernel matrix of a proposal block at
once, as the sampler used to, and ``run_benchmark`` keeps every
iteration's metrics before pivoting them into series, as the harness used
to.
``test_parity.py`` requires the package to agree with them exactly, so a
rewrite that reorders arithmetic or random draws shows up as a failure
rather than as a drift in the last digit.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from survbench.core import ArmData, Observation, RandomStream, StudyDataset
from survbench.engines import ModelBuildError, build_model, simulate
from survbench.evaluate import evaluate_dataset


@dataclass(frozen=True)
class LatentPair:
    """Uncensored event time paired with a censoring time, before observation."""

    event_time: float
    censoring_time: float

    def __post_init__(self) -> None:
        # censoring_time may be +inf (no censoring mechanism); event_time must be finite
        if not math.isfinite(self.event_time) or self.event_time <= 0.0:
            raise ValueError(f"event_time must be finite and > 0, got {self.event_time}")
        if math.isnan(self.censoring_time) or self.censoring_time <= 0.0:
            raise ValueError(f"censoring_time must be > 0, got {self.censoring_time}")


def observe(pair: LatentPair) -> Observation:
    """The scalar rule behind ``observe_arrays``: a tie is recorded as censored."""
    if pair.event_time < pair.censoring_time:
        return Observation(pair.event_time, 1)
    return Observation(pair.censoring_time, 0)


def km_steps(times: np.ndarray, status: np.ndarray) -> list[tuple[float, int, int, float]]:
    """(time, at_risk, events, survival) per distinct event time."""
    times = np.asarray(times, dtype=float)
    status = np.asarray(status)
    sorted_times = np.sort(times)
    n = times.size
    event_times, event_counts = np.unique(times[status == 1], return_counts=True)
    steps = []
    surv = 1.0
    for t, d in zip(event_times, event_counts):
        at_risk = n - int(np.searchsorted(sorted_times, t, side="left"))
        surv *= 1.0 - float(d) / at_risk
        steps.append((float(t), at_risk, int(d), surv))
    return steps


def median_survival(steps) -> float | None:
    for t, _, _, surv in steps:
        if surv <= 0.5:
            return t
    return None


def rmst_from_steps(steps, tau: float) -> float:
    area = 0.0
    prev_time = 0.0
    prev_surv = 1.0
    for t, _, _, surv in steps:
        if t >= tau:
            break
        area += prev_surv * (t - prev_time)
        prev_time, prev_surv = t, surv
    area += prev_surv * (tau - prev_time)
    return area


def _arm_max_is_censored(arm: ArmData) -> bool:
    event = [o.time for o in arm.observations if o.status == 1]
    censored = [o.time for o in arm.observations if o.status == 0]
    return bool(censored) and max(censored) >= max(event, default=-np.inf)


def rmst_tau(dataset: StudyDataset) -> float:
    arm1, arm2 = dataset.arms
    if _arm_max_is_censored(arm1) and _arm_max_is_censored(arm2):
        return min(max(o.time for o in arm1.observations), max(o.time for o in arm2.observations))
    censored_times = [o.time for arm in dataset.arms for o in arm.observations if o.status == 0]
    if censored_times:
        return max(censored_times)
    return max(o.time for arm in dataset.arms for o in arm.observations)


def efron_fracs(d: np.ndarray) -> np.ndarray:
    """The Efron correction steps 0, 1/k, ..., (k-1)/k of each tied group."""
    return np.concatenate([np.arange(k) / k for k in d.astype(int)])


def case_resample(source: ArmData, n_out: int, gen: np.random.Generator) -> tuple[Observation, ...]:
    idx = gen.integers(0, len(source), size=n_out)
    obs = source.observations
    return tuple(obs[i] for i in idx)


def conditional_bootstrap(
    source: ArmData, atoms: np.ndarray, masses: np.ndarray, gen: np.random.Generator
) -> list[tuple[float, int]]:
    """The per-subject loop, given the censoring-distribution atoms and masses.

    An event row with no censoring mass left beyond its own time gets the
    arm's largest observed time as partner (``+inf`` when the arm has no
    censored subject), like the largest row itself.
    """
    t = source.times()
    s = source.statuses()
    n = t.size
    cum = np.cumsum(masses)
    total = float(cum[-1]) if cum.size else 0.0
    max_idx = int(np.flatnonzero(t == np.max(t))[-1])
    event_latent = [None] * n
    censor_latent = [0.0] * n
    for i in range(n):
        if i == max_idx or s[i] == 0:
            censor_latent[i] = float(t[i])
        else:
            lo = int(np.searchsorted(atoms, t[i], side="right"))
            below = float(cum[lo - 1]) if lo > 0 else 0.0
            tail = total - below
            if lo >= atoms.size or tail <= 0.0:
                censor_latent[i] = float(np.max(t)) if atoms.size else np.inf
            else:
                target = below + gen.random() * tail
                j = int(np.searchsorted(cum, target, side="left"))
                censor_latent[i] = float(atoms[min(max(j, lo), atoms.size - 1)])
    if s[max_idx] == 0:
        event_latent[max_idx] = float(t[max_idx])
    pool = t[s == 1]
    to_draw = [i for i in range(n) if event_latent[i] is None]
    for i, k in zip(to_draw, gen.integers(0, pool.size, size=len(to_draw))):
        event_latent[i] = float(pool[k])
    return [
        (e, 1) if e < c else (c, 0) for e, c in zip(event_latent, censor_latent)
    ]


def kde_density(kde, x) -> np.ndarray:
    """The kernel matrix of every point against the whole support at once."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = (x[:, None] - kde.support[None, :]) / kde.bandwidth
    return np.exp(-0.5 * z * z).sum(axis=1) / (
        kde.support.size * kde.bandwidth * math.sqrt(2.0 * math.pi)
    )


def kde_sample(kde, n: int, gen: np.random.Generator) -> np.ndarray:
    """Accept-reject that evaluates the density on every proposal of a block."""
    out = np.empty(n, dtype=float)
    filled = 0
    proposed = 0
    accepted = 0
    width = kde.upper - kde.lower
    accept_estimate = max(1.0 / (kde.envelope * width), 1e-3)
    while filled < n:
        block = int(min(65536, max(1024, math.ceil((n - filled) / accept_estimate))))
        xs = kde.lower + width * gen.random(block)
        us = gen.random(block)
        keep = xs[us * kde.envelope < kde_density(kde, xs)]
        take = min(n - filled, keep.size)
        out[filled : filled + take] = keep[:take]
        filled += take
        proposed += block
        accepted += keep.size
        if accepted > 0:
            accept_estimate = max(accepted / proposed, 1e-3)
    return out


def store_dataset(dataset: StudyDataset, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("arm", "time", "status"))
        for arm in dataset.arms:
            for obs in arm.observations:
                writer.writerow([arm.label, repr(obs.time), obs.status])


DIFF_METRICS = ("logrank_p", "hazard_ratio", "median_arm1", "median_arm2", "rmstd")
RAW_METRICS = ("tie_ratio", "logrank_statistic")


def run_benchmark(config) -> tuple[dict, dict, dict]:
    """Two passes: run every iteration and keep its metrics, then pivot them.

    Returns the (study, engine, metric) -> [(iteration, value)] series, the
    undefined count per series and the (study, engine) -> simulate seconds
    lists, first iteration dropped.
    """
    models = {}
    for record in config.studies:
        for engine in config.engines:
            try:
                models[(record.metadata.study_id, engine)] = tuple(
                    build_model(engine, arm) for arm in record.dataset.arms
                )
            except ModelBuildError:
                pass

    per_iteration = []
    for i in range(config.iterations):
        stream = RandomStream(config.base_seed, i)
        out = {}
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
                metrics = {
                    "logrank_p": result.logrank_p,
                    "hazard_ratio": result.hazard_ratio,
                    "median_arm1": result.medians[labels[0]],
                    "median_arm2": result.medians[labels[1]],
                    "rmstd": result.rmstd,
                    "tie_ratio": result.tie_ratio,
                    "logrank_statistic": result.logrank_statistic,
                }
                out[(sid, engine)] = (metrics, elapsed)
        per_iteration.append(out)

    values, undefined, seconds = {}, {}, {}
    for record in config.studies:
        sid = record.metadata.study_id
        labels = record.dataset.labels
        refs = {
            "logrank_p": record.metadata.reported_logrank_p,
            "hazard_ratio": record.metadata.reported_hazard_ratio,
            "median_arm1": record.metadata.reported_medians.get(labels[0]),
            "median_arm2": record.metadata.reported_medians.get(labels[1]),
            "rmstd": record.reference.rmstd,
        }
        for engine in config.engines:
            if (sid, engine) not in models:
                continue
            seconds[(sid, engine)] = []
            for metric in DIFF_METRICS + RAW_METRICS:
                values[(sid, engine, metric)] = []
                undefined[(sid, engine, metric)] = 0
            for i, row in enumerate(per_iteration):
                metrics, elapsed = row[(sid, engine)]
                if i > 0:
                    seconds[(sid, engine)].append(elapsed)
                for metric in DIFF_METRICS:
                    sim = metrics[metric]
                    ref = refs[metric]
                    if sim is None or ref is None:
                        undefined[(sid, engine, metric)] += 1
                    else:
                        values[(sid, engine, metric)].append((i, sim - ref))
                for metric in RAW_METRICS:
                    sim = metrics[metric]
                    if sim is None:
                        undefined[(sid, engine, metric)] += 1
                    else:
                        values[(sid, engine, metric)].append((i, sim))
    return values, undefined, seconds
