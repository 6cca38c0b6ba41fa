"""Implementations that the package replaced, kept as a reference.

``LatentPair`` and ``observe`` are the scalar observation rule that
``observe_arrays`` vectorises. ``km_from_arrays`` and ``build_event_table``
find the distinct event times with ``np.unique`` and sort each arm again
for every count, as the package used to. ``evaluate_dataset`` and the
statistics below it score a study the way the package used to, building
one event table per statistic and recomputing Cox's beta-free terms at
every Newton step. ``fit_mle`` and ``fit_candidates`` fit the families with
a Nelder-Mead objective that builds a ``ParametricFamily`` and opens a
floating-point error context at every evaluation, and mask the mixture's
Weibull part even where every point is positive. Most other functions
repeat the per-step or per-subject loop the package used to run, working
on plain Python values;
the kde functions evaluate the whole kernel matrix of a proposal block at
once, as the sampler used to, and ``run_benchmark`` keeps every
iteration's metrics before pivoting them into series, as the harness used
to. ``load_digitized_arm`` parses and checks every value of a digitized
arm and ``DigitizedArm`` checks each value again, cleaning the curve
through a dict of click times, as the reader used to; ``reconstruct_arm``
rebuilds an arm by scanning every click for every risk interval, running
each interval's fixed point through ``reconcile`` with a residual
function, a fresh list of censor positions and a ``PassResult`` per pass,
as reconstruction used to. ``load_dataset``, ``load_metadata``,
``load_event_totals`` and ``load_config`` check their inputs each with its
own copy of the time, count, label and JSON-field rules, as the readers
used to.
``test_parity.py`` requires the package to agree with them exactly, so a
rewrite that reorders arithmetic or random draws shows up as a failure
rather than as a drift in the last digit.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
import time
from dataclasses import dataclass

import numpy as np

from scipy import optimize
from scipy.special import erfc

from survbench.core import (
    ArmData,
    KmCurve,
    Observation,
    ParseError,
    RandomStream,
    StructureError,
    DATASET_HEADER,
    StudyDataset,
    StudyMetadata,
    arm_from_arrays,
    read_csv_rows,
    read_json,
)
from survbench.distributions import (
    _FAMILIES,
    CANONICAL_FAMILIES,
    FIT_TOLERANCE,
    MAX_FIT_ITERATIONS,
    MIXTURE_NORMAL_WEIGHT,
    MIXTURE_WEIBULL_WEIGHT,
    DomainError,
    FitFailureError,
    FittedDistribution,
    ParametricFamily,
    SupportError,
    _norm_logpdf,
    _weibull_logpdf,
    cvm_test,
)
from survbench.engines import ModelBuildError, build_model, simulate
from survbench.evaluate import (
    COX_BETA_LIMIT,
    COX_MAX_ITERATIONS,
    COX_SCORE_TOL,
    CoxResult,
    DegenerateTestError,
    EvaluationResult,
    LogrankResult,
    _EventTable,
)
from survbench.harness import BenchmarkConfig, StudyRecord
from survbench.reconstruct import COORDS_HEADER, ITERATION_CAP, RISK_HEADER, ArmReport, InfeasibleCurveError


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


def km_from_arrays(times: np.ndarray, status: np.ndarray) -> KmCurve:
    """The curve's columns from ``np.unique`` and a fresh sort of every time."""
    event_times, event_counts = np.unique(times[status == 1], return_counts=True)
    at_risk = times.size - np.searchsorted(np.sort(times), event_times, side="left")
    curve = KmCurve.__new__(KmCurve)
    curve._set_columns(event_times, at_risk, event_counts, np.cumprod(1.0 - event_counts / at_risk))
    return curve


def arm_counts(times: np.ndarray, status: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, ...]:
    """At-risk and event counts of one arm at each of the times `at`."""
    at_risk = times.size - np.searchsorted(np.sort(times), at, side="left")
    events = np.sort(times[status == 1])
    hits = np.searchsorted(events, at, side="right") - np.searchsorted(events, at, side="left")
    return at_risk.astype(float), hits.astype(float)


def build_event_table(dataset: StudyDataset) -> _EventTable:
    (t1, s1), (t2, s2) = ((arm.times(), arm.statuses()) for arm in dataset.arms)
    pooled_events = np.unique(np.concatenate([t1[s1 == 1], t2[s2 == 1]]))
    if pooled_events.size == 0:
        raise DegenerateTestError("dataset has no events")
    n1, d1 = arm_counts(t1, s1, pooled_events)
    n0, d0 = arm_counts(t2, s2, pooled_events)
    return _EventTable(n1=n1, n0=n0, d1=d1, d0=d0)


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
    """The restriction time, with a zero one written as +0.0."""
    return _signed_rmst_tau(dataset) + 0.0


def _signed_rmst_tau(dataset: StudyDataset) -> float:
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


def logrank_test(dataset: StudyDataset) -> LogrankResult:
    tab = build_event_table(dataset)
    n = tab.n1 + tab.n0
    d = tab.d1 + tab.d0
    expected = d * tab.n1 / n
    with np.errstate(divide="ignore", invalid="ignore"):
        tie_factor = np.where(n > 1.0, (n - d) / (n - 1.0), 0.0)
    variance = d * (tab.n1 / n) * (1.0 - tab.n1 / n) * tie_factor
    observed = float(np.sum(tab.d1))
    e_total = float(np.sum(expected))
    v_total = float(np.sum(variance))
    if v_total <= 0.0:
        raise DegenerateTestError("logrank variance is zero for this dataset")
    statistic = (observed - e_total) ** 2 / v_total
    p_value = float(erfc(math.sqrt(statistic / 2.0)))
    return LogrankResult(statistic, p_value, observed, e_total, v_total)


def cox_terms(tab, ties: str) -> tuple[np.ndarray, ...]:
    """(n1, n0, f1, f0, fracs, weights), one row per Efron correction step."""
    d = tab.d1 + tab.d0
    if ties == "breslow":
        zeros = np.zeros(d.size)
        return tab.n1, tab.n0, zeros, zeros, zeros, d
    if ties != "efron":
        raise ValueError(f"ties must be 'efron' or 'breslow', got {ties!r}")
    reps = d.astype(int)
    starts = np.cumsum(reps) - reps
    fracs = (np.arange(reps.sum()) - np.repeat(starts, reps)) / np.repeat(reps, reps)
    return (
        np.repeat(tab.n1, reps), np.repeat(tab.n0, reps), np.repeat(tab.d1, reps),
        np.repeat(tab.d0, reps), fracs, np.ones(fracs.size),
    )


def cox_loglik_parts(beta: float, terms, d1_total: float) -> tuple[float, float, float]:
    n1, n0, f1, f0, fracs, weights = terms
    r = math.exp(min(max(beta, -700.0), 700.0))
    denom = (n0 - fracs * f0) + (n1 - fracs * f1) * r
    numer = (n1 - fracs * f1) * r
    u = numer / denom
    ll = beta * d1_total - float(np.sum(weights * np.log(denom)))
    score = d1_total - float(np.sum(weights * u))
    hessian = -float(np.sum(weights * u * (1.0 - u)))
    return ll, score, hessian


def cox_partial_loglik(dataset: StudyDataset, beta: float, ties: str = "efron") -> float:
    tab = build_event_table(dataset)
    return cox_loglik_parts(beta, cox_terms(tab, ties), float(np.sum(tab.d1)))[0]


def cox_score(dataset: StudyDataset, beta: float, ties: str = "efron") -> float:
    tab = build_event_table(dataset)
    return cox_loglik_parts(beta, cox_terms(tab, ties), float(np.sum(tab.d1)))[1]


def cox_hazard_ratio(dataset: StudyDataset, ties: str = "efron") -> CoxResult:
    tab = build_event_table(dataset)
    d1_total = float(np.sum(tab.d1))
    terms = cox_terms(tab, ties)
    beta = 0.0
    ll, score, hessian = cox_loglik_parts(beta, terms, d1_total)
    iterations = 0
    for iterations in range(1, COX_MAX_ITERATIONS + 1):
        if abs(score) < COX_SCORE_TOL and abs(beta) <= COX_BETA_LIMIT:
            return CoxResult(math.exp(beta), beta, True, iterations - 1)
        if hessian >= -1e-300:
            break
        step = -score / hessian
        new_beta = beta + step
        new_ll, new_score, new_hessian = cox_loglik_parts(new_beta, terms, d1_total)
        halvings = 0
        while new_ll < ll - 1e-12 and halvings < 40:
            step *= 0.5
            new_beta = beta + step
            new_ll, new_score, new_hessian = cox_loglik_parts(new_beta, terms, d1_total)
            halvings += 1
        beta, ll, score, hessian = new_beta, new_ll, new_score, new_hessian
        if abs(beta) > COX_BETA_LIMIT:
            break
    return CoxResult(None, None, False, iterations)


def tie_ratio(dataset: StudyDataset) -> float:
    times = np.concatenate([arm.times() for arm in dataset.arms])
    _, inverse, counts = np.unique(times, return_inverse=True, return_counts=True)
    return float(np.count_nonzero(counts[inverse] > 1)) / times.size


def evaluate_dataset(dataset: StudyDataset) -> EvaluationResult:
    """Every statistic of a study, with one event table per statistic."""
    try:
        lr = logrank_test(dataset)
        statistic, p_value = lr.statistic, lr.p_value
    except DegenerateTestError:
        statistic, p_value = None, None
    try:
        hazard_ratio = cox_hazard_ratio(dataset).hazard_ratio
    except DegenerateTestError:
        hazard_ratio = None
    steps = [km_steps(arm.times(), arm.statuses()) for arm in dataset.arms]
    medians = {arm.label: median_survival(s) for arm, s in zip(dataset.arms, steps)}
    tau = rmst_tau(dataset)
    return EvaluationResult(
        logrank_statistic=statistic,
        logrank_p=p_value,
        hazard_ratio=hazard_ratio,
        medians=medians,
        tau=tau,
        rmstd=rmst_from_steps(steps[0], tau) - rmst_from_steps(steps[1], tau) if tau > 0.0 else None,
        tie_ratio=tie_ratio(dataset),
    )


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


def monotonize(coords: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sort by time, collapse duplicate times and force survival downhill."""
    cleaned: dict[float, float] = {}
    for t, s in coords:
        t = float(t)
        if not math.isfinite(t) or t < 0.0:
            raise ValueError(f"bad coordinate time {t}")
        s = float(s)
        if math.isnan(s):
            raise ValueError(f"bad coordinate survival {s} at time {t}")
        s = min(max(s, 0.0), 1.0)  # keeps -0.0, as np.clip does
        cleaned[t] = min(s, cleaned.get(t, 1.0))
    out: list[tuple[float, float]] = []
    running = 1.0
    for t in sorted(cleaned):
        running = min(running, cleaned[t])
        out.append((t, running))
    return out


def is_positive_count(n) -> bool:
    if isinstance(n, (bool, np.bool_)):  # bools are not counts
        return False
    try:
        return int(n) == n and n >= 1
    except (OverflowError, ValueError):  # inf, nan
        return False


def check_event_total(label: str, total) -> int:
    if isinstance(total, bool) or not isinstance(total, numbers.Integral) or total < 0:
        raise ValueError(f"arm {label!r}: total_events must be an integer >= 0, got {total!r}")
    return int(total)


@dataclass
class DigitizedArm:
    """A digitized arm checked value by value, then again as a table."""

    label: str
    coordinates: list[tuple[float, float]]
    risk_table: list[tuple[float, int]]
    total_events: int | None = None

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("arm label must be non-empty")
        if not self.coordinates:
            raise ValueError(f"arm {self.label!r}: no curve coordinates")
        if not self.risk_table:
            raise ValueError(f"arm {self.label!r}: empty risk table")
        self.coordinates = monotonize(self.coordinates)
        prev_t = -math.inf
        for t, n in self.risk_table:
            if not math.isfinite(t) or t < 0.0:
                raise ValueError(f"arm {self.label!r}: bad risk time {t}")
            if t <= prev_t:
                raise ValueError(f"arm {self.label!r}: risk times must be strictly increasing")
            if not is_positive_count(n):
                raise ValueError(f"arm {self.label!r}: n_at_risk must be a positive integer")
            prev_t = t
        self.risk_table = [(float(t), int(n)) for t, n in self.risk_table]
        if self.risk_table[0][0] > self.coordinates[0][0]:
            raise ValueError(
                f"arm {self.label!r}: first risk time must not exceed the first coordinate"
            )
        if self.total_events is not None:
            self.total_events = check_event_total(self.label, self.total_events)


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def read_two_column_csv(path: str, header: tuple[str, str], value_parser) -> list[tuple[float, float]]:
    rows = read_csv_rows(path)
    if not rows or tuple(rows[0]) != header:
        raise ParseError(f"{path} line 1: expected header {','.join(header)}")
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ParseError(f"{path} line {lineno}: expected 2 fields, got {len(row)}")
        try:
            out.append((finite_float(row[0]), value_parser(row[1])))
        except ValueError:
            raise ParseError(f"{path} line {lineno}: bad row {row!r}") from None
    if not out:
        raise ParseError(f"{path}: no data rows")
    return out


def load_digitized_arm(label: str, coords_path: str, risk_path: str, total_events=None) -> DigitizedArm:
    """Parse and check every value, then build the arm, which checks them all again."""
    coords = read_two_column_csv(coords_path, COORDS_HEADER, finite_float)
    risk = read_two_column_csv(risk_path, RISK_HEADER, int)
    try:
        return DigitizedArm(label, coords, risk, total_events)
    except ValueError as exc:
        raise StructureError(f"{coords_path}, {risk_path}: {exc}") from None


@dataclass
class PassResult:
    events: list[tuple[float, int]]
    censor_times: list[float]
    n_end: int
    surv_end: float


def uniform_positions(start: float, end: float, count: int) -> list[float]:
    if count <= 0:
        return []
    gap = (end - start) / (count + 1)
    return [start + (g + 1) * gap for g in range(count)]


def pass_interval(clicks, censor_times: list[float], n_start: int, surv_start: float) -> PassResult:
    """Walk the clicks once with a fixed censor placement."""
    n = n_start
    surv = surv_start
    events: list[tuple[float, int]] = []
    k = 0
    for t, target in clicks:
        while k < len(censor_times) and censor_times[k] < t:
            n -= 1
            k += 1
        if n <= 0 or surv <= 0.0:
            break
        if target < surv:
            d = int(round(n * (1.0 - target / surv)))
            d = min(max(d, 0), n)
            if d > 0:
                surv *= 1.0 - d / n
                n -= d
                events.append((t, d))
    n -= len(censor_times) - k
    return PassResult(events, list(censor_times), n, surv)


def reconcile(clicks, t_start, t_end, n_start, surv_start, censor_count, residual):
    """Adjust the censor count by the residual until it is zero; keep the closest pass."""
    best: PassResult | None = None
    best_diff = None
    seen: set[int] = set()
    iterations = 0
    while iterations < ITERATION_CAP:
        iterations += 1
        seen.add(censor_count)
        positions = uniform_positions(t_start, t_end, censor_count)
        result = pass_interval(clicks, positions, n_start, surv_start)
        diff = residual(result)
        if best_diff is None or abs(diff) < abs(best_diff):
            best, best_diff = result, diff
        if diff == 0:
            return result, True, iterations
        next_count = min(max(censor_count + diff, 0), n_start)
        if next_count == censor_count or next_count in seen:
            break
        censor_count = next_count
    assert best is not None
    return best, False, iterations


def reconstruct_arm(arm) -> tuple[ArmData, ArmReport]:
    """Rebuild one digitized arm, scanning every click for every interval."""
    coords = arm.coordinates
    risk = arm.risk_table
    event_times: list[float] = []
    event_counts: list[int] = []
    censor_times: list[float] = []
    n_cur = risk[0][1]
    surv = 1.0
    converged = True
    iterations_total = 0

    def clicks_between(lo: float, hi: float) -> list[tuple[float, float]]:
        return [(t, s) for t, s in coords if lo <= t < hi]

    def survival_before(t: float) -> float:
        out = 1.0
        for ct, cs in coords:
            if ct >= t:
                break
            out = cs
        return out

    for j in range(len(risk) - 1):
        t_start, published_start = risk[j]
        t_end, published_end = risk[j + 1]
        name = f"[{t_start}, {t_end})"
        if published_end > published_start:
            raise InfeasibleCurveError(
                f"interval {name}: published at-risk rises from "
                f"{published_start} to {published_end}"
            )
        implied = int(round(n_cur * survival_before(t_end) / surv)) if surv > 0.0 else 0
        result, ok, used = reconcile(
            clicks_between(t_start, t_end),
            t_start,
            t_end,
            n_cur,
            surv,
            min(max(implied - published_end, 0), n_cur),
            lambda r: r.n_end - published_end,
        )
        converged = converged and ok
        iterations_total += used
        for t, d in result.events:
            event_times.append(t)
            event_counts.append(d)
        censor_times.extend(result.censor_times)
        n_cur = result.n_end
        surv = result.surv_end

    t_last = risk[-1][0]
    tail_clicks = [(t, s) for t, s in coords if t >= t_last]
    t_end_time = max([t for t, _ in coords] + [t_last])
    if arm.total_events is None:
        result, ok, used = pass_interval(tail_clicks, [], n_cur, surv), True, 1
    else:
        target_tail = max(arm.total_events - sum(event_counts), 0)
        result, ok, used = reconcile(
            tail_clicks,
            t_last,
            t_end_time,
            n_cur,
            surv,
            0,
            lambda r: sum(d for _, d in r.events) - target_tail,
        )
    iterations_total += used
    for t, d in result.events:
        event_times.append(t)
        event_counts.append(d)
    censor_times.extend(result.censor_times)
    censor_times.extend([t_end_time] * result.n_end)

    times = np.concatenate((np.repeat(np.array(event_times, float), event_counts), censor_times))
    status = np.repeat((1, 0), (sum(event_counts), len(censor_times)))
    order = np.lexsort((-status, times))
    rebuilt = arm_from_arrays(arm.label, times[order], status[order])

    achieved_events = int(sum(event_counts))
    risk_rows = [(t, n, int(np.count_nonzero(times >= t))) for t, n in risk]
    rows_ok = all(pub == got for _, pub, got in risk_rows)
    events_ok = arm.total_events is None or achieved_events == arm.total_events
    curve = km_from_arrays(rebuilt.times(), rebuilt.statuses())
    deviation = max(abs(curve.survival_at(t) - s) for t, s in coords)
    report = ArmReport(
        label=arm.label,
        n_observations=len(rebuilt),
        max_survival_deviation=float(deviation),
        risk_rows=risk_rows,
        total_events_target=arm.total_events,
        achieved_total_events=achieved_events,
        converged=converged and ok and rows_ok and events_ok,
        iterations=iterations_total,
        misses=[],  # the scanning loop does not say which constraint missed
    )
    return rebuilt, report


def mixture_logpdf(x, wshape, wscale, nmean, nsd):
    """The mixture density with its Weibull part masked at every point."""
    x = np.asarray(x, dtype=float)
    norm_part = math.log(MIXTURE_NORMAL_WEIGHT) + _norm_logpdf(x, nmean, nsd)
    weib_part = np.full_like(norm_part, -np.inf)
    pos = x > 0.0
    if np.any(pos):
        weib_part = np.where(
            pos,
            math.log(MIXTURE_WEIBULL_WEIGHT) + _weibull_logpdf(np.where(pos, x, 1.0), wshape, wscale),
            -np.inf,
        )
    return np.logaddexp(weib_part, norm_part)


def loglik(family_id: str, params: tuple[float, ...], x: np.ndarray) -> float:
    """Log-likelihood through a checked ``ParametricFamily``; -inf outside the domain."""
    try:
        fam = ParametricFamily(family_id, params)
    except DomainError:
        return -np.inf
    logpdf = mixture_logpdf if family_id == "weibull-normal-mixture" else _FAMILIES[family_id].logpdf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        vals = logpdf(x, *fam.parameters)
    total = float(np.sum(vals))
    return total if math.isfinite(total) else -np.inf


def fit_nelder_mead(family_id: str, x: np.ndarray, start: tuple[float, ...]) -> tuple[tuple[float, ...], bool]:
    positive = _FAMILIES[family_id].positive

    def to_natural(y: np.ndarray) -> tuple[float, ...]:
        return tuple(
            math.exp(min(v, 700.0)) if pos else float(v) for v, pos in zip(y, positive)
        )

    def objective(y: np.ndarray) -> float:
        ll = loglik(family_id, to_natural(y), x)
        return -ll if math.isfinite(ll) else 1e300

    y0 = np.array([math.log(s) if pos else s for s, pos in zip(start, positive)])
    res = optimize.minimize(
        objective,
        y0,
        method="Nelder-Mead",
        options={
            "maxiter": MAX_FIT_ITERATIONS,
            "maxfev": 4 * MAX_FIT_ITERATIONS,
            "xatol": FIT_TOLERANCE,
            "fatol": FIT_TOLERANCE,
        },
    )
    return to_natural(res.x), bool(res.success)


def fit_mle(family_id: str, sample_values) -> FittedDistribution:
    spec = _FAMILIES[family_id]
    x = np.asarray(sample_values, dtype=float)
    if x.size < 2:
        raise FitFailureError(f"{family_id}: need at least 2 observations, got {x.size}")
    if float(np.min(x)) == float(np.max(x)):
        raise FitFailureError(f"{family_id}: degenerate sample, all values equal")
    if spec.positive_support and float(np.min(x)) <= 0.0:
        raise SupportError(f"family {family_id} needs a strictly positive sample")
    start = spec.start(x)
    start_ll = loglik(family_id, start, x)
    if not math.isfinite(start_ll):
        raise FitFailureError(f"{family_id}: likelihood not finite at the starting point")
    if spec.fit is not None:
        params, converged = spec.fit(x, start)
    else:
        params, converged = fit_nelder_mead(family_id, x, start)
    ll = loglik(family_id, params, x)
    if not math.isfinite(ll) or ll < start_ll:
        params, ll, converged = start, start_ll, False
    family = ParametricFamily(family_id, params)
    statistic, p_value = cvm_test(x, family)
    return FittedDistribution(family, ll, statistic, p_value, converged)


def fit_candidates(sample_values) -> tuple[list[FittedDistribution], dict[str, str]]:
    fits: list[FittedDistribution] = []
    failures: dict[str, str] = {}
    for family_id in CANONICAL_FAMILIES:
        try:
            fits.append(fit_mle(family_id, sample_values))
        except (SupportError, FitFailureError) as exc:
            failures[family_id] = str(exc)
    return fits, failures


# ---------------------------------------------------------------------------
# the readers as they checked their inputs before the rules moved into core:
# each with its own copy of the time, count, label and JSON-field checks


def load_dataset(path: str) -> StudyDataset:
    rows = read_csv_rows(path)
    if not rows:
        raise ParseError(f"{path}: empty file")
    if tuple(rows[0]) != DATASET_HEADER:
        raise ParseError(f"{path} line 1: expected header {','.join(DATASET_HEADER)}")
    by_arm: dict[str, list[tuple[float, int]]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ParseError(f"{path} line {lineno}: expected 3 fields, got {len(row)}")
        label = row[0]
        if not label:
            raise ParseError(f"{path} line {lineno}: empty arm label")
        try:
            time = float(row[1])
        except ValueError:
            raise ParseError(f"{path} line {lineno}: bad time {row[1]!r}") from None
        if not math.isfinite(time) or time < 0.0:
            raise ParseError(f"{path} line {lineno}: time must be finite and >= 0")
        if row[2] not in ("0", "1"):
            raise ParseError(f"{path} line {lineno}: status must be 0 or 1, got {row[2]!r}")
        by_arm.setdefault(label, []).append((time, int(row[2])))
    if len(by_arm) != 2:
        raise StructureError(f"{path}: expected exactly 2 arm labels, got {sorted(by_arm)}")
    return StudyDataset(tuple(ArmData._from_columns(label, *zip(*pairs)) for label, pairs in by_arm.items()))


def load_metadata(path: str) -> StudyMetadata:
    raw = read_json(path)
    try:
        medians = raw["reported_medians"]
        if not isinstance(medians, dict):
            raise ValueError(f"reported_medians must map arm labels to medians, got {medians!r}")
        return StudyMetadata(
            study_id=raw["study_id"],
            reported_logrank_p=float(raw["reported_logrank_p"]),
            reported_hazard_ratio=(
                None if raw["reported_hazard_ratio"] is None else float(raw["reported_hazard_ratio"])
            ),
            reported_medians={str(k): (None if v is None else float(v)) for k, v in medians.items()},
            curve_class=raw["curve_class"],
        )
    except KeyError as exc:
        raise StructureError(f"{path}: missing metadata key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise StructureError(f"{path}: {exc}") from None


def load_event_totals(path: str, labels) -> dict[str, int | None]:
    totals = read_json(path)
    if not isinstance(totals, dict):
        raise StructureError(f"{path}: expected a JSON object mapping arm label to event total")
    unknown = [label for label in totals if label not in labels]
    if unknown:
        raise StructureError(
            f"{path}: no arm is labelled {', '.join(map(repr, unknown))} "
            f"(the arms are {', '.join(map(repr, labels))})"
        )
    try:
        return {label: None if total is None else check_event_total(label, total) for label, total in totals.items()}
    except ValueError as exc:
        raise StructureError(f"{path}: {exc}") from None


def json_integer(raw: dict, key: str, default: int) -> int:
    value = raw.get(key, default)
    if type(value) is not int:
        int(value)
        raise ValueError(f"{key} must be a JSON integer, got {value!r}")
    return value


def load_config(path: str) -> BenchmarkConfig:
    raw = read_json(path)
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
    try:
        return BenchmarkConfig(
            studies=studies,
            engines=engines,
            iterations=json_integer(raw, "iterations", 10000),
            base_seed=json_integer(raw, "seed", 0),
            workers=json_integer(raw, "workers", 1),
        )
    except (TypeError, ValueError) as exc:
        raise StructureError(f"{path}: {exc}") from None
