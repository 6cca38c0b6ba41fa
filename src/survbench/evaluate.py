"""Two-arm comparison statistics: logrank, Cox hazard ratio, medians, RMST."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ArmData, KmCurve, StudyDataset, _run_starts, km_estimate, median_survival

COX_MAX_ITERATIONS = 200
COX_SCORE_TOL = 1e-10
# a fitted log hazard ratio beyond this is treated as monotone likelihood
COX_BETA_LIMIT = 15.0


class DegenerateTestError(RuntimeError):
    """The requested statistic is undefined on this dataset."""


@dataclass
class LogrankResult:
    statistic: float
    p_value: float
    observed_arm1: float
    expected_arm1: float
    variance: float


@dataclass
class CoxResult:
    """exp(beta) compares the hazard of the first arm against the second."""

    hazard_ratio: float | None
    log_hazard_ratio: float | None
    converged: bool
    iterations: int


@dataclass
class EvaluationResult:
    logrank_statistic: float | None
    logrank_p: float | None
    hazard_ratio: float | None
    medians: dict[str, float | None]
    tau: float
    rmstd: float | None
    tie_ratio: float

    def to_json(self) -> dict:
        return {
            "logrank_statistic": self.logrank_statistic,
            "logrank_p": self.logrank_p,
            "hazard_ratio": self.hazard_ratio,
            "medians": self.medians,
            "tau": self.tau,
            "rmstd": self.rmstd,
            "tie_ratio": self.tie_ratio,
        }


@dataclass
class _EventTable:
    """Pooled risk/event counts at each distinct event time."""

    n1: np.ndarray  # at risk, first arm
    n0: np.ndarray  # at risk, second arm
    d1: np.ndarray  # events, first arm
    d0: np.ndarray  # events, second arm


def _arm_counts(times: np.ndarray, events: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, ...]:
    """At-risk and event counts of one arm at each of the times `at`, given its sorted event times."""
    at_risk = times.size - np.sort(times).searchsorted(at, side="left")
    hits = events.searchsorted(at, side="right") - events.searchsorted(at, side="left")
    return at_risk.astype(float), hits.astype(float)


def _build_event_table(dataset: StudyDataset) -> _EventTable:
    arm1, arm2 = dataset.arms
    t1, t2 = arm1.times(), arm2.times()
    e1, e2 = t1[arm1.statuses() == 1], t2[arm2.statuses() == 1]
    e1.sort()
    e2.sort()
    pooled = np.concatenate((e1, e2))
    if pooled.size == 0:
        raise DegenerateTestError("dataset has no events")
    pooled.sort()
    pooled = pooled[_run_starts(pooled)]
    n1, d1 = _arm_counts(t1, e1, pooled)
    n0, d0 = _arm_counts(t2, e2, pooled)
    return _EventTable(n1=n1, n0=n0, d1=d1, d0=d0)


def _logrank(tab: _EventTable) -> LogrankResult:
    n = tab.n1 + tab.n0
    d = tab.d1 + tab.d0
    # n >= d >= 1 at every event time, so a lone subject at risk reads 0 / 1
    tie_factor = (n - d) / np.maximum(n - 1.0, 1.0)
    # per-time differences and the product n1 n0 make both sums symmetric in
    # the arms: a swap negates O - E exactly and keeps every bit of the variance
    o_minus_e = float(((tab.d1 * tab.n0 - tab.d0 * tab.n1) / n).sum())
    v_total = float((d * (tab.n1 * tab.n0) / (n * n) * tie_factor).sum())
    if v_total <= 0.0:
        raise DegenerateTestError("logrank variance is zero for this dataset")
    statistic = o_minus_e**2 / v_total
    p_value = math.erfc(math.sqrt(statistic / 2.0))  # chi-square sf, 1 df
    return LogrankResult(statistic, p_value, float(tab.d1.sum()), float((d * tab.n1 / n).sum()), v_total)


def logrank_test(dataset: StudyDataset) -> LogrankResult:
    """Two-sided logrank test with the hypergeometric tie correction."""
    return _logrank(_build_event_table(dataset))


def _cox_terms(tab: _EventTable, ties: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The beta-free parts of each risk-set row: (a1, a0, weights).

    Row r contributes ``weights[r] * log(a0[r] + a1[r] * exp(beta))`` to the
    log partial likelihood's denominator. Breslow has one row per event
    time; Efron expands an event time with d tied events into d rows, row
    k removing the fraction k/d of the tied events from the risk set.
    """
    if ties == "breslow":
        return tab.n1, tab.n0, tab.d1 + tab.d0
    if ties != "efron":
        raise ValueError(f"ties must be 'efron' or 'breslow', got {ties!r}")
    reps = (tab.d1 + tab.d0).astype(int)
    starts = reps.cumsum() - reps
    fracs = (np.arange(reps.sum()) - starts.repeat(reps)) / reps.repeat(reps)
    a1 = tab.n1.repeat(reps) - fracs * tab.d1.repeat(reps)
    a0 = tab.n0.repeat(reps) - fracs * tab.d0.repeat(reps)
    return a1, a0, np.ones(fracs.size)


def _cox_loglik_parts(
    beta: float, terms: tuple[np.ndarray, ...], d1_total: float
) -> tuple[float, float, float]:
    a1, a0, weights = terms
    r = math.exp(min(max(beta, -700.0), 700.0))
    numer = a1 * r
    denom = a0 + numer
    u = numer / denom
    ll = beta * d1_total - float((weights * np.log(denom)).sum())
    weighted_u = weights * u
    score = d1_total - float(weighted_u.sum())
    hessian = -float((weighted_u * (1.0 - u)).sum())
    return ll, score, hessian


def cox_partial_loglik(dataset: StudyDataset, beta: float, ties: str = "efron") -> float:
    """Partial log-likelihood with the first arm as the indicator group."""
    tab = _build_event_table(dataset)
    return _cox_loglik_parts(beta, _cox_terms(tab, ties), float(tab.d1.sum()))[0]


def cox_score(dataset: StudyDataset, beta: float, ties: str = "efron") -> float:
    tab = _build_event_table(dataset)
    return _cox_loglik_parts(beta, _cox_terms(tab, ties), float(tab.d1.sum()))[1]


def _cox_fit(tab: _EventTable, ties: str) -> CoxResult:
    d1_total = float(tab.d1.sum())
    terms = _cox_terms(tab, ties)
    beta = 0.0
    ll, score, hessian = _cox_loglik_parts(beta, terms, d1_total)
    iterations = 0
    for iterations in range(1, COX_MAX_ITERATIONS + 1):
        if abs(score) < COX_SCORE_TOL and abs(beta) <= COX_BETA_LIMIT:
            return CoxResult(math.exp(beta), beta, True, iterations - 1)
        if hessian >= -1e-300:
            break  # flat likelihood, nothing to climb
        step = -score / hessian
        new_beta = beta + step
        new_ll, new_score, new_hessian = _cox_loglik_parts(new_beta, terms, d1_total)
        halvings = 0
        while new_ll < ll - 1e-12 and halvings < 40:
            step *= 0.5
            new_beta = beta + step
            new_ll, new_score, new_hessian = _cox_loglik_parts(new_beta, terms, d1_total)
            halvings += 1
        beta, ll, score, hessian = new_beta, new_ll, new_score, new_hessian
        if abs(beta) > COX_BETA_LIMIT:
            break  # monotone likelihood
    return CoxResult(None, None, False, iterations)


def cox_hazard_ratio(dataset: StudyDataset, ties: str = "efron") -> CoxResult:
    """Newton-Raphson fit of the single-covariate proportional-hazards model.

    The step is halved until the log-likelihood improves; a run toward
    infinite beta (monotone likelihood) is reported as non-convergence
    with the hazard ratio absent.
    """
    return _cox_fit(_build_event_table(dataset), ties)


def _arm_maxima(arm: ArmData) -> tuple[float, float | None]:
    """The arm's largest time and its largest censored time (None if none)."""
    times = arm.times()
    censored = times[arm.statuses() == 0]
    return float(times.max()), (float(censored.max()) if censored.size else None)


def rmst_tau(dataset: StudyDataset) -> float:
    """Common restriction time for restricted-mean comparisons.

    If both arm maxima are censored the lower of the two wins; otherwise
    the largest censoring time in the whole dataset is used, falling back
    to the overall maximum time when nothing is censored.
    """
    (max1, censored1), (max2, censored2) = map(_arm_maxima, dataset.arms)
    # a censored subject recorded at the shared maximum is still at risk there
    if censored1 == max1 and censored2 == max2:
        tau = min(max1, max2)
    else:
        censored = [t for t in (censored1, censored2) if t is not None]
        tau = max(censored) if censored else max(max1, max2)
    # +0.0 whichever signed zero the maxima picked, which numpy leaves open
    return tau + 0.0


def rmst_from_curve(curve: KmCurve, tau: float) -> float:
    # rectangles of the steps before tau, summed left to right
    k = int(curve.time.searchsorted(tau, side="left"))
    edges = np.concatenate(([0.0], curve.time[:k], [tau]))
    heights = np.concatenate(([1.0], curve.survival[:k]))
    return float((heights * (edges[1:] - edges[:-1])).cumsum()[-1])


def rmst(arm: ArmData, tau: float) -> float:
    """Area under the arm's Kaplan-Meier curve up to tau."""
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    return rmst_from_curve(km_estimate(arm), tau)


def rmstd(dataset: StudyDataset, tau: float | None = None) -> float:
    """Restricted-mean difference, first arm minus second arm."""
    if tau is None:
        tau = rmst_tau(dataset)
    return rmst(dataset.arms[0], tau) - rmst(dataset.arms[1], tau)


def tie_ratio(dataset: StudyDataset) -> float:
    """Fraction of pooled observations sharing their time with another one."""
    arm1, arm2 = dataset.arms
    times = np.concatenate((arm1.times(), arm2.times()))
    times.sort()
    # a sorted value is tied when it equals its left or its right neighbour
    same = times[1:] == times[:-1]
    tied = np.zeros(times.size, dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    return float(np.count_nonzero(tied)) / times.size


def evaluate_dataset(dataset: StudyDataset) -> EvaluationResult:
    """All comparison statistics; degenerate ones are recorded as absent.

    Logrank and Cox share one event table: the logrank test is the Cox
    score test at beta = 0, over the same risk sets. The two curves the
    medians are read from are held until ``rmstd`` has run, so its
    ``km_estimate`` calls return them instead of building them again.
    """
    statistic = p_value = hazard_ratio = None
    try:
        tab = _build_event_table(dataset)
        hazard_ratio = _cox_fit(tab, "efron").hazard_ratio
        lr = _logrank(tab)
        statistic, p_value = lr.statistic, lr.p_value
    except DegenerateTestError:
        pass  # no events at all, or a zero logrank variance
    curves = [km_estimate(arm) for arm in dataset.arms]
    medians = {arm.label: median_survival(curve) for arm, curve in zip(dataset.arms, curves)}
    tau = rmst_tau(dataset)
    return EvaluationResult(
        logrank_statistic=statistic,
        logrank_p=p_value,
        hazard_ratio=hazard_ratio,
        medians=medians,
        tau=tau,
        # tau is 0 when, e.g., the only censored time is 0: no area to compare
        rmstd=rmstd(dataset, tau) if tau > 0.0 else None,
        tie_ratio=tie_ratio(dataset),
    )
