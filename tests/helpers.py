"""Shared builders for the test suite: arms, synthetic studies, digitized
inputs, and the curve and distribution reads only tests make."""

from __future__ import annotations

import numpy as np

from survbench.core import (
    ArmData,
    KmCurve,
    RandomStream,
    StudyDataset,
    arm_from_arrays,
    km_estimate,
    km_from_arrays,
)
from survbench.distributions import DomainError, ParametricFamily, _cdf, _check_support, _logpdf, _quantile
from survbench.reconstruct import DigitizedArm


def arm_of(pairs, label: str = "A") -> ArmData:
    """An arm from (time, status) pairs, through the checked constructor."""
    return ArmData(label, [t for t, _ in pairs], [s for _, s in pairs])


def columns_of(pairs) -> tuple[list, list]:
    """The two columns of a list of pairs."""
    return [a for a, _ in pairs], [b for _, b in pairs]


def digitized_arm_of(label: str, clicks, rows, total_events=None) -> DigitizedArm:
    """A digitized arm from (time, survival) clicks and (time, n_at_risk)
    rows, through the checked constructor."""
    return DigitizedArm(label, *columns_of(clicks), *columns_of(rows), total_events)


def pairs_of(arm: ArmData) -> list[tuple[float, int]]:
    """The arm's rows as (time, status) pairs of Python values, in order."""
    return list(zip(arm.times().tolist(), arm.statuses().tolist()))


def survival_at(curve: KmCurve, time: float) -> float:
    """The right-continuous step lookup: the survival of the last step at
    or before `time`, and 1 before the first step."""
    i = int(np.searchsorted(curve.time, time, side="right"))
    return float(curve.survival[i - 1]) if i else 1.0


def censoring_atoms(arm: ArmData) -> tuple[np.ndarray, np.ndarray]:
    """Times and masses of the censoring distribution's Kaplan-Meier
    estimate (roles of event and censoring swapped): the curve's drops."""
    curve = km_from_arrays(arm.times(), 1 - arm.statuses())
    return curve.time, -np.diff(np.concatenate(([1.0], curve.survival)))


def undefined_counts(diffs) -> dict[tuple[str, str, str], int]:
    """Per (study, engine, metric) of a run's diffs, the iterations whose
    value is undefined, as `summary_*.csv` counts them."""
    return {key: diffs.iterations - len(pairs) for key, pairs in diffs.values.items()}


def _scalar_or_array(values: np.ndarray, scalar_in: bool):
    return float(values.reshape(())) if scalar_in else values


def pdf(family: ParametricFamily, x) -> np.ndarray | float:
    """The family's density, with the support rule ``cdf`` applies."""
    arr = np.asarray(x, dtype=float)
    _check_support(family, arr, "x")
    return _scalar_or_array(np.exp(_logpdf(family, arr)), arr.ndim == 0)


def cdf(family: ParametricFamily, x) -> np.ndarray | float:
    """The family's distribution function at `x`, on its support."""
    arr = np.asarray(x, dtype=float)
    _check_support(family, arr, "x")
    return _scalar_or_array(np.asarray(_cdf(family, arr), dtype=float), arr.ndim == 0)


def quantile(family: ParametricFamily, q) -> np.ndarray | float:
    """The family's quantile function at levels strictly inside (0, 1)."""
    arr = np.asarray(q, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile levels must lie strictly inside (0, 1)")
    return _scalar_or_array(np.asarray(_quantile(family, arr), dtype=float), arr.ndim == 0)


def synth_arm(
    label: str,
    rng: np.random.Generator,
    n: int,
    shape: float,
    scale: float,
    censor_low: float,
    censor_high: float,
) -> ArmData:
    """One arm with weibull events and uniform censoring."""
    events = rng.weibull(shape, n) * scale
    censors = rng.uniform(censor_low, censor_high, n)
    status = (events < censors).astype(int)
    times = np.where(status == 1, events, censors)
    return arm_from_arrays(label, times, status)


def synth_study(
    seed: int,
    n: int = 150,
    shape: float = 1.3,
    scale1: float = 10.0,
    scale2: float = 16.0,
    censor_low: float = 2.0,
    censor_high: float = 30.0,
) -> StudyDataset:
    """Two-arm study with a scale shift between the arms."""
    rng = RandomStream(seed, 0).generator
    return StudyDataset(
        (
            synth_arm("A", rng, n, shape, scale1, censor_low, censor_high),
            synth_arm("B", rng, n, shape, scale2, censor_low, censor_high),
        )
    )


def corpus_study(seed: int) -> StudyDataset:
    """One study from the fixed 20-study round-trip corpus (seeds 0..19)."""
    rng = RandomStream(seed, 99).generator
    n = int(rng.integers(100, 300))
    shape = rng.uniform(0.9, 1.8)
    sc1 = rng.uniform(8.0, 14.0)
    sc2 = sc1 * rng.uniform(1.2, 1.9)
    arms = []
    for label, sc in (("A", sc1), ("B", sc2)):
        events = rng.weibull(shape, n) * sc
        censors = rng.uniform(4.0, 42.0, n)
        status = (events < censors).astype(int)
        times = np.where(status == 1, events, censors)
        arms.append(arm_from_arrays(label, times, status))
    return StudyDataset(tuple(arms))


def digitize_exact(
    arm: ArmData,
    risk_times: list[float] | None = None,
    prob_grid: float | None = None,
    with_total: bool = True,
) -> DigitizedArm:
    """Turn an arm into digitized inputs by reading its own KM curve.

    With the defaults this produces loss-free inputs: a coordinate for
    every curve step and a risk row at every step time. `prob_grid`
    quantizes the survival axis (e.g. 0.01 for a percent-resolution
    plot) and `risk_times` restricts the risk table to a coarser set
    of time points, mimicking published figures.
    """
    curve = km_estimate(arm)
    coords = [(0.0, 1.0)] + [(st.time, st.survival) for st in curve.steps]
    if prob_grid is not None:
        coords = [(t, round(s / prob_grid) * prob_grid) for t, s in coords]
    times = arm.times()
    if risk_times is None:
        risk_times = [0.0] + [st.time for st in curve.steps]
    rows = []
    for t in risk_times:
        n_at = int(np.sum(times >= t))
        if n_at < 1:
            break
        rows.append((float(t), n_at))
    total = int(arm.statuses().sum()) if with_total else None
    return digitized_arm_of(arm.label, coords, rows, total)


def pooled_event_grid(dataset: StudyDataset) -> list[float]:
    """Risk-table times covering every event time of either arm."""
    times = {0.0}
    for arm in dataset.arms:
        times.update(st.time for st in km_estimate(arm).steps)
    return sorted(times)


def digitize_study(
    dataset: StudyDataset,
    risk_times: list[float] | None = None,
    prob_grid: float | None = None,
    pooled_risk: bool = False,
    with_total: bool = True,
) -> tuple[DigitizedArm, DigitizedArm]:
    if pooled_risk and risk_times is None:
        risk_times = pooled_event_grid(dataset)
    return (
        digitize_exact(dataset.arms[0], risk_times, prob_grid, with_total),
        digitize_exact(dataset.arms[1], risk_times, prob_grid, with_total),
    )


def broken_curve_rules(curve: KmCurve) -> list[str]:
    """The rules of a product-limit curve that `curve`'s columns break."""
    rules = {
        "times strictly increase": np.all(np.diff(curve.time) > 0.0),
        "1 <= events <= at_risk": np.all((curve.events >= 1) & (curve.events <= curve.at_risk)),
        "at_risk does not increase": np.all(np.diff(curve.at_risk) <= 0),
        "survival does not increase": np.all(np.diff(curve.survival, prepend=1.0) <= 0.0),
    }
    return [rule for rule, holds in rules.items() if not holds]
