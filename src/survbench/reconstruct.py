"""Rebuilding patient-level data from digitized Kaplan-Meier curves.

The input per arm is the clicked curve (time, survival pairs), the
published number-at-risk table and optionally the published total event
count. Censoring inside a risk interval is only identifiable up to its
count, so censored subjects are spread uniformly over the interval and
the count is adjusted until the output reproduces every risk-table row.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .core import ArmData, Observation, ParseError, StudyDataset, km_estimate

ITERATION_CAP = 1000

COORDS_HEADER = ("time", "survival")
RISK_HEADER = ("time", "n_risk")


class InfeasibleCurveError(ValueError):
    """The published risk table is impossible: at-risk counts rise over time."""


@dataclass
class DigitizedArm:
    """One digitized arm: curve clicks, risk table, optional event total."""

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
        self.coordinates = _monotonize(self.coordinates)
        prev_t = -math.inf
        for t, n in self.risk_table:
            if not math.isfinite(t) or t < 0.0:
                raise ValueError(f"arm {self.label!r}: bad risk time {t}")
            if t <= prev_t:
                raise ValueError(f"arm {self.label!r}: risk times must be strictly increasing")
            if int(n) != n or n < 1:
                raise ValueError(f"arm {self.label!r}: n_at_risk must be a positive integer")
            prev_t = t
        self.risk_table = [(float(t), int(n)) for t, n in self.risk_table]
        if self.risk_table[0][0] > self.coordinates[0][0]:
            raise ValueError(
                f"arm {self.label!r}: first risk time must not exceed the first coordinate"
            )
        if self.total_events is not None and (self.total_events < 0):
            raise ValueError(f"arm {self.label!r}: total_events must be >= 0")


def _monotonize(coords: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sort by time, collapse duplicate times and force survival downhill."""
    cleaned: dict[float, float] = {}
    for t, s in coords:
        t = float(t)
        s = float(np.clip(s, 0.0, 1.0))
        if not math.isfinite(t) or t < 0.0:
            raise ValueError(f"bad coordinate time {t}")
        cleaned[t] = min(s, cleaned.get(t, 1.0))
    out: list[tuple[float, float]] = []
    running = 1.0
    for t in sorted(cleaned):
        running = min(running, cleaned[t])
        out.append((t, running))
    return out


@dataclass
class ArmReport:
    """How closely one reconstructed arm matches its published inputs."""

    label: str
    n_observations: int
    max_survival_deviation: float
    risk_rows: list[tuple[float, int, int]]  # time, published, achieved
    total_events_target: int | None
    achieved_total_events: int
    converged: bool
    iterations: int

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "n_observations": self.n_observations,
            "max_survival_deviation": self.max_survival_deviation,
            "risk_rows": [list(row) for row in self.risk_rows],
            "total_events": (
                "unconstrained" if self.total_events_target is None else self.total_events_target
            ),
            "achieved_total_events": self.achieved_total_events,
            "converged": self.converged,
            "iterations": self.iterations,
        }


@dataclass
class ReconstructionReport:
    study_id: str | None
    arms: dict[str, ArmReport] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "study_id": self.study_id,
            "arms": {label: rep.to_json() for label, rep in self.arms.items()},
        }

    def store(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")


@dataclass
class _PassResult:
    events: list[tuple[float, int]]
    censor_times: list[float]
    n_end: int
    surv_end: float


def _uniform_positions(start: float, end: float, count: int) -> list[float]:
    if count <= 0:
        return []
    gap = (end - start) / (count + 1)
    return [start + (g + 1) * gap for g in range(count)]


def _pass_interval(
    clicks: list[tuple[float, float]],
    censor_times: list[float],
    n_start: int,
    surv_start: float,
) -> _PassResult:
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
    return _PassResult(events, list(censor_times), n, surv)


def _reconcile(
    clicks: list[tuple[float, float]],
    t_start: float,
    t_end: float,
    n_start: int,
    surv_start: float,
    censor_count: int,
    residual: Callable[[_PassResult], int],
    iteration_cap: int,
) -> tuple[_PassResult, bool, int]:
    """Adjust the censor count by the residual until the residual is zero.

    Inside the risk table the residual is the end-of-interval at-risk gap;
    past its last row it is the gap to the published event total. When no
    censor count can close the gap (the digitized drops alone already
    overshoot it), the closest pass is kept and the mismatch is reported
    through the convergence flag rather than an error: the conflict is
    digitization noise, not an impossible input.
    """
    best: _PassResult | None = None
    best_diff = None
    seen: set[int] = set()
    iterations = 0
    while iterations < iteration_cap:
        iterations += 1
        seen.add(censor_count)
        positions = _uniform_positions(t_start, t_end, censor_count)
        result = _pass_interval(clicks, positions, n_start, surv_start)
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


def reconstruct_arm(
    arm: DigitizedArm, iteration_cap: int = ITERATION_CAP
) -> tuple[ArmData, ArmReport]:
    """Rebuild one arm's observations from its digitized inputs."""
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
        # start from the censor count the published survival implies
        implied = int(round(n_cur * survival_before(t_end) / surv)) if surv > 0.0 else 0
        result, ok, used = _reconcile(
            clicks_between(t_start, t_end),
            t_start,
            t_end,
            n_cur,
            surv,
            min(max(implied - published_end, 0), n_cur),
            lambda r: r.n_end - published_end,
            iteration_cap,
        )
        converged = converged and ok
        iterations_total += used
        for t, d in result.events:
            event_times.append(t)
            event_counts.append(d)
        censor_times.extend(result.censor_times)
        n_cur = result.n_end
        surv = result.surv_end

    # tail past the last risk row
    t_last = risk[-1][0]
    tail_clicks = [(t, s) for t, s in coords if t >= t_last]
    t_end_time = max([t for t, _ in coords] + [t_last])
    if arm.total_events is None:
        result, ok, used = _pass_interval(tail_clicks, [], n_cur, surv), True, 1
    else:
        # past the risk table, censoring is tuned against the event total
        target_tail = max(arm.total_events - sum(event_counts), 0)
        result, ok, used = _reconcile(
            tail_clicks,
            t_last,
            t_end_time,
            n_cur,
            surv,
            0,
            lambda r: sum(d for _, d in r.events) - target_tail,
            iteration_cap,
        )
    iterations_total += used
    for t, d in result.events:
        event_times.append(t)
        event_counts.append(d)
    censor_times.extend(result.censor_times)
    # everyone still at risk leaves the study at the end of follow-up
    censor_times.extend([t_end_time] * result.n_end)

    observations: list[Observation] = []
    for t, d in zip(event_times, event_counts):
        observations.extend(Observation(t, 1) for _ in range(d))
    observations.extend(Observation(t, 0) for t in censor_times)
    observations.sort(key=lambda o: (o.time, -o.status))
    rebuilt = ArmData(arm.label, tuple(observations))

    achieved_events = int(sum(event_counts))
    times = rebuilt.times()
    risk_rows = [
        (t, n, int(np.count_nonzero(times >= t))) for t, n in risk
    ]
    rows_ok = all(pub == got for _, pub, got in risk_rows)
    events_ok = arm.total_events is None or achieved_events == arm.total_events
    curve = km_estimate(rebuilt)
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
    )
    return rebuilt, report


def reconstruct_study(
    arms: tuple[DigitizedArm, DigitizedArm],
    study_id: str | None = None,
    iteration_cap: int = ITERATION_CAP,
) -> tuple[StudyDataset, ReconstructionReport]:
    """Rebuild both arms and bundle the per-arm quality reports."""
    if len(arms) != 2:
        raise ValueError(f"a study needs exactly 2 digitized arms, got {len(arms)}")
    if arms[0].label == arms[1].label:
        raise ValueError(f"arm labels must differ, both are {arms[0].label!r}")
    report = ReconstructionReport(study_id)
    rebuilt = []
    for arm in arms:
        data, arm_report = reconstruct_arm(arm, iteration_cap)
        rebuilt.append(data)
        report.arms[arm.label] = arm_report
    return StudyDataset((rebuilt[0], rebuilt[1])), report


def _read_two_column_csv(
    path: str, header: tuple[str, str], value_parser
) -> list[tuple[float, float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != header:
        raise ParseError(f"{path} line 1: expected header {','.join(header)}")
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ParseError(f"{path} line {lineno}: expected 2 fields, got {len(row)}")
        try:
            out.append((float(row[0]), value_parser(row[1])))
        except ValueError:
            raise ParseError(f"{path} line {lineno}: bad row {row!r}") from None
    if not out:
        raise ParseError(f"{path}: no data rows")
    return out


def load_digitized_arm(
    label: str, coords_path: str, risk_path: str, total_events: int | None = None
) -> DigitizedArm:
    """Read one arm from its coordinate and risk-table CSV pair."""
    coords = _read_two_column_csv(coords_path, COORDS_HEADER, float)
    risk = _read_two_column_csv(risk_path, RISK_HEADER, int)
    return DigitizedArm(
        label=label,
        coordinates=coords,
        risk_table=[(t, int(n)) for t, n in risk],
        total_events=total_events,
    )
