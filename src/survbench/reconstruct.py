"""Rebuilding patient-level data from digitized Kaplan-Meier curves.

The input per arm is the clicked curve (time, survival pairs), the
published number-at-risk table and optionally the published total event
count. Censoring inside a risk interval is only identifiable up to its
count, so censored subjects are spread uniformly over the interval and
the count is adjusted until the output reproduces every risk-table row.
"""

from __future__ import annotations

import json
import math
import numbers
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

import numpy as np

from .core import (
    ArmData,
    ParseError,
    StructureError,
    StudyDataset,
    arm_from_arrays,
    km_estimate,
    read_csv_rows,
    read_json,
)

ITERATION_CAP = 1000

COORDS_HEADER = ("time", "survival")
RISK_HEADER = ("time", "n_risk")


class InfeasibleCurveError(ValueError):
    """The published risk table is impossible: at-risk counts rise over time."""


@dataclass
class DigitizedArm:
    """One digitized arm: curve clicks, risk table, optional event total.

    The constructor checks every value. ``load_digitized_arm`` checks values as
    it parses them, then ``_from_rows`` applies only the rules on the whole table.
    """

    label: str
    coordinates: list[tuple[float, float]]
    risk_table: list[tuple[float, int]]
    total_events: int | None = None

    def __post_init__(self) -> None:
        coordinates = [(float(t), float(s)) for t, s in self.coordinates]
        for t, s in coordinates:
            if math.isnan(s):
                raise ValueError(f"bad coordinate survival {s} at time {t}")
        # a count that is not a positive integer fails the table's n >= 1 rule in its row
        self.risk_table = [(t, int(n) if _is_positive_count(n) else 0) for t, n in self.risk_table]
        self._settle(coordinates)
        self.risk_table = [(float(t), n) for t, n in self.risk_table]

    @classmethod
    def _from_rows(cls, label: str, coordinates, risk_table, total_events) -> DigitizedArm:
        """The constructor for rows of finite floats and int counts, as the reader parses them."""
        arm = cls.__new__(cls)
        arm.label, arm.risk_table, arm.total_events = label, risk_table, total_events
        arm._settle(coordinates)
        return arm

    def _settle(self, coordinates: list[tuple[float, float]]) -> None:
        """Check the rules on the table as a whole and clean the curve."""
        if not self.label:
            raise ValueError("arm label must be non-empty")
        if not coordinates:
            raise ValueError(f"arm {self.label!r}: no curve coordinates")
        if not self.risk_table:
            raise ValueError(f"arm {self.label!r}: empty risk table")
        self.coordinates = _monotonize(coordinates)
        prev_t = -math.inf
        for t, n in self.risk_table:
            if not 0.0 <= t < math.inf:
                raise ValueError(f"arm {self.label!r}: bad risk time {t}")
            if t <= prev_t:
                raise ValueError(f"arm {self.label!r}: risk times must be strictly increasing")
            if n < 1:
                raise ValueError(f"arm {self.label!r}: n_at_risk must be a positive integer")
            prev_t = t
        if self.risk_table[0][0] > self.coordinates[0][0]:
            raise ValueError(f"arm {self.label!r}: first risk time must not exceed the first coordinate")
        if self.total_events is not None:
            self.total_events = _check_event_total(self.label, self.total_events)


def _is_positive_count(n) -> bool:
    if isinstance(n, (bool, np.bool_)):  # bools are not counts
        return False
    try:
        return int(n) == n and n >= 1
    except (OverflowError, ValueError):  # inf, nan
        return False


def _check_event_total(label: str, total) -> int:
    """A published event total: a non-negative integer (bools are not counts)."""
    if isinstance(total, bool) or not isinstance(total, numbers.Integral) or total < 0:
        raise ValueError(f"arm {label!r}: total_events must be an integer >= 0, got {total!r}")
    return int(total)


def _monotonize(coords: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sort by time, collapse duplicate times and force survival downhill.

    `coords` are pairs of floats, no survival nan. A repeated time keeps its
    first click and its least survival.
    """
    for t, _ in coords:
        if not 0.0 <= t < math.inf:
            raise ValueError(f"bad coordinate time {t}")
    out: list[tuple[float, float]] = []
    last = least = floor = math.nan  # floor: the survival before time `last`
    for t, s in sorted(coords, key=itemgetter(0)):  # stable: repeated times keep their order
        s = 0.0 if s < 0.0 else 1.0 if s > 1.0 else s  # clamp, keeping -0.0 as np.clip does
        if t == last:
            least = least if least < s else s
            out[-1] = (out[-1][0], least if least < floor else floor)
        else:
            last, least, floor = t, s, out[-1][1] if out else 1.0
            out.append((t, s if s < floor else floor))
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
    misses: list[tuple[float, float, str, int]]  # interval start, end, constraint, residual

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
            "misses": [{"interval": [a, b], "constraint": c, "residual": r} for a, b, c, r in self.misses],
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


def _reconcile(clicks, t_start, t_end, n_start, surv_start, count, target, tail=False):
    """Walk the interval's clicks once per censor count until the residual is zero.

    A pass spreads the censors evenly over the interval and reads each
    click's drop in survival as events among those still at risk. Inside
    the risk table the residual is the end-of-interval at-risk count minus
    the published one (`target`); past its last row (`tail`) it is the
    interval's events minus what the published total leaves (`target`, None
    if no total was published). The next count adds the residual; a count
    tried before ends the search. When no count closes the gap (the
    digitized drops alone already overshoot it), the closest pass and its
    residual are returned: the conflict is digitization noise, not an
    impossible input. Returns that pass's event times and counts, censor
    times, at-risk count and survival, its residual and the number of passes.
    """
    best = seen = None
    passes = 0
    while passes < ITERATION_CAP:
        passes += 1
        # walk the clicks once, with `placed` censors at t_start + (k + 1) * gap
        placed = count if count > 0 else 0  # count < 0 only when n_start is
        gap = (t_end - t_start) / (placed + 1)
        times, counts, n, surv, k = [], [], n_start, surv_start, 0
        for t, s in clicks:
            while k < placed and t_start + (k + 1) * gap < t:
                n -= 1
                k += 1
            if n <= 0 or surv <= 0.0:
                break
            if s < surv:
                d = round(n * (1.0 - s / surv))
                if d > n:
                    d = n
                if d > 0:
                    surv *= 1.0 - d / n
                    n -= d
                    times.append(t)
                    counts.append(d)
        n -= placed - k
        if not tail:
            diff = n - target
        else:  # the events, as every censor and every event leaves the risk set once
            diff = 0 if target is None else n_start - placed - n - target
        if best is None or abs(diff) < abs(best[0]):
            best = diff, placed, gap, times, counts, n, surv
        if diff == 0:
            break
        next_count = min(max(count + diff, 0), n_start)
        if seen is None:
            seen = set()
        seen.add(count)
        if next_count in seen:
            break
        count = next_count
    diff, placed, gap, times, counts, n, surv = best
    censors = [t_start + (g + 1) * gap for g in range(placed)] if placed else []
    return times, counts, censors, n, surv, diff, passes


def reconstruct_arm(arm: DigitizedArm) -> tuple[ArmData, ArmReport]:
    """Rebuild one arm's observations from its digitized inputs.

    The click times are strictly increasing (``_monotonize``), so each
    interval's clicks, and the survival just before its end, are found by
    bisection rather than by scanning every click.
    """
    coords = arm.coordinates
    click_times = [t for t, _ in coords]
    risk = arm.risk_table
    event_times, event_counts, censor_times, misses = [], [], [], []
    n_cur = risk[0][1]
    surv = 1.0
    iterations_total = 0
    lo = bisect_left(click_times, risk[0][0])  # first click at or after t_start

    for (t_start, published_start), (t_end, published_end) in zip(risk, islice(risk, 1, None)):
        if published_end > published_start:
            raise InfeasibleCurveError(
                f"interval [{t_start}, {t_end}): published at-risk rises from "
                f"{published_start} to {published_end}"
            )
        hi = bisect_left(click_times, t_end, lo)  # first click at or after t_end
        # start from the censor count the published survival implies
        surv_before_end = coords[hi - 1][1] if hi else 1.0
        implied = round(n_cur * surv_before_end / surv) if surv > 0.0 else 0
        start_count = min(max(implied - published_end, 0), n_cur)
        times, counts, censors, n_cur, surv, diff, used = _reconcile(
            coords[lo:hi], t_start, t_end, n_cur, surv, start_count, published_end
        )
        if diff:
            misses.append((t_start, t_end, "risk row", diff))
        lo = hi
        iterations_total += used
        event_times += times
        event_counts += counts
        censor_times += censors

    # past the risk table, censoring is tuned against the event total, if one was published
    t_last = risk[-1][0]
    t_end_time = max(click_times[-1], t_last)
    target_tail = None if arm.total_events is None else max(arm.total_events - sum(event_counts), 0)
    times, counts, censors, n_end, _, diff, used = _reconcile(
        coords[lo:], t_last, t_end_time, n_cur, surv, 0, target_tail, tail=True
    )
    if diff:
        misses.append((t_last, t_end_time, "event total", diff))
    iterations_total += used
    event_times += times
    event_counts += counts
    censor_times += censors
    # everyone still at risk leaves the study at the end of follow-up
    censor_times.extend([t_end_time] * n_end)

    times = np.concatenate((np.repeat(np.array(event_times, float), event_counts), censor_times))
    status = np.repeat((1, 0), (sum(event_counts), len(censor_times)))
    order = np.lexsort((-status, times))  # by time, events first
    times = times[order]
    rebuilt = arm_from_arrays(arm.label, times, status[order])

    achieved_events = int(sum(event_counts))
    at_risk = times.size - np.searchsorted(times, [t for t, _ in risk], side="left")
    risk_rows = [(t, n, got) for (t, n), got in zip(risk, at_risk.tolist())]
    # a constraint the output misses, unless its interval's pass recorded it
    missed = {(end, constraint) for _, end, constraint, _ in misses}
    for j, (t, published, got) in enumerate(risk_rows):
        if got != published and (t, "risk row") not in missed:
            misses.append((risk[j - 1][0] if j else t, t, "risk row", got - published))
    if arm.total_events not in (None, achieved_events) and (t_end_time, "event total") not in missed:
        misses.append((t_last, t_end_time, "event total", achieved_events - arm.total_events))
    curve = km_estimate(rebuilt)
    # the curve read at each click, as KmCurve.survival_at reads it
    read = np.concatenate(([1.0], curve.survival))[
        np.searchsorted(curve.time, click_times, side="right")
    ]
    deviation = np.max(np.abs(read - [s for _, s in coords]))
    report = ArmReport(
        label=arm.label,
        n_observations=len(rebuilt),
        max_survival_deviation=float(deviation),
        risk_rows=risk_rows,
        total_events_target=arm.total_events,
        achieved_total_events=achieved_events,
        converged=not misses,
        iterations=iterations_total,
        misses=misses,
    )
    return rebuilt, report


def reconstruct_study(
    arms: tuple[DigitizedArm, DigitizedArm], study_id: str | None = None
) -> tuple[StudyDataset, ReconstructionReport]:
    """Rebuild both arms and bundle the per-arm quality reports."""
    if len(arms) != 2:
        raise ValueError(f"a study needs exactly 2 digitized arms, got {len(arms)}")
    if arms[0].label == arms[1].label:
        raise ValueError(f"arm labels must differ, both are {arms[0].label!r}")
    rebuilt = [reconstruct_arm(arm) for arm in arms]
    report = ReconstructionReport(study_id, {arm.label: rep for arm, (_, rep) in zip(arms, rebuilt)})
    return StudyDataset(tuple(data for data, _ in rebuilt)), report


def _read_rows(path: str, header: tuple[str, str], value_type: type) -> list[tuple[float, float]]:
    """The data rows of a two-column CSV as (float, `value_type`) pairs of finite values."""
    rows = read_csv_rows(path)
    if not rows or tuple(rows[0]) != header:
        raise ParseError(f"{path} line 1: expected header {','.join(header)}")
    out = []
    isfinite = math.isfinite
    ints = value_type is int  # an int is finite, and may be too large for isfinite
    try:
        for a, b in islice(rows, 1, None):  # a row of other than two fields raises ValueError
            t, v = float(a), value_type(b)
            if not (isfinite(t) and (ints or isfinite(v))):
                raise ValueError
            out.append((t, v))
    except ValueError:
        lineno = len(out) + 2
        row = rows[lineno - 1]
        if len(row) != 2:
            raise ParseError(f"{path} line {lineno}: expected 2 fields, got {len(row)}") from None
        raise ParseError(f"{path} line {lineno}: bad row {row!r}") from None
    if not out:
        raise ParseError(f"{path}: no data rows")
    return out


def load_digitized_arm(
    label: str, coords_path: str, risk_path: str, total_events: int | None = None
) -> DigitizedArm:
    """Read one arm from its coordinate and risk-table CSV pair.

    Each value is converted and checked once, as it is parsed; the arm is
    built from the parsed rows without checking their values again.
    """
    coords = _read_rows(coords_path, COORDS_HEADER, float)
    risk = _read_rows(risk_path, RISK_HEADER, int)
    try:
        return DigitizedArm._from_rows(label, coords, risk, total_events)
    except ValueError as exc:
        raise StructureError(f"{coords_path}, {risk_path}: {exc}") from None


def load_event_totals(path: str, labels: Sequence[str]) -> dict[str, int | None]:
    """Read a JSON object mapping arm label to event total (``null``: unconstrained).

    Every key must name one of the arms in `labels`: a misspelt label would
    otherwise drop its arm's constraint without a word.
    """
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
        return {
            label: None if total is None else _check_event_total(label, total)
            for label, total in totals.items()
        }
    except ValueError as exc:
        raise StructureError(f"{path}: {exc}") from None
