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
import operator
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

import numpy as np

from .core import (
    MAX_COUNT,
    ArmData,
    ParseError,
    StructureError,
    StudyDataset,
    arm_from_arrays,
    check_labels,
    counts_ok,
    json_value,
    km_estimate,
    read_json,
    read_table,
    times_ok,
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
    it parses them, then ``_from_columns`` applies only the rules on the whole table.
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
        risk_times, counts = _columns(self.risk_table)
        counts = [int(n) if isinstance(n, float) and n.is_integer() else n for n in counts]  # 10.0 is 10
        self._settle(*_columns(coordinates), risk_times, counts)
        self.risk_table = [(float(t), int(n)) for t, n in self.risk_table]

    @classmethod
    def _from_columns(cls, label: str, times, survivals, risk_times, counts, total_events) -> DigitizedArm:
        """The constructor for the reader's columns: finite floats, and int counts up to MAX_COUNT."""
        arm = cls.__new__(cls)
        arm.label, arm.total_events = label, total_events
        arm._settle(times, survivals, risk_times, counts, rows_checked=True)
        return arm

    def _settle(self, times, survivals, risk_times, counts, rows_checked: bool = False) -> None:
        """Check the rules on the table as a whole and clean the curve."""
        if not self.label:
            raise ValueError("arm label must be non-empty")
        if not times:
            raise ValueError(f"arm {self.label!r}: no curve coordinates")
        if not risk_times:
            raise ValueError(f"arm {self.label!r}: empty risk table")
        if not times_ok(times):
            raise ValueError(f"bad coordinate time {next(t for t in times if not times_ok(t))}")
        self.coordinates = _monotonize(times, survivals)
        self.risk_table = list(zip(risk_times, counts))
        # rows a reader checked hold finite times and int counts up to MAX_COUNT: then rising times
        # whose first keeps the time rule, and a least count that keeps the count rule, keep both
        # rules in every row. Otherwise every row is checked, naming the first bad one.
        if not (
            rows_checked
            and all(map(operator.lt, risk_times, islice(risk_times, 1, None)))
            and times_ok(risk_times[:1])
            and counts_ok((min(counts),), 1)
        ):
            prev_t = -math.inf  # within a row, the rules in this order
            for t, n in self.risk_table:
                if not times_ok((t,)):
                    raise ValueError(f"arm {self.label!r}: bad risk time {t}")
                if t <= prev_t:
                    raise ValueError(f"arm {self.label!r}: risk times must be strictly increasing")
                if not counts_ok((n,), 1):
                    raise ValueError(f"arm {self.label!r}: n_at_risk must be a positive integer")
                prev_t = t
        if self.risk_table[0][0] > self.coordinates[0][0]:
            raise ValueError(f"arm {self.label!r}: first risk time must not exceed the first coordinate")
        if self.total_events is not None:
            if not counts_ok((self.total_events,)):
                raise ValueError(_TOTAL_RULE.format(self.label, self.total_events))
            self.total_events = int(self.total_events)


_TOTAL_RULE = "arm {!r}: total_events must be an integer >= 0, got {!r}"


def _columns(pairs) -> tuple[tuple, tuple]:
    return tuple(zip(*pairs)) or ((), ())


def _monotonize(times, survivals) -> list[tuple[float, float]]:
    """Sort by time, collapse duplicate times and force survival downhill.

    The columns hold floats, times finite and >= 0, no survival nan. A
    repeated time keeps its first click and its least survival.
    """
    out: list[tuple[float, float]] = []
    last = least = floor = math.nan  # floor: the survival before time `last`
    for t, s in sorted(zip(times, survivals), key=itemgetter(0)):  # stable: repeated times keep their order
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
    """Rebuild both arms and bundle the per-arm quality reports.

    ``StudyDataset`` rejects other than two arms, or two with one label.
    """
    rebuilt = [reconstruct_arm(arm) for arm in arms]
    report = ReconstructionReport(study_id, {arm.label: rep for arm, (_, rep) in zip(arms, rebuilt)})
    return StudyDataset(tuple(data for data, _ in rebuilt)), report


_FINITE = (float, lambda column: all(map(math.isfinite, column)), "bad row {row!r}")
# int() reads an integer, so of the count rule only the bound is left to a row;
# the least count, n_at_risk >= 1, is a rule of the table
_COUNT = (int, lambda column: max(column, default=0) <= MAX_COUNT, "bad row {row!r}")


def _read_columns(path: str, header: tuple[str, str], value) -> list[list]:
    """The time and `value` columns of a digitized CSV, each a list of finite numbers."""
    columns = read_table(path, header, (_FINITE, value))
    if not columns[0]:
        raise ParseError(f"{path}: no data rows")
    return columns


def load_digitized_arm(
    label: str, coords_path: str, risk_path: str, total_events: int | None = None
) -> DigitizedArm:
    """Read one arm from its coordinate and risk-table CSV pair.

    Each value is converted and checked once, as it is parsed; the arm is
    built from the parsed columns without checking their values again.
    """
    coords = _read_columns(coords_path, COORDS_HEADER, _FINITE)
    risk = _read_columns(risk_path, RISK_HEADER, _COUNT)
    try:
        return DigitizedArm._from_columns(label, *coords, *risk, total_events)
    except ValueError as exc:
        raise StructureError(f"{coords_path}, {risk_path}: {exc}") from None


def load_event_totals(path: str, labels: Sequence[str]) -> dict[str, int | None]:
    """Read a JSON object mapping arm label to event total (``null``: unconstrained).

    Every key must name one of the arms in `labels` (the label rule).
    """
    totals = json_value(path, read_json(path), "a JSON object")
    check_labels(path, totals, labels)
    for label, total in totals.items():
        if total is not None and not counts_ok((total,)):
            raise StructureError(f"{path}: {_TOTAL_RULE.format(label, total)}")
    return totals
