"""Rebuilding patient-level data from digitized Kaplan-Meier curves.

The input per arm is the clicked curve (time and survival columns), the
published number-at-risk table and optionally the published total event
count. Censoring inside a risk interval is only identifiable up to its
count, so censored subjects are spread uniformly over the interval and
the count is adjusted until the output reproduces every risk-table row.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field

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
    """One digitized arm as four columns: the curve clicks (`times`,
    `survivals`), the risk table (`risk_times`, `risk_counts`) and an
    optional event total.

    The constructor checks every value, converts times and survivals to
    float and a whole float count such as ``10.0`` to int, and cleans the
    curve (``_monotonize``). Each rule is checked on a whole column; only
    when a risk column fails are its rows read one at a time, to name the
    first bad one.
    """

    label: str
    times: list[float]
    survivals: list[float]
    risk_times: list[float]
    risk_counts: list[int]
    total_events: int | None = None

    def __post_init__(self) -> None:
        label = self.label
        if not label:
            raise ValueError("arm label must be non-empty")
        times, survivals = list(map(float, self.times)), list(map(float, self.survivals))
        risk_times, counts = list(map(float, self.risk_times)), list(self.risk_counts)
        if len(times) != len(survivals) or len(risk_times) != len(counts):
            raise ValueError(f"arm {label!r}: the two columns of each table must have equal length")
        if not times:
            raise ValueError(f"arm {label!r}: no curve coordinates")
        if not risk_times:
            raise ValueError(f"arm {label!r}: empty risk table")
        if not times_ok(times):
            raise ValueError(f"bad coordinate time {next(t for t in times if not times_ok((t,)))}")
        if any(map(math.isnan, survivals)):
            t = next(t for t, s in zip(times, survivals) if math.isnan(s))
            raise ValueError(f"bad coordinate survival nan at time {t}")
        # strictly rising risk times keep the time rule if the first and the last do
        if not (
            all(map(operator.lt, risk_times, risk_times[1:]))
            and times_ok((risk_times[0], risk_times[-1]))
            and counts_ok(counts, 1)
        ):  # a rule fails, or a count is a float: read the rows, naming the first bad one
            prev_t = -math.inf  # within a row, the rules in this order
            for j, (t, n) in enumerate(zip(risk_times, counts)):
                if not times_ok((t,)):
                    raise ValueError(f"arm {label!r}: bad risk time {t}")
                if t <= prev_t:
                    raise ValueError(f"arm {label!r}: risk times must be strictly increasing")
                if isinstance(n, float) and n.is_integer():
                    n = counts[j] = int(n)  # 10.0 is 10
                if not counts_ok((n,), 1):
                    raise ValueError(f"arm {label!r}: n_at_risk must be a positive integer")
                prev_t = t
        self.times, self.survivals = _monotonize(times, survivals)
        self.risk_times, self.risk_counts = risk_times, list(map(operator.index, counts))
        if risk_times[0] > self.times[0]:
            raise ValueError(f"arm {label!r}: first risk time must not exceed the first coordinate")
        if self.total_events is not None:
            if not counts_ok((self.total_events,)):
                raise ValueError(_TOTAL_RULE.format(label, self.total_events))
            self.total_events = int(self.total_events)


_TOTAL_RULE = "arm {!r}: total_events must be an integer >= 0, got {!r}"


def _monotonize(times: list[float], survivals: list[float]) -> tuple[list[float], list[float]]:
    """Sort by time, collapse duplicate times and force survival downhill.

    The columns hold floats, times finite and >= 0, no survival nan. A
    repeated time keeps its first click and its least survival.
    """
    out_times: list[float] = []
    out_survivals: list[float] = []
    last = least = floor = math.nan  # floor: the survival before time `last`
    for i in sorted(range(len(times)), key=times.__getitem__):  # stable: repeated times keep their order
        t, s = times[i], survivals[i]
        s = 0.0 if s < 0.0 else 1.0 if s > 1.0 else s  # clamp, keeping -0.0 as np.clip does
        if t == last:
            least = least if least < s else s
            out_survivals[-1] = least if least < floor else floor
        else:
            last, least, floor = t, s, out_survivals[-1] if out_survivals else 1.0
            out_times.append(t)
            out_survivals.append(s if s < floor else floor)
    return out_times, out_survivals


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


def reconstruct_arm(arm: DigitizedArm) -> tuple[ArmData, ArmReport]:
    """Rebuild one arm's observations from its digitized inputs.

    One walk goes over the risk intervals and then the tail past the last
    row. In each, a pass spreads the censors evenly over the interval,
    placing none once no one is left at risk, and reads each click's drop
    in survival as events among those still at risk. Inside the risk table
    the residual is the end-of-interval at-risk count minus the published
    one; in the tail it is the interval's events minus what the published
    total leaves (none if no total was published). The next count adds the
    residual; a count tried before ends the search.
    When no count closes the gap (the digitized drops alone already
    overshoot it), the closest pass and its residual are kept: the conflict
    is digitization noise, not an impossible input.

    The click times are strictly increasing (``_monotonize``), so each
    interval's clicks, and the survival just before its end, are found by
    bisection rather than by scanning every click.
    """
    click_times, survs = arm.times, arm.survivals
    risk_times, published = arm.risk_times, arm.risk_counts
    t_last = risk_times[-1]
    t_end_time = max(click_times[-1], t_last)
    event_times, event_counts, censor_times, misses = [], [], [], []
    n = published[0]
    surv = 1.0
    iterations_total = 0
    lo = bisect_left(click_times, risk_times[0])  # first click at or after t_start
    last = len(risk_times) - 1

    for j, t_start in enumerate(risk_times):
        tail = j == last
        if not tail:
            t_end, target = risk_times[j + 1], published[j + 1]
            if target > published[j]:
                raise InfeasibleCurveError(
                    f"interval [{t_start}, {t_end}): published at-risk rises from {published[j]} to {target}"
                )
            hi = bisect_left(click_times, t_end, lo)  # first click at or after t_end
            # start from the censor count the published survival implies
            implied = round(n * (survs[hi - 1] if hi else 1.0) / surv) if surv > 0.0 else 0
            count = implied - target if implied > target else 0
            if count > n:
                count = n
        else:  # past the risk table, censoring is tuned against the event total, if one was published
            t_end, hi, count = t_end_time, len(click_times), 0
            target = None if arm.total_events is None else max(arm.total_events - sum(event_counts), 0)
        n_start, surv_start, mark = n, surv, len(event_times)
        best = seen = None
        passes = 0
        while True:
            passes += 1
            # walk the clicks once, with `count` censors due at t_start + (k + 1) * gap, the next
            # one's time held in `due`; one is placed only while someone is at risk, so no pass
            # takes more subjects than it has
            gap = (t_end - t_start) / (count + 1)
            n, surv, k = n_start, surv_start, 0
            if lo != hi:
                due = t_start + (k + 1) * gap
                for i in range(lo, hi):
                    t = click_times[i]
                    while due < t and k < count and n > 0:
                        n -= 1
                        k += 1
                        due = t_start + (k + 1) * gap
                    if n <= 0 or surv <= 0.0:
                        break
                    s = survs[i]
                    if s < surv:
                        d = round(n * (1.0 - s / surv))
                        if d > n:
                            d = n
                        if d > 0:
                            surv *= 1.0 - d / n
                            n -= d
                            event_times.append(t)
                            event_counts.append(d)
            # with those due after the clicks walked, while any are at risk
            if count - k < n:
                n -= count - k
                placed = count
            else:
                placed, n = k + n, 0
            if not tail:
                diff = n - target
            else:  # the events, as every censor and every event leaves the risk set once
                diff = 0 if target is None else n_start - placed - n - target
            if diff == 0:
                break
            if best is None or abs(diff) < abs(best[0]):  # the closest pass yet, with its events
                best = diff, gap, placed, n, surv, event_times[mark:], event_counts[mark:]
            next_count = min(max(count + diff, 0), n_start)
            if seen is None:
                seen = set()
            seen.add(count)
            if next_count in seen or passes == ITERATION_CAP:
                diff, gap, placed, n, surv, event_times[mark:], event_counts[mark:] = best
                misses.append((t_start, t_end, "event total" if tail else "risk row", diff))
                break
            count = next_count
            del event_times[mark:], event_counts[mark:]  # the next pass appends the interval's events anew
        iterations_total += passes
        if placed:
            censor_times += [t_start + (g + 1) * gap for g in range(placed)]
        lo = hi
    # everyone still at risk leaves the study at the end of follow-up
    censor_times.extend([t_end_time] * n)

    times = np.concatenate((np.repeat(np.array(event_times, float), event_counts), censor_times))
    status = np.repeat((1, 0), (sum(event_counts), len(censor_times)))
    order = np.lexsort((-status, times))  # by time, events first
    times = times[order]
    rebuilt = arm_from_arrays(arm.label, times, status[order])

    achieved_events = int(sum(event_counts))
    achieved = (times.size - np.searchsorted(times, risk_times, side="left")).tolist()
    risk_rows = list(zip(risk_times, published, achieved))
    # a constraint the output misses, unless its interval's pass recorded it
    if achieved != published:
        missed = {end for _, end, constraint, _ in misses if constraint == "risk row"}
        for j, (t, want, got) in enumerate(risk_rows):
            if got != want and t not in missed:
                misses.append((risk_times[j - 1] if j else t, t, "risk row", got - want))
    if arm.total_events not in (None, achieved_events) and not diff:  # the tail's pass recorded no miss
        misses.append((t_last, t_end_time, "event total", achieved_events - arm.total_events))
    curve = km_estimate(rebuilt)
    # the curve read at each click by the right-continuous step lookup (1 before the first step)
    read = np.concatenate(([1.0], curve.survival))[
        np.searchsorted(curve.time, click_times, side="right")
    ]
    deviation = np.max(np.abs(read - survs))
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

    Each value is converted and checked as it is parsed, naming its line;
    ``DigitizedArm`` then checks the rules of the table on the parsed columns.
    """
    coords = _read_columns(coords_path, COORDS_HEADER, _FINITE)
    risk = _read_columns(risk_path, RISK_HEADER, _COUNT)
    try:
        return DigitizedArm(label, *coords, *risk, total_events)
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
