"""Core survival-data types, Kaplan-Meier estimation and dataset I/O."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

CURVE_CLASSES = ("crossing", "non-crossing", "non-crossing-late-effect")

DATASET_HEADER = ("arm", "time", "status")


class ParseError(ValueError):
    """A file row could not be parsed; the message names the line."""


class StructureError(ValueError):
    """A file parsed but violates structural requirements."""


@dataclass(frozen=True)
class Observation:
    """One subject: follow-up time and event indicator (1 event, 0 censored)."""

    time: float
    status: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0.0:
            raise ValueError(f"observation time must be finite and >= 0, got {self.time}")
        if self.status not in (0, 1):
            raise ValueError(f"status must be 0 or 1, got {self.status}")


def observe_arrays(event_times: np.ndarray, censoring_times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What a study records of each latent (event, censoring) pair.

    The event is seen only when it strictly precedes censoring; a tie is
    recorded as censored.
    """
    event_times = np.asarray(event_times, dtype=float)
    censoring_times = np.asarray(censoring_times, dtype=float)
    status = (event_times < censoring_times).astype(np.int64)
    times = np.where(status == 1, event_times, censoring_times)
    return times, status


def _column(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


class ArmData:
    """All observations of one treatment arm, held as two read-only columns.

    ``times()`` and ``statuses()`` return the columns themselves;
    ``.observations`` is a lazy view, built on first access and cached.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, label: str, observations: tuple[Observation, ...]) -> None:
        obs = tuple(observations)
        times, status = [o.time for o in obs], [o.status for o in obs]
        _check_arm_columns(label, times, status)
        self._set_columns(label, times, status, obs)

    def _set_columns(self, label: str, times, status, observations=None) -> None:
        self.label, self._observations = label, observations
        self._times, self._status = _column(times, float), _column(status, np.int64)

    @classmethod
    def _from_columns(cls, label: str, times, status) -> ArmData:
        """The unchecked constructor, for columns derived from a checked arm."""
        arm = cls.__new__(cls)
        arm._set_columns(label, times, status)
        return arm

    @property
    def observations(self) -> tuple[Observation, ...]:
        if self._observations is None:
            self._observations = tuple(map(Observation, self._times.tolist(), self._status.tolist()))
        return self._observations

    def __len__(self) -> int:
        return self._times.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArmData):
            return NotImplemented
        return (
            self.label == other.label
            and np.array_equal(self._times, other._times)
            and np.array_equal(self._status, other._status)
        )

    def __repr__(self) -> str:
        return f"ArmData(label={self.label!r}, n={len(self)})"

    def times(self) -> np.ndarray:
        return self._times

    def statuses(self) -> np.ndarray:
        return self._status


def _check_arm_columns(label: str, times, status) -> None:
    if not label:
        raise ValueError("arm label must be non-empty")
    times, status = np.asarray(times, dtype=float), np.asarray(status)
    if times.size == 0:
        raise ValueError(f"arm {label!r} has no observations")
    if times.ndim != 1 or status.shape != times.shape:
        raise ValueError(f"arm {label!r}: times and status must be 1-d and of equal length")
    if not np.all(np.isfinite(times) & (times >= 0.0)):
        raise ValueError(f"arm {label!r}: observation times must be finite and >= 0")
    if not np.all((status == 0) | (status == 1)):
        raise ValueError(f"arm {label!r}: status must be 0 or 1")


def arm_from_arrays(label: str, times: np.ndarray, status: np.ndarray) -> ArmData:
    """An arm from time and status columns (copied), with no per-row objects."""
    _check_arm_columns(label, times, status)
    return ArmData._from_columns(label, times, status)


@dataclass
class StudyDataset:
    """A two-arm study."""

    arms: tuple[ArmData, ArmData]

    def __post_init__(self) -> None:
        self.arms = tuple(self.arms)
        if len(self.arms) != 2:
            raise StructureError(f"a study needs exactly 2 arms, got {len(self.arms)}")
        if self.arms[0].label == self.arms[1].label:
            raise StructureError(f"arm labels must differ, both are {self.arms[0].label!r}")

    @property
    def labels(self) -> tuple[str, str]:
        return (self.arms[0].label, self.arms[1].label)


@dataclass
class StudyMetadata:
    """Published summary figures a simulation is compared against."""

    study_id: str
    reported_logrank_p: float
    reported_hazard_ratio: float | None
    reported_medians: dict[str, float | None]
    curve_class: str

    def __post_init__(self) -> None:
        if self.curve_class not in CURVE_CLASSES:
            raise ValueError(
                f"curve_class must be one of {CURVE_CLASSES}, got {self.curve_class!r}"
            )
        if not 0.0 <= self.reported_logrank_p <= 1.0:
            raise ValueError(f"reported_logrank_p must lie in [0, 1], got {self.reported_logrank_p}")
        hr = self.reported_hazard_ratio
        if hr is not None and not (math.isfinite(hr) and hr > 0.0):
            raise ValueError(f"reported_hazard_ratio must be finite and > 0, got {hr}")
        for label, median in self.reported_medians.items():
            if median is not None and not (math.isfinite(median) and median >= 0.0):
                raise ValueError(f"reported median of arm {label!r} must be finite and >= 0, got {median}")


@dataclass(frozen=True)
class KmStep:
    """One drop of the product-limit curve."""

    time: float
    at_risk: int
    events: int
    survival: float


_KM_COLUMNS = ("time", "at_risk", "events", "survival")


class KmCurve:
    """Product-limit estimate; steps occur at event times only.

    Implicitly starts at S(0) = 1 and extends as a constant beyond its
    last step. Held as read-only ``time``/``at_risk``/``events``/``survival``
    columns; ``.steps`` is a lazy, cached view of float/int :class:`KmStep`.
    """

    def __init__(self, steps: tuple[KmStep, ...]) -> None:
        steps = tuple(steps)
        self._set_columns(*([getattr(st, name) for st in steps] for name in _KM_COLUMNS), steps)
        if not np.all(np.diff(self.time) > 0.0):
            raise ValueError("step times must be strictly increasing")
        if not np.all((self.events >= 1) & (self.at_risk >= self.events)):
            raise ValueError("each step needs 1 <= events <= at_risk")
        if np.any(np.diff(self.at_risk) > 0):
            raise ValueError("at-risk counts must be non-increasing")
        if np.any(self.survival > np.concatenate(([1.0], self.survival[:-1])) + 1e-12):
            raise ValueError("survival must be non-increasing")

    def _set_columns(self, time, at_risk, events, survival, steps=None) -> None:
        self.time, self.survival = _column(time, float), _column(survival, float)
        self.at_risk, self.events = _column(at_risk, np.int64), _column(events, np.int64)
        self._steps = steps

    @property
    def steps(self) -> tuple[KmStep, ...]:
        if self._steps is None:
            self._steps = tuple(map(KmStep, *(getattr(self, name).tolist() for name in _KM_COLUMNS)))
        return self._steps

    def survival_at(self, time: float) -> float:
        i = int(np.searchsorted(self.time, time, side="right"))
        return float(self.survival[i - 1]) if i else 1.0


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in a sorted array."""
    return np.concatenate(([True], values[1:] != values[:-1]))[: values.size].nonzero()[0]


def km_from_arrays(times: np.ndarray, status: np.ndarray) -> KmCurve:
    """Kaplan-Meier estimate from the columns of a checked arm.

    The curve is not checked again: sorting, ``searchsorted`` and
    ``cumprod`` make it valid for any arm's columns. At each distinct event
    time t the at-risk count is the number of observations with time >= t,
    so subjects censored exactly at t are still counted as at risk there.
    The running product multiplies the factors in time order, as a
    step-by-step loop would.
    """
    events = times[status == 1]
    events.sort()
    starts = _run_starts(events)
    event_times = events[starts]
    event_counts = events.searchsorted(event_times, side="right") - starts
    at_risk = times.size - np.sort(times).searchsorted(event_times, side="left")
    survival = (1.0 - event_counts / at_risk).cumprod()
    for column in (event_times, at_risk, event_counts, survival):
        column.flags.writeable = False  # each is a fresh array of the column's dtype
    curve = KmCurve.__new__(KmCurve)
    curve.time, curve.at_risk, curve.events, curve.survival = event_times, at_risk, event_counts, survival
    curve._steps = None
    return curve


def km_estimate(arm: ArmData) -> KmCurve:
    return km_from_arrays(arm.times(), arm.statuses())


def median_survival(curve: KmCurve) -> float | None:
    """Smallest step time where survival falls to 0.5 or below, if any."""
    reached = (curve.survival <= 0.5).nonzero()[0]
    return float(curve.time[reached[0]]) if reached.size else None


@dataclass
class RandomStream:
    """A named, replayable random source.

    Equal (seed, stream_id) pairs replay the same draws; distinct
    stream_ids give statistically independent streams. Each instance owns
    its generator, so a stream must not be shared across concurrent
    consumers.
    """

    seed: int
    stream_id: int
    _generator: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be >= 0, got {self.stream_id}")

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
            self._generator = np.random.default_rng(seq)
        return self._generator


def as_generator(rng: RandomStream | np.random.Generator) -> np.random.Generator:
    """The generator behind a stream, or the generator itself."""
    if isinstance(rng, RandomStream):
        return rng.generator
    return rng


def _read_text(path: str) -> str:
    """A file's UTF-8 text without a leading byte-order mark; bytes that
    do not decode raise ParseError naming the line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:  # as "utf-8-sig" reads it, but with error positions counted from the file's first byte
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path} line {line}: not UTF-8 text ({exc})") from None


def read_csv_rows(path: str) -> list[list[str]]:
    """Every row of a UTF-8 CSV file."""
    return list(csv.reader(io.StringIO(_read_text(path), newline="")))


def read_json(path: str):
    """The value in a UTF-8 JSON file; malformed JSON raises ParseError naming line and column."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def load_dataset(path: str) -> StudyDataset:
    """Read a two-arm study from an arm,time,status CSV."""
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
    # every row is checked above
    arms = tuple(ArmData._from_columns(label, *zip(*pairs)) for label, pairs in by_arm.items())
    return StudyDataset(arms)  # type: ignore[arg-type]


def store_dataset(dataset: StudyDataset, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_HEADER)
        for arm in dataset.arms:
            times = map(repr, arm.times().tolist())
            writer.writerows(zip([arm.label] * len(arm), times, arm.statuses().tolist()))


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


def store_metadata(meta: StudyMetadata, path: str) -> None:
    payload = {
        "study_id": meta.study_id,
        "reported_logrank_p": meta.reported_logrank_p,
        "reported_hazard_ratio": meta.reported_hazard_ratio,
        "reported_medians": meta.reported_medians,
        "curve_class": meta.curve_class,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
