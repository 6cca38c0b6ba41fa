"""Core survival-data types, Kaplan-Meier estimation and dataset I/O."""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import numbers
import weakref
from dataclasses import dataclass

import numpy as np

CURVE_CLASSES = ("crossing", "non-crossing", "non-crossing-late-effect")

DATASET_HEADER = ("arm", "time", "status")

# the largest count: every integer up to it is exact as a float, and counts
# enter float arithmetic (survival factors, at-risk products)
MAX_COUNT = 2**53


class ParseError(ValueError):
    """A file row could not be parsed; the message names the line."""


class StructureError(ValueError):
    """A file parsed but violates structural requirements."""


def times_ok(times) -> bool:
    """The time rule, for one time or every value of a list or array: finite and >= 0."""
    if isinstance(times, (list, tuple)):  # a reader's column: builtins beat numpy's fixed cost
        return all(map(math.isfinite, times)) and min(times, default=0.0) >= 0.0
    times = np.asarray(times, dtype=float)
    return bool(((times >= 0.0) & (times < np.inf)).all())


def counts_ok(counts, minimum: int = 0) -> bool:
    """The count rule, for every value of `counts`: an integer (a Python or
    numpy integer, never a bool) from `minimum` to MAX_COUNT."""
    integers = all(issubclass(kind, numbers.Integral) and kind is not bool for kind in set(map(type, counts)))
    return integers and minimum <= min(counts, default=minimum) and max(counts, default=minimum) <= MAX_COUNT


def check_labels(path: str, keys, labels) -> None:
    """The label rule: every key of a side file names one of the arms
    `labels`; a misspelt label would otherwise drop its figure unnoticed."""
    unknown = [key for key in keys if key not in labels]
    if unknown:
        raise StructureError(
            f"{path}: no arm is labelled {', '.join(map(repr, unknown))} "
            f"(the arms are {', '.join(map(repr, labels))})"
        )


_JSON_KINDS = {
    "a JSON object": (dict,),
    "a JSON array": (list,),
    "a JSON string": (str,),
    "a JSON integer": (int,),
    "a JSON number": (int, float),
    "a JSON number or null": (int, float, type(None)),
}
_REQUIRED = object()


def json_value(path: str, value, kind: str, name: str | None = None):
    """`value` if its JSON type is `kind`, one of ``_JSON_KINDS`` (a bool is
    never a number); otherwise a StructureError naming the file and `name`,
    the key (None: the whole file). A value that cannot be read as the
    number wanted at all is reported with Python's reason."""
    types = _JSON_KINDS[kind]
    if type(value) in types:
        return value
    if name is None:
        raise StructureError(f"{path}: expected {kind}, got {type(value).__name__}")
    reason = ""
    if int in types:
        try:
            (float if float in types else int)(value)
        except (TypeError, ValueError) as exc:
            reason = f" ({exc})"
    raise StructureError(f"{path}: {name} must be {kind}, got {value!r}{reason}")


def json_field(path: str, obj: dict, key: str, kind: str, what: str, default=_REQUIRED):
    """The JSON fields rule: `obj[key]` (or `default` when it is absent and
    one is given), of JSON type `kind`; `what` names the file's role in the
    message for a missing key."""
    if key not in obj:
        if default is _REQUIRED:
            raise StructureError(f"{path}: missing {what} key {key!r}")
        return default
    return json_value(path, obj[key], kind, key)


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

    ``times()`` and ``statuses()`` return the columns themselves. The
    constructor checks its columns once and copies them. ``_km`` is a weak
    reference to the last curve ``km_estimate`` built from them; it is not
    part of the arm's value, so neither ``==`` nor pickling sees it.
    """

    __hash__ = None  # type: ignore[assignment]
    _km: weakref.ref | None = None

    def __init__(self, label: str, times, status) -> None:
        if not label:
            raise ValueError("arm label must be non-empty")
        times, status = np.asarray(times, dtype=float), np.asarray(status)
        if times.size == 0:
            raise ValueError(f"arm {label!r} has no observations")
        if times.ndim != 1 or status.shape != times.shape:
            raise ValueError(f"arm {label!r}: times and status must be 1-d and of equal length")
        if not times_ok(times):
            raise ValueError(f"arm {label!r}: observation times must be finite and >= 0")
        if not np.all((status == 0) | (status == 1)):
            raise ValueError(f"arm {label!r}: status must be 0 or 1")
        self.label = label
        self._times, self._status = _column(times, float), _column(status, np.int64)

    @classmethod
    def _from_columns(cls, label: str, times, status) -> ArmData:
        """The unchecked constructor, for columns derived from a checked arm."""
        arm = cls.__new__(cls)
        arm.label = label
        arm._times, arm._status = _column(times, float), _column(status, np.int64)
        return arm

    def __len__(self) -> int:
        return self._times.size

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_km", None)  # a weak reference does not pickle
        return state

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


def arm_from_arrays(label: str, times: np.ndarray, status: np.ndarray) -> ArmData:
    """The arm ``ArmData(label, times, status)`` builds: checked, then copied."""
    return ArmData(label, times, status)


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


@dataclass(eq=False)
class KmCurve:
    """Product-limit estimate; steps occur at event times only.

    Implicitly starts at S(0) = 1 and extends as a constant beyond its
    last step. Held as the read-only columns ``km_from_arrays`` builds, one
    entry per step; ``.steps`` builds float/int :class:`KmStep` rows from
    them on each access.
    """

    time: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray
    survival: np.ndarray

    @property
    def steps(self) -> tuple[KmStep, ...]:
        columns = (self.time, self.at_risk, self.events, self.survival)
        return tuple(map(KmStep, *(column.tolist() for column in columns)))


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
    return KmCurve(event_times, at_risk, event_counts, survival)


def km_estimate(arm: ArmData) -> KmCurve:
    """The arm's Kaplan-Meier curve, as ``km_from_arrays`` builds it.

    While any caller still holds the curve last built for `arm`, the same
    read-only object is returned; once every holder lets go it is freed,
    and the next call builds it afresh. The arm never keeps it alive.
    """
    curve = arm._km() if arm._km is not None else None
    if curve is None:
        curve = km_from_arrays(arm.times(), arm.statuses())
        arm._km = weakref.ref(curve)
    return curve


def median_survival(curve: KmCurve) -> float | None:
    """Smallest step time where survival falls to 0.5 or below, if any."""
    reached = (curve.survival <= 0.5).nonzero()[0]
    # +0.0: which signed zero heads a run of tied zero times depends on the subjects' order
    return float(curve.time[reached[0]]) + 0.0 if reached.size else None


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

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be >= 0, got {self.stream_id}")

    @functools.cached_property
    def generator(self) -> np.random.Generator:
        """Built on first use and kept, so later draws carry on from earlier ones."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,)))


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


def store_json(payload, path: str) -> None:
    """Write `payload` as JSON indented by two spaces, with a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_table(path: str, header: tuple[str, ...], columns) -> list[list]:
    """The data rows of a CSV file under the header row `header`, one list per column.

    `columns` gives per column a builtin that converts a field's text, the
    rule its values obey (a check on a whole column, as ``times_ok``) and
    the message for a field that fails either, which may name the `field`
    and its `row`. Each column is converted and checked whole; only when
    one fails are the rows read one at a time, to name the first bad line.
    """
    rows = read_csv_rows(path)
    if not rows or tuple(rows[0]) != header:
        raise ParseError(f"{path} line 1: expected header {','.join(header)}")
    body = rows[1:]
    if set(map(len, body)) <= {len(header)}:
        try:
            values = [list(map(convert, fields)) for (convert, _, _), fields in zip(columns, zip(*body))]
            if all(rule(column) for (_, rule, _), column in zip(columns, values)):
                return values or [[] for _ in header]
        except (KeyError, ValueError):
            pass
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ParseError(f"{path} line {lineno}: expected {len(header)} fields, got {len(row)}")
        for (convert, rule, message), field in zip(columns, row):
            try:
                ok = rule([convert(field)])
            except (KeyError, ValueError):
                ok = False
            if not ok:
                raise ParseError(f"{path} line {lineno}: {message.format(field=field, row=row)}")
    raise AssertionError("a column failed but none of its rows did")


_DATASET_COLUMNS = (
    (str, all, "empty arm label"),
    (float, times_ok, "time must be finite and >= 0, got {field!r}"),
    ({"0": 0, "1": 1}.__getitem__, lambda column: True, "status must be 0 or 1, got {field!r}"),
)


def load_dataset(path: str) -> StudyDataset:
    """Read a two-arm study from an arm,time,status CSV."""
    labels, times, status = read_table(path, DATASET_HEADER, _DATASET_COLUMNS)
    arms = list(dict.fromkeys(labels))  # in order of first appearance
    if len(arms) != 2:
        raise StructureError(f"{path}: expected exactly 2 arm labels, got {sorted(arms)}")
    labels, times, status = np.array(labels), np.array(times), np.array(status, dtype=np.int64)
    # every value is checked by the reader
    columns = ((arm, times[labels == arm], status[labels == arm]) for arm in arms)
    return StudyDataset(tuple(ArmData._from_columns(*arm) for arm in columns))


def store_dataset(dataset: StudyDataset, path: str) -> None:
    """Write a study in one write, as csv.writer writes its rows; each time is
    its float's repr, the text of its element in the repr of the column's list."""
    lines = [",".join(DATASET_HEADER)]
    for arm in dataset.arms:
        label = io.StringIO()
        csv.writer(label).writerow((arm.label,))  # the label as csv.writer quotes it, then "\r\n"
        prefix, ends = label.getvalue()[:-2] + ",", (",0", ",1")
        times = repr(arm.times().tolist())[1:-1].split(", ")
        lines += [prefix + t + ends[s] for t, s in zip(times, arm.statuses().tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


# the metadata file's keys, in the order they are written, and their JSON types
_METADATA_FIELDS = (
    ("study_id", "a JSON string"),
    ("reported_logrank_p", "a JSON number"),
    ("reported_hazard_ratio", "a JSON number or null"),
    ("reported_medians", "a JSON object"),
    ("curve_class", "a JSON string"),
)


def load_metadata(path: str) -> StudyMetadata:
    raw = json_value(path, read_json(path), "a JSON object")
    fields = (json_field(path, raw, key, kind, "metadata") for key, kind in _METADATA_FIELDS)
    study_id, p, hr, medians, curve_class = fields
    for label, median in medians.items():
        json_value(path, median, "a JSON number or null", f"reported_medians[{label!r}]")
    try:
        return StudyMetadata(
            study_id=study_id,
            reported_logrank_p=float(p),
            reported_hazard_ratio=None if hr is None else float(hr),
            reported_medians={k: None if v is None else float(v) for k, v in medians.items()},
            curve_class=curve_class,
        )
    except (OverflowError, ValueError) as exc:
        raise StructureError(f"{path}: {exc}") from None


def store_metadata(meta: StudyMetadata, path: str) -> None:
    store_json({key: getattr(meta, key) for key, _ in _METADATA_FIELDS}, path)
