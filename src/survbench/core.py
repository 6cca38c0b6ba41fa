"""Core survival-data types, Kaplan-Meier estimation and dataset I/O."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

EVENT = 1
CENSORED = 0

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
    """Reduce a latent pair to what a study records.

    The event is seen only when it strictly precedes censoring; a tie is
    recorded as censored.
    """
    if pair.event_time < pair.censoring_time:
        return Observation(pair.event_time, EVENT)
    return Observation(pair.censoring_time, CENSORED)


def observe_arrays(event_times: np.ndarray, censoring_times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vector form of :func:`observe` for simulation engines."""
    event_times = np.asarray(event_times, dtype=float)
    censoring_times = np.asarray(censoring_times, dtype=float)
    status = (event_times < censoring_times).astype(np.int64)
    times = np.where(status == 1, event_times, censoring_times)
    return times, status


@dataclass
class ArmData:
    """All observations of one treatment arm."""

    label: str
    observations: tuple[Observation, ...]

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("arm label must be non-empty")
        self.observations = tuple(self.observations)
        if not self.observations:
            raise ValueError(f"arm {self.label!r} has no observations")

    def __len__(self) -> int:
        return len(self.observations)

    def times(self) -> np.ndarray:
        return np.array([o.time for o in self.observations], dtype=float)

    def statuses(self) -> np.ndarray:
        return np.array([o.status for o in self.observations], dtype=np.int64)


def arm_from_arrays(label: str, times: np.ndarray, status: np.ndarray) -> ArmData:
    obs = tuple(Observation(float(t), int(s)) for t, s in zip(times, status))
    return ArmData(label, obs)


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


@dataclass(frozen=True)
class KmStep:
    """One drop of the product-limit curve."""

    time: float
    at_risk: int
    events: int
    survival: float


@dataclass
class KmCurve:
    """Product-limit estimate; steps occur at event times only.

    Implicitly starts at S(0) = 1 and extends as a constant beyond its
    last step.
    """

    steps: tuple[KmStep, ...]

    def __post_init__(self) -> None:
        self.steps = tuple(self.steps)
        prev_t = -math.inf
        prev_s = 1.0
        prev_n = math.inf
        for st in self.steps:
            if st.time <= prev_t:
                raise ValueError("step times must be strictly increasing")
            if st.events < 1 or st.at_risk < st.events:
                raise ValueError("each step needs 1 <= events <= at_risk")
            if st.at_risk > prev_n:
                raise ValueError("at-risk counts must be non-increasing")
            if st.survival > prev_s + 1e-12:
                raise ValueError("survival must be non-increasing")
            prev_t, prev_s, prev_n = st.time, st.survival, st.at_risk

    def survival_at(self, time: float) -> float:
        s = 1.0
        for st in self.steps:
            if st.time > time:
                break
            s = st.survival
        return s

    def times(self) -> np.ndarray:
        return np.array([st.time for st in self.steps], dtype=float)

    def survivals(self) -> np.ndarray:
        return np.array([st.survival for st in self.steps], dtype=float)


def km_from_arrays(times: np.ndarray, status: np.ndarray) -> KmCurve:
    """Kaplan-Meier estimate from raw arrays.

    At each distinct event time t the at-risk count is the number of
    observations with time >= t, so subjects censored exactly at t are
    still counted as at risk there.
    """
    times = np.asarray(times, dtype=float)
    status = np.asarray(status)
    if times.size == 0:
        raise ValueError("cannot estimate a curve from zero observations")
    sorted_times = np.sort(times)
    n = times.size
    event_times, event_counts = np.unique(times[status == 1], return_counts=True)
    steps = []
    surv = 1.0
    for t, d in zip(event_times, event_counts):
        at_risk = n - int(np.searchsorted(sorted_times, t, side="left"))
        surv *= 1.0 - float(d) / at_risk
        steps.append(KmStep(float(t), at_risk, int(d), surv))
    return KmCurve(tuple(steps))


def km_estimate(arm: ArmData) -> KmCurve:
    return km_from_arrays(arm.times(), arm.statuses())


def median_survival(curve: KmCurve) -> float | None:
    """Smallest step time where survival falls to 0.5 or below, if any."""
    for st in curve.steps:
        if st.survival <= 0.5:
            return st.time
    return None


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
            raise ValueError(f"seed must be a u64, got {self.seed}")
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


def load_dataset(path: str) -> StudyDataset:
    """Read a two-arm study from an arm,time,status CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(f"{path}: empty file")
    if tuple(rows[0]) != DATASET_HEADER:
        raise ParseError(f"{path} line 1: expected header {','.join(DATASET_HEADER)}")
    by_arm: dict[str, list[Observation]] = {}
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
        by_arm.setdefault(label, []).append(Observation(time, int(row[2])))
    if len(by_arm) != 2:
        raise StructureError(f"{path}: expected exactly 2 arm labels, got {sorted(by_arm)}")
    arms = tuple(ArmData(label, tuple(obs)) for label, obs in by_arm.items())
    return StudyDataset(arms)  # type: ignore[arg-type]


def store_dataset(dataset: StudyDataset, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_HEADER)
        for arm in dataset.arms:
            for obs in arm.observations:
                writer.writerow([arm.label, repr(obs.time), obs.status])


def load_metadata(path: str) -> StudyMetadata:
    with open(path) as fh:
        raw = json.load(fh)
    try:
        return StudyMetadata(
            study_id=raw["study_id"],
            reported_logrank_p=float(raw["reported_logrank_p"]),
            reported_hazard_ratio=(
                None if raw["reported_hazard_ratio"] is None else float(raw["reported_hazard_ratio"])
            ),
            reported_medians={
                str(k): (None if v is None else float(v)) for k, v in raw["reported_medians"].items()
            },
            curve_class=raw["curve_class"],
        )
    except KeyError as exc:
        raise StructureError(f"{path}: missing metadata key {exc}") from None


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
