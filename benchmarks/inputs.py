"""Seeded inputs for the benchmark workloads.

Everything is drawn from one generator seeded by the workload seed, and
written as the files a survbench user hands the program: dataset CSVs,
metadata JSON and a bench config for the replication workloads, and
digitized-curve CSVs plus an event-total JSON for reconstruction. The
program under test only ever reads these files back.
"""

from __future__ import annotations

import csv
import json
import os
import zlib
from dataclasses import dataclass

import numpy as np

from survbench import core, evaluate

# Risk rows every COARSE_RISK_STEP time units and a survival axis rounded to
# COARSE_PROB_GRID mimic a published figure (the criterion-2 coarse inputs).
COARSE_RISK_STEP = 6.0
COARSE_PROB_GRID = 0.01


def workload_rng(seed: int, workload: str) -> np.random.Generator:
    """The only source of randomness for a workload's inputs."""
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(workload.encode())]))


def _observed_arm(label: str, events: np.ndarray, censors: np.ndarray) -> core.ArmData:
    times, status = core.observe_arrays(events, censors)
    return core.arm_from_arrays(label, times, status)


def synth_study(
    rng: np.random.Generator,
    n: int,
    shape: float = 1.3,
    scale1: float = 10.0,
    scale2: float = 16.0,
    censor_low: float = 2.0,
    censor_high: float = 30.0,
) -> core.StudyDataset:
    """Two arms with weibull events, a scale shift and uniform censoring."""
    arms = []
    for label, scale in (("A", scale1), ("B", scale2)):
        events = rng.weibull(shape, n) * scale
        censors = rng.uniform(censor_low, censor_high, n)
        arms.append(_observed_arm(label, events, censors))
    return core.StudyDataset(tuple(arms))


# The round-trip corpus draws each study's arm size, weibull shape, first
# arm scale and scale ratio uniformly from these ranges.
CORPUS_RANGES = {"n": (100, 300), "shape": (0.9, 1.8), "scale1": (8.0, 14.0), "ratio": (1.2, 1.9)}


def corpus_study(rng: np.random.Generator, n: int, shape: float, scale1: float, ratio: float) -> core.StudyDataset:
    """A round-trip corpus study: weibull arms, the second with `ratio` times the scale."""
    arms = []
    for label, scale in (("A", scale1), ("B", scale1 * ratio)):
        events = rng.weibull(shape, n) * scale
        censors = rng.uniform(4.0, 42.0, n)
        arms.append(_observed_arm(label, events, censors))
    return core.StudyDataset(tuple(arms))


def stratified(rng: np.random.Generator, count: int, low: float, high: float) -> np.ndarray:
    """`count` uniform draws from [low, high), one per stratum of equal width, in random order."""
    width = (high - low) / count
    return rng.permutation(low + (np.arange(count) + rng.random(count)) * width)


def corpus_parameters(rng: np.random.Generator, count: int) -> list[dict]:
    """A Latin hypercube over CORPUS_RANGES.

    Each parameter still has its uniform marginal, but every stratum of its
    range is drawn once. Reconstruction cost grows faster than linearly in
    the number of events, so this keeps the corpus's total work nearly the
    same for every seed.
    """
    columns = {name: stratified(rng, count, lo, hi) for name, (lo, hi) in CORPUS_RANGES.items()}
    columns["n"] = columns["n"].astype(int)
    return [{name: column[j].item() for name, column in columns.items()} for j in range(count)]


@dataclass
class Digitized:
    coordinates: list[tuple[float, float]]
    risk_table: list[tuple[float, int]]
    total_events: int


def digitize_arm(
    arm: core.ArmData, risk_times: list[float] | None = None, prob_grid: float | None = None
) -> Digitized:
    """Read an arm's own KM curve back as digitized inputs.

    Without arguments the inputs are loss-free: a coordinate at every
    curve step and a risk row at every step time.
    """
    curve = core.km_estimate(arm)
    coords = [(0.0, 1.0)] + [(st.time, st.survival) for st in curve.steps]
    if prob_grid is not None:
        coords = [(t, round(s / prob_grid) * prob_grid) for t, s in coords]
    times = np.sort(arm.times())
    if risk_times is None:
        risk_times = [0.0] + [st.time for st in curve.steps]
    rows = []
    for t in risk_times:
        n_at = int(times.size - np.searchsorted(times, t, side="left"))
        if n_at < 1:
            break
        rows.append((float(t), n_at))
    return Digitized(coords, rows, int(arm.statuses().sum()))


def _write_rows(path: str, header: tuple[str, str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows((repr(float(a)), repr(b)) for a, b in rows)


def write_replication_inputs(
    workdir: str,
    dataset: core.StudyDataset,
    study_id: str,
    engines: list[str],
    iterations: int,
    seed: int,
) -> str:
    """Write one study, its metadata and a bench config; return the config path.

    The reported figures are the study's own statistics, as in the
    criterion-4 fidelity check, so simulated-minus-reported diffs centre
    on zero for a faithful engine.
    """
    os.makedirs(workdir, exist_ok=True)
    reference = evaluate.evaluate_dataset(dataset)
    metadata = core.StudyMetadata(
        study_id=study_id,
        reported_logrank_p=reference.logrank_p,
        reported_hazard_ratio=reference.hazard_ratio,
        reported_medians=dict(reference.medians),
        curve_class="non-crossing",
    )
    core.store_dataset(dataset, os.path.join(workdir, f"{study_id}.csv"))
    core.store_metadata(metadata, os.path.join(workdir, f"{study_id}_meta.json"))
    config = {
        "studies": [{"dataset": f"{study_id}.csv", "metadata": f"{study_id}_meta.json"}],
        "engines": engines,
        "iterations": iterations,
        "seed": seed,
        "workers": 1,  # every workload runs serially; see workloads.py
    }
    path = os.path.join(workdir, "bench.json")
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2)
    return path


@dataclass
class CorpusEntry:
    """One digitized study on disk, with the dataset it was read from."""

    study_id: str
    kind: str  # "fine" or "coarse"
    arm_files: dict[str, tuple[str, str]]  # label -> (coords path, risk path)
    totals_path: str
    original: core.StudyDataset


def write_corpus(workdir: str, rng: np.random.Generator, count: int) -> list[CorpusEntry]:
    """Digitize `count` corpus studies, alternating fine and coarse inputs.

    Fine inputs carry exact coordinates and a pooled risk row at every
    event of either arm (many short intervals); coarse inputs carry risk
    rows every COARSE_RISK_STEP time units and a COARSE_PROB_GRID survival
    axis (few long intervals). Each kind gets its own Latin hypercube of
    study parameters.
    """
    os.makedirs(workdir, exist_ok=True)
    designs = {kind: corpus_parameters(rng, (count + 1) // 2) for kind in ("fine", "coarse")}
    entries = []
    for j in range(count):
        kind = "fine" if j % 2 == 0 else "coarse"
        dataset = corpus_study(rng, **designs[kind][j // 2])
        sid = f"{kind}-{j:04d}"
        if kind == "fine":
            grid = {0.0}
            for arm in dataset.arms:
                grid.update(st.time for st in core.km_estimate(arm).steps)
            digitized = [digitize_arm(arm, sorted(grid)) for arm in dataset.arms]
        else:
            top = max(float(np.max(arm.times())) for arm in dataset.arms)
            risk_times = list(np.arange(0.0, top + COARSE_RISK_STEP, COARSE_RISK_STEP))
            digitized = [digitize_arm(arm, risk_times, COARSE_PROB_GRID) for arm in dataset.arms]
        arm_files = {}
        for arm, dig in zip(dataset.arms, digitized):
            coords_path = os.path.join(workdir, f"{sid}_{arm.label}_coords.csv")
            risk_path = os.path.join(workdir, f"{sid}_{arm.label}_risk.csv")
            _write_rows(coords_path, ("time", "survival"), dig.coordinates)
            _write_rows(risk_path, ("time", "n_risk"), dig.risk_table)
            arm_files[arm.label] = (coords_path, risk_path)
        totals_path = os.path.join(workdir, f"{sid}_totals.json")
        with open(totals_path, "w") as fh:
            json.dump({arm.label: dig.total_events for arm, dig in zip(dataset.arms, digitized)}, fh)
        entries.append(CorpusEntry(sid, kind, arm_files, totals_path, dataset))
    return entries
