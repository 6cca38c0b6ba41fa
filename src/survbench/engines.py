"""Four engines that simulate synthetic versions of an observed arm.

parametric          independent draws from fitted event/censoring families
kde                 independent draws from Gaussian kernel density estimates
case-resampling     i.i.d. resampling of whole (time, status) tuples
conditional-bootstrap  resampled event times against preserved censoring
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ArmData,
    RandomStream,
    arm_from_arrays,
    as_generator,
    km_from_arrays,
    observe_arrays,
)
from .distributions import (
    FittedDistribution,
    SelectionError,
    sample,
    select_distribution,
)

ENGINE_KINDS = ("parametric", "kde", "case-resampling", "conditional-bootstrap")

_ENGINE_ALIASES = {
    "parametric": "parametric",
    "kde": "kde",
    "case": "case-resampling",
    "case-resampling": "case-resampling",
    "condboot": "conditional-bootstrap",
    "conditional-bootstrap": "conditional-bootstrap",
}

KDE_GRID_POINTS = 1024
KDE_ENVELOPE_SAFETY = 1.01
STALL_PROPOSALS = 10_000_000
STALL_ACCEPT_RATE = 1e-6


class ModelBuildError(RuntimeError):
    """The arm cannot support the requested engine."""


class SizeMismatchError(ValueError):
    """The requested output size is not allowed for this engine."""


class SamplerStallError(RuntimeError):
    """A rejection sampler made essentially no progress."""


class BandwidthError(ValueError):
    """No usable kernel bandwidth exists for the sample."""


def canonical_engine(name: str) -> str:
    kind = _ENGINE_ALIASES.get(name)
    if kind is None:
        raise ValueError(f"unknown engine {name!r}; choose from {sorted(set(_ENGINE_ALIASES))}")
    return kind


def split_subsets(arm: ArmData) -> tuple[np.ndarray, np.ndarray]:
    """Event times and censoring times of an arm, in input order."""
    times = arm.times()
    status = arm.statuses()
    return times[status == 1], times[status == 0]


# ---------------------------------------------------------------------------
# kernel density estimation


@dataclass
class KdeDensity:
    """Gaussian KDE with a sampling domain clamped to non-negative times."""

    support: np.ndarray
    bandwidth: float
    lower: float
    upper: float
    envelope: float

    def density(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        z = (x[:, None] - self.support[None, :]) / self.bandwidth
        return np.exp(-0.5 * z * z).sum(axis=1) / (
            self.support.size * self.bandwidth * math.sqrt(2.0 * math.pi)
        )


def silverman_bandwidth(sample_values: np.ndarray) -> float:
    """0.9 * min(sd, IQR/1.34) * n**(-1/5), the rule-of-thumb bandwidth."""
    x = np.asarray(sample_values, dtype=float)
    if x.size < 2:
        raise BandwidthError(f"need at least 2 observations, got {x.size}")
    if float(np.min(x)) == float(np.max(x)):
        raise BandwidthError("degenerate sample, all values equal")
    sd = float(np.std(x, ddof=1))
    q1, q3 = np.quantile(x, [0.25, 0.75])
    spread = min(sd, float(q3 - q1) / 1.34)
    if spread <= 0.0:
        spread = sd
    return 0.9 * spread * x.size ** (-0.2)


def kde_fit(sample_values, bandwidth: float | None = None) -> KdeDensity:
    """Fit the KDE; `bandwidth` overrides the Silverman rule (test hook)."""
    x = np.asarray(sample_values, dtype=float)
    if x.size == 0 or not np.all(np.isfinite(x)):
        raise BandwidthError("sample must be non-empty and finite")
    h = silverman_bandwidth(x) if bandwidth is None else float(bandwidth)
    if h <= 0.0:
        raise BandwidthError(f"bandwidth must be > 0, got {h}")
    lower = max(0.0, float(np.min(x)) - 3.0 * h)
    upper = float(np.max(x)) + 3.0 * h
    kde = KdeDensity(x.copy(), h, lower, upper, envelope=1.0)
    grid = np.linspace(lower, upper, KDE_GRID_POINTS)
    kde.envelope = float(np.max(kde.density(grid))) * KDE_ENVELOPE_SAFETY
    return kde


def kde_sample(kde: KdeDensity, n: int, rng: RandomStream | np.random.Generator) -> np.ndarray:
    """Rejection sampling under the flat envelope over the domain."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    gen = as_generator(rng)
    out = np.empty(n, dtype=float)
    filled = 0
    proposed = 0
    accepted = 0
    width = kde.upper - kde.lower
    accept_estimate = max(1.0 / (kde.envelope * width), 1e-3)
    while filled < n:
        block = int(min(65536, max(1024, math.ceil((n - filled) / accept_estimate))))
        xs = kde.lower + width * gen.random(block)
        us = gen.random(block)
        keep = xs[us * kde.envelope < kde.density(xs)]
        take = min(n - filled, keep.size)
        out[filled : filled + take] = keep[:take]
        filled += take
        proposed += block
        accepted += keep.size
        if proposed >= STALL_PROPOSALS and accepted / proposed < STALL_ACCEPT_RATE:
            raise SamplerStallError(
                f"acceptance rate {accepted / proposed:.2e} after {proposed} proposals"
            )
        if accepted > 0:
            accept_estimate = max(accepted / proposed, 1e-3)
    return out


# ---------------------------------------------------------------------------
# censoring distribution for the conditional bootstrap


@dataclass
class CensoringDistribution:
    """Step CDF of the censoring mechanism, roles of event/censor swapped.

    atom_masses are the Kaplan-Meier jumps; they sum to less than one when
    the largest observation of the arm is an event.
    """

    atom_times: np.ndarray
    atom_masses: np.ndarray

    def cdf(self, t: float) -> float:
        return float(np.sum(self.atom_masses[self.atom_times <= t]))


def censoring_km(arm: ArmData) -> CensoringDistribution:
    curve = km_from_arrays(arm.times(), 1 - arm.statuses())
    masses = -np.diff(np.concatenate(([1.0], curve.survivals())))
    return CensoringDistribution(curve.times(), masses)


# ---------------------------------------------------------------------------
# models


@dataclass
class ArmModel:
    """Everything an engine needs, fitted once per arm."""

    engine: str
    label: str
    n_source: int
    source: ArmData | None = None
    event_fit: FittedDistribution | None = None
    censoring_fit: FittedDistribution | None = None
    event_kde: KdeDensity | None = None
    censoring_kde: KdeDensity | None = None
    ghat: CensoringDistribution | None = None


def build_model(engine: str, arm: ArmData) -> ArmModel:
    """Fit one arm for one engine; all expensive fitting happens here."""
    kind = canonical_engine(engine)
    events, censorings = split_subsets(arm)
    model = ArmModel(kind, arm.label, len(arm), source=arm)
    if kind == "parametric":
        try:
            model.event_fit = select_distribution(events)
            # an arm without censored subjects simply never censors
            model.censoring_fit = (
                select_distribution(censorings) if censorings.size else None
            )
        except (ValueError, SelectionError) as exc:
            raise ModelBuildError(f"arm {arm.label!r}, parametric: {exc}") from exc
    elif kind == "kde":
        try:
            model.event_kde = kde_fit(events) if events.size else None
            model.censoring_kde = kde_fit(censorings) if censorings.size else None
        except BandwidthError as exc:
            raise ModelBuildError(f"arm {arm.label!r}, kde: {exc}") from exc
        if model.event_kde is None:
            raise ModelBuildError(f"arm {arm.label!r}, kde: event subset is empty")
    elif kind == "conditional-bootstrap":
        if events.size == 0:
            raise ModelBuildError(f"arm {arm.label!r}: no events to resample")
        model.ghat = censoring_km(arm)
    return model


def model_summary(model: ArmModel) -> dict:
    """JSON-friendly description of a fitted model."""
    out: dict = {"engine": model.engine, "label": model.label, "n_source": model.n_source}
    if model.engine == "parametric":
        out["event"] = model.event_fit.to_json() if model.event_fit else None
        out["censoring"] = model.censoring_fit.to_json() if model.censoring_fit else None
    elif model.engine == "kde":
        out["event_bandwidth"] = model.event_kde.bandwidth if model.event_kde else None
        out["censoring_bandwidth"] = (
            model.censoring_kde.bandwidth if model.censoring_kde else None
        )
    return out


# ---------------------------------------------------------------------------
# engines


def _positive_draws(fit: FittedDistribution, n: int, gen: np.random.Generator) -> np.ndarray:
    # families with real-line support can emit non-positive times; redraw them
    out = np.asarray(sample(fit.family, n, gen), dtype=float)
    if fit.family.positive_support:
        return out
    for _ in range(200):
        bad = out <= 0.0
        n_bad = int(np.count_nonzero(bad))
        if n_bad == 0:
            return out
        out[bad] = sample(fit.family, n_bad, gen)
    raise SamplerStallError(f"family {fit.family.family_id} keeps producing non-positive times")


def _simulate_parametric(model: ArmModel, n_out: int, gen: np.random.Generator) -> ArmData:
    events = _positive_draws(model.event_fit, n_out, gen)
    if model.censoring_fit is None:
        censorings = np.full(n_out, np.inf)
    else:
        censorings = _positive_draws(model.censoring_fit, n_out, gen)
    times, status = observe_arrays(events, censorings)
    return arm_from_arrays(model.label, times, status)


def _simulate_kde(model: ArmModel, n_out: int, gen: np.random.Generator) -> ArmData:
    events = kde_sample(model.event_kde, n_out, gen)
    if model.censoring_kde is None:
        censorings = np.full(n_out, np.inf)
    else:
        censorings = kde_sample(model.censoring_kde, n_out, gen)
    times, status = observe_arrays(events, censorings)
    return arm_from_arrays(model.label, times, status)


def case_resample(model: ArmModel, n_out: int, rng: RandomStream | np.random.Generator) -> ArmData:
    """Draw whole observations with replacement; any output size is fine."""
    gen = as_generator(rng)
    idx = gen.integers(0, model.n_source, size=n_out)
    obs = model.source.observations
    return ArmData(model.label, tuple(obs[i] for i in idx))


def conditional_bootstrap(
    model: ArmModel, n_out: int, rng: RandomStream | np.random.Generator
) -> ArmData:
    """Resample event times while keeping each subject's censoring pattern.

    Censored subjects keep their censoring time; subjects with an event
    get a censoring time drawn from the censoring-distribution estimate
    restricted to times beyond their own. Event times are drawn with
    replacement from the source event pool.

    The largest observation's latent partner equals its own time, and a
    tie resolves to censored: if it is censored it stays censored at its
    own time, and if it is an event it comes out censored at its own time
    whenever that time is redrawn for it.
    """
    gen = as_generator(rng)
    if n_out != model.n_source:
        raise SizeMismatchError(
            f"conditional bootstrap must keep the source size {model.n_source}, got {n_out}"
        )
    source = model.source
    t = source.times()
    s = source.statuses()
    n = t.size
    atoms = model.ghat.atom_times
    cum = np.cumsum(model.ghat.atom_masses)
    total = float(cum[-1]) if cum.size else 0.0
    max_idx = int(np.flatnonzero(t == np.max(t))[-1])  # latest index wins ties

    event_latent = np.full(n, np.nan)
    censor_latent = np.empty(n)
    for i in range(n):
        if i == max_idx or s[i] == 0:
            censor_latent[i] = t[i]
        else:
            lo = int(np.searchsorted(atoms, t[i], side="right"))
            below = float(cum[lo - 1]) if lo > 0 else 0.0
            tail = total - below
            if lo >= atoms.size or tail <= 0.0:
                # no conditional mass left beyond t[i]
                censor_latent[i] = float(atoms[-1]) if atoms.size else np.inf
            else:
                target = below + gen.random() * tail
                j = int(np.searchsorted(cum, target, side="left"))
                censor_latent[i] = float(atoms[min(max(j, lo), atoms.size - 1)])
    if s[max_idx] == 0:
        event_latent[max_idx] = t[max_idx]

    pool = t[s == 1]
    to_draw = np.isnan(event_latent)
    n_draw = int(np.count_nonzero(to_draw))
    event_latent[to_draw] = pool[gen.integers(0, pool.size, size=n_draw)]
    times, status = observe_arrays(event_latent, censor_latent)
    return arm_from_arrays(model.label, times, status)


def simulate(model: ArmModel, n_out: int, rng: RandomStream | np.random.Generator) -> ArmData:
    """Generate one synthetic arm of size n_out from a fitted model."""
    if n_out < 1:
        raise SizeMismatchError(f"n_out must be >= 1, got {n_out}")
    gen = as_generator(rng)
    if model.engine == "parametric":
        return _simulate_parametric(model, n_out, gen)
    if model.engine == "kde":
        return _simulate_kde(model, n_out, gen)
    if model.engine == "case-resampling":
        return case_resample(model, n_out, gen)
    if model.engine == "conditional-bootstrap":
        return conditional_bootstrap(model, n_out, gen)
    raise ValueError(f"unknown engine {model.engine!r}")
