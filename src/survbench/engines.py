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
# kernel terms evaluated at once. Each temporary of a row block of the
# (points x support) matrix is then 125 KB: it stays in cache, and below
# glibc's default 128 KB mmap threshold, so it is not mapped afresh (and
# page-faulted in) on every call
KDE_BLOCK_TERMS = 16_000
# consecutive grid points per cell of the envelope search
KDE_CELL_POINTS = 32
# relative margin on a cell's bound, far above the few-ulp error of np.exp
KDE_CELL_MARGIN = 1.0 + 1e-9
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

    @property
    def row_block(self) -> int:
        """Points per block of the kernel matrix, at least one."""
        return max(1, KDE_BLOCK_TERMS // self.support.size)

    def density(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        scale = self.support.size * self.bandwidth * math.sqrt(2.0 * math.pi)
        out = np.empty(x.size)
        step = self.row_block
        # each row's sum is the same whatever the block, so blocking keeps every bit
        for start in range(0, x.size, step):
            rows = slice(start, start + step)
            z = (x[rows, None] - self.support[None, :]) / self.bandwidth
            out[rows] = np.exp(-0.5 * z * z).sum(axis=1) / scale
        return out

    def grid_peak(self, grid: np.ndarray) -> float:
        """max(density(grid)), evaluating only the cells of the grid that can hold it.

        Each kernel is largest in a cell at the cell point nearest its
        centre, so the kernels summed there bound the cell. Cells are
        evaluated by falling bound until the running maximum reaches the
        next bound. Rounded subtraction, squaring, addition and division
        are monotone, so this is the very row value a full scan finds.
        The bound is worked in place, so that it holds no more temporaries
        at once than `density` does.
        """
        scale = self.support.size * self.bandwidth * math.sqrt(2.0 * math.pi)
        cells = grid.reshape(-1, KDE_CELL_POINTS)
        bounds = np.empty(cells.shape[0])
        step = self.row_block
        for start in range(0, bounds.size, step):
            rows = slice(start, start + step)
            z = np.clip(self.support[None, :], cells[rows, :1], cells[rows, -1:])
            z -= self.support
            z /= self.bandwidth
            bounds[rows] = np.exp(-0.5 * z * z).sum(axis=1) / scale * KDE_CELL_MARGIN
        peak = -math.inf
        for cell in np.argsort(-bounds):
            if bounds[cell] <= peak:
                break
            peak = max(peak, float(np.max(self.density(cells[cell]))))
        return peak


def silverman_bandwidth(sample_values: np.ndarray) -> float:
    """0.9 * min(sd, IQR/1.34) * n**(-1/5), the rule-of-thumb bandwidth."""
    x = np.asarray(sample_values, dtype=float)
    if x.size < 2:
        raise BandwidthError(f"need at least 2 observations, got {x.size}")
    if float(np.min(x)) == float(np.max(x)):
        raise BandwidthError("degenerate sample, all values equal")
    # powers of two scale exactly: squared deviations of the sample brought to
    # a largest magnitude near 1 do not underflow, as they would below about 1e-162
    k = math.frexp(float(np.max(np.abs(x))))[1]
    sd = math.ldexp(float(np.std(np.ldexp(x, -k), ddof=1)), k)
    q1, q3 = np.quantile(x, [0.25, 0.75])
    spread = min(sd, float(q3 - q1) / 1.34)
    if spread <= 0.0:
        spread = sd
    return 0.9 * spread * x.size ** (-0.2)


def kde_fit(sample_values) -> KdeDensity:
    """Fit the KDE with the Silverman bandwidth."""
    x = np.asarray(sample_values, dtype=float)
    if x.size == 0 or not np.all(np.isfinite(x)):
        raise BandwidthError("sample must be non-empty and finite")
    h = silverman_bandwidth(x)
    # the rule is subnormal on subnormal samples, and 1 / (n * h) then overflows
    if not h >= np.finfo(float).tiny:
        raise BandwidthError(f"bandwidth must be > 0 and a normal float, got {h}")
    lower = max(0.0, float(np.min(x)) - 3.0 * h)
    upper = float(np.max(x)) + 3.0 * h
    kde = KdeDensity(x.copy(), h, lower, upper, envelope=1.0)
    grid = np.linspace(lower, upper, KDE_GRID_POINTS)
    kde.envelope = kde.grid_peak(grid) * KDE_ENVELOPE_SAFETY
    return kde


def kde_sample(kde: KdeDensity, n: int, gen: np.random.Generator) -> np.ndarray:
    """Rejection sampling under the flat envelope over the domain.

    Each block of proposals is drawn whole, so the generator advances
    the same way however soon the sample fills. The density is evaluated in
    proposal order, about as many proposals at a time as the rest of the
    sample should need (at least one row block), and the proposals after
    the last acceptance the sample needs are never evaluated.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
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
        start = 0
        while start < block:
            # as many proposals as the rest of the sample should need, at least a row block
            stop = start + max(kde.row_block, math.ceil((n - filled) / accept_estimate))
            keep = xs[start:stop][us[start:stop] * kde.envelope < kde.density(xs[start:stop])]
            take = min(n - filled, keep.size)
            out[filled : filled + take] = keep[:take]
            filled += take
            accepted += keep.size
            if filled == n:
                return out
            start = stop
        proposed += block
        if proposed >= STALL_PROPOSALS and accepted / proposed < STALL_ACCEPT_RATE:
            raise SamplerStallError(
                f"acceptance rate {accepted / proposed:.2e} after {proposed} proposals"
            )
        if accepted > 0:
            accept_estimate = max(accepted / proposed, 1e-3)
    return out


# ---------------------------------------------------------------------------
# the conditional bootstrap's fixed part


@dataclass(frozen=True)
class CondbootPlan:
    """What ``conditional_bootstrap`` derives from the source arm alone,
    computed once by ``build_model``.

    Every array is read-only; a call copies the two bases and fills in the
    rows it draws. The ``draw`` rows are the event rows (not the largest
    one) with censoring mass left beyond their own time: their partner is
    an atom drawn from that mass, found between ``lo`` and the last atom.
    Every other row keeps the partner its base holds.
    """

    atoms: np.ndarray  # censoring atom times
    cum: np.ndarray  # cumulative censoring mass after each atom
    draw: np.ndarray  # rows whose partner is drawn
    lo: np.ndarray  # per drawn row: the first atom after its time
    below: np.ndarray  # per drawn row: the censoring mass up to its time
    tail: np.ndarray  # per drawn row: the censoring mass beyond its time
    censor_base: np.ndarray  # latent censoring times, drawn rows unfilled
    event_draw: np.ndarray  # rows whose event time is drawn from the pool
    event_base: np.ndarray  # latent event times, drawn rows unfilled
    pool: np.ndarray  # the source event times


def condboot_plan(arm: ArmData) -> CondbootPlan:
    """The fixed part of every conditional bootstrap of `arm`; see ``conditional_bootstrap``.

    The censoring atoms and their masses are the times and drops of the
    Kaplan-Meier curve of the censoring distribution (roles of event and
    censoring swapped); the masses sum to less than one when the largest
    observation of the arm is an event.
    """
    t, s = arm.times(), arm.statuses()
    curve = km_from_arrays(t, 1 - s)
    atoms = curve.time
    upper = np.cumsum(-np.diff(np.concatenate(([1.0], curve.survival))))
    cum = np.concatenate(([0.0], upper))
    max_idx = int(np.flatnonzero(t == np.max(t))[-1])  # latest index wins ties

    # censored rows and the largest row keep their own time as partner
    censor_base = t.copy()
    partnered = s == 1
    partnered[max_idx] = False
    rows = partnered.nonzero()[0]
    lo = np.searchsorted(atoms, t[rows], side="right")
    below = cum[lo]
    tail = cum[-1] - below
    drawn = (lo < atoms.size) & (tail > 0.0)
    # no censoring mass left beyond t[i]: the partner is the largest time
    censor_base[rows[~drawn]] = float(t[max_idx]) if atoms.size else np.inf

    event_base = np.full(t.size, np.nan)
    if s[max_idx] == 0:
        event_base[max_idx] = t[max_idx]
    event_draw = np.isnan(event_base).nonzero()[0]
    plan = CondbootPlan(
        atoms=atoms,
        cum=upper,
        draw=rows[drawn],
        lo=lo[drawn],
        below=below[drawn],
        tail=tail[drawn],
        censor_base=censor_base,
        event_draw=event_draw,
        event_base=event_base,
        pool=t[s == 1],
    )
    for array in vars(plan).values():
        array.flags.writeable = False
    return plan


# ---------------------------------------------------------------------------
# models


@dataclass
class ArmModel:
    """Everything an engine needs, fitted once per arm.

    ``event`` and ``censoring`` hold the fitted family of a parametric
    model and the kernel density of a kde model; ``censoring`` is None when
    the arm has no censored subject.
    """

    engine: str
    source: ArmData
    event: FittedDistribution | KdeDensity | None = None
    censoring: FittedDistribution | KdeDensity | None = None
    condboot: CondbootPlan | None = None


def build_model(engine: str, arm: ArmData) -> ArmModel:
    """Fit one arm for one engine; all expensive fitting happens here.

    A conditional-bootstrap model also holds its ``CondbootPlan``: every
    array a draw needs that depends on the arm alone, built once here
    rather than on each ``conditional_bootstrap`` call.
    """
    kind = canonical_engine(engine)
    times, status = arm.times(), arm.statuses()
    events, censorings = times[status == 1], times[status == 0]
    model = ArmModel(kind, arm)
    if kind == "parametric":
        try:
            model.event = select_distribution(events)
            # an arm without censored subjects simply never censors
            model.censoring = select_distribution(censorings) if censorings.size else None
        except (ValueError, SelectionError) as exc:
            raise ModelBuildError(f"arm {arm.label!r}, parametric: {exc}") from exc
    elif kind == "kde":
        try:
            model.event = kde_fit(events) if events.size else None
            model.censoring = kde_fit(censorings) if censorings.size else None
        except BandwidthError as exc:
            raise ModelBuildError(f"arm {arm.label!r}, kde: {exc}") from exc
        if model.event is None:
            raise ModelBuildError(f"arm {arm.label!r}, kde: event subset is empty")
    elif kind == "conditional-bootstrap":
        if events.size == 0:
            raise ModelBuildError(f"arm {arm.label!r}: no events to resample")
        model.condboot = condboot_plan(arm)
    return model


def model_summary(model: ArmModel) -> dict:
    """JSON-friendly description of a fitted model."""
    out: dict = {"engine": model.engine, "label": model.source.label, "n_source": len(model.source)}
    for side, part in (("event", model.event), ("censoring", model.censoring)):
        if model.engine == "parametric":
            out[side] = part.to_json() if part else None
        elif model.engine == "kde":
            out[f"{side}_bandwidth"] = part.bandwidth if part else None
            out[f"{side}_envelope"] = part.envelope if part else None
            out[f"{side}_domain"] = [part.lower, part.upper] if part else None
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


def _simulate_independent(model: ArmModel, sampler, n_out: int, gen: np.random.Generator) -> ArmData:
    """Independent event and censoring draws; without a censoring part nobody is censored."""
    events = sampler(model.event, n_out, gen)
    if model.censoring is None:
        censorings = np.full(n_out, np.inf)
    else:
        censorings = sampler(model.censoring, n_out, gen)
    times, status = observe_arrays(events, censorings)
    # checked: a fitted family can draw +inf, which no censoring draw hides
    return arm_from_arrays(model.source.label, times, status)


def case_resample(model: ArmModel, n_out: int, gen: np.random.Generator) -> ArmData:
    """Draw whole observations with replacement; any output size is fine."""
    source = model.source
    idx = gen.integers(0, len(source), size=n_out)
    # rows of a checked arm: nothing to re-check
    return ArmData._from_columns(source.label, source.times()[idx], source.statuses()[idx])


def conditional_bootstrap(model: ArmModel, n_out: int, gen: np.random.Generator) -> ArmData:
    """Resample event times while keeping each subject's censoring pattern.

    Censored subjects keep their censoring time; subjects with an event
    get a censoring time drawn from the censoring-distribution estimate
    restricted to times beyond their own. Event times are drawn with
    replacement from the source event pool.

    The largest observation's latent partner equals its own time, and a
    tie resolves to censored: if it is censored it stays censored at its
    own time, and if it is an event it comes out censored at its own time
    whenever that time is redrawn for it. An event row with no censoring
    mass beyond its own time shares that partner, the largest observed
    time; in an arm with no censored subject every partner is ``+inf``.

    Everything that depends on the arm alone comes from the model's
    ``CondbootPlan``; a call draws the partners, then the event times,
    into copies of the plan's bases.
    """
    if n_out != len(model.source):
        raise SizeMismatchError(
            f"conditional bootstrap must keep the source size {len(model.source)}, got {n_out}"
        )
    plan = model.condboot
    atoms = plan.atoms
    censor_latent = plan.censor_base.copy()
    target = plan.below + gen.random(plan.draw.size) * plan.tail
    j = np.searchsorted(plan.cum, target, side="left")
    censor_latent[plan.draw] = atoms[np.minimum(np.maximum(j, plan.lo), atoms.size - 1)]

    event_latent = plan.event_base.copy()
    pool = plan.pool
    event_latent[plan.event_draw] = pool[gen.integers(0, pool.size, size=plan.event_draw.size)]
    # every time is a source time, and a +inf partner leaves its row an event
    return ArmData._from_columns(model.source.label, *observe_arrays(event_latent, censor_latent))


def simulate(model: ArmModel, n_out: int, rng: RandomStream) -> ArmData:
    """Generate one synthetic arm of size n_out from a fitted model.

    The stream's generator is built on first use and carries on across
    calls, so two calls on one stream draw one after the other.
    """
    if n_out < 1:
        raise SizeMismatchError(f"n_out must be >= 1, got {n_out}")
    gen = rng.generator
    if model.engine in ("parametric", "kde"):
        sampler = _positive_draws if model.engine == "parametric" else kde_sample
        return _simulate_independent(model, sampler, n_out, gen)
    if model.engine == "case-resampling":
        return case_resample(model, n_out, gen)
    if model.engine == "conditional-bootstrap":
        return conditional_bootstrap(model, n_out, gen)
    raise ValueError(f"unknown engine {model.engine!r}")
