"""Span recorder for the traced run, and the wrappers that feed it.

The wrappers are installed from outside the package: each replaces the
public name a caller looks up (``survbench.harness.simulate`` is the name
``run_benchmark`` calls, ``survbench.evaluate.km_estimate`` the one
``rmstd`` calls) and ``tracing`` puts every original back when it exits.
Untraced runs never enter ``tracing`` and so run the package untouched.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

from survbench import core, distributions, engines, evaluate, harness, reconstruct

LAYERS = ("core", "reconstruct", "distributions", "engines", "evaluate", "harness")

ENGINE_SHORT = {
    "parametric": "parametric",
    "kde": "kde",
    "case-resampling": "case",
    "conditional-bootstrap": "condboot",
}


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    phase: str
    iteration: tuple | None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def to_json(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "phase": self.phase,
            "iteration": self.iteration,
        }


class SpanRecorder:
    """Keeps spans and counters in memory until the run writes them out.

    A span's parent is the innermost open span. The recorder serves one
    thread: every workload runs ``run_benchmark`` with ``workers=1``.
    ``phase`` and ``chunk`` are set by the benchmark; the iteration id of
    a span is ``(chunk, i)``, where ``i`` is set by ``set_iteration``.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.phase = "setup"
        self.chunk = 0
        self.iteration: int | None = None
        self._next_id = 0
        self._stack: list[tuple[int, str]] = []

    def set_iteration(self, i: int | None) -> None:
        self.iteration = i

    def inside(self, name: str) -> bool:
        """Whether a span whose name starts with `name` is open."""
        return any(open_name.startswith(name) for _, open_name in self._stack)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.phase, name)] += amount

    def record_max(self, name: str, value: float) -> None:
        key = (self.phase, name)
        self.counts[key] = max(self.counts[key], value)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1][0] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((span_id, name))
        iteration = None if self.iteration is None else (self.chunk, self.iteration)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, self.phase, iteration))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record.to_json()) + "\n")


# ---------------------------------------------------------------------------
# wrappers


@dataclass(frozen=True)
class Hook:
    """One public name to wrap: where it is looked up and what to record.

    `suffix` derives a name suffix from the call's arguments, `before`
    runs before the span opens and `observe` reads counts from the return
    value. With `span=False` only the hooks run.
    """

    owner: object
    attr: str
    name: str
    suffix: Callable | None = None
    before: Callable | None = None
    observe: Callable | None = None
    span: bool = True


def _wrap(recorder: SpanRecorder, hook: Hook, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if hook.before is not None:
            hook.before(recorder, args, kwargs)
        if not hook.span:
            result = original(*args, **kwargs)
        else:
            name = hook.name if hook.suffix is None else f"{hook.name}.{hook.suffix(args, kwargs)}"
            with recorder.span(name):
                result = original(*args, **kwargs)
        if hook.observe is not None:
            hook.observe(recorder, result, args, kwargs)
        return result

    return wrapper


def _arg(args, kwargs, index: int, keyword: str):
    return args[index] if len(args) > index else kwargs[keyword]


def _engine_of_model(args, kwargs) -> str:
    return ENGINE_SHORT[_arg(args, kwargs, 0, "model").engine]


def _engine_of_name(args, kwargs) -> str:
    return ENGINE_SHORT[engines.canonical_engine(_arg(args, kwargs, 0, "engine"))]


def _iteration_from_stream(recorder: SpanRecorder, args, kwargs) -> None:
    # run_benchmark hands iteration i the stream RandomStream(seed, i)
    stream = _arg(args, kwargs, 2, "rng")
    if isinstance(stream, core.RandomStream):
        recorder.set_iteration(stream.stream_id)


def _reset_iteration(recorder: SpanRecorder, args, kwargs) -> None:
    recorder.set_iteration(None)


def _count_undefined(recorder: SpanRecorder, result, args, kwargs) -> None:
    medians = list(result.medians.values())
    values = {
        "logrank_p": result.logrank_p,
        "hazard_ratio": result.hazard_ratio,
        "median_arm1": medians[0],
        "median_arm2": medians[1],
    }
    for metric, value in values.items():
        recorder.count(f"evaluate.undefined.{metric}", value is None)


def _count_density_points(recorder: SpanRecorder, args, kwargs) -> None:
    if recorder.inside("engines.simulate"):
        x = _arg(args, kwargs, 1, "x")
        recorder.count("engines.kde.density_points", len(x))


def _count_fit(recorder: SpanRecorder, result, args, kwargs) -> None:
    recorder.count("distributions.fit_mle.calls")
    recorder.count("distributions.fit_mle.converged", bool(result.converged))


def _count_reconstruction(recorder: SpanRecorder, result, args, kwargs) -> None:
    _, report = result
    for arm in report.arms.values():
        recorder.count("reconstruct.arms")
        recorder.count("reconstruct.iterations", arm.iterations)
        recorder.count("reconstruct.converged", bool(arm.converged))
        recorder.record_max("reconstruct.max_survival_deviation", arm.max_survival_deviation)


def _study_kind(args, kwargs) -> str:
    # the benchmark names corpus studies "<kind>-<index>"
    return _arg(args, kwargs, 1, "study_id").split("-", 1)[0]


def default_hooks() -> list[Hook]:
    """Every layer boundary the traced run records."""
    return [
        # harness: entry points the benchmark calls, and the names run_benchmark looks up
        Hook(harness, "load_config", "harness.load_config"),
        Hook(harness, "run_benchmark", "harness.run_benchmark", before=_reset_iteration),
        Hook(harness, "emit_reports", "harness.emit_reports"),
        Hook(harness, "load_dataset", "core.load_dataset"),
        Hook(harness, "load_metadata", "core.load_metadata"),
        Hook(harness, "build_model", "engines.build_model", suffix=_engine_of_name),
        Hook(harness, "simulate", "engines.simulate", suffix=_engine_of_model, before=_iteration_from_stream),
        Hook(harness, "evaluate_dataset", "evaluate.evaluate_dataset", observe=_count_undefined),
        # engines
        Hook(engines, "build_model", "engines.build_model", suffix=_engine_of_name),
        Hook(engines, "arm_from_arrays", "core.arm_from_arrays"),
        Hook(engines, "select_distribution", "distributions.select_distribution"),
        Hook(engines, "kde_sample", "engines.kde_sample",
             observe=lambda rec, result, a, k: rec.count("engines.kde.samples", len(result))),
        Hook(engines.KdeDensity, "density", "engines.kde.density", before=_count_density_points, span=False),
        # distributions
        Hook(distributions, "fit_mle", "distributions.fit_mle",
             suffix=lambda a, k: _arg(a, k, 0, "family_id"), observe=_count_fit),
        # evaluate
        Hook(evaluate, "logrank_test", "evaluate.logrank_test"),
        Hook(evaluate, "cox_hazard_ratio", "evaluate.cox_hazard_ratio",
             observe=lambda rec, result, a, k: rec.count("evaluate.cox.newton_iters", result.iterations)),
        Hook(evaluate, "km_estimate", "core.km_estimate"),
        Hook(evaluate, "rmstd", "evaluate.rmstd"),
        Hook(evaluate, "tie_ratio", "evaluate.tie_ratio"),
        # reconstruction and dataset I/O, as the benchmark calls them
        Hook(reconstruct, "load_digitized_arm", "reconstruct.load_digitized_arm"),
        Hook(reconstruct, "reconstruct_study", "reconstruct.reconstruct_study",
             suffix=_study_kind, observe=_count_reconstruction),
        Hook(reconstruct, "km_estimate", "core.km_estimate"),
        Hook(core, "store_dataset", "core.store_dataset"),
    ]


@contextlib.contextmanager
def tracing(recorder: SpanRecorder, hooks: list[Hook] | None = None):
    """Install the wrappers for the duration of the block, then restore."""
    hooks = default_hooks() if hooks is None else hooks
    originals = []
    try:
        for hook in hooks:
            original = getattr(hook.owner, hook.attr)
            originals.append((hook, original))
            setattr(hook.owner, hook.attr, _wrap(recorder, hook, original))
        yield recorder
    finally:
        for hook, original in reversed(originals):
            setattr(hook.owner, hook.attr, original)


# ---------------------------------------------------------------------------
# reading the spans back


@dataclass
class SpanTotals:
    """Per-name and per-layer sums over the spans of one phase."""

    seconds: dict[str, float]
    calls: dict[str, int]
    self_seconds: dict[str, float]  # by span name
    layer_self_seconds: dict[str, float]


def span_totals(spans: list[Span], phase: str) -> SpanTotals:
    """Self time is a span's duration minus its direct children's.

    On one thread the children run one after another inside their parent.
    """
    chosen = [s for s in spans if s.phase == phase]
    child_ns: dict[int, int] = defaultdict(int)
    for s in chosen:
        if s.parent is not None:
            child_ns[s.parent] += s.end_ns - s.start_ns
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_seconds: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for s in chosen:
        own = s.seconds - child_ns[s.span_id] / 1e9
        seconds[s.name] += s.seconds
        calls[s.name] += 1
        self_seconds[s.name] += own
        layer_self[s.name.split(".", 1)[0]] += own
    return SpanTotals(dict(seconds), dict(calls), dict(self_seconds), layer_self)
