"""Tests of the benchmark itself, at tiny sizes.

Run with ``python -m pytest benchmarks -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

import inputs
import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = {
    "fidelity": dataclasses.replace(workloads.WORKLOADS["fidelity"], chunk_iterations=3, setup_repeats=1),
    "all-engines": dataclasses.replace(workloads.WORKLOADS["all-engines"], chunk_iterations=3, setup_repeats=1),
    "reconstruct": dataclasses.replace(
        workloads.WORKLOADS["reconstruct"], studies=4, chunk_studies=2, setup_repeats=1
    ),
}


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _same_tree(a: str, b: str) -> bool:
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


@pytest.mark.parametrize("name", sorted(TINY))
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    spec = TINY[name]
    spec.start(str(tmp_path / "first"), 7)
    spec.start(str(tmp_path / "second"), 7)
    spec.start(str(tmp_path / "other"), 8)
    assert _same_tree(tmp_path / "first" / "in", tmp_path / "second" / "in")
    assert not _same_tree(tmp_path / "first" / "in", tmp_path / "other" / "in")


def test_corpus_parameters_cover_every_stratum():
    design = inputs.corpus_parameters(inputs.workload_rng(3, "reconstruct"), 8)
    assert sorted(study["n"] // 25 for study in design) == list(range(4, 12))
    assert sorted(int((study["ratio"] - 1.2) / 0.7 * 8) for study in design) == list(range(8))


def test_tracing_restores_every_wrapped_name():
    hooks = spans.default_hooks()
    before = [getattr(h.owner, h.attr) for h in hooks]
    with pytest.raises(RuntimeError):
        with spans.tracing(spans.SpanRecorder(), hooks):
            assert all(getattr(h.owner, h.attr) is not b for h, b in zip(hooks, before))
            raise RuntimeError("leave the block early")
    assert all(getattr(h.owner, h.attr) is b for h, b in zip(hooks, before))


def test_self_time_subtracts_the_direct_children():
    def span(i, parent, start, end):
        return spans.Span(i, parent, f"harness.s{i}", start, end, "measure", None)

    # two children cover 6 of the parent's 10 seconds; a grandchild 1 of the first child's 4
    recorded = [
        span(0, None, 0, 10**10),
        span(1, 0, 10**9, 5 * 10**9),
        span(2, 0, 5 * 10**9, 7 * 10**9),
        span(3, 1, 2 * 10**9, 3 * 10**9),
    ]
    totals = spans.span_totals(recorded, "measure")
    assert totals.self_seconds["harness.s0"] == pytest.approx(4.0)
    assert totals.self_seconds["harness.s1"] == pytest.approx(3.0)
    assert totals.layer_self_seconds["harness"] == pytest.approx(4.0 + 3.0 + 2.0 + 1.0)


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_passes_its_checks_and_prints_the_declared_metrics(tmp_path, name):
    spec = benchmark_spec()
    outcome = workloads.run_untraced(TINY[name], str(tmp_path / "plain"), 1, 0.0)
    assert outcome.correct, outcome.problems
    assert outcome.attempted >= 1 and outcome.failed <= outcome.attempted
    assert {m: u for m, (_, u) in outcome.metrics.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert all(value > 0 for value, _ in outcome.metrics.values())

    traced = workloads.run_traced(TINY[name], str(tmp_path / "traced"), 1, 0.0, str(tmp_path / "spans.jsonl"))
    assert traced.correct, traced.problems
    assert {m: u for m, (_, u) in traced.metrics.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert os.path.getsize(tmp_path / "spans.jsonl") > 0


def test_layer_spans_account_for_run_benchmark(tmp_path):
    traced = workloads.run_traced(TINY["fidelity"], str(tmp_path), 1, 0.0, str(tmp_path / "spans.jsonl"))
    assert traced.correct, traced.problems
    assert traced.metrics["harness.accounted_frac"][0] >= workloads.MIN_ACCOUNTED_FRAC
    assert traced.metrics["core.km_estimate.calls"][0] == 4.0


def test_work_outside_every_wrapper_fails_the_traced_run(tmp_path, monkeypatch):
    # without the evaluate wrappers, evaluation runs outside every layer span
    hooks = [h for h in spans.default_hooks() if h.owner is not spans.evaluate and not h.name.startswith("evaluate.")]
    monkeypatch.setattr(spans, "default_hooks", lambda: hooks)
    traced = workloads.run_traced(TINY["fidelity"], str(tmp_path), 1, 0.0, str(tmp_path / "spans.jsonl"))
    assert traced.metrics["harness.accounted_frac"][0] < workloads.MIN_ACCOUNTED_FRAC
    assert not traced.correct


def test_a_broken_output_fails_the_checks(tmp_path, monkeypatch):
    # claim that kde output must tie: every kde replicate now fails its check
    monkeypatch.setattr(workloads, "RESAMPLING_ENGINES", ("case-resampling", "conditional-bootstrap", "kde"))
    outcome = workloads.run_untraced(TINY["all-engines"], str(tmp_path), 1, 0.0)
    assert not outcome.correct
    assert outcome.failed == TINY["all-engines"].chunk_iterations
    assert outcome.metrics["ok_frac"][0] == pytest.approx(0.75)


def test_coarse_misses_fail_the_run_but_no_operation(tmp_path, monkeypatch):
    # a coarse round trip outside its tolerance is judged over the corpus, not per study
    monkeypatch.setattr(workloads, "COARSE_P_TOLERANCE", -1.0)
    outcome = workloads.run_untraced(TINY["reconstruct"], str(tmp_path), 1, 0.0)
    assert not outcome.correct
    assert outcome.failed == 0
    assert outcome.detail["coarse_within_tolerance"].startswith("0/")


def test_benchmark_json_names_are_unique_and_well_formed():
    spec = benchmark_spec()
    assert spec["command"] == ["python3", "benchmarks/run.py"]
    assert spec["paths"] == ["benchmarks"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "fidelity", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""
