"""The package against the implementations it replaced (oracle.py).

Equality is exact: the rewrite keeps the order of every multiplication,
sum and random draw, so any difference is a defect, not rounding.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
from dataclasses import replace

import numpy as np
import oracle
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from survbench import core, harness, reconstruct
from survbench.core import (
    ArmData,
    KmCurve,
    Observation,
    ParseError,
    RandomStream,
    StructureError,
    StudyDataset,
    StudyMetadata,
    arm_from_arrays,
    km_estimate,
    km_from_arrays,
    load_dataset,
    median_survival,
    store_dataset,
)
from survbench.distributions import fit_candidates
from survbench.engines import (
    build_model,
    case_resample,
    censoring_km,
    conditional_bootstrap,
    kde_fit,
    kde_sample,
    silverman_bandwidth,
)
from survbench.evaluate import (
    DegenerateTestError,
    _build_event_table,
    _cox_terms,
    cox_hazard_ratio,
    cox_partial_loglik,
    cox_score,
    evaluate_dataset,
    logrank_test,
    rmst_from_curve,
    rmst_tau,
    tie_ratio,
)
from survbench.harness import BenchmarkConfig, StudyRecord, run_benchmark
from survbench.reconstruct import DigitizedArm, InfeasibleCurveError, load_digitized_arm, reconstruct_arm

from helpers import synth_study

survbench_readers = {
    "load_dataset": core, "load_metadata": core, "load_config": harness,
    "load_digitized_arm": reconstruct, "load_event_totals": reconstruct,
}

# times from a coarse grid that includes 0 and -0.0 (heavy ties) or from a continuum
_grid_time = st.integers(0, 12).map(lambda k: k * 0.5) | st.just(-0.0)
_free_time = st.floats(0.0, 60.0, allow_nan=False, allow_infinity=False)


@st.composite
def arm_columns(draw):
    n = draw(st.integers(1, 40))
    times = draw(st.lists(st.one_of(_grid_time, _free_time), min_size=n, max_size=n))
    mode = draw(st.sampled_from(("mixed", "all-censored", "all-event")))
    if mode == "mixed":
        status = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    else:
        status = [int(mode == "all-event")] * n
    return np.array(times, dtype=float), np.array(status, dtype=np.int64)


# kde supports: ties from the grid, times just above 0, and a continuum
_near_zero_time = st.floats(1e-9, 1e-3) | st.just(0.0)


@st.composite
def kde_supports(draw):
    size = draw(st.integers(2, 700))
    pool = draw(st.lists(st.one_of(_grid_time, _near_zero_time, _free_time), min_size=2, max_size=40))
    picks = np.random.default_rng(draw(st.integers(0, 2**32))).integers(0, len(pool), size)
    support = np.array(pool, dtype=float)[picks]
    # all-equal supports have no bandwidth, and one that underflows is no estimate
    assume(support.min() < support.max() and silverman_bandwidth(support) > 1e-12)
    return support


@st.composite
def studies(draw):
    return StudyDataset(
        (arm_from_arrays("A", *draw(arm_columns())), arm_from_arrays("B", *draw(arm_columns())))
    )


def _steps(curve):
    return [(s.time, s.at_risk, s.events, s.survival) for s in curve.steps]


def _same_columns(new, old, names):
    for name in names:
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@settings(deadline=None, max_examples=300)
@given(arm_columns())
@example((np.array([0.0, -0.0, 0.0, 1.0]), np.array([1, 1, 1, 0])))  # both zeros in one run
@example((np.array([2.0, 1.0]), np.array([0, 0])))  # no events
def test_km_columns_match_the_unique_build(columns):
    curve, expected = km_from_arrays(*columns), oracle.km_from_arrays(*columns)
    _same_columns(curve, expected, ("time", "at_risk", "events", "survival"))
    assert not any(getattr(curve, name).flags.writeable for name in ("time", "at_risk", "events", "survival"))


@settings(deadline=None)
@given(arm_columns())
def test_km_curve_and_median_match_the_loop(columns):
    curve = km_from_arrays(*columns)
    expected = oracle.km_steps(*columns)
    assert _steps(curve) == expected
    assert all(
        type(s.time) is float and type(s.at_risk) is int and type(s.events) is int
        and type(s.survival) is float
        for s in curve.steps
    )
    assert median_survival(curve) == oracle.median_survival(expected)
    for t, _, _, surv in expected:
        assert curve.survival_at(t) == surv


@settings(deadline=None)
@given(arm_columns(), st.floats(1e-3, 80.0))
def test_rmst_from_curve_matches_the_loop(columns, tau):
    curve = km_from_arrays(*columns)
    steps = oracle.km_steps(*columns)
    for restriction in (tau, *columns[0][columns[0] > 0.0][:5].tolist()):
        assert rmst_from_curve(curve, restriction) == oracle.rmst_from_steps(steps, restriction)


@settings(deadline=None)
@given(studies())
def test_rmst_tau_and_efron_terms_match_the_loop(dataset):
    assert rmst_tau(dataset) == oracle.rmst_tau(dataset)
    if not any(arm.statuses().any() for arm in dataset.arms):
        return
    tab = _build_event_table(dataset)
    n1, n0, f1, f0, fracs, weights = oracle.cox_terms(tab, "efron")
    assert np.array_equal(fracs, oracle.efron_fracs(tab.d1 + tab.d0))
    a1, a0, hoisted_weights = _cox_terms(tab, "efron")
    assert np.array_equal(a1, n1 - fracs * f1) and np.array_equal(a0, n0 - fracs * f0)
    assert np.array_equal(hoisted_weights, weights)


def _study(pairs_a, pairs_b):
    arms = (arm_from_arrays(label, *np.array(pairs, dtype=float).T) for label, pairs in zip("AB", (pairs_a, pairs_b)))
    return StudyDataset(tuple(arms))


@settings(deadline=None, max_examples=300)
@given(studies())
@example(_study([(0.0, 1), (-0.0, 1), (2.0, 0)], [(-0.0, 1), (0.0, 0), (0.0, 1)]))  # signed zeros across arms
@example(_study([(1.0, 0)], [(0.0, 0)]))  # no events
def test_event_table_matches_the_unique_build(dataset):
    try:
        expected = oracle.build_event_table(dataset)
    except DegenerateTestError as exc:
        with pytest.raises(DegenerateTestError, match=str(exc)):
            _build_event_table(dataset)
        return
    _same_columns(_build_event_table(dataset), expected, ("n1", "n0", "d1", "d0"))


def _outcome(statistic, *args):
    try:
        return repr(statistic(*args))
    except DegenerateTestError as exc:
        return f"undefined: {exc}"


@settings(deadline=None)
@given(studies())
@example(_study([(1.0, 0), (2.0, 0)], [(0.0, 0), (3.0, 0)]))  # no events
@example(_study([(0.0, 0), (2.0, 1), (3.0, 1)], [(0.0, 1), (1.0, 1), (1.5, 1)]))  # tau = 0
@example(_study([(1.0, 1)], [(1.0, 1)]))  # zero logrank variance
@example(_study([(0.0, 1)] * 3 + [(1.0, 1)] * 4, [(0.0, 1)] * 2 + [(1.0, 1)] * 5))  # heavy ties at zero
@example(_study([(-0.0, 1), (0.0, 0), (1.0, 1)], [(0.0, 1), (-0.0, 0), (2.0, 0)]))  # signed zeros
def test_shared_event_table_matches_one_table_per_statistic(dataset):
    assert json.dumps(evaluate_dataset(dataset).to_json()) == json.dumps(oracle.evaluate_dataset(dataset).to_json())
    assert _outcome(logrank_test, dataset) == _outcome(oracle.logrank_test, dataset)
    assert tie_ratio(dataset) == oracle.tie_ratio(dataset)
    for ties in ("efron", "breslow"):
        assert _outcome(cox_hazard_ratio, dataset, ties) == _outcome(oracle.cox_hazard_ratio, dataset, ties)
        for beta in (-4.0, -0.5, 0.0, 0.3, 2.5):
            for new, old in ((cox_partial_loglik, oracle.cox_partial_loglik), (cox_score, oracle.cox_score)):
                assert _outcome(new, dataset, beta, ties) == _outcome(old, dataset, beta, ties)


def _fitted(fit, sample):
    try:
        fits, failures = fit(sample)
    except (ArithmeticError, ValueError) as exc:  # the same failure on both sides is parity too
        return f"{type(exc).__name__}: {exc}"
    return json.dumps([fit.to_json() for fit in fits]), failures


# fit samples: ties and zeros (the mixture's masked Weibull part), negative
# values, points near 1e-170 whose variance underflows, and wide spreads
_fit_value = (
    st.integers(-2, 12).map(lambda k: k * 0.5)
    | st.sampled_from((0.0, -0.0))
    | st.floats(1e-171, 1e-169)
    | st.floats(1e-3, 60.0)
    | st.floats(-1e4, 1e6, allow_nan=False)
)


@settings(deadline=None, max_examples=40)
@given(st.lists(_fit_value, min_size=2, max_size=30))
@example([0.0, 0.0, 1.0, 1.5, 2.0, 2.0, 3.5])  # zeros and ties
@example([1e-170, 2e-170, 1.5e-170, 3e-170, 1e-170])  # all near 1e-170
@example([1e-170, 0.25, 3.0, 4e5, 7.0, 12.5])  # a wide spread of positive values
def test_fitted_candidates_match_the_checked_objective(sample):
    assert _fitted(fit_candidates, sample) == _fitted(oracle.fit_candidates, sample)


@settings(deadline=None)
@given(arm_columns(), st.integers(1, 80), st.integers(0, 2**32))
def test_case_resample_matches_the_loop(columns, n_out, seed):
    arm = arm_from_arrays("A", *columns)
    out = case_resample(build_model("case", arm), n_out, RandomStream(seed, 1))
    assert out.observations == oracle.case_resample(arm, n_out, RandomStream(seed, 1).generator)


@settings(deadline=None)
@given(arm_columns(), st.integers(0, 2**32))
# an event row (2.0) past the last censoring time (1.0) that is not the largest row
@example((np.array([1.0, 2.0, 3.0]), np.array([0, 1, 1])), 0)
def test_conditional_bootstrap_matches_the_loop(columns, seed):
    if not columns[1].any():
        return  # no events to resample: build_model refuses the arm
    arm = arm_from_arrays("A", *columns)
    model = build_model("condboot", arm)
    out = conditional_bootstrap(model, len(arm), RandomStream(seed, 2))
    expected = oracle.conditional_bootstrap(
        arm, model.ghat.atom_times, model.ghat.atom_masses, RandomStream(seed, 2).generator
    )
    assert list(zip(out.times().tolist(), out.statuses().tolist())) == expected


# ---------------------------------------------------------------------------
# columns the package derives skip the public checks; these properties hold
# them to those checks


def _passes_the_arm_checks(arm):
    assert not (arm.times().flags.writeable or arm.statuses().flags.writeable)
    return arm_from_arrays(arm.label, arm.times(), arm.statuses()) == arm


@settings(deadline=None)
@given(arm_columns())
def test_derived_curve_passes_the_curve_checks(columns):
    curve = km_estimate(arm_from_arrays("A", *columns))
    checked = KmCurve(curve.steps)
    for name in ("time", "at_risk", "events", "survival"):
        assert np.array_equal(getattr(checked, name), getattr(curve, name))


@settings(deadline=None)
@given(arm_columns(), st.integers(1, 80), st.integers(0, 2**32))
def test_case_resampled_arm_passes_the_arm_checks(columns, n_out, seed):
    arm = arm_from_arrays("A", *columns)
    assert _passes_the_arm_checks(case_resample(build_model("case", arm), n_out, RandomStream(seed, 1)))


@settings(deadline=None)
@given(arm_columns(), st.integers(0, 2**32))
def test_conditional_bootstrap_arm_passes_the_arm_checks(columns, seed):
    assume(columns[1].any())  # no events to resample: build_model refuses the arm
    model = build_model("condboot", arm_from_arrays("A", *columns))
    assert _passes_the_arm_checks(conditional_bootstrap(model, len(model.source), RandomStream(seed, 2)))


_time_text = st.floats().map(repr) | st.sampled_from(["nan", "inf", "-1", "1e999", "-0.0", "0"])


@settings(deadline=None)
@given(st.lists(st.tuples(st.sampled_from("AB"), _time_text, st.sampled_from("012")), min_size=1, max_size=20))
def test_loaded_arms_pass_the_arm_checks(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("load") / "study.csv"
    path.write_text("arm,time,status\n" + "".join(f"{a},{t},{s}\n" for a, t, s in rows))
    if not all(math.isfinite(float(t)) and float(t) >= 0.0 and s != "2" for _, t, s in rows):
        with pytest.raises(ParseError, match="line"):
            load_dataset(str(path))
    elif len({a for a, _, _ in rows}) != 2:
        with pytest.raises(StructureError):
            load_dataset(str(path))
    else:
        for arm in load_dataset(str(path)).arms:
            assert _passes_the_arm_checks(arm)
            rows_of_arm = [(float(t), int(s)) for a, t, s in rows if a == arm.label]
            assert list(zip(arm.times().tolist(), arm.statuses().tolist())) == rows_of_arm


def test_derived_columns_are_not_checked_again(tmp_path, monkeypatch):
    dataset = synth_study(4, n=20)
    store_dataset(dataset, str(tmp_path / "study.csv"))

    def refuse(*args, **kwargs):
        raise AssertionError("derived columns were checked again")

    monkeypatch.setattr(core, "_check_arm_columns", refuse)
    monkeypatch.setattr(KmCurve, "__init__", refuse)
    arm = load_dataset(str(tmp_path / "study.csv")).arms[0]
    km_estimate(arm)
    censoring_km(arm)
    case_resample(build_model("case", arm), 20, RandomStream(0, 1))
    conditional_bootstrap(build_model("condboot", arm), len(arm), RandomStream(0, 2))


@settings(deadline=None)
@given(studies())
def test_stored_bytes_match_the_loop(tmp_path_factory, dataset):
    folder = tmp_path_factory.mktemp("store")
    store_dataset(dataset, str(folder / "new.csv"))
    oracle.store_dataset(dataset, str(folder / "old.csv"))
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


@settings(deadline=None, max_examples=60)
@given(kde_supports(), st.integers(1, 3), st.integers(0, 2**32))
def test_kde_density_matches_the_whole_matrix(support, blocks, seed):
    kde = kde_fit(support)
    points = blocks * kde.row_block + seed % kde.row_block  # a partial last block on most seeds
    grid = np.random.default_rng(seed).uniform(kde.lower - kde.bandwidth, kde.upper, points)
    assert np.array_equal(kde.density(grid), oracle.kde_density(kde, grid))


@st.composite
def kde_sample_sizes(draw, kde):
    # up to three times what one 1024-proposal block yields at the rate the
    # flat envelope promises; a tight cluster in a wide domain makes that
    # rate tiny and would need millions of proposals
    rate = 1.0 / (kde.envelope * (kde.upper - kde.lower))
    assume(rate > 0.01)
    return draw(st.integers(0, math.ceil(3.0 * 1024 * rate)))


@settings(deadline=None, max_examples=60)
@given(kde_supports().map(kde_fit).flatmap(lambda kde: st.tuples(st.just(kde), kde_sample_sizes(kde))),
       st.integers(0, 2**32))
# 300 draws of this support fill the first (1024-proposal) block on seed 0
# and need a second block on seed 7
@example((kde_fit([0.0, 0.0, 1.0, 2.0, 7.5]), 300), 0)
@example((kde_fit([0.0, 0.0, 1.0, 2.0, 7.5]), 300), 7)
def test_kde_sample_matches_the_whole_block(kde_and_n, seed):
    kde, n = kde_and_n
    new_stream = RandomStream(seed, 4).generator
    old_stream = RandomStream(seed, 4).generator
    assert np.array_equal(kde_sample(kde, n, new_stream), oracle.kde_sample(kde, n, old_stream))
    assert new_stream.random() == old_stream.random()


def _record(study_id, dataset, reported=True):
    reference = evaluate_dataset(dataset)
    medians = dict(reference.medians) if reported else {label: None for label in dataset.labels}
    hazard_ratio = reference.hazard_ratio if reported else None
    metadata = StudyMetadata(study_id, reference.logrank_p, hazard_ratio, medians, "non-crossing")
    return StudyRecord(dataset, metadata, reference)


def test_folded_benchmark_matches_the_two_phase_loop():
    censored_only_at_zero = StudyDataset(
        (
            ArmData("A", (Observation(0.0, 0), Observation(2.0, 1), Observation(3.0, 1))),
            ArmData("B", (Observation(0.0, 1), Observation(1.0, 1), Observation(1.5, 1))),
        )
    )
    config = BenchmarkConfig(
        [
            _record("reported", synth_study(3, n=30)),
            _record("unreported", synth_study(2, n=25), reported=False),  # hazard ratio, medians None
            _record("zero", censored_only_at_zero, reported=False),  # rmstd undefined
        ],
        ["parametric", "kde", "case", "condboot"],
        iterations=12,
        base_seed=8,
    )
    values, undefined, seconds = oracle.run_benchmark(config)
    assert any(count == config.iterations for count in undefined.values())
    for workers in (1, 3):
        result = run_benchmark(replace(config, workers=workers))
        assert result.diffs.values == values
        assert result.diffs.undefined == undefined
        counts = {key: len(v) for key, v in result.runtimes.seconds.items()}
        assert counts == {key: len(v) for key, v in seconds.items()}


# digitized arms: click times shared with the risk grid (clicks on risk
# times, duplicates, -0.0) or free; survival outside [0, 1] and -0.0
_click_time = st.integers(0, 24).map(lambda k: k * 0.5) | st.floats(0.0, 13.0) | st.just(-0.0)
_click_survival = st.floats(-0.2, 1.2) | st.sampled_from((0.0, -0.0, 1.0))


@st.composite
def digitized_inputs(draw):
    """(coordinates, risk table, total, drop the first risk row after checking)."""
    clicks = draw(st.lists(st.tuples(_click_time, _click_survival), min_size=1, max_size=40))
    if draw(st.booleans()):  # a falling curve; otherwise it may rise anywhere
        survival = sorted((s for _, s in clicks), reverse=True)
        clicks = [(t, s) for (t, _), s in zip(sorted(clicks), survival)]
    n = draw(st.integers(1, 60))
    rising = draw(st.sampled_from((False, False, False, True)))  # an infeasible table
    rows = [(draw(st.sampled_from((0.0, -0.0))), n)]
    for k in sorted(set(draw(st.lists(st.integers(1, 20), max_size=8)))):
        n = draw(st.integers(1, n + rising))
        rows.append((k * 0.5, n))
    total = draw(st.one_of(st.none(), st.integers(0, rows[0][1]), st.integers(rows[0][1] + 1, 80)))
    # a caller may shorten a checked table, leaving clicks before its first time
    drop_first = len(rows) > 1 and draw(st.booleans())
    return clicks, rows, total, drop_first


@settings(deadline=None, max_examples=300)
@given(digitized_inputs())
@example(([(0.0, 1.0), (1.0, 0.6), (1.0, 0.5), (2.0, 0.5), (9.0, 0.2)], [(0.0, 10), (1.0, 10), (2.0, 5)], 6, False))
@example(([(-0.0, -0.0), (0.5, 1.2)], [(0.0, 3), (0.5, 3)], None, True))
def test_bisected_reconstruction_matches_the_scanning_loop(inputs):
    clicks, rows, total, drop_first = inputs
    arm = DigitizedArm("A", clicks, rows, total)
    assert repr(arm.coordinates) == repr(oracle.monotonize(clicks))
    if drop_first:
        arm.risk_table = arm.risk_table[1:]
    try:
        expected_arm, expected_report = oracle.reconstruct_arm(arm)
    except InfeasibleCurveError as exc:
        with pytest.raises(InfeasibleCurveError, match=re.escape(str(exc))):
            reconstruct_arm(arm)
        return
    rebuilt, report = reconstruct_arm(arm)
    assert rebuilt.times().tobytes() == expected_arm.times().tobytes()
    assert rebuilt.statuses().tobytes() == expected_arm.statuses().tobytes()
    got, expected = report.to_json(), expected_report.to_json()
    assert (got.pop("misses") == []) == report.converged  # the scanning loop records no misses
    del expected["misses"]
    assert json.dumps(got) == json.dumps(expected)


# digitized CSV texts: well-formed tables with a few odd or malformed lines
# mixed in; many odd fields still parse ("1_0", " 2.5 ", -0.0, a quoted
# number) and so reach the table rules instead of the row rules
_odd_field = st.sampled_from(
    ("nan", "inf", "-inf", "1e999", "1_0", " 2.5 ", "-0.0", "10.0", "0", "-1", "x", "", '"2.5"', '"1,0"')
)
_odd_line = st.one_of(
    st.tuples(_odd_field | _click_time.map(repr), _odd_field | _click_survival.map(repr)).map(",".join),
    st.sampled_from(("", "1.0", "1.0,0.5,0.2", "time,survival", '"1.0,0.5"')),
)


@st.composite
def _csv_text(draw, header, rows):
    """`rows` as CSV text under `header`, up to two lines replaced or added."""
    lines = [f"{a!r},{b!r}" for a, b in rows]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        k = draw(st.integers(0, len(lines)))
        lines[k:k + draw(st.integers(0, 1))] = [draw(_odd_line)]
    header = draw(st.sampled_from((header,) * 6 + ("\ufeff" + header, "time,surv")))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join([header] + lines) + draw(st.sampled_from(("", newline)))


@st.composite
def digitized_csv_texts(draw):
    """(label, coordinates text, risk text, event total)."""
    clicks = draw(st.lists(st.tuples(_click_time, _click_survival), min_size=1, max_size=12))
    if draw(st.booleans()):
        clicks.sort()
    if draw(st.sampled_from((False,) * 5 + (True,))):  # a negative click time
        clicks.insert(draw(st.integers(0, len(clicks))), (-0.5, 1.0))
    n = draw(st.integers(1, 40))
    first = draw(st.sampled_from((0.0, 0.0, -0.0, 3.0)))  # 3.0 often lies after the first click
    rows = [(first, n)]
    for k in sorted(set(draw(st.lists(st.integers(2, 24), max_size=6)))):
        n = draw(st.integers(1, max(n, 1)) | st.sampled_from((0, -1, n + 1)))  # and a rising count
        rows.append((k * 0.5, n))
    if draw(st.sampled_from((False, False, True))):  # a repeated or falling risk time
        rows.insert(draw(st.integers(0, len(rows))), (draw(_click_time), 5))
    return (
        draw(st.sampled_from(("A",) * 5 + ("",))),
        draw(_csv_text("time,survival", clicks)),
        draw(_csv_text("time,n_risk", rows)),
        draw(st.one_of(st.none(), st.integers(-1, 40), st.sampled_from((True, 2.5)))),
    )


def _loaded(load, *args):
    """The arm's cleaned values as text, or the class and message of what it raised."""
    try:
        arm = load(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return repr(arm.coordinates), repr(arm.risk_table), repr(arm.total_events)


@settings(deadline=None, max_examples=400)
@given(digitized_csv_texts())
@example(("A", "time,survival\n0.0,1.0\n1.0,0.5", "time,n_risk\n0,10\n1.0,1_0\n", None))
@example(("A", "time,survival\n2.0,0.4\n1.0,0.9\n1.0,-0.0\n-0.0,0.0\n", "time,n_risk\n0.0,10.0\n", 3))
@example(("", "time,survival\n-1.0,1.0\n", "time,n_risk\n0.0,0\n", -1))
@example(("A", "time,survival\n-1.0,1.0\n-2.0,0.5\n", "time,n_risk\n0.0,0\n0.0,-1\n", True))
@example(("A", "time,survival\n0.0,1.0\n", "time,n_risk\n0.0,10\n-1,5\n", None))
@example(("A", "time,survival\n0.0,1.0\n", "time,n_risk\r\n", None))
def test_reader_checks_once_and_agrees_with_the_two_pass_reader(texts):
    label, coords_text, risk_text, total = texts
    with tempfile.TemporaryDirectory() as tmp:
        coords, risk = os.path.join(tmp, "c.csv"), os.path.join(tmp, "r.csv")
        for path, text in ((coords, coords_text), (risk, risk_text)):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        expected = _loaded(oracle.load_digitized_arm, label, coords, risk, total)
        assert _loaded(load_digitized_arm, label, coords, risk, total) == expected


@pytest.mark.parametrize(
    "coordinates, risk_table, total",
    [
        ([(0.0, 1.0), (1.0, math.nan), (2.0, 0.5)], [(0.0, 10)], None),
        ([(0.0, 1.0), (1.0, 0.5)], [(0.0, True)], None),
        ([(0.0, 1.0), (1.0, 0.5)], [(0.0, np.bool_(True))], None),
        ([(0.0, 1.0)], [(0.0, 10), (1.0, math.inf)], None),
        ([(0.0, 1.0)], [(0.0, 10), (1.0, 2.5)], None),
        ([(0.0, 1.0)], [(0.0, 10), (1.0, math.nan)], None),
        ([(0.0, 1.0)], [(0.0, 10), (math.inf, 5)], None),
        ([(math.inf, 1.0)], [(0.0, 10)], None),
        ([(np.float64(1.0), np.float64(0.5)), (0, 1)], [(0, np.int64(10)), (np.float64(0.5), 10.0)], np.int64(4)),
        ([(0.0, 1.0)], [(0.0, 10)], 2.5),
        ([], [(0.0, 10)], None),
        ([(0.0, 1.0)], [], None),
    ],
)
def test_digitized_arm_checks_agree_with_the_two_pass_checks(coordinates, risk_table, total):
    expected = _loaded(oracle.DigitizedArm, "A", coordinates, risk_table, total)
    assert _loaded(DigitizedArm, "A", coordinates, risk_table, total) == expected


# ---------------------------------------------------------------------------
# the readers against their copies from before the input rules moved into
# core: each input is one reader's file(s), drawn mostly well formed with a
# few bad values, and `newly` says whether the draw breaks a rule that only
# the shared rules enforce (a JSON type, a count bound, a medians label)

_json_bad = st.sampled_from((None, True, False, "x", "0.5", "3", [5], {"a": 1}, 2.5, 2.0, -1, 0, 10**20, 2**64))


def _json_mismatch(value, kinds) -> bool:
    return type(value) not in kinds


@st.composite
def dataset_files(draw):
    rows = draw(st.lists(
        st.tuples(st.sampled_from(("A", "B", "A", "B", "C", "")), _time_text | _odd_field,
                  st.sampled_from(("0", "1", "0", "1", "2", " 1", "x"))).map(",".join) | _odd_line,
        max_size=8,
    ))
    header = draw(st.sampled_from(("arm,time,status",) * 6 + ("\ufeffarm,time,status", "arm,time", "")))
    return "load_dataset", {"study.csv": "\n".join([header] + rows)}, (), False


@st.composite
def digitized_files(draw):
    label, coords, risk, total = draw(digitized_csv_texts())
    return "load_digitized_arm", {"c.csv": coords, "r.csv": risk}, (label, total), False


@st.composite
def event_total_files(draw):
    totals = draw(st.dictionaries(st.sampled_from("ABa"), st.none() | st.integers(-2, 60) | _json_bad, max_size=3))
    payload = draw(st.sampled_from((totals,) * 8 + ([1, 2], "x")))
    newly = isinstance(payload, dict) and any(type(v) is int and v > core.MAX_COUNT for v in totals.values())
    return "load_event_totals", {"totals.json": json.dumps(payload)}, (["A", "B"],), newly


_METADATA = {
    "study_id": ("s1", (str,)),
    "reported_logrank_p": (0.5, (int, float)),
    "reported_hazard_ratio": (0.7, (int, float, type(None))),
    "reported_medians": ({"A": 3.0, "B": None}, (dict,)),
    "curve_class": ("crossing", (str,)),
}


@st.composite
def metadata_payloads(draw):
    payload, newly = {}, False
    for key, (good, kinds) in _METADATA.items():
        choice = draw(st.sampled_from(("good",) * 5 + ("bad", "missing")))
        if choice == "missing":
            continue
        payload[key] = good if choice == "good" else draw(_json_bad)
        newly |= _json_mismatch(payload[key], kinds)
    if isinstance(payload.get("reported_medians"), dict) and draw(st.booleans()):
        payload["reported_medians"] = {"A": draw(_json_bad | st.just(4.0)), "B": None}
        newly |= _json_mismatch(payload["reported_medians"]["A"], (int, float, type(None)))
    return payload, newly


@st.composite
def metadata_files(draw):
    payload, newly = draw(metadata_payloads())
    payload = draw(st.sampled_from((payload,) * 8 + ([1], "x")))
    return "load_metadata", {"meta.json": json.dumps(payload)}, (), newly and isinstance(payload, dict)


_STUDY_CSV = "arm,time,status\n" + "".join(
    f"{arm.label},{t!r},{d}\n" for arm in synth_study(3, n=30).arms for t, d in zip(arm.times().tolist(), arm.statuses().tolist())
)


@st.composite
def config_files(draw):
    meta = {**{key: good for key, (good, _) in _METADATA.items()}, "study_id": "s1"}
    labels = draw(st.sampled_from((("A", "B"),) * 3 + (("a", "B"),)))
    meta["reported_medians"] = dict(zip(labels, (3.0, None)))
    entry = {"dataset": "study.csv", "metadata": "meta.json"}
    raw = {
        "studies": draw(st.sampled_from(([entry],) * 6 + ({"a": 1}, [1], [{"dataset": 5, "metadata": "meta.json"}]))),
        "engines": draw(st.sampled_from((["case"],) * 6 + ("case", ["nope"], [5]))),
    }
    for key in ("iterations", "seed", "workers"):
        if draw(st.booleans()):
            raw[key] = draw(st.sampled_from((3, 3, 1)) | _json_bad)
    for key in ("studies", "engines"):
        if draw(st.sampled_from((False,) * 9 + (True,))):
            del raw[key]
    raw = draw(st.sampled_from((raw,) * 8 + ([1],)))
    files = {"study.csv": _STUDY_CSV, "meta.json": json.dumps(meta), "bench.json": json.dumps(raw)}
    return "load_config", files, (), labels != ("A", "B")


def _read_outcome(load, *args):
    """('ok', the result) or ('error', the exception)."""
    try:
        return "ok", load(*args)
    except Exception as exc:  # the old readers let some TypeErrors through
        return "error", exc


def _named(exc) -> tuple[str, str | None]:
    """The file(s) and the line an error message names."""
    found = re.match(r"(.+?)(?: line (\d+)(?: column \d+)?)?: ", str(exc))
    return (found.group(1), found.group(2)) if found else (None, None)


@settings(deadline=None, max_examples=400)
@given(st.one_of(dataset_files(), digitized_files(), event_total_files(), metadata_files(), config_files()))
def test_readers_reject_what_they_rejected_before(case):
    name, files, args, newly = case
    with tempfile.TemporaryDirectory() as tmp:
        for file_name, text in files.items():
            with open(os.path.join(tmp, file_name), "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        paths = [os.path.join(tmp, file_name) for file_name in files]
        if name == "load_digitized_arm":
            paths = [args[0], *paths, args[1]]
        elif name == "load_config":
            paths = paths[-1:]
        else:
            paths = paths + list(args)
        new = _read_outcome(getattr(survbench_readers[name], name), *paths)
        old = _read_outcome(getattr(oracle, name), *paths)
    if old[0] == "ok":
        if newly:  # rejected only under the shared rules, naming the file
            assert new[0] == "error" and isinstance(new[1], (ParseError, StructureError)), new
            assert _named(new[1])[0].startswith(tmp)
            return
        assert new[0] == "ok", new[1]
        expected, got = old[1], new[1]
        if name == "load_config":
            expected, got = (
                [(c.engines, c.iterations, c.base_seed, c.workers, [(r.dataset, r.metadata) for r in c.studies])]
                for c in (expected, got)
            )
        elif name == "load_digitized_arm":
            expected, got = (repr((a.coordinates, a.risk_table, a.total_events)) for a in (expected, got))
        assert got == expected
    elif isinstance(old[1], ValueError):  # a ParseError or StructureError (or a ValueError) naming the file
        assert new[0] == "error" and type(new[1]) is type(old[1]), new
        old_file, old_line = _named(old[1])
        assert _named(new[1]) == (old_file, old_line) or (old_line is None and _named(new[1])[0] == old_file)
    else:  # a raw TypeError or OverflowError: now a StructureError naming the file
        assert new[0] == "error" and isinstance(new[1], StructureError), new
        assert _named(new[1])[0].startswith(tmp)
