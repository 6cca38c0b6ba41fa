"""The package against the implementations it replaced (oracle.py).

Equality is exact: the rewrite keeps the order of every multiplication,
sum and random draw, so any difference is a defect, not rounding.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import tempfile
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import oracle
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from survbench import core, distributions, evaluate, harness, reconstruct
from survbench.core import (
    ArmData,
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
from survbench.distributions import FIT_TOLERANCE, MAX_FIT_ITERATIONS, FitFailureError, fit_candidates
from survbench.engines import (
    build_model,
    case_resample,
    conditional_bootstrap,
    kde_fit,
    kde_sample,
    silverman_bandwidth,
    simulate,
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
    rmst,
    rmst_from_curve,
    rmst_tau,
    tie_ratio,
)
from survbench.harness import BenchmarkConfig, StudyRecord, run_benchmark
from survbench.reconstruct import DigitizedArm, InfeasibleCurveError, load_digitized_arm, reconstruct_arm

from helpers import (
    arm_of,
    broken_curve_rules,
    censoring_atoms,
    columns_of,
    digitized_arm_of,
    pairs_of,
    survival_at,
    synth_study,
    undefined_counts,
)

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
        assert survival_at(curve, t) == surv


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


_KM_COLUMNS = ("time", "at_risk", "events", "survival")


@settings(deadline=None, max_examples=200)
@given(studies())
@example(_study([(-0.0, 1), (0.0, 0), (1.0, 1)], [(0.0, 1), (-0.0, 0), (2.0, 0)]))  # signed zeros
@example(_study([(1.0, 0), (2.0, 0)], [(0.0, 0), (3.0, 0)]))  # all censored
@example(_study([(1.0, 0), (2.5, 0)], [(0.5, 1), (2.0, 1), (3.0, 0)]))  # an arm without events
@example(_study([(0.0, 0), (2.0, 1), (3.0, 1)], [(0.0, 1), (1.0, 1), (1.5, 1)]))  # tau = 0
def test_shared_curves_match_a_fresh_build_per_call(dataset):
    shared = evaluate_dataset(dataset)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluate, "km_estimate", lambda arm: km_from_arrays(arm.times(), arm.statuses()))
        fresh = evaluate_dataset(dataset)
    # a float's repr round-trips it exactly, the sign of a zero included
    assert json.dumps(shared.to_json()) == json.dumps(fresh.to_json())
    for arm in dataset.arms:
        released = weakref.ref(km_estimate(arm))
        assert released() is None
        _same_columns(km_estimate(arm), km_from_arrays(arm.times(), arm.statuses()), _KM_COLUMNS)


# ---------------------------------------------------------------------------
# definitions that hold with no oracle: a study is a set of subjects, and a
# power of two scales every time exactly, so the risk sets do not change


def _study_of(dataset, times_and_statuses):
    return StudyDataset(
        tuple(arm_from_arrays(arm.label, *times_and_statuses(arm)) for arm in dataset.arms)
    )


@settings(deadline=None, max_examples=200)
@given(studies(), st.integers(0, 2**32 - 1))
@example(_study([(-0.0, 1), (0.0, 0), (1.0, 1)], [(0.0, 1), (-0.0, 0), (2.0, 0)]), 7)  # signed zeros
@example(_study([(0.0, 1)] * 3 + [(1.0, 0)] * 4, [(1.0, 1)] * 2 + [(0.0, 0)] * 5), 3)  # heavy ties
def test_permuting_subjects_within_an_arm_changes_nothing(dataset, seed):
    gen = np.random.default_rng(seed)

    def permuted(arm):
        order = gen.permutation(arm.times().size)
        return arm.times()[order], arm.statuses()[order]

    shuffled = _study_of(dataset, permuted)
    assert json.dumps(evaluate_dataset(shuffled).to_json()) == json.dumps(evaluate_dataset(dataset).to_json())


def _times_two(value):
    return None if value is None else 2.0 * value


@settings(deadline=None, max_examples=200)
@given(studies())
@example(_study([(1.0, 0), (2.0, 0)], [(0.0, 0), (3.0, 0)]))  # no events
@example(_study([(0.0, 0), (2.0, 1), (3.0, 1)], [(0.0, 1), (1.0, 1), (1.5, 1)]))  # tau = 0
@example(_study([(0.5, 1), (0.5, 1), (1.5, 0)], [(0.5, 1), (2.5, 1), (2.5, 0)]))  # ties across arms
@example(_study([(1e-200, 1), (1.5e-200, 0), (0.5, 1)], [(0.0, 1), (2e-200, 1), (1.0, 0)]))  # tiny times
def test_doubling_every_time_doubles_only_the_time_statistics(dataset):
    base = evaluate_dataset(dataset)
    doubled = evaluate_dataset(_study_of(dataset, lambda arm: (2.0 * arm.times(), arm.statuses())))
    # repr tells -0.0 from 0.0, so these are bit-for-bit comparisons
    same = ("logrank_statistic", "logrank_p", "hazard_ratio", "tie_ratio")
    assert [repr(getattr(doubled, name)) for name in same] == [repr(getattr(base, name)) for name in same]
    assert repr(doubled.medians) == repr({label: _times_two(m) for label, m in base.medians.items()})
    assert repr(doubled.tau) == repr(2.0 * base.tau)
    # the area sums products of survival and time differences; one that falls
    # below the normal range keeps fewer bits, and its double then keeps one more
    if all(t == 0.0 or t >= 1e-200 for arm in dataset.arms for t in arm.times().tolist()):
        assert repr(doubled.rmstd) == repr(_times_two(base.rmstd))


def _same_relative(a, b):
    return a is None and b is None or a is not None and b is not None and math.isclose(a, b, rel_tol=1e-12)


# A constant that is not a power of two rounds most scaled times. While that
# keeps every time's rank and every nonzero time normal, the risk sets stay
# those of the study: p and HR keep 1e-12 relative, and the medians, tau and
# each arm's RMST scale by the constant within 1e-12. Draws where rounding
# merges two close times or leaves the normal range fall outside the property;
# the tie ratio, which counts merges, is not checked.
_scale = st.floats(0.01, 100.0).filter(lambda c: math.frexp(c)[0] != 0.5)


def _keeps_the_risk_sets(times, scaled):
    """No two times merge, and no time leaves the normal range, where a float keeps 53 bits."""
    nonzero = np.concatenate((times[times != 0.0], scaled[scaled != 0.0]))
    return np.unique(scaled).size == np.unique(times).size and (np.abs(nonzero) >= sys.float_info.min).all()


@settings(deadline=None, max_examples=300)
@given(studies(), _scale)
@example(_study([(0.5, 1), (0.5, 1), (1.5, 0)], [(0.5, 1), (2.5, 1), (2.5, 0)]), 3.0)  # ties across arms
@example(_study([(0.0, 0), (2.0, 1), (3.0, 1)], [(0.0, 1), (1.0, 1), (1.5, 1)]), 0.1)  # tau = 0
@example(_study([(1.0, 1), (2.0, 1)], [(3.0, 1), (4.0, 0)]), 7.3)  # separated arms: no hazard ratio
def test_scaling_every_time_keeps_p_and_hr_and_scales_the_times(dataset, c):
    times = np.concatenate([arm.times() for arm in dataset.arms])
    # a subnormal time scales with fewer bits, and one that underflows to 0 ties with 0
    assume(_keeps_the_risk_sets(times, c * times))
    base = evaluate_dataset(dataset)
    scaled_study = _study_of(dataset, lambda arm: (c * arm.times(), arm.statuses()))
    scaled = evaluate_dataset(scaled_study)
    assert _same_relative(scaled.logrank_p, base.logrank_p)
    assert _same_relative(scaled.hazard_ratio, base.hazard_ratio)
    for label, median in base.medians.items():
        assert _same_relative(scaled.medians[label], None if median is None else c * median)
    assert _same_relative(scaled.tau, c * base.tau)
    if base.tau > 0.0:
        for arm, scaled_arm in zip(dataset.arms, scaled_study.arms):
            assert _same_relative(rmst(scaled_arm, scaled.tau), c * rmst(arm, base.tau))


# O - E sums (d1 n0 - d0 n1) / n, which negates exactly under the swap, and the
# variance forms n1 n0 first, so the logrank statistic and p are bit-identical
@settings(deadline=None, max_examples=300)
@given(studies())
@example(_study([(1.0, 0), (2.0, 0)], [(0.0, 0), (3.0, 0)]))  # no events
@example(_study([(1.0, 1)], [(1.0, 1)]))  # zero logrank variance
@example(_study([(1.0, 1), (2.0, 1)], [(3.0, 1), (4.0, 0)]))  # separated arms: no hazard ratio
@example(_study([(0.0, 0), (2.0, 1), (3.0, 1)], [(0.0, 1), (1.0, 1), (1.5, 1)]))  # tau = 0
@example(_study([(0.5, 1), (0.5, 1), (1.5, 0)], [(0.5, 1), (2.5, 1), (2.5, 0)]))  # ties across arms
def test_swapping_the_arms_inverts_only_the_signed_statistics(dataset):
    base = evaluate_dataset(dataset)
    swapped = evaluate_dataset(StudyDataset(dataset.arms[::-1]))
    assert repr(swapped.logrank_statistic) == repr(base.logrank_statistic)
    assert repr(swapped.logrank_p) == repr(base.logrank_p)
    assert (swapped.hazard_ratio is None) == (base.hazard_ratio is None)
    if base.hazard_ratio is not None:
        assert math.isclose(swapped.hazard_ratio * base.hazard_ratio, 1.0, rel_tol=1e-12)
    assert (swapped.rmstd is None) == (base.rmstd is None)
    if base.rmstd is not None:
        assert swapped.rmstd == -base.rmstd
    # medians are keyed by arm label, so the swapped study reports the same pairs
    assert repr(swapped.medians) == repr(dict(reversed(base.medians.items())))


# O = E exactly in both orders (2/3 + 1/2 + 1/3 + 1/2 = 2 for A), yet arm A's
# sum of expected events rounds off 2: observed minus expected read 5.2e-32 in
# this order and 0.0 in the other, where the per-time differences do not
def test_swapping_the_arms_keeps_the_logrank_statistic():
    dataset = _study([(4.0, 1), (5.0, 0), (7.0, 1), (28.0, 0)], [(8.0, 1), (16.0, 1)])
    swapped = StudyDataset(dataset.arms[::-1])
    assert repr(logrank_test(swapped).statistic) == repr(logrank_test(dataset).statistic)


# p is math.erfc of the chi-square root; scipy's erfc is up to 32 ulp from the
# true value for p >= 1e-17 and math.erfc within 2.4, so 40 ulp covers both
@settings(deadline=None, max_examples=300)
@given(studies())
@example(_study([(1.0, 1), (2.0, 1), (3.0, 1)] * 8, [(10.0, 0), (11.0, 1), (12.0, 0)] * 8))  # p 2.1e-12
@example(_study([(0.5 * k, 1) for k in range(1, 29)], [(30.0 + k, 1) for k in range(28)]))  # p 3.7e-16, 26 ulp apart
def test_logrank_p_is_scipys_chi_square_tail(dataset):
    try:
        res = logrank_test(dataset)
    except DegenerateTestError:
        return
    reference = float(special.erfc(math.sqrt(res.statistic / 2.0)))
    if reference >= 1e-17:
        assert abs(res.p_value - reference) <= 40 * math.ulp(reference)


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


_NELDER_MEAD_FAMILIES = [family_id for family_id, spec in distributions._FAMILIES.items() if spec.fit is None]


def _nelder_mead_start(family_id, x):
    """The start fit_mle hands to Nelder-Mead, or None where it fits nothing."""
    spec = distributions._FAMILIES[family_id]
    if x.min() == x.max() or (spec.positive_support and x.min() <= 0.0):
        return None
    try:
        start = spec.start(x)
    except (FitFailureError, ArithmeticError):
        return None
    return start if math.isfinite(distributions._loglik(family_id, start, x)) else None


def _nelder_mead_outcome(fit, family_id, x, start):
    try:
        params, converged = fit(family_id, x, start)
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr(params), converged


# Gompertz on a sample whose start puts the largest point's term just under
# the float maximum: both other vertices of the first simplex overflow and
# take the 1e300 penalty, so argsort breaks a tie among the simplex values
_PENALTY_TIE = (
    [round(0.02 + 0.0055 * i, 4) for i in range(15)] + [round(0.102 + 0.014 * i, 4) for i in range(14)] + [243.148049]
)


# lowering the caps reaches the iteration cap; the third example reaches
# the evaluation cap in the middle of an iteration at every cap. At
# tolerance 0 a fit stops only once the simplex has collapsed to one point,
# which tells "<=" from "<" in the stopping tests. Counting the objective's
# calls catches an evaluation too many or too few.
@pytest.mark.parametrize(
    "max_iterations, tolerance",
    [(MAX_FIT_ITERATIONS, FIT_TOLERANCE), (3, FIT_TOLERANCE), (25, FIT_TOLERANCE), (MAX_FIT_ITERATIONS, 0.0)],
)
@settings(deadline=None, max_examples=40)
@given(st.lists(_fit_value, min_size=2, max_size=30))
@example([0.0, 0.0, 1.0, 1.5, 2.0, 2.0, 3.5])  # zeros and ties
@example([1e-170, 0.25, 3.0, 4e5, 7.0, 12.5])  # a wide spread of positive values
@example([0.5, 1.0, 8.798961376433928, 8.798961376433928])  # the mixture shrinks until the cap
@example(_PENALTY_TIE)
def test_nelder_mead_takes_scipys_steps(max_iterations, tolerance, sample):
    x = np.asarray(sample, dtype=float)
    calls = {"ours": 0, "scipy": 0}
    nelder_mead, loglik = distributions._nelder_mead, oracle.loglik

    def counted_nelder_mead(objective, y0):
        def counted(y):
            calls["ours"] += 1
            return objective(y)

        return nelder_mead(counted, y0)

    def counted_loglik(*args):
        calls["scipy"] += 1
        return loglik(*args)

    with pytest.MonkeyPatch.context() as patch:
        for module in (distributions, oracle):  # the oracle binds both constants at import
            patch.setattr(module, "MAX_FIT_ITERATIONS", max_iterations)
            patch.setattr(module, "FIT_TOLERANCE", tolerance)
        patch.setattr(distributions, "_nelder_mead", counted_nelder_mead)
        patch.setattr(oracle, "loglik", counted_loglik)  # once per evaluation of scipy's objective
        for family_id in _NELDER_MEAD_FAMILIES:
            start = _nelder_mead_start(family_id, x)
            if start is not None:
                ours = _nelder_mead_outcome(distributions._fit_nelder_mead, family_id, x, start)
                scipys = _nelder_mead_outcome(oracle.fit_nelder_mead, family_id, x, start)
                assert (ours, calls["ours"]) == (scipys, calls["scipy"]), family_id


def test_the_tie_example_puts_two_first_vertices_at_the_penalty(monkeypatch):
    values = []
    nelder_mead = distributions._nelder_mead

    def recording(objective, y0):
        return nelder_mead(lambda y: values.append(objective(y)) or values[-1], y0)

    monkeypatch.setattr(distributions, "_nelder_mead", recording)
    x = np.asarray(_PENALTY_TIE)
    distributions._fit_nelder_mead("gompertz", x, _nelder_mead_start("gompertz", x))
    assert math.isfinite(values[0]) and values[1:3] == [1e300, 1e300]


def _value_or_error(objective, y):
    try:
        return repr(objective(y))
    except (ArithmeticError, ValueError) as exc:  # math.log(0.0) where a parameter ratio underflows
        return f"{type(exc).__name__}: {exc}"


def _captured_objectives(family_id, x, start):
    """The objective `_fit_nelder_mead` minimises and the one the oracle hands to scipy."""
    captured = {}

    def ours(objective, y0):
        captured["ours"] = objective
        return list(y0), True

    def minimize(objective, y0, **options):
        captured["oracle"] = objective
        return SimpleNamespace(x=y0, success=True)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distributions, "_nelder_mead", ours)
        patch.setattr(oracle, "optimize", SimpleNamespace(minimize=minimize))
        distributions._fit_nelder_mead(family_id, x, start)
        oracle.fit_nelder_mead(family_id, x, start)
    return captured["ours"], captured["oracle"]


# vertex components: non-finite, past the 700 cap, where exp underflows to
# subnormal (-745) or to 0 (-746), and zero or negative (allowed only for a
# parameter that need not be positive)
_VERTEX_COMPONENTS = (
    math.nan, math.inf, -math.inf, 699.5, 700.0, 700.5, 710.0, 1e308,
    -744.0, -745.0, -745.2, -746.0, -1e308, 0.0, -0.0, -1.0, -37.5, 3.0,
)


# every Nelder-Mead family on each sample in its support, from the registry's
# start (its likelihood unchecked, so a defect there cannot drop a case)
_OBJECTIVE_SAMPLES = {
    "positive": [0.5, 1.0, 2.5, 4.0, 7.5],
    "signed": [-3.0, -0.5, 0.0, 1.5, 4.0, 4.0],
    "zeros": [0.0, -0.0, 1.0, 1.5, 2.0, 2.0, 3.5],  # the least point 0: the mixture masks its Weibull part
    "penalty-tie": _PENALTY_TIE,
}
_OBJECTIVE_CASES = [
    pytest.param(family_id, np.asarray(sample), spec.start(np.asarray(sample)), id=f"{name}-{family_id}")
    for name, sample in _OBJECTIVE_SAMPLES.items()
    for family_id, spec in distributions._FAMILIES.items()
    if spec.fit is None and (min(sample) > 0.0 or not spec.positive_support)
]


@pytest.mark.parametrize("family_id, x, start", _OBJECTIVE_CASES)
def test_the_nelder_mead_objective_matches_the_oracles(family_id, x, start):
    ours, scipys = _captured_objectives(family_id, x, start)
    y0 = [math.log(s) if pos else s for s, pos in zip(start, distributions._FAMILIES[family_id].positive)]
    vertices = [y0] + [[*y0[:k], v, *y0[k + 1:]] for k in range(len(y0)) for v in _VERTEX_COMPONENTS]
    vertices += [[v] * len(y0) for v in _VERTEX_COMPONENTS]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for y in vertices:
            assert _value_or_error(ours, list(y)) == _value_or_error(scipys, np.array(y)), y


def _root_outcome(brentq, f, a, b, **kwargs):
    try:
        return repr(brentq(f, a, b, **kwargs))
    except (ValueError, RuntimeError) as exc:  # the same failure on both sides is parity too
        return type(exc).__name__


def _roots_match_scipy(call):
    """Run `call` with every root search it makes recorded, then repeat each with both root finders."""
    searches = []
    brentq = distributions._brentq

    def recording(f, a, b, **kwargs):
        searches.append((f, a, b, kwargs))
        return brentq(f, a, b, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distributions, "_brentq", recording)
        call()
    for f, a, b, kwargs in searches:
        assert _root_outcome(brentq, f, a, b, **kwargs) == _root_outcome(optimize.brentq, f, a, b, **kwargs)
    return len(searches)


# samples whose median and 90th percentile lie less than a factor 3.32 apart,
# the only ones whose Gompertz start searches for a root, at any scale
@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(1.0, 4.0), min_size=2, max_size=30), st.floats(1e-250, 1e250))
# the extrapolation step divides by zero here, which C turns into inf
@example([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 1e-170)
def test_the_gompertz_start_finds_scipys_root(relative, scale):
    x = np.asarray(relative) * scale
    assume(x.min() > 0.0 and math.isfinite(x.max()))
    _roots_match_scipy(lambda: distributions._gompertz_start(x))


@settings(deadline=None, max_examples=300)
@given(
    st.floats(0.1, 10.0), st.floats(1e-2, 1e3), st.floats(-100.0, 100.0), st.floats(1e-2, 100.0),
    st.floats(1e-9, 1.0 - 1e-9),
)
def test_mixture_quantiles_find_scipys_root(wshape, wscale, nmean, nsd, p):
    params = (wshape, wscale, nmean, nsd)
    assert _roots_match_scipy(lambda: distributions._mixture_quantile_scalar(p, params)) == 1


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda t: t * t + 1.0, -1.0, 1.0),  # no sign change
        (lambda t: math.nan if t > 0.5 else t - 0.7, 0.0, 2.0),  # NaN inside the bracket
        # a jump: every step bisects, and this bracket needs exactly 100 of them
        (lambda t: 1.0 if t > 0.0 else -1.0, -(2.0**59), 0.75 * 2.0**59),
        (lambda t: 1.0 if t > 0.0 else -1.0, -(2.0**60), 0.75 * 2.0**60),  # and this one 101
        (lambda t: t - 0.25, 0.25, 1.0),  # a root at an end
    ],
    ids=["same sign", "nan", "100 iterations", "no convergence", "root at an end"],
)
def test_brentq_fails_as_scipy_fails(f, a, b):
    assert _root_outcome(distributions._brentq, f, a, b) == _root_outcome(optimize.brentq, f, a, b)


@settings(deadline=None)
@given(arm_columns(), st.integers(1, 80), st.integers(0, 2**32))
def test_case_resample_matches_the_loop(columns, n_out, seed):
    arm = arm_from_arrays("A", *columns)
    out = case_resample(build_model("case", arm), n_out, RandomStream(seed, 1).generator)
    assert pairs_of(out) == oracle.case_resample(arm, n_out, RandomStream(seed, 1).generator)


@settings(deadline=None)
@given(arm_columns(), st.integers(0, 2**32))
# an event row (2.0) past the last censoring time (1.0) that is not the largest row
@example((np.array([1.0, 2.0, 3.0]), np.array([0, 1, 1])), 0)
def test_conditional_bootstrap_matches_the_loop(columns, seed):
    if not columns[1].any():
        return  # no events to resample: build_model refuses the arm
    arm = arm_from_arrays("A", *columns)
    model = build_model("condboot", arm)
    out = conditional_bootstrap(model, len(arm), RandomStream(seed, 2).generator)
    expected = oracle.conditional_bootstrap(arm, *censoring_atoms(arm), RandomStream(seed, 2).generator)
    assert list(zip(out.times().tolist(), out.statuses().tolist())) == expected


_CONDBOOT_EDGE_ARMS = {
    "largest censored": [(1.0, 1), (2.0, 0), (3.0, 1), (3.5, 1), (5.0, 0)],
    "largest an event": [(1.0, 0), (2.0, 1), (4.0, 0), (4.5, 1), (6.0, 1)],
    "ties at the maximum": [(1.0, 1), (3.0, 0), (5.0, 1), (5.0, 0), (5.0, 1)],
    "no censored subject": [(1.0, 1), (2.0, 1), (2.0, 1), (4.0, 1)],
    "every censor before every event": [(1.0, 0), (1.5, 0), (2.0, 1), (3.0, 1), (4.0, 1)],
}


@pytest.mark.parametrize("pairs", _CONDBOOT_EDGE_ARMS.values(), ids=_CONDBOOT_EDGE_ARMS.keys())
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_consecutive_conditional_bootstraps_match_the_loop(pairs, seed):
    # draws from one model and one stream: a call that changed the
    # model's arrays would show in the calls after it
    arm = arm_of(pairs)
    model, atoms = build_model("condboot", arm), censoring_atoms(arm)
    stream, reference = RandomStream(seed, 2), RandomStream(seed, 2).generator
    for _ in range(3):
        expected = oracle.conditional_bootstrap(arm, *atoms, reference)
        assert pairs_of(simulate(model, len(arm), stream)) == expected
    for array in vars(model.condboot).values():
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


# ---------------------------------------------------------------------------
# columns the package derives skip the public checks; these properties hold
# them to those checks


def _passes_the_arm_checks(arm):
    assert not (arm.times().flags.writeable or arm.statuses().flags.writeable)
    return arm_from_arrays(arm.label, arm.times(), arm.statuses()) == arm


@settings(deadline=None)
@given(arm_columns())
@example((np.array([0.0, -0.0, 0.0, 1.0]), np.array([1, 1, 1, 0])))  # both zeros in one run
@example((np.array([2.0, 1.0]), np.array([0, 0])))  # no events
def test_derived_curve_passes_the_curve_checks(columns):
    assert broken_curve_rules(km_estimate(arm_from_arrays("A", *columns))) == []


@settings(deadline=None)
@given(arm_columns(), st.integers(1, 80), st.integers(0, 2**32))
def test_case_resampled_arm_passes_the_arm_checks(columns, n_out, seed):
    arm = arm_from_arrays("A", *columns)
    gen = RandomStream(seed, 1).generator
    assert _passes_the_arm_checks(case_resample(build_model("case", arm), n_out, gen))


@settings(deadline=None)
@given(arm_columns(), st.integers(0, 2**32))
def test_conditional_bootstrap_arm_passes_the_arm_checks(columns, seed):
    assume(columns[1].any())  # no events to resample: build_model refuses the arm
    model = build_model("condboot", arm_from_arrays("A", *columns))
    gen = RandomStream(seed, 2).generator
    assert _passes_the_arm_checks(conditional_bootstrap(model, len(model.source), gen))


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

    monkeypatch.setattr(ArmData, "__init__", refuse)
    arm = load_dataset(str(tmp_path / "study.csv")).arms[0]
    km_estimate(arm)
    case_resample(build_model("case", arm), 20, RandomStream(0, 1).generator)
    conditional_bootstrap(build_model("condboot", arm), len(arm), RandomStream(0, 2).generator)


# labels csv.writer quotes (a delimiter, a quote, a line break), and ones it
# writes as they are; times whose repr has an exponent, and -0.0
_store_label = st.sampled_from(("A", "B", "a,b", '"x"', "x\ny", "x\ry", " lead", "é")) | st.text(min_size=1)
_store_time = st.sampled_from((-0.0, 1e-05, 5e-324, 2.5e-300, 1e16, 1.7976931348623157e308))


@st.composite
def stored_studies(draw):
    labels = draw(st.lists(_store_label, min_size=2, max_size=2, unique=True))
    arms = []
    for label in labels:
        times, status = draw(arm_columns())
        odd = draw(st.lists(_store_time, max_size=times.size))
        times[: len(odd)] = odd
        arms.append(arm_from_arrays(label, times, status))
    return StudyDataset(tuple(arms))


@settings(deadline=None)
@given(stored_studies())
@example(StudyDataset((arm_from_arrays("a,b", np.array([-0.0, 1e-05]), np.array([1, 0])),
                       arm_from_arrays('"x"\ny', np.array([1e16]), np.array([0])))))
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
            arm_of([(0.0, 0), (2.0, 1), (3.0, 1)], "A"),
            arm_of([(0.0, 1), (1.0, 1), (1.5, 1)], "B"),
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
    # four pairs past two block edges, where each pair changes streams
    edges = replace(config, studies=config.studies[::2], engines=["case", "condboot"], iterations=130)
    for config in (config, edges):
        values, undefined, seconds = oracle.run_benchmark(config)
        assert any(count == config.iterations for count in undefined.values())
        for workers in (1, 3):
            result = run_benchmark(replace(config, workers=workers))
            assert result.diffs.values == values
            assert undefined_counts(result.diffs) == undefined
            counts = {key: len(v) for key, v in result.runtimes.seconds.items()}
            assert counts == {key: len(v) for key, v in seconds.items()}


# arm_columns' times (heavy ties, 0.0 and -0.0, all-censored and all-event
# arms), some replaced by times within a factor of two of the largest float
_huge_time = st.floats(0.5 * sys.float_info.max, sys.float_info.max)


@st.composite
def wide_studies(draw):
    arms = []
    for label in ("A", "B"):
        times, status = draw(arm_columns())
        huge = draw(st.lists(_huge_time, max_size=times.size))
        times[: len(huge)] = huge
        arms.append(arm_from_arrays(label, times, status))
    return StudyDataset(tuple(arms))


@settings(deadline=None, max_examples=300)
@given(wide_studies(), wide_studies(), st.booleans())
@example(  # every time the largest float, against a study with no events at all
    StudyDataset((arm_from_arrays("A", np.full(3, sys.float_info.max), np.ones(3, dtype=np.int64)),
                  arm_from_arrays("B", np.array([sys.float_info.max, 0.0]), np.array([1, 0])))),
    StudyDataset((arm_from_arrays("A", np.array([0.0, -0.0]), np.array([0, 0])),
                  arm_from_arrays("B", np.array([1.0]), np.array([0])))),
    True,
)
def test_nan_marks_exactly_the_undefined_values(dataset, source, reported):
    # the replicate table stores an undefined value as NaN, which is sound
    # only while no defined statistic is NaN
    result, reference = evaluate_dataset(dataset), evaluate_dataset(source)
    simulated = (result.logrank_statistic, result.logrank_p, result.hazard_ratio,
                 *result.medians.values(), result.tau, result.rmstd, result.tie_ratio)
    assert not any(value is not None and math.isnan(value) for value in simulated)
    metadata = StudyMetadata(
        "s",
        0.5 if reference.logrank_p is None else reference.logrank_p,
        reference.hazard_ratio if reported else None,
        dict(reference.medians) if reported else {"A": None, "B": None},
        "non-crossing",
    )
    row = harness._iteration_values(result, StudyRecord(source, metadata, reference))
    simulated_and_reference = (
        (result.logrank_p, metadata.reported_logrank_p),
        (result.hazard_ratio, metadata.reported_hazard_ratio),
        (result.medians["A"], metadata.reported_medians["A"]),
        (result.medians["B"], metadata.reported_medians["B"]),
        (result.rmstd, reference.rmstd),
        (result.tie_ratio, 0.0),
        (result.logrank_statistic, 0.0),
    )
    assert [math.isnan(value) for value in row] == [None in pair for pair in simulated_and_reference]


# digitized arms: click times shared with the risk grid (clicks on risk
# times, duplicates, -0.0) or free; survival outside [0, 1] and -0.0
_click_time = st.integers(0, 24).map(lambda k: k * 0.5) | st.floats(0.0, 13.0) | st.just(-0.0)
_click_survival = st.floats(-0.2, 1.2) | st.sampled_from((0.0, -0.0, 1.0))


def _fine_inputs(pairs, other_times, total=False, rising_at=None, digits=None):
    """A digitized arm of the benchmark corpus's fine shape, as its inputs tuple.

    The clicks are the arm's own Kaplan-Meier steps (at its event times),
    survival rounded to `digits` if given; the risk rows stand at every
    event time of the arm and at `other_times` (the other arm's events),
    so most rows hold no click and an interval without a censor places
    none. `rising_at`, a fraction of the table, raises that row one above
    the row before it; `total` publishes the arm's event count.
    """
    times, status = np.array([t for t, _ in pairs]), np.array([d for _, d in pairs])
    curve = km_estimate(arm_from_arrays("A", times, status))
    steps = zip(curve.time.tolist(), curve.survival.tolist())
    clicks = [(0.0, 1.0)] + [(t, s if digits is None else round(s, digits)) for t, s in steps]
    rows = []
    for t in sorted({0.0, *times[status == 1].tolist(), *other_times}):
        at_risk = int(np.count_nonzero(times >= t))
        if at_risk < 1:
            break
        rows.append((t, at_risk))
    if rising_at is not None and len(rows) > 2:
        j = max(int(rising_at * (len(rows) - 1)), 1)
        rows[j] = (rows[j][0], rows[j - 1][1] + 1)
    return clicks, rows, int(status.sum()) if total else None, False


_fine_time = st.integers(1, 160).map(lambda k: k * 0.25)


@st.composite
def fine_digitized_inputs(draw):
    """`_fine_inputs` with tens of risk rows, at most one in three holding a click."""
    pairs = draw(st.lists(st.tuples(_fine_time, st.sampled_from((0, 1, 1))), min_size=10, max_size=60))
    other_times = draw(st.lists(_fine_time, min_size=20, max_size=80))
    rising_at = draw(st.sampled_from((None,) * 7 + (0.75, 1.0)))
    digits = draw(st.sampled_from((None, None, 2, 1)))
    return _fine_inputs(pairs, other_times, draw(st.booleans()), rising_at, digits)


# a fixed fine arm: 40 subjects, 8 of them censored, 72 risk rows of which 32 hold a click
_FINE_PAIRS = [(0.25 * (3 * k + 1), 0 if k % 5 == 2 else 1) for k in range(40)]
_FINE_OTHER = [0.25 * (3 * k + 2) for k in range(60)]


@st.composite
def digitized_inputs(draw):
    """(coordinates, risk table, total, drop the first risk row after checking)."""
    if draw(st.sampled_from((False, False, True))):
        return draw(fine_digitized_inputs())
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
@example(_fine_inputs(_FINE_PAIRS, _FINE_OTHER))  # tens of clickless rows, intervals without censors
@example(_fine_inputs(_FINE_PAIRS, _FINE_OTHER, total=True))  # and a tail with a published total
@example(_fine_inputs(_FINE_PAIRS, _FINE_OTHER, total=True, digits=1))  # misses on a survival axis rounded to 0.1
@example(_fine_inputs(_FINE_PAIRS, _FINE_OTHER, rising_at=0.9))  # a rising row late in a long table
def test_bisected_reconstruction_matches_the_scanning_loop(inputs):
    clicks, rows, total, drop_first = inputs
    arm, reference = digitized_arm_of("A", clicks, rows, total), oracle.DigitizedArm("A", clicks, rows, total)
    assert repr((arm.times, arm.survivals)) == repr(columns_of(oracle.monotonize(clicks)))
    if drop_first:
        arm.risk_times, arm.risk_counts = arm.risk_times[1:], arm.risk_counts[1:]
        reference.risk_table = reference.risk_table[1:]
    try:
        expected_arm, expected_report = oracle.reconstruct_arm(reference)
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


@settings(deadline=None, max_examples=300)
@given(digitized_inputs())
# an event at 0.0 leaves one of two subjects at risk, and the tail's second pass has two censors due
@example(([(0.0, 0.5), (1.0, 0.0)], [(0.0, 2)], 0, False))
def test_reconstruction_keeps_the_subject_count_of_the_first_risk_row(inputs):
    clicks, rows, total, drop_first = inputs
    arm = digitized_arm_of("A", clicks, rows, total)
    if drop_first:
        arm.risk_times, arm.risk_counts = arm.risk_times[1:], arm.risk_counts[1:]
    try:
        rebuilt, report = reconstruct_arm(arm)
    except InfeasibleCurveError:
        return
    assert len(rebuilt) == arm.risk_counts[0]
    assert report.achieved_total_events <= arm.risk_counts[0]


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


def _digitized_text(arm) -> str:
    """The arm's cleaned columns as text; an oracle arm holds them as pairs."""
    if isinstance(arm, oracle.DigitizedArm):
        return repr((*columns_of(arm.coordinates), *columns_of(arm.risk_table), arm.total_events))
    return repr((arm.times, arm.survivals, arm.risk_times, arm.risk_counts, arm.total_events))


def _loaded(load, *args):
    """The arm's cleaned columns as text, or the class and message of what it raised."""
    try:
        arm = load(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return _digitized_text(arm)


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
        # a table given as two columns of unequal length, which pairs cannot express
        (([0.0, 1.0], [1.0]), [(0.0, 10)], None),
        ([(0.0, 1.0)], ([0.0], [10, 8]), None),
    ],
)
def test_digitized_arm_checks_agree_with_the_two_pass_checks(coordinates, risk_table, total):
    tables = [table if isinstance(table, tuple) else columns_of(table) for table in (coordinates, risk_table)]
    got = _loaded(DigitizedArm, "A", *tables[0], *tables[1], total)
    if any(len(a) != len(b) for a, b in tables):
        assert got == (ValueError, "arm 'A': the two columns of each table must have equal length")
    else:
        assert got == _loaded(oracle.DigitizedArm, "A", coordinates, risk_table, total)


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
            expected, got = _digitized_text(expected), _digitized_text(got)
        assert got == expected
    elif isinstance(old[1], ValueError):  # a ParseError or StructureError (or a ValueError) naming the file
        assert new[0] == "error" and type(new[1]) is type(old[1]), new
        old_file, old_line = _named(old[1])
        assert _named(new[1]) == (old_file, old_line) or (old_line is None and _named(new[1])[0] == old_file)
    else:  # a raw TypeError or OverflowError: now a StructureError naming the file
        assert new[0] == "error" and isinstance(new[1], StructureError), new
        assert _named(new[1])[0].startswith(tmp)
