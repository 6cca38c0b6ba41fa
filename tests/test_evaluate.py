"""Per-dataset statistics against independent brute-force oracles."""

import collections
import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from survbench import core, evaluate
from survbench.core import (
    ArmData,
    RandomStream,
    StudyDataset,
    arm_from_arrays,
    km_estimate,
    store_json,
)
from survbench.evaluate import (
    DegenerateTestError,
    cox_hazard_ratio,
    cox_partial_loglik,
    cox_score,
    evaluate_dataset,
    logrank_test,
    rmst,
    rmst_tau,
    rmstd,
    tie_ratio,
)

from helpers import arm_of, survival_at, synth_study


def study(pairs1, pairs2, labels=("A", "B")):
    return StudyDataset((arm_of(pairs1, labels[0]), arm_of(pairs2, labels[1])))


FIXTURE = study([(1.0, 1), (3.0, 1)], [(2.0, 1), (4.0, 1)])


def brute_force_logrank(dataset):
    """Plain-loop logrank over pooled event times, used as an oracle."""
    t1, s1 = dataset.arms[0].times(), dataset.arms[0].statuses()
    t2, s2 = dataset.arms[1].times(), dataset.arms[1].statuses()
    event_times = sorted(set(t1[s1 == 1]) | set(t2[s2 == 1]))
    observed = expected = variance = 0.0
    for t in event_times:
        n1 = int(np.sum(t1 >= t))
        n2 = int(np.sum(t2 >= t))
        d1 = int(np.sum((t1 == t) & (s1 == 1)))
        d2 = int(np.sum((t2 == t) & (s2 == 1)))
        n, d = n1 + n2, d1 + d2
        observed += d1
        expected += d * n1 / n
        if n > 1:
            variance += d * (n1 / n) * (n2 / n) * (n - d) / (n - 1)
    return observed, expected, variance


def brute_force_cox_loglik(dataset, beta, ties="efron"):
    """Textbook partial log-likelihood with explicit tie sums."""
    times = np.concatenate([dataset.arms[0].times(), dataset.arms[1].times()])
    status = np.concatenate([dataset.arms[0].statuses(), dataset.arms[1].statuses()])
    z = np.concatenate(
        [np.ones(len(dataset.arms[0])), np.zeros(len(dataset.arms[1]))]
    )
    loglik = 0.0
    for t in sorted(set(times[status == 1])):
        dead = (times == t) & (status == 1)
        at_risk = times >= t
        d = int(dead.sum())
        s0_risk = float(np.exp(beta * z[at_risk]).sum())
        s0_dead = float(np.exp(beta * z[dead]).sum())
        loglik += beta * float(z[dead].sum())
        for ell in range(d):
            frac = ell / d if ties == "efron" else 0.0
            loglik -= math.log(s0_risk - frac * s0_dead)
    return loglik


def brute_force_cox_beta(dataset, ties="efron"):
    res = minimize_scalar(
        lambda b: -brute_force_cox_loglik(dataset, b, ties),
        bounds=(-8.0, 8.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.x)


def random_tied_study(seed, n=40, grid=2.0):
    rng = RandomStream(seed, 0).generator
    pairs = []
    for _ in range(2):
        ev = np.ceil(rng.exponential(9.0, n) * grid) / grid
        cz = np.ceil(rng.uniform(2.0, 25.0, n) * grid) / grid
        st = (ev < cz).astype(int)
        pairs.append((np.where(st == 1, ev, cz), st))
    return StudyDataset(
        (
            arm_from_arrays("A", pairs[0][0], pairs[0][1]),
            arm_from_arrays("B", pairs[1][0], pairs[1][1]),
        )
    )


class TestLogrank:
    def test_fixture_statistic_and_p(self):
        res = logrank_test(FIXTURE)
        assert res.statistic == pytest.approx(8.0 / 13.0, abs=1e-12)
        assert res.statistic == pytest.approx(0.6154, abs=1e-4)
        assert res.p_value == pytest.approx(0.433, abs=1e-3)

    def test_fixture_components(self):
        res = logrank_test(FIXTURE)
        assert res.observed_arm1 == pytest.approx(2.0)
        assert res.expected_arm1 == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert res.variance == pytest.approx(13.0 / 18.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_matches_brute_force_on_tied_data(self, seed):
        ds = random_tied_study(seed)
        assert tie_ratio(ds) > 0.0
        res = logrank_test(ds)
        observed, expected, variance = brute_force_logrank(ds)
        stat = (observed - expected) ** 2 / variance
        assert res.statistic == pytest.approx(stat, rel=1e-10)
        assert res.observed_arm1 == pytest.approx(observed)
        assert res.expected_arm1 == pytest.approx(expected, rel=1e-12)
        assert res.variance == pytest.approx(variance, rel=1e-12)

    def test_identical_arms_give_p_one(self):
        pairs = [(1.0, 1), (2.0, 1), (3.0, 0), (4.0, 1)]
        ds = study(pairs, pairs)
        res = logrank_test(ds)
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0)

    def test_single_shared_event_time_uses_tie_correction(self):
        # Two events at t=1, one per arm, 2 at risk in each arm.
        ds = study([(1.0, 1), (2.0, 0)], [(1.0, 1), (3.0, 0)])
        res = logrank_test(ds)
        _, expected, variance = brute_force_logrank(ds)
        assert res.expected_arm1 == pytest.approx(expected)
        # d=2, n=4: V = 2 * (1/2) * (1/2) * (4-2)/(4-1) = 1/3
        assert res.variance == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_no_variance_is_degenerate(self):
        ds = study([(2.0, 1)], [(1.0, 0)])
        with pytest.raises(DegenerateTestError):
            logrank_test(ds)

    def test_six_subject_study_against_its_two_by_two_tables(self):
        # A: events at 1 and 3, censored at 4; B: events at 2 and 3, censored at 5
        ds = study([(1.0, 1), (3.0, 1), (4.0, 0)], [(2.0, 1), (3.0, 1), (5.0, 0)])
        # (at risk in A, at risk in B, events in A, events in B) at each event time
        tables = [
            (3, 3, 1, 0),  # t = 1
            (2, 3, 0, 1),  # t = 2
            (2, 2, 1, 1),  # t = 3, one event in each arm
        ]
        # O - E of arm A, and the hypergeometric variance d n1 n0 (n - d) / (n^2 (n - 1))
        o_minus_e = sum(d1 - (d1 + d0) * n1 / (n1 + n0) for n1, n0, d1, d0 in tables)
        variance = sum(
            (d1 + d0) * n1 * n0 * (n1 + n0 - d1 - d0) / ((n1 + n0) ** 2 * (n1 + n0 - 1)) for n1, n0, d1, d0 in tables
        )
        # 2 - (1/2 + 2/5 + 1) = 1/10 and 1/4 + 6/25 + 1/3 = 247/300
        assert o_minus_e == pytest.approx(1.0 / 10.0, rel=1e-14)
        assert variance == pytest.approx(247.0 / 300.0, rel=1e-14)
        res = logrank_test(ds)
        assert res.statistic == pytest.approx(o_minus_e**2 / variance, rel=1e-12)
        assert res.statistic == pytest.approx(3.0 / 247.0, rel=1e-12)
        # chi-square upper tail with one degree of freedom
        assert res.p_value == pytest.approx(math.erfc(math.sqrt(o_minus_e**2 / variance / 2.0)), rel=1e-12)

    def test_p_value_is_chi_square_upper_tail(self):
        res = logrank_test(FIXTURE)
        from scipy.special import erfc

        assert res.p_value == pytest.approx(float(erfc(math.sqrt(res.statistic / 2.0))), rel=1e-12)


class TestCox:
    def test_fixture_closed_form_root(self):
        res = cox_hazard_ratio(FIXTURE)
        assert res.converged
        assert res.hazard_ratio == pytest.approx((1.0 + math.sqrt(17.0)) / 2.0, abs=1e-6)

    def test_first_arm_is_the_numerator(self):
        # Arm A fails systematically earlier, so its hazard is higher.
        ds = synth_study(3, n=120, scale1=6.0, scale2=18.0)
        res = cox_hazard_ratio(ds)
        assert res.hazard_ratio > 1.0
        flipped = StudyDataset((ds.arms[1], ds.arms[0]))
        res_flipped = cox_hazard_ratio(flipped)
        assert res_flipped.hazard_ratio == pytest.approx(1.0 / res.hazard_ratio, rel=1e-8)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("ties", ["efron", "breslow"])
    def test_matches_independent_maximizer_on_tied_data(self, seed, ties):
        ds = random_tied_study(seed, n=30)
        res = cox_hazard_ratio(ds, ties=ties)
        assert res.converged
        assert res.log_hazard_ratio == pytest.approx(brute_force_cox_beta(ds, ties), abs=1e-6)

    @pytest.mark.parametrize("ties, loglik", [("efron", -math.log(360.0)), ("breslow", -math.log(480.0))])
    def test_six_subject_study_cox_terms_at_zero_by_hand(self, ties, loglik):
        # the study of the logrank two-by-two tables: at beta = 0 every subject at
        # risk weighs 1, so each event time contributes -log(at risk), with Efron
        # removing half the two tied events at t = 3 from the second row:
        #   Efron   -log 6 - log 5 - log 4 - log 3 = -log 360
        #   Breslow -log 6 - log 5 - 2 log 4       = -log 480
        # Both tie rules give the score 2 - (3/6 + 2/5 + 2 * 2/4) = 1/10 and the
        # information 1/4 + 6/25 + 2 * 1/4 = 99/100. The logrank variance of the
        # same study is 247/300: its tie factor (n - d) / (n - 1) takes t = 3's
        # share from 1/2 to 1/3.
        ds = study([(1.0, 1), (3.0, 1), (4.0, 0)], [(2.0, 1), (3.0, 1), (5.0, 0)])
        assert cox_partial_loglik(ds, 0.0, ties) == pytest.approx(loglik, rel=1e-14)
        assert cox_score(ds, 0.0, ties) == pytest.approx(1.0 / 10.0, rel=1e-14)
        tab = evaluate._build_event_table(ds)
        ll, score, hessian = evaluate._cox_loglik_parts(0.0, evaluate._cox_terms(tab, ties), float(tab.d1.sum()))
        assert (ll, score) == (cox_partial_loglik(ds, 0.0, ties), cox_score(ds, 0.0, ties))
        assert -hessian == pytest.approx(99.0 / 100.0, rel=1e-14)
        assert logrank_test(ds).variance == pytest.approx(247.0 / 300.0, rel=1e-14)

    @pytest.mark.parametrize("beta", [-1.0, 0.0, 0.7])
    def test_partial_loglik_matches_brute_force(self, beta):
        ds = random_tied_study(21, n=25)
        assert cox_partial_loglik(ds, beta) == pytest.approx(
            brute_force_cox_loglik(ds, beta), rel=1e-12
        )

    @pytest.mark.parametrize("beta", [-1.0, 0.0, 0.7])
    def test_score_matches_finite_difference(self, beta):
        ds = random_tied_study(22, n=25)
        h = 1e-6
        fd = (cox_partial_loglik(ds, beta + h) - cox_partial_loglik(ds, beta - h)) / (2.0 * h)
        assert abs(cox_score(ds, beta) - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_score_vanishes_at_the_estimate(self):
        ds = random_tied_study(23, n=35)
        res = cox_hazard_ratio(ds)
        assert abs(cox_score(ds, res.log_hazard_ratio)) < 1e-8

    def test_efron_equals_breslow_without_ties(self):
        ds = synth_study(8, n=60)
        assert tie_ratio(ds) == 0.0
        efron = cox_hazard_ratio(ds, ties="efron")
        breslow = cox_hazard_ratio(ds, ties="breslow")
        assert efron.log_hazard_ratio == pytest.approx(breslow.log_hazard_ratio, abs=1e-10)

    def test_efron_differs_from_breslow_with_heavy_ties(self):
        ds = random_tied_study(31, n=30, grid=0.5)
        assert tie_ratio(ds) > 0.3
        efron = cox_hazard_ratio(ds, ties="efron")
        breslow = cox_hazard_ratio(ds, ties="breslow")
        assert efron.log_hazard_ratio != pytest.approx(breslow.log_hazard_ratio, abs=1e-10)

    def test_unknown_tie_method_rejected(self):
        with pytest.raises(ValueError):
            cox_hazard_ratio(FIXTURE, ties="exact")

    def test_perfectly_separated_arms_do_not_converge(self):
        ds = study([(1.0, 1), (2.0, 1)], [(3.0, 1), (4.0, 1)])
        res = cox_hazard_ratio(ds)
        assert not res.converged
        assert res.hazard_ratio is None


class TestMonotoneTransformInvariance:
    def test_rank_statistics_survive_a_cubic_time_map(self):
        ds = random_tied_study(41, n=45)
        mapped = StudyDataset(
            tuple(
                arm_from_arrays(a.label, a.times() ** 3, a.statuses())
                for a in ds.arms
            )
        )
        base_lr = logrank_test(ds)
        mapped_lr = logrank_test(mapped)
        assert mapped_lr.statistic == pytest.approx(base_lr.statistic, rel=1e-12)
        assert mapped_lr.p_value == pytest.approx(base_lr.p_value, rel=1e-12)
        base_cox = cox_hazard_ratio(ds)
        mapped_cox = cox_hazard_ratio(mapped)
        assert mapped_cox.hazard_ratio == pytest.approx(base_cox.hazard_ratio, rel=1e-8)
        assert tie_ratio(mapped) == tie_ratio(ds)


class TestRmst:
    FOUR = arm_of([(1.0, 1), (2.0, 0), (3.0, 1), (4.0, 0)])

    def test_fixture_area(self):
        assert rmst(self.FOUR, 4.0) == pytest.approx(2.875, abs=1e-9)

    def test_horizon_inside_a_flat_segment(self):
        assert rmst(self.FOUR, 2.5) == pytest.approx(1.0 + 0.75 * 1.5, abs=1e-12)

    def test_horizon_beyond_last_step_extends_constant(self):
        assert rmst(self.FOUR, 6.0) == pytest.approx(2.875 + 0.375 * 2.0, abs=1e-12)

    def test_matches_numeric_quadrature(self):
        a = synth_study(13).arms[0]
        curve = km_estimate(a)
        tau = 22.0
        xs = np.linspace(0.0, tau, 200001)
        mid = (xs[:-1] + xs[1:]) / 2.0
        riemann = float(np.sum([survival_at(curve, t) for t in mid]) * (tau / 200000))
        assert rmst(a, tau) == pytest.approx(riemann, abs=1e-4)

    def test_non_decreasing_in_tau(self):
        a = self.FOUR
        values = [rmst(a, t) for t in (1.0, 2.0, 3.0, 4.0, 8.0)]
        assert values == sorted(values)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            rmst(self.FOUR, 0.0)


class TestRmstTau:
    def test_one_arm_max_censored_uses_max_censoring_time(self):
        ds = study([(5.0, 1), (10.0, 0)], [(6.0, 0), (12.0, 1)])
        assert rmst_tau(ds) == 10.0

    def test_both_arm_maxima_events_use_max_censoring_time(self):
        ds = study([(7.0, 0), (9.0, 1)], [(3.0, 0), (11.0, 1)])
        assert rmst_tau(ds) == 7.0

    def test_both_arm_maxima_censored_use_the_lower_maximum(self):
        ds = study([(5.0, 1), (10.0, 0)], [(6.0, 1), (8.0, 0)])
        assert rmst_tau(ds) == 8.0

    def test_no_censoring_falls_back_to_overall_max_time(self):
        ds = study([(5.0, 1), (10.0, 1)], [(6.0, 1), (12.0, 1)])
        assert rmst_tau(ds) == 12.0

    def test_tie_at_arm_maximum_counts_as_censored(self):
        ds = study([(5.0, 1), (10.0, 0), (10.0, 1)], [(6.0, 1), (8.0, 0)])
        assert rmst_tau(ds) == 8.0


class TestRmstd:
    def test_identical_arms_give_zero(self):
        pairs = [(1.0, 1), (2.0, 0), (3.0, 1)]
        assert rmstd(study(pairs, pairs)) == pytest.approx(0.0, abs=1e-12)

    def test_sign_follows_label_order(self):
        ds = synth_study(5, scale1=5.0, scale2=20.0)
        assert rmstd(ds) < 0.0
        assert rmstd(StudyDataset((ds.arms[1], ds.arms[0]))) > 0.0

    def test_uses_the_tau_rule(self):
        ds = study([(5.0, 1), (10.0, 0)], [(6.0, 0), (12.0, 1)])
        tau = rmst_tau(ds)
        assert rmstd(ds) == pytest.approx(rmst(ds.arms[0], tau) - rmst(ds.arms[1], tau))


class TestTieRatio:
    def test_no_ties(self):
        assert tie_ratio(study([(1.0, 1), (2.0, 0)], [(3.0, 1), (4.0, 1)])) == 0.0

    def test_all_tied(self):
        assert tie_ratio(study([(1.0, 1), (1.0, 0)], [(1.0, 1), (1.0, 1)])) == 1.0

    def test_ties_pool_across_arms(self):
        # 2.0 appears once in each arm: both observations count as tied.
        ds = study([(1.0, 1), (2.0, 0)], [(2.0, 1), (4.0, 1)])
        assert tie_ratio(ds) == pytest.approx(0.5)

    def test_status_does_not_separate_ties(self):
        ds = study([(2.0, 1), (3.0, 0)], [(2.0, 0), (5.0, 1)])
        assert tie_ratio(ds) == pytest.approx(0.5)


class TestEvaluateDataset:
    def test_full_result_fields(self):
        ds = synth_study(2)
        res = evaluate_dataset(ds)
        assert 0.0 <= res.logrank_p <= 1.0
        assert res.logrank_statistic >= 0.0
        assert res.hazard_ratio > 0.0
        assert res.tau > 0.0
        assert set(res.medians) == {"A", "B"}
        assert 0.0 <= res.tie_ratio <= 1.0

    def test_identical_arms(self):
        pairs = [(1.0, 1), (2.0, 1), (3.0, 0), (4.0, 1), (5.0, 1)]
        res = evaluate_dataset(study(pairs, pairs))
        assert res.logrank_p == pytest.approx(1.0)
        assert res.hazard_ratio == pytest.approx(1.0, abs=1e-8)
        assert res.rmstd == pytest.approx(0.0, abs=1e-12)

    def test_median_absent_when_curve_stays_high(self):
        ds = study(
            [(1.0, 1), (2.0, 0), (3.0, 0), (4.0, 0)],
            [(1.0, 1), (1.5, 1), (2.0, 1), (5.0, 0)],
        )
        res = evaluate_dataset(ds)
        assert res.medians["A"] is None
        assert res.medians["B"] is not None

    def test_degenerate_logrank_leaves_fields_absent(self):
        ds = study([(2.0, 1), (3.0, 0)], [(1.0, 0), (1.5, 0)])
        res = evaluate_dataset(ds)
        assert res.logrank_p is None
        assert res.logrank_statistic is None
        assert res.rmstd is not None

    def test_study_without_events_leaves_every_test_absent(self):
        res = evaluate_dataset(study([(1.0, 0), (3.0, 0)], [(2.0, 0), (2.5, 0)]))
        assert res.logrank_p is None
        assert res.hazard_ratio is None
        assert res.medians == {"A": None, "B": None}
        assert res.tau == 2.5
        assert res.rmstd == 0.0

    def test_study_censored_only_at_zero_leaves_rmstd_absent(self, tmp_path):
        # the only censored time is 0 and arm A's maximum is an event, so tau = 0
        res = evaluate_dataset(study([(0.0, 0), (2.0, 1)], [(0.0, 1), (1.0, 1)]))
        assert res.tau == 0.0
        assert res.rmstd is None
        assert res.logrank_p is not None
        path = tmp_path / "eval.json"
        store_json(res.to_json(), str(path))
        assert json.loads(path.read_text()) == dataclasses.asdict(res)

    def test_deterministic(self):
        ds = synth_study(4)
        assert evaluate_dataset(ds) == evaluate_dataset(ds)

    def test_json_round_trip_with_absent_fields(self, tmp_path):
        ds = study([(1.0, 1), (2.0, 1)], [(3.0, 1), (4.0, 1)])
        res = evaluate_dataset(ds)
        assert res.hazard_ratio is None  # separated arms do not converge
        path = tmp_path / "eval.json"
        store_json(res.to_json(), str(path))
        assert json.loads(path.read_text()) == dataclasses.asdict(res)

    def test_json_round_trip_full(self, tmp_path):
        res = evaluate_dataset(synth_study(6))
        path = tmp_path / "eval.json"
        store_json(res.to_json(), str(path))
        assert json.loads(path.read_text()) == dataclasses.asdict(res)


class TestSharedCurves:
    def test_each_arm_curve_is_built_once_per_study(self, monkeypatch):
        # the medians' curves are held until rmstd has asked for them again:
        # four km_estimate calls per study, two of them builds
        counts = collections.Counter()

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(core, "km_from_arrays", counted("builds", core.km_from_arrays))
        monkeypatch.setattr(evaluate, "km_estimate", counted("calls", evaluate.km_estimate))
        for seed in range(3):
            counts.clear()
            assert evaluate_dataset(synth_study(seed, n=30)).rmstd is not None
            assert counts == {"builds": 2, "calls": 4}

    def test_five_subject_arm_with_a_tie_by_hand(self):
        # A: two events tied at 2 among 5 at risk, then one at 5 among 2
        #   S = 1 - 2/5 = 0.6 on [2, 5), 0.6 * (1 - 1/2) = 0.3 from 5
        # B: one event at 1 among 2, S = 0.5 from 1
        # both arm maxima are censored, so tau = min(7, 4) = 4
        ds = study([(2.0, 1), (7.0, 0), (3.0, 0), (2.0, 1), (5.0, 1)], [(1.0, 1), (4.0, 0)])
        curve = km_estimate(ds.arms[0])
        assert [(s.time, s.at_risk, s.events, s.survival) for s in curve.steps] == [
            (2.0, 5, 2, 0.6),
            (5.0, 2, 1, 0.3),
        ]
        res = evaluate_dataset(ds)
        assert res.medians == {"A": 5.0, "B": 1.0}
        assert res.tau == 4.0
        # RMST(A, 4) = 1 * 2 + 0.6 * 2 = 3.2 and RMST(B, 4) = 1 * 1 + 0.5 * 3 = 2.5
        assert rmst(ds.arms[0], 4.0) == pytest.approx(3.2, abs=1e-15)
        assert rmst(ds.arms[1], 4.0) == 2.5
        assert res.rmstd == pytest.approx(0.7, abs=1e-15)
