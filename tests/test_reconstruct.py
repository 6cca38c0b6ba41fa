"""Curve-to-data reconstruction: round trips, calibration, infeasible inputs."""

import re

import numpy as np
import pytest

from survbench.core import MAX_COUNT, ParseError, StructureError, km_estimate, median_survival
from survbench.evaluate import logrank_test, tie_ratio
from survbench.reconstruct import (
    DigitizedArm,
    InfeasibleCurveError,
    load_digitized_arm,
    reconstruct_arm,
    reconstruct_study,
)

from helpers import corpus_study, digitize_exact, digitize_study, synth_study


class TestDigitizedArmValidation:
    def test_monotonization_sorts_dedupes_and_clamps(self):
        arm = DigitizedArm(
            "A",
            [(2.0, 0.70), (0.0, 1.2), (1.0, 0.9), (1.0, 0.85), (3.0, 0.72)],
            [(0.0, 10)],
        )
        assert arm.coordinates == [(0.0, 1.0), (1.0, 0.85), (2.0, 0.70), (3.0, 0.70)]

    def test_survival_clamped_to_unit_interval(self):
        arm = DigitizedArm("A", [(0.0, 1.0), (1.0, -0.05)], [(0.0, 10)])
        assert arm.coordinates[-1] == (1.0, 0.0)

    def test_empty_coordinates_rejected(self):
        with pytest.raises(ValueError, match="coordinates"):
            DigitizedArm("A", [], [(0.0, 10)])

    def test_empty_risk_table_rejected(self):
        with pytest.raises(ValueError, match="risk table"):
            DigitizedArm("A", [(0.0, 1.0)], [])

    def test_non_increasing_risk_times_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DigitizedArm("A", [(0.0, 1.0)], [(2.0, 10), (2.0, 8)])

    def test_risk_table_must_start_at_or_before_first_click(self):
        with pytest.raises(ValueError, match="first risk time"):
            DigitizedArm("A", [(0.0, 1.0), (1.0, 0.9)], [(0.5, 10)])

    def test_zero_at_risk_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            DigitizedArm("A", [(0.0, 1.0)], [(0.0, 0)])

    def test_negative_total_events_rejected(self):
        with pytest.raises(ValueError, match="total_events"):
            DigitizedArm("A", [(0.0, 1.0)], [(0.0, 10)], total_events=-1)

    @pytest.mark.parametrize("total", [2.5, 2.0, True, "3"])
    def test_non_integer_total_events_rejected(self, total):
        with pytest.raises(ValueError, match="total_events must be an integer >= 0"):
            DigitizedArm("A", [(0.0, 1.0)], [(0.0, 10)], total_events=total)

    def test_nan_survival_rejected(self):
        with pytest.raises(ValueError, match="bad coordinate survival nan at time 1.0"):
            DigitizedArm("A", [(0.0, 1.0), (1.0, float("nan")), (2.0, 0.5)], [(0.0, 10)])

    @pytest.mark.parametrize(
        "count", [float("inf"), float("nan"), pytest.param(10**400, id="10**400"), MAX_COUNT + 1, np.uint64(2**63)]
    )
    def test_non_finite_risk_count_rejected(self, count):
        with pytest.raises(ValueError, match="n_at_risk must be a positive integer"):
            DigitizedArm("A", [(0.0, 1.0)], [(0.0, 10), (1.0, count)])

    @pytest.mark.parametrize("count", [True, np.bool_(True)])
    def test_bool_risk_count_rejected(self, count):
        with pytest.raises(ValueError, match="n_at_risk must be a positive integer"):
            DigitizedArm("A", [(0.0, 1.0), (1.0, 0.5)], [(0.0, count)])


    def test_count_at_the_limit_accepted(self):
        assert DigitizedArm("A", [(0.0, 1.0)], [(0.0, MAX_COUNT)]).risk_table == [(0.0, MAX_COUNT)]


class TestExactRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_per_event_inputs_reproduce_the_curve(self, seed):
        source = synth_study(seed, n=120).arms[0]
        rebuilt, report = reconstruct_arm(digitize_exact(source))
        assert len(rebuilt) == len(source)
        src_curve = km_estimate(source)
        out_curve = km_estimate(rebuilt)
        assert out_curve.time.tolist() == src_curve.time.tolist()
        assert [s.at_risk for s in out_curve.steps] == [s.at_risk for s in src_curve.steps]
        assert [s.events for s in out_curve.steps] == [s.events for s in src_curve.steps]
        assert np.max(np.abs(out_curve.survival - src_curve.survival)) <= 1e-12
        assert report.converged
        assert report.max_survival_deviation <= 1e-12
        assert report.achieved_total_events == int(source.statuses().sum())

    def test_published_risk_rows_are_matched_exactly(self):
        source = synth_study(3, n=150).arms[1]
        _, report = reconstruct_arm(digitize_exact(source))
        for _, published, achieved in report.risk_rows:
            assert achieved == published

    def test_study_round_trip_preserves_logrank_p(self):
        ds = synth_study(7, n=140)
        digitized = digitize_study(ds, pooled_risk=True)
        rebuilt, report = reconstruct_study(digitized, study_id="round-trip")
        p_src = logrank_test(ds).p_value
        p_out = logrank_test(rebuilt).p_value
        assert abs(p_out - p_src) <= 1e-6
        assert report.study_id == "round-trip"
        assert set(report.arms) == {"A", "B"}

    def test_event_times_never_tie_with_repositioned_censors(self):
        source = synth_study(9, n=100).arms[0]
        rebuilt, _ = reconstruct_arm(digitize_exact(source))
        out_events = rebuilt.times()[rebuilt.statuses() == 1]
        src_events = source.times()[source.statuses() == 1]
        assert sorted(out_events.tolist()) == sorted(src_events.tolist())


class TestGridReconstruction:
    @staticmethod
    def deviation_from_truth(source, grid):
        src_curve = km_estimate(source)
        last = source.times().max()
        risk_times = [float(t) for t in np.arange(0.0, last, 6.0)]
        rebuilt, _ = reconstruct_arm(digitize_exact(source, risk_times, prob_grid=grid))
        out = km_estimate(rebuilt)
        return max(
            abs(out.survival_at(t) - step.survival)
            for t, step in zip(src_curve.time, src_curve.steps)
        )

    # Coarsening is not monotone in general, so this holds only for a
    # fixed corpus of sources, checked here seed by seed.
    @pytest.mark.parametrize("seed,arm_idx", [(3, 0), (5, 0), (8, 1)])
    def test_fine_grid_beats_coarse_grid_on_the_fixed_corpus(self, seed, arm_idx):
        source = synth_study(seed, n=150).arms[arm_idx]
        fine = self.deviation_from_truth(source, 0.001)
        coarse = self.deviation_from_truth(source, 0.05)
        assert fine <= coarse

    def test_coarse_inputs_still_land_near_the_curve(self):
        source = synth_study(2, n=200).arms[1]
        last = source.times().max()
        risk_times = [float(t) for t in np.arange(0.0, last, 6.0)]
        rebuilt, report = reconstruct_arm(
            digitize_exact(source, risk_times, prob_grid=0.01)
        )
        assert len(rebuilt) == len(source)
        assert report.max_survival_deviation <= 0.05

    def test_grid_median_stays_within_the_reported_error_band(self):
        source = synth_study(17, n=200).arms[0]
        last = source.times().max()
        risk_times = [float(t) for t in np.arange(0.0, last, 6.0)]
        rebuilt, _ = reconstruct_arm(digitize_exact(source, risk_times, prob_grid=0.01))
        src_median = median_survival(km_estimate(source))
        out_median = median_survival(km_estimate(rebuilt))
        assert abs(out_median - src_median) <= 0.7


class TestEventTotalCalibration:
    # Ground truth: events at 1,2,3; four censored at 4.5; final event at 5.
    COORDS = [(0.0, 1.0), (1.0, 7 / 8), (2.0, 6 / 8), (3.0, 5 / 8), (5.0, 0.0)]
    RISK = [(0.0, 8), (4.0, 5)]

    def test_total_recovers_censoring_beyond_the_risk_table(self):
        rebuilt, report = reconstruct_arm(
            DigitizedArm("A", self.COORDS, self.RISK, total_events=4)
        )
        assert report.converged
        assert report.achieved_total_events == 4
        statuses = rebuilt.statuses()
        times = rebuilt.times()
        assert int(statuses.sum()) == 4
        censored = np.sort(times[statuses == 0])
        assert censored.size == 4
        assert np.all((censored > 4.0) & (censored < 5.0))

    def test_unconstrained_tail_reads_all_drops_as_events(self):
        rebuilt, report = reconstruct_arm(
            DigitizedArm("A", self.COORDS, self.RISK, total_events=None)
        )
        assert report.achieved_total_events == 8
        assert report.total_events_target is None
        assert report.to_json()["total_events"] == "unconstrained"

    def test_unreachable_total_flags_non_convergence(self):
        _, report = reconstruct_arm(
            DigitizedArm("A", self.COORDS, self.RISK, total_events=20)
        )
        assert not report.converged
        assert report.achieved_total_events < 20

    def test_survivors_are_censored_at_the_last_click(self):
        coords = [(0.0, 1.0), (1.0, 0.9), (2.0, 0.8)]
        rebuilt, _ = reconstruct_arm(DigitizedArm("A", coords, [(0.0, 10)], total_events=2))
        times = rebuilt.times()
        statuses = rebuilt.statuses()
        assert int(statuses.sum()) == 2
        assert np.all(times[statuses == 0] == 2.0)


class TestInfeasibleInputs:
    def test_rising_published_risk_names_the_interval(self):
        with pytest.raises(InfeasibleCurveError, match=r"interval \[0.0, 2.0\)"):
            reconstruct_arm(DigitizedArm("A", [(0.0, 1.0), (1.0, 0.9)], [(0.0, 10), (2.0, 12)]))

    def test_depleted_curve_falls_back_to_best_effort(self):
        # The curve hits zero before the table's last row, so no censor
        # count can honor both; the mismatch is reported, not raised.
        rebuilt, report = reconstruct_arm(
            DigitizedArm("A", [(0.0, 1.0), (1.0, 0.0)], [(0.0, 10), (2.0, 5)])
        )
        assert not report.converged
        assert report.risk_rows == [(0.0, 10, 10), (2.0, 5, 0)]
        assert int(rebuilt.statuses().sum()) == 10


class TestMisses:
    COORDS = TestEventTotalCalibration.COORDS
    RISK = TestEventTotalCalibration.RISK

    def test_a_converged_arm_records_none(self):
        _, report = reconstruct_arm(DigitizedArm("A", self.COORDS, self.RISK, total_events=4))
        assert report.converged and report.misses == []
        assert report.to_json()["misses"] == []

    def test_an_unreachable_total_names_the_tail_and_its_residual(self):
        _, report = reconstruct_arm(DigitizedArm("A", self.COORDS, self.RISK, total_events=20))
        assert report.misses == [(4.0, 5.0, "event total", -12)]

    def test_a_total_already_passed_inside_the_table_is_found_after_the_loop(self):
        # three events before the last risk row, so the tail aims at none and reaches it
        _, report = reconstruct_arm(DigitizedArm("A", self.COORDS, self.RISK, total_events=2))
        assert report.achieved_total_events == 3
        assert report.misses == [(4.0, 5.0, "event total", 1)]

    def test_a_missed_risk_row_names_its_interval(self):
        _, report = reconstruct_arm(
            DigitizedArm("A", [(0.0, 1.0), (1.0, 0.0)], [(0.0, 10), (2.0, 5)])
        )
        assert report.to_json()["misses"] == [
            {"interval": [0.0, 2.0], "constraint": "risk row", "residual": -5}
        ]

    def test_every_arm_not_converged_names_a_miss_on_the_corpus(self):
        not_converged = 0
        for seed in range(20):
            dataset = corpus_study(seed)
            top = max(float(np.max(arm.times())) for arm in dataset.arms)
            coarse = [digitize_exact(arm, list(np.arange(0.0, top + 6.0, 6.0)), 0.01) for arm in dataset.arms]
            for arms in (
                digitize_study(dataset, pooled_risk=True),
                coarse,
                [DigitizedArm(a.label, a.coordinates, a.risk_table) for a in coarse],
            ):
                _, report = reconstruct_study(tuple(arms), str(seed))
                for arm_report in report.arms.values():
                    assert arm_report.converged == (not arm_report.misses)
                    not_converged += not arm_report.converged
        assert not_converged > 0


class TestStudyLevel:
    def test_duplicate_labels_rejected(self):
        arm = DigitizedArm("A", [(0.0, 1.0), (1.0, 0.5)], [(0.0, 4)])
        with pytest.raises(ValueError, match="labels"):
            reconstruct_study((arm, arm))

    def test_interior_censor_times_avoid_event_times(self):
        ds = synth_study(12, n=90)
        rebuilt, _ = reconstruct_study(digitize_study(ds, pooled_risk=True))
        for arm in rebuilt.arms:
            times = arm.times()
            statuses = arm.statuses()
            event_times = set(times[statuses == 1].tolist())
            # survivors share the final censoring time; interior censors
            # are placed strictly inside event-free stretches
            interior = times[(statuses == 0) & (times < times.max())]
            assert not event_times.intersection(interior.tolist())


class TestCsvLoading:
    def write(self, path, text):
        path.write_text(text)
        return str(path)

    def test_happy_path(self, tmp_path):
        coords = self.write(tmp_path / "c.csv", "time,survival\n0.0,1.0\n1.0,0.5\n")
        risk = self.write(tmp_path / "r.csv", "time,n_risk\n0,10\n2,4\n")
        arm = load_digitized_arm("A", coords, risk, total_events=5)
        assert arm.coordinates == [(0.0, 1.0), (1.0, 0.5)]
        assert arm.risk_table == [(0.0, 10), (2.0, 4)]
        assert arm.total_events == 5

    def test_coordinate_header_checked(self, tmp_path):
        coords = self.write(tmp_path / "c.csv", "t,s\n0.0,1.0\n")
        risk = self.write(tmp_path / "r.csv", "time,n_risk\n0,10\n")
        with pytest.raises(ParseError, match="line 1"):
            load_digitized_arm("A", coords, risk)

    def test_bad_number_reports_its_line(self, tmp_path):
        coords = self.write(tmp_path / "c.csv", "time,survival\n0.0,1.0\n1.0,half\n")
        risk = self.write(tmp_path / "r.csv", "time,n_risk\n0,10\n")
        with pytest.raises(ParseError, match="line 3"):
            load_digitized_arm("A", coords, risk)

    @pytest.mark.parametrize(
        "coords_row, risk_row, bad_file",
        [
            ("1.0,nan", "2,4", "c.csv"),
            ("1.0,inf", "2,4", "c.csv"),
            ("nan,0.5", "2,4", "c.csv"),
            ("-inf,0.5", "2,4", "c.csv"),
            ("1.0,0.5", "nan,4", "r.csv"),
            pytest.param("1.0,0.5", "1,1" + "0" * 400, "r.csv", id="too-large-for-a-float"),
            ("1.0,0.5", f"1,{MAX_COUNT + 1}", "r.csv"),
        ],
    )
    def test_non_finite_value_names_the_file_and_line(self, tmp_path, coords_row, risk_row, bad_file):
        coords = self.write(tmp_path / "c.csv", f"time,survival\n0.0,1.0\n{coords_row}\n")
        risk = self.write(tmp_path / "r.csv", f"time,n_risk\n0,10\n{risk_row}\n")
        with pytest.raises(ParseError, match=f"{bad_file} line 3: bad row"):
            load_digitized_arm("A", coords, risk)

    def test_undecodable_byte_names_the_file_and_line(self, tmp_path):
        coords = self.write(tmp_path / "c.csv", "time,survival\n0.0,1.0\n")
        risk = tmp_path / "r.csv"
        risk.write_bytes(b"time,n_risk\n0,10\n\xff2,4\n")
        with pytest.raises(ParseError, match="r.csv line 3: not UTF-8 text"):
            load_digitized_arm("A", coords, str(risk))

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        coords = tmp_path / "c.csv"
        coords.write_bytes(b"\xef\xbb\xbftime,survival\r\n0.0,1.0\r\n1.0,0.5\r\n")
        risk = tmp_path / "r.csv"
        risk.write_bytes(b"\xef\xbb\xbftime,n_risk\r\n0,10\r\n")
        arm = load_digitized_arm("A", str(coords), str(risk))
        assert arm.coordinates == [(0.0, 1.0), (1.0, 0.5)]
        assert arm.risk_table == [(0.0, 10)]

    def test_structural_error_names_both_files(self, tmp_path):
        coords = self.write(tmp_path / "c.csv", "time,survival\n0.0,1.0\n1.0,0.5\n")
        risk = self.write(tmp_path / "r.csv", "time,n_risk\n0,10\n0,8\n")
        with pytest.raises(StructureError, match=re.escape(f"{coords}, {risk}: arm 'A': risk times must be strictly increasing")):
            load_digitized_arm("A", coords, risk)

    def test_empty_data_rejected(self, tmp_path):
        coords = self.write(tmp_path / "c.csv", "time,survival\n")
        risk = self.write(tmp_path / "r.csv", "time,n_risk\n0,10\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_digitized_arm("A", coords, risk)
