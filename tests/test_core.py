"""Core data model: observation rule, KM estimator, CSV and JSON round trips."""

import json
import math
import re

import numpy as np
import pytest

from survbench.core import (
    ArmData,
    KmCurve,
    KmStep,
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
    load_metadata,
    median_survival,
    observe_arrays,
    store_dataset,
    store_metadata,
)
from oracle import LatentPair, observe


def arm(label, pairs):
    return ArmData(label, tuple(Observation(t, s) for t, s in pairs))


FOUR_OBS = [(1.0, 1), (2.0, 0), (3.0, 1), (4.0, 0)]


class TestObservation:
    def test_event_when_event_time_is_strictly_smaller(self):
        assert observe(LatentPair(3.0, 5.0)) == Observation(3.0, 1)

    def test_censored_when_censoring_time_is_smaller(self):
        assert observe(LatentPair(5.0, 3.0)) == Observation(3.0, 0)

    def test_tie_resolves_to_censored(self):
        assert observe(LatentPair(4.0, 4.0)) == Observation(4.0, 0)

    def test_infinite_censoring_yields_event(self):
        assert observe(LatentPair(2.5, math.inf)) == Observation(2.5, 1)

    def test_observe_arrays_matches_scalar_rule(self):
        ev = np.array([3.0, 5.0, 4.0, 2.5])
        cz = np.array([5.0, 3.0, 4.0, math.inf])
        times, status = observe_arrays(ev, cz)
        expected = [observe(LatentPair(e, c)) for e, c in zip(ev, cz)]
        assert times.tolist() == [o.time for o in expected]
        assert status.tolist() == [o.status for o in expected]

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            Observation(-1.0, 1)

    def test_rejects_non_finite_time(self):
        with pytest.raises(ValueError):
            Observation(math.nan, 0)

    def test_rejects_bad_status(self):
        with pytest.raises(ValueError):
            Observation(1.0, 2)

    def test_latent_pair_rejects_nonpositive_event_time(self):
        with pytest.raises(ValueError):
            LatentPair(0.0, 1.0)

    def test_latent_pair_rejects_infinite_event_time(self):
        with pytest.raises(ValueError):
            LatentPair(math.inf, 1.0)


class TestKaplanMeier:
    def test_four_observation_fixture(self):
        curve = km_estimate(arm("A", FOUR_OBS))
        assert [(s.time, s.at_risk, s.events) for s in curve.steps] == [(1.0, 4, 1), (3.0, 2, 1)]
        assert curve.steps[0].survival == pytest.approx(0.75, abs=1e-15)
        assert curve.steps[1].survival == pytest.approx(0.375, abs=1e-15)

    def test_steps_only_at_event_times(self):
        curve = km_estimate(arm("A", FOUR_OBS))
        assert [s.time for s in curve.steps] == [1.0, 3.0]

    def test_tied_events_fall_in_one_step(self):
        curve = km_from_arrays(np.array([1.0, 1.0]), np.array([1, 1]))
        assert len(curve.steps) == 1
        st = curve.steps[0]
        assert (st.time, st.at_risk, st.events, st.survival) == (1.0, 2, 2, 0.0)

    def test_censored_at_event_time_counts_as_at_risk(self):
        curve = km_from_arrays(np.array([1.0, 1.0, 2.0]), np.array([1, 0, 1]))
        assert curve.steps[0].at_risk == 3
        assert curve.steps[0].survival == pytest.approx(2.0 / 3.0)

    def test_no_censoring_matches_empirical_survival(self):
        rng = RandomStream(11, 0).generator
        times = rng.weibull(1.5, 80) * 9.0
        curve = km_from_arrays(times, np.ones(80, dtype=int))
        for st in curve.steps:
            assert st.survival == pytest.approx(np.mean(times > st.time), abs=1e-12)

    def test_survival_at_is_a_right_continuous_step_lookup(self):
        curve = km_estimate(arm("A", FOUR_OBS))
        assert curve.survival_at(0.0) == 1.0
        assert curve.survival_at(0.999) == 1.0
        assert curve.survival_at(1.0) == 0.75
        assert curve.survival_at(2.9) == 0.75
        assert curve.survival_at(3.0) == 0.375
        assert curve.survival_at(100.0) == 0.375

    def test_survival_values_are_plain_floats(self):
        curve = km_estimate(arm("A", FOUR_OBS))
        assert all(type(s.survival) is float for s in curve.steps)

    def test_curve_validation_rejects_rising_survival(self):
        with pytest.raises(ValueError):
            KmCurve((KmStep(1.0, 4, 1, 0.5), KmStep(2.0, 3, 1, 0.9)))

    def test_curve_validation_rejects_rising_at_risk(self):
        with pytest.raises(ValueError):
            KmCurve((KmStep(1.0, 4, 1, 0.75), KmStep(2.0, 5, 1, 0.5)))

    @pytest.mark.parametrize(
        "steps",
        [
            (KmStep(2.0, 4, 1, 0.75), KmStep(2.0, 3, 1, 0.5)),  # times not increasing
            (KmStep(1.0, 4, 0, 1.0),),  # a step without events
            (KmStep(1.0, 2, 3, 0.0),),  # more events than at risk
        ],
    )
    def test_curve_validation_rejects_malformed_steps(self, steps):
        with pytest.raises(ValueError):
            KmCurve(steps)


class TestMedianSurvival:
    def test_fixture_median(self):
        assert median_survival(km_estimate(arm("A", FOUR_OBS))) == 3.0

    def test_exactly_half_counts_as_reached(self):
        curve = km_from_arrays(np.array([7.0, 9.0]), np.array([1, 1]))
        assert curve.steps[0].survival == 0.5
        assert median_survival(curve) == 7.0

    def test_median_is_none_when_curve_stays_above_half(self):
        curve = km_from_arrays(np.array([1.0, 2.0, 3.0]), np.array([1, 0, 0]))
        assert median_survival(curve) is None


class TestRandomStream:
    def test_same_seed_and_stream_replay_identically(self):
        a = RandomStream(42, 7).generator.standard_normal(10)
        b = RandomStream(42, 7).generator.standard_normal(10)
        assert a.tolist() == b.tolist()

    def test_distinct_stream_ids_are_independent(self):
        a = RandomStream(42, 0).generator.standard_normal(10)
        b = RandomStream(42, 1).generator.standard_normal(10)
        assert a.tolist() != b.tolist()

    def test_distinct_seeds_differ(self):
        a = RandomStream(1, 0).generator.standard_normal(10)
        b = RandomStream(2, 0).generator.standard_normal(10)
        assert a.tolist() != b.tolist()

    def test_generator_is_cached(self):
        stream = RandomStream(5, 0)
        assert stream.generator is stream.generator

    def test_rejects_negative_stream_id(self):
        with pytest.raises(ValueError):
            RandomStream(1, -1)


class TestDatasetCsv:
    def make_study(self):
        a = arm("treat", [(0.1 + 0.2, 1), (2.0, 0), (math.pi, 1)])
        b = arm("control", [(1.5, 0), (2.5, 1)])
        return StudyDataset((a, b))

    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "study.csv"
        original = self.make_study()
        store_dataset(original, str(path))
        loaded = load_dataset(str(path))
        assert loaded == original

    def test_arm_order_is_first_appearance(self, tmp_path):
        path = tmp_path / "study.csv"
        path.write_text("arm,time,status\nzebra,1.0,1\napple,2.0,0\nzebra,3.0,1\n")
        assert load_dataset(str(path)).labels == ("zebra", "apple")

    def test_missing_header_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,arm,status\nA,1.0,1\n")
        with pytest.raises(ParseError, match="line 1"):
            load_dataset(str(path))

    def test_bad_row_reports_its_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("arm,time,status\nA,1.0,1\nB,oops,0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(str(path))

    def test_bad_status_reports_its_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("arm,time,status\nA,1.0,1\nA,1.0,9\nB,1.0,0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(str(path))

    @pytest.mark.parametrize("time", ["nan", "inf", "-1", "1e999"])
    def test_non_finite_or_negative_time_reports_its_line_number(self, tmp_path, time):
        path = tmp_path / "bad.csv"
        path.write_text(f"arm,time,status\nA,1.0,1\nB,{time},0\nB,2.0,1\n")
        with pytest.raises(ParseError, match="line 3: time must be finite and >= 0"):
            load_dataset(str(path))

    def test_undecodable_byte_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"arm,time,status\nA,1.0,1\nB,2.\xff,0\n")
        with pytest.raises(ParseError, match=re.escape(f"{path} line 3: not UTF-8 text")):
            load_dataset(str(path))

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "study.csv"
        path.write_bytes(b"\xef\xbb\xbfarm,time,status\nA,1.0,1\nB,2.0,0\n")
        assert load_dataset(str(path)).labels == ("A", "B")

    def test_undecodable_byte_after_a_byte_order_mark_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xef\xbb\xbf\n\xff")
        with pytest.raises(ParseError, match=re.escape(f"{path} line 2: not UTF-8 text")):
            load_dataset(str(path))

    def test_single_arm_is_a_structure_error(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("arm,time,status\nA,1.0,1\nA,2.0,0\n")
        with pytest.raises(StructureError):
            load_dataset(str(path))

    def test_three_arms_is_a_structure_error(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("arm,time,status\nA,1.0,1\nB,2.0,0\nC,3.0,1\n")
        with pytest.raises(StructureError):
            load_dataset(str(path))

    def test_duplicate_labels_rejected_in_memory(self):
        a = arm("A", [(1.0, 1)])
        b = arm("A", [(2.0, 0)])
        with pytest.raises(StructureError):
            StudyDataset((a, b))


class TestMetadataJson:
    def test_round_trip(self, tmp_path):
        meta = StudyMetadata(
            study_id="trial-1",
            reported_logrank_p=0.031,
            reported_hazard_ratio=0.78,
            reported_medians={"A": 12.5, "B": None},
            curve_class="crossing",
        )
        path = tmp_path / "meta.json"
        store_metadata(meta, str(path))
        assert load_metadata(str(path)) == meta

    def test_truncated_json_names_the_file_line_and_column(self, tmp_path):
        path = tmp_path / "meta.json"
        path.write_text('{"study_id": "x", ')
        with pytest.raises(ParseError, match=re.escape(f"{path} line 1 column 19: Expecting property name")):
            load_metadata(str(path))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        meta = StudyMetadata("trial-1", 0.031, 0.78, {"A": 12.5, "B": None}, "crossing")
        path = tmp_path / "meta.json"
        store_metadata(meta, str(path))
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_metadata(str(path)) == meta

    def test_rejects_out_of_range_p(self):
        with pytest.raises(ValueError):
            StudyMetadata("s", 1.5, None, {}, "crossing")

    def test_rejects_unknown_curve_class(self):
        with pytest.raises(ValueError):
            StudyMetadata("s", 0.5, None, {}, "sideways")

    @pytest.mark.parametrize("hazard_ratio", [-2.0, 0.0, math.inf, math.nan])
    def test_rejects_a_non_positive_or_non_finite_hazard_ratio(self, hazard_ratio):
        with pytest.raises(ValueError, match="reported_hazard_ratio"):
            StudyMetadata("s", 0.5, hazard_ratio, {}, "crossing")

    @pytest.mark.parametrize("median", [-1.0, math.inf, math.nan])
    def test_rejects_a_negative_or_non_finite_median(self, median):
        with pytest.raises(ValueError, match="reported median of arm 'A'"):
            StudyMetadata("s", 0.5, None, {"A": median, "B": 3.0}, "crossing")

    def test_accepts_a_zero_median_and_absent_figures(self):
        StudyMetadata("s", 0.0, None, {"A": 0.0, "B": None}, "crossing")

    @pytest.mark.parametrize(
        "key,value",
        [
            ("reported_logrank_p", 1.5),
            ("reported_logrank_p", "x"),
            ("reported_hazard_ratio", -2.0),
            ("reported_medians", [12.5, None]),
            ("reported_medians", {"A": "nan", "B": None}),
            ("curve_class", "sideways"),
            ("reported_logrank_p", "0.5"),
            ("reported_logrank_p", True),
            ("reported_hazard_ratio", True),
            ("reported_medians", {"A": True, "B": None}),
            ("study_id", [5]),
        ],
    )
    def test_bad_value_names_the_file(self, tmp_path, key, value):
        payload = {
            "study_id": "trial-1",
            "reported_logrank_p": 0.031,
            "reported_hazard_ratio": 0.78,
            "reported_medians": {"A": 12.5, "B": None},
            "curve_class": "crossing",
            key: value,
        }
        path = tmp_path / "meta.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(StructureError, match=re.escape(str(path))):
            load_metadata(str(path))


def test_metadata_that_is_not_an_object_names_the_file(tmp_path):
    path = tmp_path / "meta.json"
    path.write_text("[1]")
    with pytest.raises(StructureError, match=re.escape(f"{path}: expected a JSON object, got list")):
        load_metadata(str(path))


def test_arm_from_arrays_round_trips_times_and_statuses():
    times = np.array([3.0, 1.0, 2.0])
    status = np.array([1, 0, 1])
    built = arm_from_arrays("X", times, status)
    assert built.times().tolist() == times.tolist()
    assert built.statuses().tolist() == status.tolist()


def test_empty_arm_is_rejected():
    with pytest.raises(ValueError):
        ArmData("A", ())


@pytest.mark.parametrize(
    "label,times,status",
    [
        ("", [1.0], [1]),
        ("X", [], []),
        ("X", [[1.0]], [[1]]),
        ("X", [1.0, 2.0], [1]),
        ("X", [math.nan], [1]),
        ("X", [math.inf], [0]),
        ("X", [-1.0], [1]),
        ("X", [1.0], [2]),
        ("X", [1.0], [0.5]),
    ],
)
def test_arm_from_arrays_rejects_bad_columns(label, times, status):
    with pytest.raises(ValueError):
        arm_from_arrays(label, np.array(times), np.array(status))
