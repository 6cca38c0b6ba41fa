"""Core data model: observation rule, KM estimator, CSV and JSON round trips."""

import json
import math
import pickle
import re
import weakref

import numpy as np
import pytest

from survbench.core import (
    ArmData,
    KmCurve,
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
from helpers import arm_of, broken_curve_rules, survival_at
from oracle import LatentPair, observe


FOUR_OBS = [(1.0, 1), (2.0, 0), (3.0, 1), (4.0, 0)]


def curve_of(steps):
    """A curve from (time, at_risk, events, survival) rows, which need not obey the curve rules."""
    return KmCurve(*map(np.array, zip(*steps)))


class TestObservation:
    def test_event_when_event_time_is_strictly_smaller(self):
        assert observe(LatentPair(3.0, 5.0)) == (3.0, 1)

    def test_censored_when_censoring_time_is_smaller(self):
        assert observe(LatentPair(5.0, 3.0)) == (3.0, 0)

    def test_tie_resolves_to_censored(self):
        assert observe(LatentPair(4.0, 4.0)) == (4.0, 0)

    def test_infinite_censoring_yields_event(self):
        assert observe(LatentPair(2.5, math.inf)) == (2.5, 1)

    def test_observe_arrays_matches_scalar_rule(self):
        ev = np.array([3.0, 5.0, 4.0, 2.5])
        cz = np.array([5.0, 3.0, 4.0, math.inf])
        times, status = observe_arrays(ev, cz)
        expected = [observe(LatentPair(e, c)) for e, c in zip(ev, cz)]
        assert list(zip(times.tolist(), status.tolist())) == expected

    def test_latent_pair_rejects_nonpositive_event_time(self):
        with pytest.raises(ValueError):
            LatentPair(0.0, 1.0)

    def test_latent_pair_rejects_infinite_event_time(self):
        with pytest.raises(ValueError):
            LatentPair(math.inf, 1.0)


class TestKaplanMeier:
    def test_four_observation_fixture(self):
        curve = km_estimate(arm_of(FOUR_OBS))
        assert [(s.time, s.at_risk, s.events) for s in curve.steps] == [(1.0, 4, 1), (3.0, 2, 1)]
        assert curve.steps[0].survival == pytest.approx(0.75, abs=1e-15)
        assert curve.steps[1].survival == pytest.approx(0.375, abs=1e-15)

    def test_steps_only_at_event_times(self):
        curve = km_estimate(arm_of(FOUR_OBS))
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
        curve = km_estimate(arm_of(FOUR_OBS))
        assert survival_at(curve, 0.0) == 1.0
        assert survival_at(curve, 0.999) == 1.0
        assert survival_at(curve, 1.0) == 0.75
        assert survival_at(curve, 2.9) == 0.75
        assert survival_at(curve, 3.0) == 0.375
        assert survival_at(curve, 100.0) == 0.375

    def test_survival_values_are_plain_floats(self):
        curve = km_estimate(arm_of(FOUR_OBS))
        assert all(type(s.survival) is float for s in curve.steps)

    # the rules test_derived_curve_passes_the_curve_checks holds every
    # derived curve to; each malformed curve below breaks exactly one

    def test_curve_validation_rejects_rising_survival(self):
        curve = curve_of(((1.0, 4, 1, 0.5), (2.0, 3, 1, 0.9)))
        assert broken_curve_rules(curve) == ["survival does not increase"]

    def test_curve_validation_rejects_rising_at_risk(self):
        curve = curve_of(((1.0, 4, 1, 0.75), (2.0, 5, 1, 0.5)))
        assert broken_curve_rules(curve) == ["at_risk does not increase"]

    @pytest.mark.parametrize(
        "steps",
        [  # (the steps, the one rule they break)
            (((2.0, 4, 1, 0.75), (2.0, 3, 1, 0.5)), "times strictly increase"),
            (((1.0, 4, 0, 1.0),), "1 <= events <= at_risk"),  # a step without events
            (((1.0, 2, 3, 0.0),), "1 <= events <= at_risk"),  # more events than at risk
        ],
    )
    def test_curve_validation_rejects_malformed_steps(self, steps):
        rows, rule = steps
        assert broken_curve_rules(curve_of(rows)) == [rule]


class TestKaplanMeierReuse:
    def test_a_held_curve_is_returned_again(self):
        arm = arm_of(FOUR_OBS)
        curve = km_estimate(arm)
        assert km_estimate(arm) is curve

    def test_a_released_curve_is_built_afresh(self):
        arm = arm_of(FOUR_OBS)
        first = km_estimate(arm)
        columns = [c.tobytes() for c in (first.time, first.at_risk, first.events, first.survival)]
        released = weakref.ref(first)
        del first
        assert released() is None
        again = km_estimate(arm)
        assert [c.tobytes() for c in (again.time, again.at_risk, again.events, again.survival)] == columns

    def test_the_arm_does_not_keep_its_curve_alive(self):
        arm = arm_of(FOUR_OBS)
        km_estimate(arm)
        assert arm._km() is None

    def test_an_arm_holding_a_curve_pickles_and_compares_by_value(self):
        arm = arm_of(FOUR_OBS)
        curve = km_estimate(arm)
        copy = pickle.loads(pickle.dumps(arm))
        assert copy == arm and arm == arm_of(FOUR_OBS)
        assert km_estimate(copy) is not curve

    def test_a_shared_curve_stays_read_only(self):
        arm = arm_of(FOUR_OBS)
        curve = km_estimate(arm)
        for column in (curve.time, curve.at_risk, curve.events, curve.survival):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        assert km_estimate(arm).survival.tolist() == [0.75, 0.375]


class TestMedianSurvival:
    def test_fixture_median(self):
        assert median_survival(km_estimate(arm_of(FOUR_OBS))) == 3.0

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
        a = arm_of([(0.1 + 0.2, 1), (2.0, 0), (math.pi, 1)], "treat")
        b = arm_of([(1.5, 0), (2.5, 1)], "control")
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
        a = arm_of([(1.0, 1)])
        b = arm_of([(2.0, 0)])
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


BAD_COLUMNS = [
    ("", [1.0], [1]),
    ("X", [], []),  # an empty arm
    ("X", [[1.0]], [[1]]),
    ("X", [1.0, 2.0], [1]),
    ("X", [math.nan], [1]),
    ("X", [math.inf], [0]),
    ("X", [-1.0], [1]),  # a negative time
    ("X", [1.0], [2]),  # status 2
    ("X", [1.0], [0.5]),
    ("X", [math.nan], [0]),  # a NaN time on a censored row
]


@pytest.mark.parametrize("label,times,status", BAD_COLUMNS)
def test_arm_from_arrays_rejects_bad_columns(label, times, status):
    with pytest.raises(ValueError):
        arm_from_arrays(label, np.array(times), np.array(status))


@pytest.mark.parametrize("label,times,status", BAD_COLUMNS)
def test_arm_data_rejects_bad_columns(label, times, status):
    with pytest.raises(ValueError):
        ArmData(label, np.array(times), np.array(status))
