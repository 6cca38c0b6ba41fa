"""Tests for the benchmark harness, its reports, and the command line."""

import csv
import hashlib
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from survbench.core import (
    MAX_COUNT,
    ParseError,
    StudyDataset,
    StructureError,
    StudyMetadata,
    load_dataset,
    store_dataset,
    store_metadata,
)
from survbench.evaluate import evaluate_dataset
from survbench.harness import (
    ALL_METRICS,
    BenchmarkConfig,
    RuntimeRecord,
    StudyRecord,
    load_config,
    run_benchmark,
    runtime_stats,
    summarize,
)
from survbench.cli import main

from helpers import arm_of, digitize_exact, synth_study


def make_record(seed, study_id, n=60):
    """Benchmark input whose reported figures equal the recomputed ones."""
    dataset = synth_study(seed, n=n)
    reference = evaluate_dataset(dataset)
    metadata = StudyMetadata(
        study_id=study_id,
        reported_logrank_p=reference.logrank_p,
        reported_hazard_ratio=reference.hazard_ratio,
        reported_medians=dict(reference.medians),
        curve_class="non-crossing",
    )
    return StudyRecord(dataset, metadata, reference)


def all_censored_study():
    a = arm_of([(float(i), 1) for i in range(1, 11)], "A")
    b = arm_of([(float(i), 0) for i in range(1, 11)], "B")
    return StudyDataset((a, b))


def three_study_config(workers=1, output_dir=None):
    """Four engines over a reported, an unreported and a tau = 0 study.

    parametric and kde cannot model the tau = 0 study, so two pairs are skipped.
    """
    unreported = make_record(2, "unreported", n=25)
    unreported.metadata.reported_hazard_ratio = None
    unreported.metadata.reported_medians = {"A": None, "B": None}
    zero = StudyDataset((
        arm_of([(0.0, 0), (2.0, 1), (3.0, 1)], "A"),
        arm_of([(0.0, 1), (1.0, 1), (1.5, 1)], "B"),
    ))
    metadata = StudyMetadata("zero", 0.5, None, {"A": None, "B": None}, "non-crossing")
    return BenchmarkConfig(
        [make_record(3, "reported", n=30), unreported, StudyRecord(zero, metadata, evaluate_dataset(zero))],
        ["parametric", "kde", "case", "condboot"],
        iterations=40,
        base_seed=8,
        output_dir=output_dir,
        workers=workers,
    )


# ---------------------------------------------------------------------------
# summaries


class TestSummarize:
    def test_even_sample(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert (s.minimum, s.maximum) == (1.0, 4.0)
        assert s.q1 == pytest.approx(1.75)
        assert s.median == pytest.approx(2.5)
        assert s.mean == pytest.approx(2.5)
        assert s.q3 == pytest.approx(3.25)

    def test_odd_sample(self):
        s = summarize([5.0, 1.0, 2.0, 4.0, 3.0])
        assert (s.q1, s.median, s.q3) == (2.0, 3.0, 4.0)

    def test_single_value(self):
        s = summarize([7.5])
        assert (s.minimum, s.q1, s.median, s.mean, s.q3, s.maximum) == (7.5,) * 6

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="cannot summarize an empty sample"):
            summarize([])


class TestRuntimeStats:
    def test_pools_across_studies(self):
        rec = RuntimeRecord(
            {
                ("s1", "kde"): [0.1, 0.2],
                ("s2", "kde"): [0.3, 0.4],
                ("s1", "case-resampling"): [0.01],
            }
        )
        stats = runtime_stats(rec)
        assert stats["kde"].mean == pytest.approx(0.25)
        assert stats["kde"].maximum == pytest.approx(0.4)
        assert stats["case-resampling"].median == pytest.approx(0.01)

    def test_empty_series_dropped(self):
        stats = runtime_stats(RuntimeRecord({("s1", "kde"): []}))
        assert stats == {}


# ---------------------------------------------------------------------------
# configuration


class TestBenchmarkConfig:
    def test_engine_aliases_canonicalised(self):
        config = BenchmarkConfig([make_record(1, "s1")], ["case", "condboot"], iterations=2)
        assert config.engines == ["case-resampling", "conditional-bootstrap"]

    def test_duplicate_engines_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            BenchmarkConfig([make_record(1, "s1")], ["case", "case-resampling"])

    def test_duplicate_study_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate study ids"):
            BenchmarkConfig([make_record(1, "s1"), make_record(2, "s1")], ["case"])

    def test_needs_studies_and_engines(self):
        with pytest.raises(ValueError):
            BenchmarkConfig([], ["case"])
        with pytest.raises(ValueError):
            BenchmarkConfig([make_record(1, "s1")], [])

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError, match="iterations"):
            BenchmarkConfig([make_record(1, "s1")], ["case"], iterations=0)
        with pytest.raises(ValueError, match="workers"):
            BenchmarkConfig([make_record(1, "s1")], ["case"], workers=0)


# ---------------------------------------------------------------------------
# the benchmark loop


class TestRunBenchmark:
    def run_small(self, workers=1, engines=("case", "condboot"), iterations=6):
        config = BenchmarkConfig(
            [make_record(1, "s1"), make_record(2, "s2")],
            list(engines),
            iterations=iterations,
            base_seed=99,
            workers=workers,
        )
        return config, run_benchmark(config)

    def test_series_account_for_every_iteration(self):
        config, res = self.run_small()
        assert not res.skipped
        for sid in ("s1", "s2"):
            for engine in config.engines:
                for metric in ("logrank_p", "hazard_ratio", "rmstd", "median_arm1", "median_arm2"):
                    key = (sid, engine, metric)
                    assert len(res.diffs.values[key]) + res.diffs.undefined[key] == 6
                for metric in ("tie_ratio", "logrank_statistic"):
                    assert len(res.diffs.series(sid, engine, metric)) == 6

    def test_iteration_indices_recorded_in_order(self):
        config, res = self.run_small()
        indices = [i for i, _ in res.diffs.values[("s1", "case-resampling", "tie_ratio")]]
        assert indices == list(range(6))

    def test_runtimes_drop_first_iteration(self):
        config, res = self.run_small()
        for key, seconds in res.runtimes.seconds.items():
            assert len(seconds) == 5
            assert all(v > 0.0 for v in seconds)

    def test_elapsed_positive(self):
        _, res = self.run_small(iterations=2)
        assert res.elapsed_seconds > 0.0

    def test_deterministic_across_runs(self):
        _, first = self.run_small()
        _, second = self.run_small()
        assert first.diffs.values == second.diffs.values
        assert first.diffs.undefined == second.diffs.undefined

    def test_worker_count_does_not_change_the_numbers(self):
        _, serial = self.run_small(workers=1)
        _, threaded = self.run_small(workers=3)
        assert serial.diffs.values == threaded.diffs.values

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_a_pairs_series_does_not_depend_on_the_rest_of_the_config(self):
        # every pair draws from iteration i's one stream in config order, so
        # the engines and studies listed before a pair move its series
        s5, s6 = make_record(5, "s5", n=100), make_record(6, "s6")
        configs = (([s5], ["kde"]), ([s5], ["kde", "case"]), ([s5], ["case", "kde"]), ([s6, s5], ["kde"]))
        series = [
            run_benchmark(BenchmarkConfig(studies, engines, iterations=3, base_seed=5)).diffs.series(
                "s5", "kde", "logrank_p"
            )
            for studies, engines in configs
        ]
        assert series == [series[0]] * len(configs)

    def test_matching_reference_means_small_diffs_for_case(self):
        # case resampling of the source study scatters around the source
        # statistic, so the median diff should sit near zero
        _, res = self.run_small(engines=("case",), iterations=25)
        diffs = res.diffs.series("s1", "case-resampling", "logrank_p")
        assert abs(float(np.median(diffs))) < 0.5

    def test_unreported_reference_values_count_as_undefined(self):
        record = make_record(3, "s3")
        record.metadata.reported_hazard_ratio = None
        record.metadata.reported_medians = {"A": None, "B": None}
        config = BenchmarkConfig([record], ["case"], iterations=4, base_seed=1)
        res = run_benchmark(config)
        for metric in ("hazard_ratio", "median_arm1", "median_arm2"):
            key = ("s3", "case-resampling", metric)
            assert res.diffs.undefined[key] == 4
            assert res.diffs.values[key] == []
        assert len(res.diffs.series("s3", "case-resampling", "logrank_p")) == 4

    def test_study_censored_only_at_zero_runs_with_rmstd_undefined(self):
        # tau is 0 for this study and for many of its case resamples
        a = arm_of([(0.0, 0), (2.0, 1)], "A")
        b = arm_of([(0.0, 1), (1.0, 1)], "B")
        dataset = StudyDataset((a, b))
        metadata = StudyMetadata("zero", 0.5, None, {"A": None, "B": None}, "non-crossing")
        record = StudyRecord(dataset, metadata, evaluate_dataset(dataset))
        res = run_benchmark(BenchmarkConfig([record], ["case"], iterations=20, base_seed=3))
        assert res.diffs.undefined[("zero", "case-resampling", "rmstd")] == 20

    def test_peak_memory_stays_near_the_retained_result(self):
        # each replicate's row goes into its pair's table as it finishes, so no
        # second copy of the results is held: the peak exceeds what is retained
        # by less than the table itself, and short arms keep one replicate's
        # temporaries small
        record = make_record(5, "short", n=6)
        run_benchmark(BenchmarkConfig([record], ["case"], iterations=2))  # first-call caches
        tracemalloc.start()
        try:
            res = run_benchmark(BenchmarkConfig([record], ["case"], iterations=200, base_seed=4))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(res.diffs.series("short", "case-resampling", "tie_ratio")) == 200
        assert peak - retained < res.diffs.table[("short", "case-resampling")].nbytes

    def test_unbuildable_pair_is_skipped_not_fatal(self):
        dataset = all_censored_study()
        metadata = StudyMetadata("dead", 0.5, None, {"A": None, "B": None}, "non-crossing")
        record = StudyRecord(dataset, metadata, evaluate_dataset(dataset))
        config = BenchmarkConfig(
            [record, make_record(4, "live")],
            ["case", "condboot"],
            iterations=3,
            base_seed=2,
        )
        res = run_benchmark(config)
        assert len(res.skipped) == 1
        skip = res.skipped[0]
        assert skip["study"] == "dead"
        assert skip["engine"] == "conditional-bootstrap"
        assert "no events to resample" in skip["reason"]
        # the skipped pair leaves no series behind
        assert ("dead", "conditional-bootstrap", "logrank_p") not in res.diffs.values
        # everything else still ran
        assert len(res.diffs.series("dead", "case-resampling", "tie_ratio")) == 3
        assert len(res.diffs.series("live", "conditional-bootstrap", "tie_ratio")) == 3

    def test_views_give_python_numbers_by_iteration(self):
        # benchmarks/workloads.py reads values[key] as (iteration, value) pairs;
        # a numpy scalar would also print as np.float64(...) in long_*.csv
        serial, threaded = (run_benchmark(three_study_config(workers)) for workers in (1, 3))
        diffs = serial.diffs
        assert ("zero", "kde") not in diffs.table
        assert ("zero", "kde", "tie_ratio") not in diffs.values
        assert diffs.series("zero", "kde", "tie_ratio") == []
        assert 0 < diffs.undefined[("reported", "case-resampling", "median_arm2")] < diffs.iterations
        for (sid, engine, metric), pairs in diffs.values.items():
            assert all(type(i) is int and type(v) is float for i, v in pairs)
            column = diffs.table[(sid, engine)][:, ALL_METRICS.index(metric)].tolist()
            assert dict(pairs) == {i: v for i, v in enumerate(column) if not math.isnan(v)}
            assert diffs.series(sid, engine, metric) == [v for _, v in pairs]
            assert diffs.undefined[(sid, engine, metric)] == diffs.iterations - len(pairs)
        assert all(type(count) is int for count in diffs.undefined.values())
        assert threaded.diffs.values == diffs.values
        assert threaded.diffs.undefined == diffs.undefined


# ---------------------------------------------------------------------------
# report files


# SHA-256 of the long_*/summary_* files, report.json without elapsed_seconds
# and runtimes.csv's engine and count columns that three_study_config()
# writes, as the arm-symmetric logrank sums and math.erfc write them (only
# logrank_p and logrank_statistic moved from the digest before). A change
# meant to alter the harness series re-derives it and says which series moved.
PINNED_OUTPUT_DIGEST = "494ea590e0db7db277b3e2c4e9b31841373bde274bfcb081cd9c55069509c1df"


class TestEmitReports:
    @pytest.fixture()
    def outputs(self, tmp_path):
        config = BenchmarkConfig(
            [make_record(1, "s1"), make_record(2, "s2")],
            ["case", "kde"],
            iterations=5,
            base_seed=7,
            output_dir=str(tmp_path),
        )
        return config, run_benchmark(config), tmp_path

    def test_expected_files_exist(self, outputs):
        config, res, tmp_path = outputs
        names = sorted(p.name for p in tmp_path.iterdir())
        expected = sorted(
            [f"summary_{m}.csv" for m in (
                "logrank_p", "hazard_ratio", "median_arm1", "median_arm2",
                "rmstd", "tie_ratio", "logrank_statistic",
            )]
            + [f"long_{m}.csv" for m in (
                "logrank_p", "hazard_ratio", "median_arm1", "median_arm2",
                "rmstd", "tie_ratio", "logrank_statistic",
            )]
            + ["runtimes.csv", "report.json"]
        )
        assert names == expected
        assert sorted(res.output_files) == sorted(str(tmp_path / n) for n in expected)

    def test_summary_rows_cover_every_pair(self, outputs):
        config, res, tmp_path = outputs
        with open(tmp_path / "summary_logrank_p.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "study", "engine", "minimum", "q1", "median", "mean", "q3", "maximum", "undefined",
        ]
        assert [(r[0], r[1]) for r in rows[1:]] == [
            ("s1", "case-resampling"), ("s1", "kde"), ("s2", "case-resampling"), ("s2", "kde"),
        ]
        medians = {(r[0], r[1]): float(r[4]) for r in rows[1:]}
        expected = float(np.median(res.diffs.series("s1", "kde", "logrank_p")))
        assert medians[("s1", "kde")] == expected

    def test_long_rows_round_trip_exactly(self, outputs):
        config, res, tmp_path = outputs
        with open(tmp_path / "long_tie_ratio.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["study", "engine", "iteration", "value"]
        assert len(rows) == 1 + 4 * 5
        back = [
            (int(r[2]), float(r[3])) for r in rows[1:] if (r[0], r[1]) == ("s2", "kde")
        ]
        assert back == res.diffs.values[("s2", "kde", "tie_ratio")]

    def test_runtimes_csv_pools_by_engine(self, outputs):
        config, res, tmp_path = outputs
        with open(tmp_path / "runtimes.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["engine", "minimum", "q1", "median", "mean", "q3", "maximum", "count"]
        assert [r[0] for r in rows[1:]] == ["case-resampling", "kde"]
        # two studies, five iterations, first one dropped
        assert [int(r[-1]) for r in rows[1:]] == [8, 8]

    def test_report_json_describes_the_run(self, outputs):
        config, res, tmp_path = outputs
        with open(tmp_path / "report.json") as fh:
            report = json.load(fh)
        assert report["iterations"] == 5
        assert report["base_seed"] == 7
        assert report["engines"] == ["case-resampling", "kde"]
        assert report["studies"] == [
            {"id": "s1", "arms": ["A", "B"]},
            {"id": "s2", "arms": ["A", "B"]},
        ]
        assert report["skipped"] == []
        assert report["elapsed_seconds"] > 0.0
        assert "summary_rmstd.csv" in report["outputs"]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_outputs_match_the_pinned_digest(self, tmp_path, workers):
        run_benchmark(three_study_config(workers, str(tmp_path)))
        digest = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            data = path.read_bytes()
            if path.name == "report.json":
                data = b"".join(line for line in data.splitlines(True) if b'"elapsed_seconds"' not in line)
            elif path.name == "runtimes.csv":  # the engine and count columns; seconds vary
                data = b"".join(line.split(b",")[0] + b"," + line.split(b",")[-1] for line in data.splitlines(True))
            digest.update(data)
        assert digest.hexdigest() == PINNED_OUTPUT_DIGEST


# ---------------------------------------------------------------------------
# config files


class TestLoadConfig:
    def write_study(self, tmp_path, name, seed):
        dataset = synth_study(seed, n=40)
        store_dataset(dataset, str(tmp_path / f"{name}.csv"))
        reference = evaluate_dataset(dataset)
        meta = StudyMetadata(
            study_id=name,
            reported_logrank_p=reference.logrank_p,
            reported_hazard_ratio=reference.hazard_ratio,
            reported_medians=dict(reference.medians),
            curve_class="non-crossing",
        )
        store_metadata(meta, str(tmp_path / f"{name}.json"))

    def test_relative_paths_resolve_against_the_config_file(self, tmp_path):
        self.write_study(tmp_path, "alpha", 5)
        self.write_study(tmp_path, "beta", 6)
        config_path = tmp_path / "bench.json"
        config_path.write_text(
            json.dumps(
                {
                    "studies": [
                        {"dataset": "alpha.csv", "metadata": "alpha.json"},
                        {"dataset": "beta.csv", "metadata": "beta.json"},
                    ],
                    "engines": ["case", "kde"],
                    "iterations": 12,
                    "seed": 3,
                    "workers": 2,
                }
            )
        )
        config = load_config(str(config_path))
        assert [r.metadata.study_id for r in config.studies] == ["alpha", "beta"]
        assert config.engines == ["case-resampling", "kde"]
        assert config.iterations == 12
        assert config.base_seed == 3
        assert config.workers == 2
        # the reference statistics are recomputed from the dataset
        assert config.studies[0].reference.rmstd is not None

    def test_defaults(self, tmp_path):
        self.write_study(tmp_path, "alpha", 5)
        config_path = tmp_path / "bench.json"
        config_path.write_text(
            json.dumps(
                {
                    "studies": [{"dataset": "alpha.csv", "metadata": "alpha.json"}],
                    "engines": ["parametric"],
                }
            )
        )
        config = load_config(str(config_path))
        assert config.iterations == 10000
        assert config.base_seed == 0
        assert config.workers == 1

    def test_byte_order_mark_is_skipped(self, tmp_path):
        self.write_study(tmp_path, "alpha", 5)
        config_path = tmp_path / "bench.json"
        raw = {"studies": [{"dataset": "alpha.csv", "metadata": "alpha.json"}], "engines": ["case"]}
        config_path.write_bytes(b"\xef\xbb\xbf" + json.dumps(raw).encode())
        assert load_config(str(config_path)).engines == ["case-resampling"]

    def test_malformed_json_names_the_file_line_and_column(self, tmp_path):
        config_path = tmp_path / "bench.json"
        config_path.write_text('{\n  "engines": ["case"],\n  "studies": [\n')
        with pytest.raises(ParseError, match="bench.json line 4 column 1: Expecting value"):
            load_config(str(config_path))

    @pytest.mark.parametrize("missing", ["studies", "engines", "dataset", "metadata"])
    def test_missing_key_names_the_file_and_the_key(self, tmp_path, missing):
        self.write_study(tmp_path, "alpha", 5)
        raw = {
            "studies": [{"dataset": "alpha.csv", "metadata": "alpha.json"}],
            "engines": ["case"],
        }
        if missing in raw:
            del raw[missing]
        else:
            del raw["studies"][0][missing]
        config_path = tmp_path / "bench.json"
        config_path.write_text(json.dumps(raw))
        with pytest.raises(StructureError, match=f"bench.json: missing config key '{missing}'"):
            load_config(str(config_path))


    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"iterations": 0}, "iterations must be >= 1"),
            ({"iterations": None}, "NoneType"),
            ({"seed": "x"}, "invalid literal for int"),
            ({"workers": -1}, "workers must be >= 1"),
            ({"engines": ["nope"]}, "unknown engine 'nope'"),
        ],
    )
    def test_bad_value_names_the_file(self, tmp_path, bad, message):
        self.write_study(tmp_path, "alpha", 5)
        raw = {"studies": [{"dataset": "alpha.csv", "metadata": "alpha.json"}], "engines": ["case"]}
        config_path = tmp_path / "bench.json"
        config_path.write_text(json.dumps({**raw, **bad}))
        with pytest.raises(StructureError, match=f"bench.json: .*{message}"):
            load_config(str(config_path))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"iterations": 2.5}, "iterations must be a JSON integer, got 2.5"),
            ({"iterations": True}, "iterations must be a JSON integer, got True"),
            ({"iterations": "3"}, "iterations must be a JSON integer, got '3'"),
            ({"workers": "2"}, "workers must be a JSON integer, got '2'"),
            ({"workers": 1.0}, "workers must be a JSON integer, got 1.0"),
            ({"seed": 1.7}, "seed must be a JSON integer, got 1.7"),
            ({"seed": False}, "seed must be a JSON integer, got False"),
            ({"seed": -1}, "seed must lie in [0, 2**64), got -1"),
            ({"seed": 2**64}, f"seed must lie in [0, 2**64), got {2**64}"),
        ],
    )
    def test_config_integers_are_not_converted(self, tmp_path, bad, message):
        self.write_study(tmp_path, "alpha", 5)
        raw = {"studies": [{"dataset": "alpha.csv", "metadata": "alpha.json"}], "engines": ["case"]}
        config_path = tmp_path / "bench.json"
        config_path.write_text(json.dumps({**raw, **bad}))
        with pytest.raises(StructureError, match=re.escape(f"{config_path}: {message}")):
            load_config(str(config_path))

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([1], "expected a JSON object, got list"),
            ({"studies": {"a": 1}, "engines": ["case"]}, "studies must be a JSON array, got {'a': 1}"),
            ({"studies": [1], "engines": ["case"]}, "studies[0] must be a JSON object, got 1"),
            ({"studies": [{"dataset": 5, "metadata": "alpha.json"}], "engines": ["case"]},
             "dataset must be a JSON string, got 5"),
            ({"studies": [{"dataset": "alpha.csv", "metadata": "alpha.json"}], "engines": "case"},
             "engines must be a JSON array, got 'case'"),
            ({"studies": [{"dataset": "alpha.csv", "metadata": "alpha.json"}], "engines": ["case", 5]},
             "engines[1] must be a JSON string, got 5"),
        ],
    )
    def test_a_config_of_the_wrong_shape_names_the_file(self, tmp_path, raw, message):
        self.write_study(tmp_path, "alpha", 5)
        config_path = tmp_path / "bench.json"
        config_path.write_text(json.dumps(raw))
        with pytest.raises(StructureError, match=re.escape(f"{config_path}: {message}")):
            load_config(str(config_path))

    def test_reported_medians_must_name_arms_of_the_study(self, tmp_path):
        self.write_study(tmp_path, "alpha", 5)
        meta_path = tmp_path / "alpha.json"
        meta = json.loads(meta_path.read_text())
        meta["reported_medians"] = {"a": 3.0, "B": None}
        meta_path.write_text(json.dumps(meta))
        config_path = tmp_path / "bench.json"
        raw = {"studies": [{"dataset": "alpha.csv", "metadata": "alpha.json"}], "engines": ["case"]}
        config_path.write_text(json.dumps(raw))
        message = f"{meta_path}: no arm is labelled 'a' (the arms are 'A', 'B')"
        with pytest.raises(StructureError, match=re.escape(message)):
            load_config(str(config_path))

    def test_largest_seed_is_accepted(self, tmp_path):
        self.write_study(tmp_path, "alpha", 5)
        raw = {"studies": [{"dataset": "alpha.csv", "metadata": "alpha.json"}], "engines": ["case"]}
        config_path = tmp_path / "bench.json"
        config_path.write_text(json.dumps({**raw, "seed": 2**64 - 1}))
        assert load_config(str(config_path)).base_seed == 2**64 - 1


# ---------------------------------------------------------------------------
# command line


class TestCli:
    def test_reconstruct_round_trip(self, tmp_path, capsys):
        dataset = synth_study(12, n=30)
        per_arm = {}
        for arm in dataset.arms:
            dig = digitize_exact(arm)
            coords_path = tmp_path / f"coords_{arm.label}.csv"
            risk_path = tmp_path / f"risk_{arm.label}.csv"
            with open(coords_path, "w") as fh:
                fh.write("time,survival\n")
                for t, s in zip(dig.times, dig.survivals):
                    fh.write(f"{t!r},{s!r}\n")
            with open(risk_path, "w") as fh:
                fh.write("time,n_risk\n")
                for t, n in zip(dig.risk_times, dig.risk_counts):
                    fh.write(f"{t!r},{n}\n")
            per_arm[arm.label] = (coords_path, risk_path, dig.total_events)
        meta_path = tmp_path / "totals.json"
        meta_path.write_text(json.dumps({label: per_arm[label][2] for label in per_arm}))
        out_path = tmp_path / "recon.csv"
        report_path = tmp_path / "recon_report.json"
        code = main(
            [
                "reconstruct",
                "--coords", ",".join(f"{l}={per_arm[l][0]}" for l in per_arm),
                "--risk", ",".join(f"{l}={per_arm[l][1]}" for l in per_arm),
                "--meta", str(meta_path),
                "--study-id", "demo",
                "--out", str(out_path),
                "--report", str(report_path),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "converged" in printed and "NOT" not in printed
        rebuilt = load_dataset(str(out_path))
        assert rebuilt.labels == dataset.labels
        assert [len(a) for a in rebuilt.arms] == [30, 30]
        report = json.loads(report_path.read_text())
        assert set(report["arms"]) == {"A", "B"}

    @pytest.mark.parametrize(
        "meta, message",
        [
            ('{"A": 2.5}', "arm 'A': total_events must be an integer >= 0, got 2.5"),
            ('{"A": true}', "arm 'A': total_events must be an integer >= 0, got True"),
            ('{"A": "x"}', "arm 'A': total_events must be an integer >= 0, got 'x'"),
            ('{"A": -4}', "arm 'A': total_events must be an integer >= 0, got -4"),
            ("[1, 2]", "expected a JSON object"),
            ('{"A": 1%s}' % ("0" * 20), f"arm 'A': total_events must be an integer >= 0, got 1{'0' * 20}"),
        ],
    )
    def test_reconstruct_rejects_bad_event_totals(self, tmp_path, meta, message):
        for label in "AB":
            (tmp_path / f"c{label}.csv").write_text("time,survival\n0.0,1.0\n1.0,0.5\n")
            (tmp_path / f"r{label}.csv").write_text("time,n_risk\n0,10\n")
        meta_path = tmp_path / "totals.json"
        meta_path.write_text(meta)
        with pytest.raises(StructureError, match=re.escape(f"{meta_path}: {message}")):
            main(
                [
                    "reconstruct",
                    "--coords", f"A={tmp_path / 'cA.csv'},B={tmp_path / 'cB.csv'}",
                    "--risk", f"A={tmp_path / 'rA.csv'},B={tmp_path / 'rB.csv'}",
                    "--meta", str(meta_path),
                    "--out", str(tmp_path / "o.csv"),
                    "--report", str(tmp_path / "r.json"),
                ]
            )

    def test_reconstruct_rejects_event_totals_of_unknown_arms(self, tmp_path):
        for label in "AB":
            (tmp_path / f"c{label}.csv").write_text("time,survival\n0.0,1.0\n1.0,0.5\n")
            (tmp_path / f"r{label}.csv").write_text("time,n_risk\n0,10\n")
        meta_path = tmp_path / "totals.json"
        meta_path.write_text('{"a": 3, "B": 3, "b": 3}')
        message = f"{meta_path}: no arm is labelled 'a', 'b' (the arms are 'A', 'B')"
        with pytest.raises(StructureError, match=re.escape(message)):
            main(
                [
                    "reconstruct",
                    "--coords", f"A={tmp_path / 'cA.csv'},B={tmp_path / 'cB.csv'}",
                    "--risk", f"A={tmp_path / 'rA.csv'},B={tmp_path / 'rB.csv'}",
                    "--meta", str(meta_path),
                    "--out", str(tmp_path / "o.csv"),
                    "--report", str(tmp_path / "r.json"),
                ]
            )
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "coords,risk,message",
        [
            ("A=only_one.csv", "A=r.csv", "--coords expects exactly 2 arms, got 1"),
            ("A,B=c.csv", "A=r.csv,B=r.csv", "--coords expects label=path[,label=path], got 'A,B=c.csv'"),
            ("=c.csv,B=c.csv", "A=r.csv,B=r.csv", "--coords expects label=path[,label=path], got '=c.csv,B=c.csv'"),
            ("A=,B=c.csv", "A=r.csv,B=r.csv", "--coords expects label=path[,label=path], got 'A=,B=c.csv'"),
            ("A=c.csv,B=c.csv", "A=r.csv,C=r.csv", "--coords and --risk must name the same arm labels"),
        ],
        ids=["one-arm", "no-equals", "no-label", "no-path", "other-risk-labels"],
    )
    def test_reconstruct_rejects_malformed_arm_spec(self, tmp_path, capsys, coords, risk, message):
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "reconstruct",
                    "--coords", coords,
                    "--risk", risk,
                    "--out", str(tmp_path / "o.csv"),
                    "--report", str(tmp_path / "r.json"),
                ]
            )
        assert err.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_reconstruct_rejects_a_repeated_arm_label(self, tmp_path, capsys):
        (tmp_path / "c.csv").write_text("time,survival\n0.0,1.0\n1.0,0.5\n")
        (tmp_path / "r.csv").write_text("time,n_risk\n0,10\n")
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "reconstruct",
                    "--coords", f"A={tmp_path / 'c.csv'},A={tmp_path / 'c.csv'}",
                    "--risk", f"A={tmp_path / 'r.csv'},A={tmp_path / 'r.csv'}",
                    "--out", str(tmp_path / "o.csv"),
                    "--report", str(tmp_path / "r.json"),
                ]
            )
        assert err.value.code == 2
        assert "--coords names arm 'A' twice" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_simulate_writes_dataset_and_summary(self, tmp_path, capsys):
        source_path = tmp_path / "source.csv"
        store_dataset(synth_study(5, n=40), str(source_path))
        out_path = tmp_path / "sim.csv"
        summary_path = tmp_path / "models.json"
        code = main(
            [
                "simulate",
                "--engine", "case",
                "--input", str(source_path),
                "--seed", "3",
                "--out", str(out_path),
                "--model-summary", str(summary_path),
            ]
        )
        assert code == 0
        assert "80 simulated observations" in capsys.readouterr().out
        sim = load_dataset(str(out_path))
        assert [len(a) for a in sim.arms] == [40, 40]
        summaries = json.loads(summary_path.read_text())
        assert [s["engine"] for s in summaries] == ["case-resampling"] * 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "x"])
    def test_simulate_seed_outside_the_range_is_a_usage_error(self, tmp_path, capsys, seed):
        source_path = tmp_path / "source.csv"
        store_dataset(synth_study(5, n=40), str(source_path))
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--engine", "case", "--input", str(source_path),
                  "--seed", seed, "--out", str(tmp_path / "sim.csv")])
        assert err.value.code == 2
        assert "argument --seed" in capsys.readouterr().err
        assert not (tmp_path / "sim.csv").exists()

    @pytest.mark.parametrize("n_per_arm", ["0", "-5", "x", "2.5", str(MAX_COUNT + 1)])
    def test_simulate_size_below_one_or_not_an_integer_is_a_usage_error(self, tmp_path, capsys, n_per_arm):
        source_path = tmp_path / "source.csv"
        store_dataset(synth_study(5, n=40), str(source_path))
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--engine", "case", "--input", str(source_path),
                  "--n-per-arm", n_per_arm, "--out", str(tmp_path / "sim.csv")])
        assert err.value.code == 2
        assert "argument --n-per-arm: expected an integer >= 1 or 'source'" in capsys.readouterr().err
        assert not (tmp_path / "sim.csv").exists()

    def test_condboot_with_another_size_is_a_usage_error(self, tmp_path, capsys):
        source_path = tmp_path / "source.csv"
        store_dataset(synth_study(5, n=40), str(source_path))
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--engine", "condboot", "--input", str(source_path),
                  "--n-per-arm", "25", "--out", str(tmp_path / "sim.csv")])
        assert err.value.code == 2
        assert "--n-per-arm: condboot keeps each arm's source size [40, 40], got 25" in capsys.readouterr().err
        assert not (tmp_path / "sim.csv").exists()

    def test_condboot_with_the_source_size_given_explicitly(self, tmp_path):
        source_path = tmp_path / "source.csv"
        store_dataset(synth_study(5, n=40), str(source_path))
        out_path = tmp_path / "sim.csv"
        main(["simulate", "--engine", "condboot", "--input", str(source_path), "--n-per-arm", "40", "--out", str(out_path)])
        assert [len(a) for a in load_dataset(str(out_path)).arms] == [40, 40]

    def test_simulate_with_explicit_size(self, tmp_path):
        source_path = tmp_path / "source.csv"
        store_dataset(synth_study(5, n=40), str(source_path))
        out_path = tmp_path / "sim.csv"
        code = main(
            [
                "simulate",
                "--engine", "kde",
                "--input", str(source_path),
                "--n-per-arm", "25",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        assert [len(a) for a in load_dataset(str(out_path)).arms] == [25, 25]

    def test_simulate_is_seed_deterministic(self, tmp_path):
        source_path = tmp_path / "source.csv"
        store_dataset(synth_study(5, n=40), str(source_path))
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a_path, b_path):
            main(
                [
                    "simulate",
                    "--engine", "condboot",
                    "--input", str(source_path),
                    "--seed", "11",
                    "--out", str(out),
                ]
            )
        assert a_path.read_text() == b_path.read_text()

    def test_evaluate_prints_and_stores_statistics(self, tmp_path, capsys):
        source_path = tmp_path / "source.csv"
        store_dataset(synth_study(8, n=50), str(source_path))
        out_path = tmp_path / "eval.json"
        code = main(["evaluate", "--input", str(source_path), "--out", str(out_path)])
        assert code == 0
        stored = json.loads(out_path.read_text())
        printed = json.loads(capsys.readouterr().out)
        assert stored == printed
        assert 0.0 <= stored["logrank_p"] <= 1.0
        assert stored["rmstd"] is not None

    def write_bench_inputs(self, tmp_path, dataset, study_id="s1"):
        store_dataset(dataset, str(tmp_path / "data.csv"))
        reference = evaluate_dataset(dataset)
        meta = StudyMetadata(
            study_id=study_id,
            reported_logrank_p=reference.logrank_p if reference.logrank_p is not None else 0.5,
            reported_hazard_ratio=reference.hazard_ratio,
            reported_medians=dict(reference.medians),
            curve_class="non-crossing",
        )
        store_metadata(meta, str(tmp_path / "meta.json"))

    def test_bench_runs_and_writes_reports(self, tmp_path, capsys):
        self.write_bench_inputs(tmp_path, synth_study(9, n=40))
        config_path = tmp_path / "bench.json"
        config_path.write_text(
            json.dumps(
                {
                    "studies": [{"dataset": "data.csv", "metadata": "meta.json"}],
                    "engines": ["case", "condboot"],
                    "iterations": 50,
                    "seed": 4,
                }
            )
        )
        outdir = tmp_path / "out"
        code = main(
            ["bench", "--config", str(config_path), "--out", str(outdir), "--iterations", "4"]
        )
        assert code == 0
        assert "4 iterations x 1 studies x 2 engines" in capsys.readouterr().out
        report = json.loads((outdir / "report.json").read_text())
        assert report["iterations"] == 4
        assert (outdir / "summary_logrank_p.csv").exists()

    @pytest.mark.parametrize("iterations", ["0", "-3"])
    def test_bench_rejects_a_non_positive_iteration_override(self, tmp_path, capsys, iterations):
        self.write_bench_inputs(tmp_path, synth_study(9, n=40))
        config_path = tmp_path / "bench.json"
        config_path.write_text(
            json.dumps({"studies": [{"dataset": "data.csv", "metadata": "meta.json"}], "engines": ["case"]})
        )
        outdir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", str(config_path), "--out", str(outdir), "--iterations", iterations])
        assert exc.value.code == 2
        assert "--iterations: iterations must be >= 1" in capsys.readouterr().err
        assert not outdir.exists()

    def test_bench_exit_code_flags_skipped_pairs(self, tmp_path, capsys):
        self.write_bench_inputs(tmp_path, all_censored_study())
        config_path = tmp_path / "bench.json"
        config_path.write_text(
            json.dumps(
                {
                    "studies": [{"dataset": "data.csv", "metadata": "meta.json"}],
                    "engines": ["case", "condboot"],
                    "iterations": 3,
                }
            )
        )
        code = main(["bench", "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "skipped s1/conditional-bootstrap" in err
        assert "no events to resample" in err


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        text = fh.read()
    start = text.index("```python\n", text.index("## Library use")) + len("```python\n")
    block = text[start:text.index("```", start)]
    store_dataset(synth_study(5, n=40), str(tmp_path / "reconstructed.csv"))
    monkeypatch.chdir(tmp_path)
    exec(block, {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
