"""Tests for the four synthetic-data engines and their shared plumbing."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survbench.core import ArmData, RandomStream, StudyDataset, km_estimate
from survbench.distributions import FittedDistribution, fit_mle
from survbench.engines import (
    ENGINE_KINDS,
    KDE_ENVELOPE_SAFETY,
    KDE_GRID_POINTS,
    ArmModel,
    BandwidthError,
    KdeDensity,
    ModelBuildError,
    SamplerStallError,
    SizeMismatchError,
    build_model,
    canonical_engine,
    case_resample,
    conditional_bootstrap,
    condboot_plan,
    kde_fit,
    kde_sample,
    model_summary,
    silverman_bandwidth,
    simulate,
)
from survbench.evaluate import tie_ratio

from helpers import arm_of, pairs_of, survival_at, synth_arm, synth_study


@st.composite
def kde_samples(draw):
    """Samples for kde_fit: ties, two points, far outliers and spreads
    down to where squared deviations underflow, up to 700 values."""
    n = draw(st.integers(2, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.lognormal(0.0, draw(st.sampled_from([0.1, 1.0, 3.0])), n)
    if draw(st.booleans()):  # ties on a coarse grid
        x = np.round(x, draw(st.integers(0, 2)))
    if draw(st.booleans()):  # far outliers
        x[: draw(st.integers(1, 3))] = draw(st.floats(1e3, 1e6))
    # squared deviations below about 1e-162 underflow
    return x * draw(st.sampled_from([1.0, 1e-100, 1e-155, 1e-160, 1e-163, 1e-166]))


# ---------------------------------------------------------------------------
# naming and subset plumbing


class TestCanonicalEngine:
    def test_canonical_names_pass_through(self):
        for kind in ENGINE_KINDS:
            assert canonical_engine(kind) == kind

    def test_aliases(self):
        assert canonical_engine("case") == "case-resampling"
        assert canonical_engine("condboot") == "conditional-bootstrap"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            canonical_engine("jackknife")


class TestSplitSubsets:
    """build_model fits events and censorings as the arm's status splits them."""

    def test_partition_by_status(self):
        arm = arm_of([(5.0, 1), (2.0, 0), (7.0, 1), (3.0, 0), (9.0, 0)])
        model = build_model("kde", arm)
        assert model.event.support.tolist() == [5.0, 7.0]
        assert model.censoring.support.tolist() == [2.0, 3.0, 9.0]

    def test_empty_sides(self):
        model = build_model("kde", arm_of([(1.0, 1), (2.0, 1)]))
        assert model.censoring is None and model.event.support.size == 2
        # an arm without events: test_kde_without_events_fails


# ---------------------------------------------------------------------------
# kernel density machinery


class TestSilvermanBandwidth:
    def test_matches_rule_of_thumb(self):
        x = np.array([1.0, 2.0, 3.0, 10.0])
        sd = float(np.std(x, ddof=1))
        q1, q3 = np.quantile(x, [0.25, 0.75])
        expected = 0.9 * min(sd, (q3 - q1) / 1.34) * 4 ** (-0.2)
        assert silverman_bandwidth(x) == pytest.approx(expected, rel=1e-12)
        assert silverman_bandwidth(x) == pytest.approx(1.5270278841709233, rel=1e-12)

    def test_falls_back_to_sd_when_iqr_is_zero(self):
        # seven identical values plus one outlier: IQR is 0, sd is not
        x = np.array([1.0] * 7 + [100.0])
        sd = float(np.std(x, ddof=1))
        assert silverman_bandwidth(x) == pytest.approx(0.9 * sd * 8 ** (-0.2), rel=1e-12)

    @pytest.mark.parametrize("scale, rel", [(2.0**-540, 0.0), (1e-163, 1e-13), (1e-166, 1e-13)])
    def test_spreads_whose_squares_underflow_keep_their_bandwidth(self, scale, rel):
        # the squared deviations of x * scale underflow to 0; a power of two
        # scales the bandwidth exactly
        x = np.random.default_rng(3).lognormal(0.0, 1.0, 200)
        h = silverman_bandwidth(x * scale)
        assert h == pytest.approx(silverman_bandwidth(x) * scale, rel=rel, abs=0.0)
        assert kde_fit(x * scale).bandwidth == h

    def test_too_few_observations(self):
        with pytest.raises(BandwidthError, match="at least 2"):
            silverman_bandwidth(np.array([4.0]))

    def test_degenerate_sample(self):
        with pytest.raises(BandwidthError, match="all values equal"):
            silverman_bandwidth(np.array([5.0, 5.0, 5.0]))


class TestKdeFit:
    def test_domain_and_bandwidth(self):
        kde = kde_fit([1.0, 2.0, 3.0, 10.0])
        h = 1.5270278841709233
        assert kde.bandwidth == pytest.approx(h, rel=1e-12)
        assert kde.lower == 0.0  # 1 - 3h < 0 clamps to zero
        assert kde.upper == pytest.approx(10.0 + 3.0 * h, rel=1e-12)

    def test_lower_bound_not_clamped_when_positive(self):
        kde = kde_fit([100.0, 101.0, 102.0, 103.0])
        assert kde.lower == pytest.approx(100.0 - 3.0 * kde.bandwidth, rel=1e-12)

    def test_single_point_density_is_the_kernel(self):
        kde = KdeDensity(np.array([0.0]), 1.0, 0.0, 3.0, envelope=1.0)
        # standard normal density at its own centre and one bandwidth out
        assert kde.density(0.0)[0] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)
        assert kde.density([-1.0, 1.0]).tolist() == [math.exp(-0.5) / math.sqrt(2.0 * math.pi)] * 2

    @settings(deadline=None, max_examples=300)
    @given(kde_samples())
    @example(np.array([1.0, 2.0, 3.0, 10.0]))
    @example(np.array([0.0, 1e6]))
    def test_envelope_is_the_grid_peak_with_margin(self, x):
        # the cell search finds the very maximum a scan of the whole grid finds
        try:
            kde = kde_fit(x)
        except BandwidthError:
            return
        grid = np.linspace(kde.lower, kde.upper, KDE_GRID_POINTS)
        assert kde.envelope == float(np.max(kde.density(grid))) * KDE_ENVELOPE_SAFETY

    def test_envelope_search_evaluates_a_fraction_of_the_grid(self, monkeypatch):
        points = []
        density = KdeDensity.density
        monkeypatch.setattr(KdeDensity, "density", lambda kde, x: points.append(len(x)) or density(kde, x))
        kde_fit(synth_arm("A", np.random.default_rng(5), 600, 1.3, 10.0, 0.0, 30.0).times())
        assert sum(points) <= KDE_GRID_POINTS // 4

    def test_envelope_dominates_density(self):
        kde = kde_fit([1.0, 1.5, 2.0, 8.0, 9.0])
        grid = np.linspace(kde.lower, kde.upper, 5001)
        assert float(np.max(kde.density(grid))) <= kde.envelope

    def test_density_integrates_to_one_over_real_line(self):
        kde = kde_fit([2.0, 3.0, 5.0, 7.0])
        lo = min(0.0, 2.0 - 8.0 * kde.bandwidth)
        grid = np.linspace(lo, 7.0 + 8.0 * kde.bandwidth, 40001)
        total = float(np.trapezoid(kde.density(grid), grid))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_input(self):
        with pytest.raises(BandwidthError):
            kde_fit([])
        with pytest.raises(BandwidthError):
            kde_fit([1.0, np.inf])
        # the Silverman rule is subnormal on a subnormal sample
        with pytest.raises(BandwidthError, match="bandwidth must be > 0"):
            kde_fit([5e-324, 1e-323, 1.5e-323])


class TestKdeSample:
    def test_samples_stay_inside_domain(self):
        kde = kde_fit([1.0, 2.0, 3.0, 10.0])
        draws = kde_sample(kde, 2000, RandomStream(11, 0).generator)
        assert draws.size == 2000
        assert float(np.min(draws)) >= kde.lower >= 0.0
        assert float(np.max(draws)) <= kde.upper

    def test_deterministic_under_stream_replay(self):
        kde = kde_fit([1.0, 4.0, 6.0, 9.0, 13.0])
        a = kde_sample(kde, 500, RandomStream(7, 3).generator)
        b = kde_sample(kde, 500, RandomStream(7, 3).generator)
        assert np.array_equal(a, b)

    def test_distribution_matches_truncated_density(self):
        kde = kde_fit([2.0, 3.0, 4.0, 5.0, 9.0, 11.0])
        draws = np.sort(kde_sample(kde, 4000, RandomStream(5, 1).generator))
        grid = np.linspace(kde.lower, kde.upper, 20001)
        dens = kde.density(grid)
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))])
        cdf /= cdf[-1]
        fitted = np.interp(draws, grid, cdf)
        empirical = np.arange(1, draws.size + 1) / draws.size
        ks = float(np.max(np.abs(fitted - empirical)))
        assert ks <= 0.03

    def test_zero_draws(self):
        kde = kde_fit([1.0, 2.0])
        assert kde_sample(kde, 0, RandomStream(1, 0).generator).size == 0
        with pytest.raises(ValueError):
            kde_sample(kde, -1, RandomStream(1, 0).generator)

    def test_sampler_stops_at_the_last_acceptance_it_needs(self, monkeypatch):
        kde = build_model("kde", synth_study(50, n=150).arms[0]).event
        evaluated = []
        density = KdeDensity.density

        def counting_density(self, x):
            evaluated.append(np.atleast_1d(x).size)
            return density(self, x)

        class CountingGenerator:
            def __init__(self, gen):
                self.gen = gen
                self.drawn = 0

            def random(self, size):
                self.drawn += size
                return self.gen.random(size)

        monkeypatch.setattr(KdeDensity, "density", counting_density)
        gen = CountingGenerator(RandomStream(3, 0).generator)
        assert kde_sample(kde, 150, gen).size == 150
        proposed = gen.drawn // 2  # a position and a uniform per proposal
        assert 0 < sum(evaluated) < proposed

    def test_stall_guard_trips_on_hopeless_envelope(self):
        kde = kde_fit([1.0, 2.0])
        kde.envelope = 1e12  # acceptance probability ~1e-12
        with pytest.raises(SamplerStallError, match="acceptance rate"):
            kde_sample(kde, 10, RandomStream(1, 0).generator)


# ---------------------------------------------------------------------------
# the conditional bootstrap's censoring distribution estimate


class TestCensoringKm:
    """condboot_plan's atoms and cumulative masses: the Kaplan-Meier
    estimate of the censoring distribution."""

    def test_atoms_and_masses(self):
        arm = arm_of([(5.0, 1), (2.0, 0), (7.0, 1), (3.0, 0), (9.0, 0)])
        plan = condboot_plan(arm)
        assert plan.atoms.tolist() == [2.0, 3.0, 9.0]
        assert plan.cum == pytest.approx([0.2, 0.4, 1.0], abs=1e-12)
        # the last observation is censored, so all mass is placed
        assert float(plan.cum[-1]) == pytest.approx(1.0, abs=1e-12)

    def test_no_censoring_gives_empty_estimate(self):
        plan = condboot_plan(arm_of([(1.0, 1), (2.0, 1)]))
        assert plan.atoms.size == 0
        assert plan.cum.size == 0

    def test_mass_below_one_when_largest_time_is_event(self):
        arm = arm_of([(1.0, 0), (2.0, 1), (3.0, 1)])
        plan = condboot_plan(arm)
        assert plan.atoms.tolist() == [1.0]
        assert float(plan.cum[-1]) < 1.0

    def test_all_censored_mass_sums_to_one(self):
        plan = condboot_plan(arm_of([(1.0, 0), (2.0, 0), (4.0, 0)]))
        assert float(plan.cum[-1]) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_steps(self):
        arm = arm_of([(5.0, 1), (2.0, 0), (7.0, 1), (3.0, 0), (9.0, 0)])
        plan = condboot_plan(arm)

        def cdf(t: float) -> float:
            return float(np.concatenate(([0.0], plan.cum))[np.searchsorted(plan.atoms, t, side="right")])

        assert cdf(1.9) == pytest.approx(0.0)
        assert cdf(2.0) == pytest.approx(0.2)
        assert cdf(3.5) == pytest.approx(0.4)
        assert cdf(9.0) == pytest.approx(1.0)

    def test_matches_survival_km_with_roles_swapped(self):
        rng = RandomStream(41, 7).generator
        arm = synth_arm("A", rng, 80, 1.2, 9.0, 2.0, 25.0)
        flipped = ArmData("A", arm.times(), 1 - arm.statuses())
        curve = km_estimate(flipped)
        plan = condboot_plan(arm)
        for t, m in zip(plan.atoms, plan.cum):
            assert 1.0 - survival_at(curve, float(t)) == pytest.approx(float(m), abs=1e-12)


# ---------------------------------------------------------------------------
# model construction


class TestBuildModel:
    def test_every_engine_builds_on_a_healthy_arm(self):
        arm = synth_study(1, n=60).arms[0]
        for kind in ENGINE_KINDS:
            model = build_model(kind, arm)
            assert model.engine == kind
            assert model.source is arm
            assert len(model.source) == 60

    def test_each_engine_sets_only_its_own_parts(self):
        censored, uncensored = synth_study(1, n=60).arms[0], arm_of([(float(i), 1) for i in range(1, 9)])
        for arm, has_censored in ((censored, True), (uncensored, False)):
            assert (0 in arm.statuses().tolist()) == has_censored
            for kind in ENGINE_KINDS:
                model = build_model(kind, arm)
                part = {"parametric": FittedDistribution, "kde": KdeDensity}.get(kind, type(None))
                assert type(model.event) is part
                assert type(model.censoring) is (part if has_censored else type(None))
                assert (model.condboot is not None) == (kind == "conditional-bootstrap")

    def test_alias_is_canonicalised(self):
        arm = synth_study(1, n=40).arms[0]
        assert build_model("condboot", arm).engine == "conditional-bootstrap"

    def test_parametric_needs_enough_events(self):
        arm = arm_of([(1.0, 1), (2.0, 1), (3.0, 1), (4.0, 1), (5.0, 0)])
        with pytest.raises(ModelBuildError, match="arm 'A', parametric: need at least 5"):
            build_model("parametric", arm)

    def test_parametric_needs_enough_censorings_when_any_exist(self):
        pairs = [(float(i), 1) for i in range(1, 9)] + [(2.5, 0)]
        with pytest.raises(ModelBuildError, match="parametric"):
            build_model("parametric", arm_of(pairs))

    def test_parametric_without_censoring_skips_censoring_fit(self):
        arm = arm_of([(float(i), 1) for i in range(1, 9)])
        model = build_model("parametric", arm)
        assert model.event is not None
        assert model.censoring is None

    def test_parametric_fits_the_other_families_on_tiny_times(self):
        # gamma and inverse-gamma have no moment start at times near 1e-170
        arm = arm_of([(k * 1e-170, k % 2) for k in range(1, 13)])
        model = build_model("parametric", arm)
        for fit in (model.event, model.censoring):
            assert fit.family.family_id not in ("gamma", "inverse-gamma")

    def test_kde_needs_two_events(self):
        with pytest.raises(ModelBuildError, match="arm 'A', kde"):
            build_model("kde", arm_of([(1.0, 1), (2.0, 0), (3.0, 0)]))

    def test_kde_rejects_single_censoring(self):
        pairs = [(float(i), 1) for i in range(1, 6)] + [(2.5, 0)]
        with pytest.raises(ModelBuildError, match="arm 'A', kde: need at least 2"):
            build_model("kde", arm_of(pairs))

    def test_kde_without_events_fails(self):
        with pytest.raises(ModelBuildError, match="event subset is empty"):
            build_model("kde", arm_of([(1.0, 0), (2.0, 0)]))

    def test_condboot_needs_at_least_one_event(self):
        with pytest.raises(ModelBuildError, match="no events to resample"):
            build_model("conditional-bootstrap", arm_of([(1.0, 0), (2.0, 0)]))

    def test_case_resampling_never_fails_to_build(self):
        model = build_model("case-resampling", arm_of([(1.0, 0)]))
        assert len(model.source) == 1


class TestModelSummary:
    def test_parametric_summary_names_families(self):
        arm = synth_study(3, n=80).arms[0]
        out = model_summary(build_model("parametric", arm))
        json.dumps(out)
        assert out["engine"] == "parametric"
        assert "family" in out["event"]
        assert "family" in out["censoring"]

    def test_kde_summary_reports_bandwidths(self):
        arm = synth_study(3, n=80).arms[0]
        model = build_model("kde", arm)
        out = model_summary(model)
        json.dumps(out)
        assert out["event_bandwidth"] > 0.0
        assert out["censoring_bandwidth"] > 0.0
        for side, kde in (("event", model.event), ("censoring", model.censoring)):
            assert out[f"{side}_envelope"] == kde.envelope
            assert out[f"{side}_envelope"] >= float(np.max(kde.density(np.linspace(kde.lower, kde.upper, 1024))))
            assert out[f"{side}_domain"] == [kde.lower, kde.upper]
            assert 0.0 <= kde.lower < kde.upper

    def test_kde_summary_without_censoring(self):
        out = model_summary(build_model("kde", arm_of([(1.0, 1), (2.0, 1), (4.0, 1)])))
        json.dumps(out)
        assert out["event_envelope"] > 0.0
        assert out["censoring_bandwidth"] is None
        assert out["censoring_envelope"] is None
        assert out["censoring_domain"] is None

    def test_resampling_summaries_are_minimal(self):
        arm = synth_study(3, n=30).arms[0]
        for kind in ("case-resampling", "conditional-bootstrap"):
            out = model_summary(build_model(kind, arm))
            json.dumps(out)
            assert out == {"engine": kind, "label": arm.label, "n_source": 30}


# ---------------------------------------------------------------------------
# case resampling


class TestCaseResampling:
    def test_outputs_are_source_rows(self):
        arm = synth_study(9, n=50).arms[0]
        source = set(pairs_of(arm))
        model = build_model("case-resampling", arm)
        out = simulate(model, 50, RandomStream(5, 0))
        assert out.label == arm.label
        assert len(out) == 50
        assert set(pairs_of(out)) <= source

    def test_any_output_size_is_allowed(self):
        model = build_model("case-resampling", synth_study(9, n=50).arms[0])
        assert len(simulate(model, 7, RandomStream(5, 1))) == 7
        assert len(simulate(model, 400, RandomStream(5, 2))) == 400

    def test_deterministic(self):
        model = build_model("case-resampling", synth_study(9, n=50).arms[0])
        a = case_resample(model, 120, RandomStream(8, 4).generator)
        b = case_resample(model, 120, RandomStream(8, 4).generator)
        assert pairs_of(a) == pairs_of(b)

    def test_resampling_induces_ties(self):
        arm = synth_study(9, n=150).arms[0]
        model = build_model("case-resampling", arm)
        out = simulate(model, 150, RandomStream(5, 3))
        times = out.times()
        assert np.unique(times).size < times.size


# ---------------------------------------------------------------------------
# conditional bootstrap


class TestConditionalBootstrap:
    def test_two_point_arm_reproduces_itself(self):
        # only one event time and the largest time is censored, so the
        # output is fully determined for every seed
        model = build_model("condboot", arm_of([(1.0, 1), (4.0, 0)]))
        for i in range(25):
            out = conditional_bootstrap(model, 2, RandomStream(100, i).generator)
            assert pairs_of(out) == [(1.0, 1), (4.0, 0)]

    def test_output_preserves_input_order_for_censored_rows(self):
        arm = arm_of([(5.0, 1), (2.0, 0), (7.0, 1), (3.0, 0), (9.0, 0)])
        model = build_model("condboot", arm)
        pool = {5.0, 7.0}
        for i in range(50):
            out = conditional_bootstrap(model, 5, RandomStream(200, i).generator)
            assert len(out) == 5
            # largest observation is censored: it must reappear verbatim
            rows = pairs_of(out)
            assert rows[4] == (9.0, 0)
            # other censored rows keep their time or convert to an earlier event
            for idx in (1, 3):
                time, status = rows[idx]
                if status == 0:
                    assert time == arm.times()[idx]
                else:
                    assert time in pool and time < arm.times()[idx]

    def test_event_times_come_from_source_event_pool(self):
        rng = RandomStream(42, 0).generator
        arm = synth_arm("B", rng, 80, 1.3, 10.0, 2.0, 28.0)
        pool = set(arm.times()[arm.statuses() == 1].tolist())
        model = build_model("condboot", arm)
        for i in range(10):
            out = simulate(model, 80, RandomStream(77, i))
            out_events = out.times()[out.statuses() == 1]
            assert set(out_events.tolist()) <= pool

    def test_censored_rows_keep_their_censoring_times(self):
        rng = RandomStream(43, 0).generator
        arm = synth_arm("A", rng, 60, 1.1, 8.0, 1.0, 20.0)
        model = build_model("condboot", arm)
        t = arm.times()
        s = arm.statuses()
        max_idx = int(np.flatnonzero(t == t.max())[-1])
        rows = pairs_of(simulate(model, 60, RandomStream(78, 0)))
        for i in np.flatnonzero(s == 0):
            time, status = rows[int(i)]
            if i == max_idx or status == 0:
                assert time == t[i] and status == 0
            else:
                assert status == 1 and time < t[i]

    def test_largest_event_row_outcomes(self):
        # the largest observation is an event; its latent censoring partner
        # equals its own time 6.0, so redrawing that time makes a tie that
        # resolves to censored at 6.0, while drawing the earlier pool time
        # keeps it an event
        arm = arm_of([(1.0, 0), (2.0, 1), (6.0, 1)])
        model = build_model("condboot", arm)
        seen = set()
        for i in range(25):
            out = conditional_bootstrap(model, 3, RandomStream(300, i).generator)
            row = pairs_of(out)[2]
            assert row in {(2.0, 1), (6.0, 0)}
            seen.add(row)
        assert seen == {(2.0, 1), (6.0, 0)}

    def test_event_row_past_the_last_censoring_keeps_its_place(self):
        # the only censoring atom (1.0) lies before the row at 2.0; its
        # partner is the largest time 3.0, so it stays an event or ties
        # the largest time, and never moves back to 1.0
        model = build_model("condboot", arm_of([(1.0, 0), (2.0, 1), (3.0, 1)]))
        seen = set()
        for i in range(200):
            seen.add(pairs_of(conditional_bootstrap(model, 3, RandomStream(400, i).generator))[1])
        assert seen == {(2.0, 1), (3.0, 0)}

    def test_output_size_is_pinned_to_source_size(self):
        model = build_model("condboot", arm_of([(1.0, 1), (4.0, 0)]))
        with pytest.raises(SizeMismatchError, match="source size 2, got 3"):
            simulate(model, 3, RandomStream(1, 0))
        with pytest.raises(SizeMismatchError):
            conditional_bootstrap(model, 1, RandomStream(1, 0).generator)

    def test_deterministic(self):
        model = build_model("condboot", synth_study(6, n=90).arms[1])
        a = simulate(model, 90, RandomStream(12, 9))
        b = simulate(model, 90, RandomStream(12, 9))
        assert pairs_of(a) == pairs_of(b)

    def test_resampling_induces_ties(self):
        arm = synth_study(6, n=150).arms[0]
        model = build_model("condboot", arm)
        out = simulate(model, 150, RandomStream(13, 2))
        ev = out.times()[out.statuses() == 1]
        assert np.unique(ev).size < ev.size


# ---------------------------------------------------------------------------
# smooth engines


class TestParametricSimulation:
    def test_all_event_source_gives_all_event_output(self):
        rng = RandomStream(21, 0).generator
        arm = synth_arm("A", rng, 200, 1.4, 9.0, 1e9, 2e9)  # censoring far away
        assert int(np.sum(arm.statuses())) == 200
        model = build_model("parametric", arm)
        out = simulate(model, 500, RandomStream(22, 0))
        assert len(out) == 500
        assert int(np.sum(out.statuses())) == 500

    def test_times_are_positive(self):
        model = build_model("parametric", synth_study(30, n=120).arms[0])
        out = simulate(model, 3000, RandomStream(23, 0))
        assert float(np.min(out.times())) > 0.0

    def test_closed_loop_recovers_fitted_family(self):
        rng = RandomStream(24, 0).generator
        arm = synth_arm("A", rng, 400, 1.5, 10.0, 1e9, 2e9)
        model = build_model("parametric", arm)
        fitted = model.event
        out = simulate(model, 100000, RandomStream(25, 0))
        refit = fit_mle(fitted.family.family_id, out.times())
        for got, want in zip(refit.family.parameters, fitted.family.parameters):
            assert got == pytest.approx(want, rel=0.05)

    def test_deterministic(self):
        model = build_model("parametric", synth_study(30, n=120).arms[1])
        a = simulate(model, 80, RandomStream(26, 5))
        b = simulate(model, 80, RandomStream(26, 5))
        assert pairs_of(a) == pairs_of(b)


class TestKdeSimulation:
    def test_output_has_both_statuses_under_censoring(self):
        model = build_model("kde", synth_study(31, n=150).arms[0])
        out = simulate(model, 2000, RandomStream(27, 0))
        s = out.statuses()
        assert 0 < int(np.sum(s)) < 2000

    def test_no_censoring_model_never_censors(self):
        rng = RandomStream(28, 0).generator
        arm = synth_arm("A", rng, 100, 1.3, 8.0, 1e9, 2e9)
        model = build_model("kde", arm)
        assert model.censoring is None
        out = simulate(model, 300, RandomStream(29, 0))
        assert int(np.sum(out.statuses())) == 300

    def test_times_are_non_negative_and_bounded(self):
        model = build_model("kde", synth_study(31, n=150).arms[1])
        out = simulate(model, 2000, RandomStream(32, 0))
        t = out.times()
        upper = max(model.event.upper, model.censoring.upper)
        assert float(np.min(t)) >= 0.0
        assert float(np.max(t)) <= upper

    def test_deterministic(self):
        model = build_model("kde", synth_study(31, n=150).arms[0])
        a = simulate(model, 150, RandomStream(33, 2))
        b = simulate(model, 150, RandomStream(33, 2))
        assert pairs_of(a) == pairs_of(b)


# ---------------------------------------------------------------------------
# dispatch and the tie dichotomy


class TestSimulateDispatch:
    def test_output_size_must_be_positive(self):
        model = build_model("case", synth_study(2, n=20).arms[0])
        with pytest.raises(SizeMismatchError, match="n_out must be >= 1"):
            simulate(model, 0, RandomStream(1, 0))

    def test_unknown_engine_kind_rejected(self):
        model = ArmModel("jackknife", arm_of([(1.0, 1), (2.0, 0), (3.0, 1)]))
        with pytest.raises(ValueError, match="unknown engine"):
            simulate(model, 3, RandomStream(1, 0))

    def test_tie_dichotomy(self):
        # resampling engines reuse observed times, so ties are pervasive;
        # the smooth engines draw from continuous densities, so ties have
        # probability zero
        dataset = synth_study(77, n=150)
        models = {kind: [build_model(kind, a) for a in dataset.arms] for kind in ENGINE_KINDS}
        for rep in range(20):
            stream = RandomStream(55, rep)
            for kind in ENGINE_KINDS:
                arms = [simulate(m, 150, stream) for m in models[kind]]
                ratio = tie_ratio(StudyDataset(tuple(arms)))
                if kind in ("case-resampling", "conditional-bootstrap"):
                    assert ratio > 0.5
                else:
                    assert ratio == 0.0
