"""Parametric families: density anchors, sampling, MLE fitting, CvM selection.

The anchor table below was computed once from the closed-form density,
distribution (and inverse) functions of each family and frozen; the
package must reproduce it independently.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from survbench import distributions
from survbench.core import RandomStream, store_dataset
from survbench.distributions import (
    CANONICAL_FAMILIES,
    DomainError,
    FitFailureError,
    FittedDistribution,
    ParametricFamily,
    SelectionError,
    SupportError,
    cvm_test,
    fit_candidates,
    fit_mle,
    sample,
    select_distribution,
)
from survbench.distributions import _cvm_cdf_asymptotic

from helpers import cdf, pdf, quantile, synth_study

# family_id, parameters, probe x, pdf(x), cdf(x), quantile(0.9)
ANCHORS = [
    ("exponential", (0.7,), 0.6154041658463631, 0.455, 0.35, 3.2894072757057797),
    ("weibull", (1.4, 9.0), 4.931721695525865, 0.07948795123613182, 0.35, 16.3293162975478),
    ("gamma", (3.0, 2.0), 1.049317381918832, 0.5400677295885595, 0.35, 2.6611601689171054),
    ("log-normal", (1.2, 0.5), 2.738306782513852, 0.27053141508061973, 0.35, 6.301424902175618),
    ("inverse-gamma", (3.0, 4.0), 1.1949642635652808, 0.5520538654618035, 0.35, 3.629548900113004),
    ("log-logistic", (2.5, 7.0), 5.464619343569164, 0.10407861266115681, 0.35, 16.857572796964842),
    ("gompertz", (0.08, 0.02), 12.522282065135165, 0.03540071163680762, 0.35, 29.04251210923803),
    ("normal", (50.0, 5.0), 48.07339766796216, 0.07407980087983312, 0.35, 56.407757827723),
    ("cauchy", (12.0, 2.0), 10.980949101011142, 0.1263519357353796, 0.35, 18.155367074350508),
    ("gumbel", (10.0, 3.0), 9.854137766261832, 0.12247924785817904, 0.35, 16.751101981937335),
    (
        "weibull-normal-mixture",
        (1.8, 4.0, 30.0, 4.0),
        28.0,
        0.07041306535286151,
        0.4468300309807888,
        34.60139752150404,
    ),
]

FIXTURE_PARAMS = {fam_id: params for fam_id, params, *_ in ANCHORS}


def family(fam_id):
    return ParametricFamily(fam_id, FIXTURE_PARAMS[fam_id])


@pytest.mark.parametrize("fam_id,params,x,fx,Fx,q90", ANCHORS, ids=[a[0] for a in ANCHORS])
class TestFrozenAnchors:
    def test_pdf(self, fam_id, params, x, fx, Fx, q90):
        assert pdf(ParametricFamily(fam_id, params), x) == pytest.approx(fx, rel=1e-10)

    def test_cdf(self, fam_id, params, x, fx, Fx, q90):
        assert cdf(ParametricFamily(fam_id, params), x) == pytest.approx(Fx, rel=1e-10)

    def test_quantile(self, fam_id, params, x, fx, Fx, q90):
        assert quantile(ParametricFamily(fam_id, params), 0.9) == pytest.approx(q90, rel=1e-9)


def test_mixture_pdf_anchor_in_weibull_tail():
    mix = family("weibull-normal-mixture")
    assert pdf(mix, 3.0) == pytest.approx(0.03940334069952366, rel=1e-10)


@pytest.mark.parametrize("fam_id", CANONICAL_FAMILIES)
class TestSelfConsistency:
    def test_cdf_inverts_quantile(self, fam_id):
        fam = family(fam_id)
        ps = np.linspace(0.01, 0.99, 25)
        assert np.max(np.abs(cdf(fam, quantile(fam, ps)) - ps)) < 1e-8

    def test_pdf_is_cdf_derivative(self, fam_id):
        fam = family(fam_id)
        xs = quantile(fam, np.linspace(0.05, 0.95, 20))
        h = 1e-6 * max(1.0, float(np.max(np.abs(xs))))
        numeric = (cdf(fam, xs + h) - cdf(fam, xs - h)) / (2.0 * h)
        assert np.max(np.abs(numeric - pdf(fam, xs))) < 1e-4

    def test_pdf_integrates_to_one(self, fam_id):
        fam = family(fam_id)
        center = float(quantile(fam, 0.5))
        lower = 0.0 if fam.positive_support else -np.inf
        left, _ = quad(lambda x: pdf(fam, x), lower, center, limit=200)
        right, _ = quad(lambda x: pdf(fam, x), center, np.inf, limit=200)
        assert left + right == pytest.approx(1.0, abs=1e-6)

    def test_sampling_matches_cdf(self, fam_id):
        fam = family(fam_id)
        xs = np.sort(sample(fam, 20000, RandomStream(321, 5)))
        n = xs.size
        grid = cdf(fam, xs)
        ks = max(
            float(np.max(np.arange(1, n + 1) / n - grid)),
            float(np.max(grid - np.arange(n) / n)),
        )
        assert ks < 0.015

    def test_sampling_is_deterministic(self, fam_id):
        fam = family(fam_id)
        a = sample(fam, 50, RandomStream(9, 2))
        b = sample(fam, 50, RandomStream(9, 2))
        assert a.tolist() == b.tolist()

    def test_positive_support_samples_are_positive(self, fam_id):
        fam = family(fam_id)
        if fam.positive_support:
            assert np.all(sample(fam, 2000, RandomStream(4, 1)) > 0.0)


class TestDomainChecks:
    def test_pdf_outside_support_raises(self):
        with pytest.raises(SupportError):
            pdf(family("weibull"), -1.0)

    def test_cdf_at_zero_for_positive_family_raises(self):
        with pytest.raises(SupportError):
            cdf(family("log-normal"), 0.0)

    def test_real_line_family_accepts_negatives(self):
        assert pdf(family("normal"), -5.0) > 0.0

    def test_quantile_rejects_zero_and_one(self):
        fam = family("exponential")
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                quantile(fam, bad)

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            ParametricFamily("triangular", (1.0,))

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(DomainError):
            ParametricFamily("weibull", (1.0,))

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(DomainError):
            ParametricFamily("weibull", (1.0, -2.0))

    def test_nonfinite_parameter_rejected(self):
        with pytest.raises(DomainError):
            ParametricFamily("normal", (math.inf, 1.0))


class TestMaximumLikelihood:
    def test_normal_closed_form(self):
        fit = fit_mle("normal", [1.0, 2.0, 3.0])
        mean, sd = fit.family.parameters
        assert mean == pytest.approx(2.0, abs=1e-6)
        assert sd == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-6)

    def test_exponential_closed_form(self):
        fit = fit_mle("exponential", [1.0, 2.0, 3.0, 4.0])
        assert fit.family.parameters[0] == pytest.approx(0.4, rel=1e-7)
        assert fit.converged

    def test_exponential_fit_is_the_converged_closed_form(self):
        # 1/mean is the MLE itself; an iterative refit could land an ulp
        # below it and was then reported as not converged
        x = sample(ParametricFamily("exponential", (0.1,)), 20, RandomStream(11, 13))
        fit = fit_mle("exponential", x)
        assert fit.family.parameters == (1.0 / float(np.mean(x)),)
        assert fit.converged

    def test_log_normal_closed_form(self):
        xs = np.array([1.0, 3.0, 9.0, 27.0])
        fit = fit_mle("log-normal", xs)
        logs = np.log(xs)
        assert fit.family.parameters[0] == pytest.approx(float(np.mean(logs)), abs=1e-6)
        assert fit.family.parameters[1] == pytest.approx(float(np.std(logs)), abs=1e-6)

    def test_gamma_recovery_at_moderate_n(self):
        xs = sample(ParametricFamily("gamma", (3.0, 2.0)), 2000, RandomStream(7, 0))
        fit = fit_mle("gamma", xs)
        shape, rate = fit.family.parameters
        assert shape == pytest.approx(3.0, rel=0.1)
        assert rate == pytest.approx(2.0, rel=0.1)

    @pytest.mark.parametrize("fam_id", CANONICAL_FAMILIES)
    def test_recovery_at_large_n(self, fam_id):
        true = FIXTURE_PARAMS[fam_id]
        idx = CANONICAL_FAMILIES.index(fam_id)
        xs = sample(ParametricFamily(fam_id, true), 10000, RandomStream(123, idx))
        fit = fit_mle(fam_id, xs)
        assert fit.converged
        for got, want in zip(fit.family.parameters, true):
            assert got == pytest.approx(want, rel=0.05)

    def test_inverse_gamma_fit_zeroes_the_likelihood_gradient(self):
        xs = sample(ParametricFamily("inverse-gamma", (3.0, 4.0)), 4000, RandomStream(55, 0))
        fit = fit_mle("inverse-gamma", xs)
        a, b = fit.family.parameters

        def loglik(shape, rate):
            return float(np.log(pdf(ParametricFamily("inverse-gamma", (shape, rate)), xs)).sum())

        h = 1e-6
        grad_a = (loglik(a + h, b) - loglik(a - h, b)) / (2 * h)
        grad_b = (loglik(a, b + h) - loglik(a, b - h)) / (2 * h)
        assert abs(grad_a) < 1e-2
        assert abs(grad_b) < 1e-2

    def test_fit_reports_log_likelihood_of_fitted_family(self):
        xs = sample(family("weibull"), 500, RandomStream(2, 2))
        fit = fit_mle("weibull", xs)
        direct = float(np.log(pdf(fit.family, xs)).sum())
        assert fit.log_likelihood == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("fam_id", CANONICAL_FAMILIES)
    def test_constant_sample_fails_to_fit(self, fam_id):
        with pytest.raises(FitFailureError):
            fit_mle(fam_id, [5.0] * 40)

    def test_single_observation_fails_to_fit(self):
        with pytest.raises(FitFailureError):
            fit_mle("normal", [4.2])

    @pytest.mark.parametrize("fam_id", ["gamma", "inverse-gamma"])
    def test_underflowing_variance_fails_to_fit(self, fam_id):
        # mean squared and variance both underflow to 0 near 1e-170
        with pytest.raises(FitFailureError, match="variance underflows"):
            fit_mle(fam_id, np.arange(1, 7) * 1e-170)

    def test_positive_family_rejects_nonpositive_values(self):
        for fam_id in ("weibull", "log-normal", "inverse-gamma", "gompertz"):
            with pytest.raises(SupportError):
                fit_mle(fam_id, [-1.0, 2.0, 3.0, 4.0, 5.0])


class TestCramerVonMises:
    def test_single_point_at_median_gives_one_twelfth(self):
        fam = family("exponential")
        stat, _ = cvm_test([float(quantile(fam, 0.5))], fam)
        assert stat == pytest.approx(1.0 / 12.0, abs=1e-12)

    @pytest.mark.parametrize("fam_id", ["exponential", "normal"])
    def test_quantile_spaced_sample_attains_the_minimum(self, fam_id):
        fam = family(fam_id)
        n = 25
        xs = quantile(fam, (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n))
        stat, _ = cvm_test(xs, fam)
        assert stat == pytest.approx(1.0 / (12.0 * n), abs=1e-12)

    def test_asymptotic_distribution_anchors(self):
        # Classic lower/upper tail table values for the limiting W2 law.
        for stat, prob in [(0.02480, 0.01), (0.03656, 0.05), (0.11888, 0.5), (1.16204, 0.999)]:
            assert _cvm_cdf_asymptotic(stat) == pytest.approx(prob, abs=1e-4)

    def test_asymptotic_distribution_edges(self):
        assert _cvm_cdf_asymptotic(0.0) == 0.0
        assert _cvm_cdf_asymptotic(15.0) == 1.0

    def test_p_value_decreases_as_statistic_grows(self):
        fam = family("normal")
        good = quantile(fam, (2.0 * np.arange(1, 51) - 1.0) / 100.0)
        bad = np.asarray(good) + 8.0
        _, p_good = cvm_test(good, fam)
        _, p_bad = cvm_test(bad, fam)
        assert p_good > p_bad
        assert 0.0 <= p_bad <= p_good <= 1.0


class TestSelection:
    def test_selects_normal_on_normal_data(self):
        xs = sample(family("normal"), 500, RandomStream(1, 0))
        best = select_distribution(xs)
        assert best.family.family_id == "normal"

    def test_selection_is_argmax_of_candidate_p_values(self):
        xs = sample(family("weibull"), 300, RandomStream(3, 1))
        best = select_distribution(xs)
        fits, _ = fit_candidates(xs)
        manual = fits[0]
        for fit in fits[1:]:
            if fit.cvm_p_value > manual.cvm_p_value:
                manual = fit
        assert best.family.family_id == manual.family.family_id
        assert best.cvm_p_value == manual.cvm_p_value

    def test_candidates_skip_positive_families_on_negative_data(self):
        xs = sample(family("normal"), 200, RandomStream(6, 0)) - 50.0
        assert float(np.min(xs)) < 0.0
        fits, failures = fit_candidates(xs)
        fitted = {f.family.family_id for f in fits}
        assert "weibull" not in fitted and "weibull" in failures
        assert "normal" in fitted
        best = select_distribution(xs)
        assert not ParametricFamily(best.family.family_id, best.family.parameters).positive_support

    def test_candidates_skip_moment_starts_that_underflow(self):
        fits, failures = fit_candidates(np.arange(1, 7) * 1e-170)
        assert set(failures) == {"gamma", "inverse-gamma"}
        assert len(fits) == len(CANONICAL_FAMILIES) - 2

    def test_too_small_sample_is_rejected(self):
        with pytest.raises(SelectionError):
            select_distribution([1.0, 2.0, 3.0, 4.0])

    def test_all_candidates_failing_is_reported(self):
        with pytest.raises(SelectionError, match="exponential"):
            select_distribution([3.0, 3.0, 3.0, 3.0, 3.0])


def test_fitted_distribution_json_round_trip():
    fit = FittedDistribution(ParametricFamily("gamma", (2.0, 0.5)), -12.5, 0.04, 0.61, True)
    assert fit.to_json() == {
        "family": "gamma",
        "parameters": [2.0, 0.5],
        "log_likelihood": -12.5,
        "cvm_statistic": 0.04,
        "cvm_p_value": 0.61,
        "converged": True,
    }


# family_id, first three draws of sample(family, 80, RandomStream(9, index)),
# then fit_mle(family_id, those 80 draws).family.parameters; compared exactly,
# so any change in sampling order or fitting arithmetic shows up bit for bit
PINNED = [
    (
        "exponential",
        (0.44195526172076555, 0.8520744069542029, 2.928292506477645),
        (0.7852327725972739,),
    ),
    (
        "weibull",
        (4.368634295827959, 3.994577692806953, 5.034875767416712),
        (1.4192915424554466, 9.12028245577033),
    ),
    (
        "gamma",
        (2.990139132591989, 1.2824303802812547, 2.5627040927026465),
        (3.1531525952813024, 2.05526884713092),
    ),
    (
        "log-normal",
        (6.35362890931321, 2.0653608615778287, 2.2664119660557405),
        (1.1961712895314345, 0.5249313856823672),
    ),
    (
        "inverse-gamma",
        (2.078003371826965, 1.3167652604039808, 0.9021550737572849),
        (3.0581565159757176, 4.358578919838192),
    ),
    (
        "log-logistic",
        (7.8595635597709474, 6.662523459809569, 5.250868689396792),
        (2.907170716460404, 7.342358594824613),
    ),
    (
        "gompertz",
        (8.618035770514421, 2.6158904420729385, 20.776275777602272),
        (0.06014944841958832, 0.027102200079566277),
    ),
    (
        "normal",
        (44.35562185827052, 54.09455015032186, 49.46531523271206),
        (49.669444818743486, 5.064737499744651),
    ),
    (
        "cauchy",
        (10.219410493892253, 10.690720775351638, 14.199448414511275),
        (12.01514168759115, 2.691512993085773),
    ),
    (
        "gumbel",
        (10.935453279536885, 9.419276110834275, 6.810661121905876),
        (10.07144050354855, 2.673642426852805),
    ),
    (
        "weibull-normal-mixture",
        (2.4673088335187474, 24.89581747621744, 34.18564427960571),
        (2.4437717065795246, 3.778998893088233, 30.612984515435667, 4.020179121464966),
    ),
]


@pytest.mark.parametrize("fam_id, first_draws, fitted", PINNED)
def test_pinned_draws_and_fit(fam_id, first_draws, fitted):
    draws = sample(family(fam_id), 80, RandomStream(9, CANONICAL_FAMILIES.index(fam_id)))
    assert tuple(float(v) for v in draws[:3]) == first_draws
    fit = fit_mle(fam_id, draws)
    assert fit.family.parameters == fitted
    assert fit.converged


def test_pinned_table_covers_every_family_in_canonical_order():
    assert tuple(fam_id for fam_id, *_ in PINNED) == CANONICAL_FAMILIES


def run_with_src(code: str) -> str:
    """The stdout of `code` run in a fresh interpreter with the checkout's src/ on its path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip()


def test_importing_every_submodule_leaves_out_scipy_optimize_and_special():
    # no submodule imports the optimizer or the special functions at load time
    modules = ("cli", "core", "distributions", "engines", "evaluate", "harness", "reconstruct")
    imports = ", ".join(f"survbench.{name}" for name in modules)
    code = f"import sys, {imports}; print('scipy.optimize' in sys.modules, 'scipy.special' in sys.modules)"
    assert run_with_src(code) == "False False"


# median 2 and 90th percentile 2.8 lie close enough for the Gompertz start to search for a root
_GUARD_SAMPLE = np.linspace(1.0, 3.0, 30).tolist()


def test_the_gompertz_start_of_the_guard_sample_searches_for_a_root(monkeypatch):
    searches = []
    brentq = distributions._brentq
    monkeypatch.setattr(distributions, "_brentq", lambda *args, **kw: searches.append(args) or brentq(*args, **kw))
    select_distribution(_GUARD_SAMPLE)
    assert len(searches) == 1


def test_fitting_and_mixture_quantiles_leave_out_scipy_optimize():
    # every family fits, and a mixture quantile inverts, with the package's own loops
    tests = os.path.dirname(os.path.abspath(__file__))
    code = f"""
import sys
sys.path.insert(0, {tests!r})
import numpy as np
from helpers import quantile
from survbench.core import arm_from_arrays
from survbench.distributions import ParametricFamily, select_distribution
from survbench.engines import build_model
select_distribution({_GUARD_SAMPLE!r})
times = np.linspace(0.5, 12.0, 40)
build_model("parametric", arm_from_arrays("A", times, (np.arange(40) % 3 != 0).astype(int)))
quantile(ParametricFamily("weibull-normal-mixture", (2.0, 10.0, 20.0, 4.0)), 0.3)
print('scipy.optimize' in sys.modules)
"""
    assert run_with_src(code) == "False"


def test_reading_and_reconstructing_leave_out_scipy():
    # the package root imports no submodule, so core and reconstruct load only what they use
    code = "import sys, survbench.core, survbench.reconstruct; print('scipy' in sys.modules, survbench.__version__)"
    assert run_with_src(code) == "False 0.1.0"


# scipy.special is the only scipy module the package uses, and only to fit and
# draw from parametric families; every other path computes with numpy and math
def test_scoring_resampling_and_reconstructing_leave_out_scipy_special(tmp_path):
    tests = os.path.dirname(os.path.abspath(__file__))
    code = f"""
import json, os, sys
sys.path.insert(0, {tests!r})
from helpers import digitize_study, synth_study
from survbench.core import RandomStream, StudyMetadata, store_dataset, store_metadata
from survbench.engines import build_model, simulate
from survbench.evaluate import evaluate_dataset
from survbench.harness import load_config
from survbench.reconstruct import reconstruct_study
dataset = synth_study(3, n=40)
reference = evaluate_dataset(dataset)
os.chdir({str(tmp_path)!r})
store_dataset(dataset, "s.csv")
store_metadata(StudyMetadata("s", reference.logrank_p, None, dict(reference.medians), "non-crossing"), "s.json")
with open("bench.json", "w") as fh:
    json.dump({{"studies": [{{"dataset": "s.csv", "metadata": "s.json"}}], "engines": ["case", "kde", "condboot"]}}, fh)
load_config("bench.json")
for engine in ("case", "kde", "condboot"):
    simulate(build_model(engine, dataset.arms[0]), 40, RandomStream(1, 0))
reconstruct_study(digitize_study(dataset), "s")
print('scipy.special' in sys.modules)
"""
    assert run_with_src(code) == "False"


def test_reconstruct_and_evaluate_commands_leave_out_engines_and_scipy(tmp_path):
    # only simulate and bench import the engines, and through them scipy
    for label in "AB":
        (tmp_path / f"c{label}.csv").write_text("time,survival\n0.0,1.0\n2.0,0.8\n5.0,0.5\n")
        (tmp_path / f"r{label}.csv").write_text("time,n_risk\n0,10\n4,6\n")
    store_dataset(synth_study(3, n=40), str(tmp_path / "s.csv"))
    reconstruct = ["reconstruct", "--coords", f"A={tmp_path / 'cA.csv'},B={tmp_path / 'cB.csv'}",
                   "--risk", f"A={tmp_path / 'rA.csv'},B={tmp_path / 'rB.csv'}",
                   "--out", str(tmp_path / "recon.csv"), "--report", str(tmp_path / "report.json")]
    evaluate = ["evaluate", "--input", str(tmp_path / "s.csv"), "--out", str(tmp_path / "eval.json")]
    code = f"""
import contextlib, io, sys
from survbench.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main({reconstruct!r}), main({evaluate!r})]
print(codes, [name in sys.modules for name in ("survbench.engines", "survbench.distributions", "scipy")])
"""
    assert run_with_src(code) == "[0, 0] [False, False, False]"


def test_fitting_a_parametric_model_loads_scipy_special():
    code = """
import sys
import numpy as np
from survbench.core import arm_from_arrays
from survbench.engines import build_model
before = 'scipy.special' in sys.modules
times = np.linspace(0.5, 12.0, 40)
build_model("parametric", arm_from_arrays("A", times, (np.arange(40) % 3 != 0).astype(int)))
print(before, 'scipy.special' in sys.modules)
"""
    assert run_with_src(code) == "False True"
