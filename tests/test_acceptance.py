"""Acceptance gate: seven end-to-end criteria, one printed verdict line each.

Run `pytest tests/test_acceptance.py -s` to see the verdict lines; without
`-s` they are shown only for failing criteria.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from survbench.core import (
    ArmData,
    RandomStream,
    StudyDataset,
    StudyMetadata,
    km_estimate,
    median_survival,
)
from survbench.distributions import ParametricFamily, sample
from survbench.engines import ENGINE_KINDS, build_model, kde_fit, kde_sample, simulate
from survbench.evaluate import (
    cox_hazard_ratio,
    cox_partial_loglik,
    cox_score,
    evaluate_dataset,
    logrank_test,
    rmst,
    tie_ratio,
)
from survbench.harness import BenchmarkConfig, StudyRecord, run_benchmark, runtime_stats
from survbench.reconstruct import reconstruct_study

from helpers import arm_of, cdf, corpus_study, digitize_exact, digitize_study, pairs_of, pdf, quantile, synth_study


def verdict(
    number: int, name: str, started: float, budget: float, problems: list[str], note: str = ""
) -> None:
    elapsed = time.perf_counter() - started
    if elapsed >= budget:
        problems = problems + [f"runtime {elapsed:.1f}s exceeds the {budget:.0f}s budget"]
    status = "PASS" if not problems else "FAIL"
    note = f"; {note}" if note else ""
    print(f"[criterion {number}] {name}: {status} ({elapsed:.1f}s, budget {budget:.0f}s{note})")
    assert not problems, f"criterion {number} ({name}): " + "; ".join(problems)


def fixture_study() -> StudyDataset:
    return StudyDataset((arm_of([(1.0, 1), (3.0, 1)], "A"), arm_of([(2.0, 1), (4.0, 1)], "B")))


def own_reference_record(dataset: StudyDataset, study_id: str) -> StudyRecord:
    reference = evaluate_dataset(dataset)
    metadata = StudyMetadata(
        study_id=study_id,
        reported_logrank_p=reference.logrank_p,
        reported_hazard_ratio=reference.hazard_ratio,
        reported_medians=dict(reference.medians),
        curve_class="non-crossing",
    )
    return StudyRecord(dataset, metadata, reference)


def ks_distance(sorted_cdf_values: np.ndarray) -> float:
    """KS distance given the model CDF evaluated at the sorted sample."""
    f = np.asarray(sorted_cdf_values)
    n = f.size
    upper = np.max(np.abs(f - np.arange(1, n + 1) / n))
    lower = np.max(np.abs(f - np.arange(0, n) / n))
    return float(max(upper, lower))


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    problems = []

    res = logrank_test(fixture_study())
    if abs(res.statistic - 0.6154) > 1e-4:
        problems.append(f"logrank statistic {res.statistic!r} not within 1e-4 of 0.6154")
    if abs(res.p_value - 0.433) > 1e-3:
        problems.append(f"logrank p {res.p_value!r} not within 1e-3 of 0.433")

    hr = cox_hazard_ratio(fixture_study()).hazard_ratio
    want_hr = (1.0 + math.sqrt(17.0)) / 2.0
    if hr is None or abs(hr - want_hr) > 1e-6:
        problems.append(f"Cox HR {hr!r} not within 1e-6 of {want_hr!r}")

    arm = arm_of([(1.0, 1), (2.0, 0), (3.0, 1), (4.0, 0)], "A")
    value = rmst(arm, 4.0)
    if abs(value - 2.875) > 1e-9:
        problems.append(f"RMST {value!r} not within 1e-9 of 2.875")

    verdict(1, "oracle equivalence on small fixtures", started, 1.0, problems)


def test_criterion_2_reconstruction_round_trip():
    started = time.perf_counter()
    problems = []

    worst_exact = 0.0
    for seed in range(20):
        dataset = corpus_study(seed)
        rebuilt, _ = reconstruct_study(digitize_study(dataset, pooled_risk=True), str(seed))
        diff = abs(logrank_test(dataset).p_value - logrank_test(rebuilt).p_value)
        worst_exact = max(worst_exact, diff)
    if worst_exact > 1e-6:
        problems.append(f"exact-coordinate round trip p deviates by {worst_exact:.2e} > 1e-6")

    joint_ok = 0
    for seed in range(20):
        dataset = corpus_study(seed)
        top = max(float(np.max(arm.times())) for arm in dataset.arms)
        risk_times = list(np.arange(0.0, top + 6.0, 6.0))
        digitized = tuple(
            digitize_exact(arm, risk_times=risk_times, prob_grid=0.01) for arm in dataset.arms
        )
        rebuilt, _ = reconstruct_study(digitized, str(seed))
        p_diff = abs(logrank_test(dataset).p_value - logrank_test(rebuilt).p_value)
        medians_ok = True
        median_diff = 0.0
        for before, after in zip(dataset.arms, rebuilt.arms):
            m1 = median_survival(km_estimate(before))
            m2 = median_survival(km_estimate(after))
            if m1 is None or m2 is None:
                medians_ok = False
            else:
                median_diff = max(median_diff, abs(m1 - m2))
        if p_diff <= 0.02 and medians_ok and median_diff <= 0.7:
            joint_ok += 1
    if joint_ok < 18:
        problems.append(f"coarse-input round trip holds in only {joint_ok}/20 studies (need 18)")

    verdict(2, "reconstruction round trip on 20 studies", started, 120.0, problems)


def test_criterion_3_tie_ratio_dichotomy():
    started = time.perf_counter()
    problems = []

    dataset = synth_study(77, n=150)
    models = {kind: [build_model(kind, arm) for arm in dataset.arms] for kind in ENGINE_KINDS}
    hits = {kind: 0 for kind in ENGINE_KINDS}
    for rep in range(200):
        stream = RandomStream(1234, rep)
        for kind in ENGINE_KINDS:
            arms = tuple(simulate(model, 150, stream) for model in models[kind])
            ratio = tie_ratio(StudyDataset(arms))
            if kind in ("case-resampling", "conditional-bootstrap"):
                hits[kind] += ratio > 0.5
            else:
                hits[kind] += ratio == 0.0
    for kind in ("case-resampling", "conditional-bootstrap"):
        if hits[kind] != 200:
            problems.append(f"{kind}: tie ratio > 0.5 in only {hits[kind]}/200 replicates")
    for kind in ("kde", "parametric"):
        if hits[kind] != 200:
            problems.append(f"{kind}: tie ratio == 0 in only {hits[kind]}/200 replicates")

    verdict(3, "tie-ratio dichotomy over 200 replicates", started, 60.0, problems)


def test_criterion_4_engine_fidelity():
    started = time.perf_counter()
    problems = []

    dataset = synth_study(
        20, n=600, shape=1.4, scale1=10.0, scale2=12.0, censor_low=20.0, censor_high=55.0
    )
    record = own_reference_record(dataset, "fidelity")
    config = BenchmarkConfig([record], ["case", "kde"], iterations=1000, base_seed=2024)
    result = run_benchmark(config)
    if result.skipped:
        problems.append(f"skipped pairs: {result.skipped}")

    tau = record.reference.tau
    rmst_scale = 0.5 * sum(rmst(arm, tau) for arm in dataset.arms)
    for engine in ("case-resampling", "kde"):
        for metric, tolerance in (
            ("logrank_p", 0.05),
            ("hazard_ratio", 0.05),
            ("rmstd", 0.05 * rmst_scale),
        ):
            series = result.diffs.series("fidelity", engine, metric)
            if not series:
                problems.append(f"{engine}/{metric}: no defined iterations")
                continue
            med = float(np.median(series))
            if abs(med) > tolerance:
                problems.append(f"{engine}/{metric}: median diff {med:+.4f} beyond +/-{tolerance:.4f}")

    verdict(4, "engine fidelity against own reference", started, 300.0, problems)


def test_criterion_5_runtime_ordering():
    started = time.perf_counter()
    problems = []

    dataset = synth_study(50, n=150)
    record = own_reference_record(dataset, "timing")
    config = BenchmarkConfig(
        [record], ["parametric", "kde", "case", "condboot"], iterations=301, base_seed=7
    )
    result = run_benchmark(config)
    if result.skipped:
        problems.append(f"skipped pairs: {result.skipped}")
    medians = {engine: stats.median for engine, stats in runtime_stats(result.runtimes).items()}
    fastest = min(medians, key=medians.get)
    if fastest != "case-resampling":
        problems.append(f"fastest engine is {fastest}, expected case-resampling ({medians})")
    ratio = medians["kde"] / medians["case-resampling"]
    if ratio < 10.0:
        problems.append(f"kde median runtime is only {ratio:.1f}x case-resampling (need >= 10x)")

    verdict(
        5, "runtime ordering across engines", started, 120.0, problems,
        note=f"kde/case median runtime {ratio:.1f}x, need >= 10x",
    )


def test_criterion_6_distributional_correctness():
    started = time.perf_counter()
    problems = []

    families = [
        ("exponential", (0.7,)),
        ("weibull", (1.4, 9.0)),
        ("gamma", (3.0, 2.0)),
        ("log-normal", (1.2, 0.5)),
        ("inverse-gamma", (3.0, 4.0)),
        ("log-logistic", (2.5, 7.0)),
        ("gompertz", (0.08, 0.02)),
        ("normal", (50.0, 5.0)),
        ("cauchy", (12.0, 2.0)),
        ("gumbel", (10.0, 3.0)),
        ("weibull-normal-mixture", (1.8, 4.0, 30.0, 4.0)),
    ]
    for index, (family_id, params) in enumerate(families):
        family = ParametricFamily(family_id, params)
        draws = sample(family, 100000, RandomStream(9, index).generator)
        ks = ks_distance(cdf(family, np.sort(draws)))
        if ks > 0.01:
            problems.append(f"{family_id}: sampling KS {ks:.4f} > 0.01")

    kde = kde_fit([2.0, 3.0, 4.0, 5.0, 9.0, 11.0])
    draws = kde_sample(kde, 10000, RandomStream(6, 0).generator)
    grid = np.linspace(kde.lower, kde.upper, 20001)
    dens = kde.density(grid)
    quad_cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))])
    quad_cdf /= quad_cdf[-1]
    ks = ks_distance(np.interp(np.sort(draws), grid, quad_cdf))
    if ks > 0.02:
        problems.append(f"kde accept-reject KS {ks:.4f} > 0.02")

    mixture = ParametricFamily("weibull-normal-mixture", (1.8, 4.0, 30.0, 4.0))
    split = float(quantile(mixture, 0.5))
    total = (
        integrate.quad(lambda x: pdf(mixture, x), -np.inf, split, limit=200)[0]
        + integrate.quad(lambda x: pdf(mixture, x), split, np.inf, limit=200)[0]
    )
    if abs(total - 1.0) > 1e-6:
        problems.append(f"mixture pdf integrates to {total!r}, off by more than 1e-6")

    verdict(6, "distributional correctness of samplers", started, 120.0, problems)


def test_criterion_7_invariant_suites():
    started = time.perf_counter()
    problems = []

    # monotone-transform invariance of logrank p and Cox HR
    dataset = synth_study(40, n=80)
    transformed = StudyDataset(
        tuple(
            ArmData(arm.label, [t**3 for t in arm.times().tolist()], arm.statuses())
            for arm in dataset.arms
        )
    )
    p1 = logrank_test(dataset).p_value
    p2 = logrank_test(transformed).p_value
    if abs(p1 - p2) > 1e-12 * max(1.0, abs(p1)):
        problems.append(f"logrank p changed under a monotone transform: {p1!r} vs {p2!r}")
    h1 = cox_hazard_ratio(dataset).hazard_ratio
    h2 = cox_hazard_ratio(transformed).hazard_ratio
    if abs(h1 - h2) > 1e-8 * abs(h1):
        problems.append(f"Cox HR changed under a monotone transform: {h1!r} vs {h2!r}")

    # conditional bootstrap keeps censoring times in place
    arm = synth_study(44, n=100).arms[0]
    t = arm.times()
    s = arm.statuses()
    max_idx = int(np.flatnonzero(t == t.max())[-1])
    model = build_model("conditional-bootstrap", arm)
    for rep in range(5):
        rows = pairs_of(simulate(model, 100, RandomStream(321, rep)))
        for i in np.flatnonzero(s == 0):
            time_i, status_i = rows[int(i)]
            if status_i == 0 and time_i != t[i]:
                problems.append(f"rep {rep}: censored row {i} moved from {t[i]} to {time_i}")
            if status_i == 1 and (i == max_idx or time_i >= t[i]):
                problems.append(f"rep {rep}: censored row {i} became an event at {time_i}")

    # Cox score against a finite difference of the partial log likelihood
    study = synth_study(41, n=60)
    beta, step = 0.3, 1e-5
    numeric = (
        cox_partial_loglik(study, beta + step) - cox_partial_loglik(study, beta - step)
    ) / (2.0 * step)
    analytic = cox_score(study, beta)
    if abs(numeric - analytic) > 1e-6:
        problems.append(f"Cox score {analytic!r} vs finite difference {numeric!r}")

    # fixed seed gives identical results no matter how iterations are split
    record = own_reference_record(synth_study(43, n=60), "parallel")
    runs = []
    for workers in (1, 4):
        config = BenchmarkConfig(
            [record],
            ["parametric", "kde", "case", "condboot"],
            iterations=8,
            base_seed=5,
            workers=workers,
        )
        runs.append(run_benchmark(config))
    if runs[0].diffs.values != runs[1].diffs.values:
        problems.append("parallel execution changed the metric series")
    if runs[0].skipped or runs[1].skipped:
        problems.append(f"unexpected skips: {runs[0].skipped} {runs[1].skipped}")

    verdict(7, "cross-cutting invariants", started, 120.0, problems)
