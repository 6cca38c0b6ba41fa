"""Survival-curve reconstruction, simulation engines and benchmarks."""

from .core import (
    ArmData,
    KmCurve,
    KmStep,
    Observation,
    RandomStream,
    StudyDataset,
    StudyMetadata,
    km_estimate,
    load_dataset,
    load_metadata,
    median_survival,
    store_dataset,
    store_metadata,
)
from .distributions import (
    FittedDistribution,
    ParametricFamily,
    cdf,
    cvm_test,
    fit_candidates,
    fit_mle,
    pdf,
    quantile,
    sample,
    select_distribution,
)
from .engines import (
    ENGINE_KINDS,
    ArmModel,
    CensoringDistribution,
    KdeDensity,
    build_model,
    case_resample,
    censoring_km,
    conditional_bootstrap,
    kde_fit,
    kde_sample,
    simulate,
)
from .evaluate import (
    CoxResult,
    EvaluationResult,
    LogrankResult,
    cox_hazard_ratio,
    evaluate_dataset,
    logrank_test,
    rmst,
    rmst_tau,
    rmstd,
    tie_ratio,
)
from .harness import (
    BenchmarkConfig,
    BenchmarkResult,
    MetricDiffs,
    RuntimeRecord,
    StudyRecord,
    SixNumberSummary,
    emit_reports,
    run_benchmark,
    runtime_stats,
    summarize,
)
from .reconstruct import (
    DigitizedArm,
    ReconstructionReport,
    load_digitized_arm,
    reconstruct_arm,
    reconstruct_study,
)

__version__ = "0.1.0"
