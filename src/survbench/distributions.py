"""Parametric families, maximum-likelihood fitting and goodness-of-fit ranking.

Every family uses one fixed parameterization, written out in the registry
below, so fitted parameter vectors are portable between runs and reports.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy

MIXTURE_WEIBULL_WEIGHT = 0.2
MIXTURE_NORMAL_WEIGHT = 0.8

MAX_FIT_ITERATIONS = 500
FIT_TOLERANCE = 1e-8

_EULER_GAMMA = 0.5772156649015329


class DomainError(ValueError):
    """Parameters or evaluation points outside the family's domain."""


class SupportError(ValueError):
    """Sample values outside the support of the requested family."""


class FitFailureError(RuntimeError):
    """Maximum-likelihood estimation could not produce usable parameters."""


class SelectionError(RuntimeError):
    """No candidate family could be fitted to the sample."""


@dataclass(frozen=True)
class ParametricFamily:
    """A family identifier plus a concrete parameter vector."""

    family_id: str
    parameters: tuple[float, ...]

    def __post_init__(self) -> None:
        spec = _FAMILIES.get(self.family_id)
        if spec is None:
            raise DomainError(f"unknown family {self.family_id!r}")
        object.__setattr__(self, "parameters", tuple(float(p) for p in self.parameters))
        if len(self.parameters) != len(spec.param_names):
            raise DomainError(
                f"{self.family_id} takes {len(spec.param_names)} parameters "
                f"({', '.join(spec.param_names)}), got {len(self.parameters)}"
            )
        for name, value, must_be_positive in zip(spec.param_names, self.parameters, spec.positive):
            if not math.isfinite(value):
                raise DomainError(f"{self.family_id} parameter {name} must be finite, got {value}")
            if must_be_positive and value <= 0.0:
                raise DomainError(f"{self.family_id} parameter {name} must be > 0, got {value}")

    @property
    def positive_support(self) -> bool:
        return _FAMILIES[self.family_id].positive_support


@dataclass
class FittedDistribution:
    """One fitted candidate with its goodness-of-fit scores."""

    family: ParametricFamily
    log_likelihood: float
    cvm_statistic: float
    cvm_p_value: float
    converged: bool

    def to_json(self) -> dict:
        return {
            "family": self.family.family_id,
            "parameters": list(self.family.parameters),
            "log_likelihood": self.log_likelihood,
            "cvm_statistic": self.cvm_statistic,
            "cvm_p_value": self.cvm_p_value,
            "converged": self.converged,
        }


# ---------------------------------------------------------------------------
# per-family building blocks; the registry below wires them together


def _norm_logpdf(x, mean, sd):
    z = (x - mean) / sd
    return -0.5 * z * z - math.log(sd) - 0.5 * math.log(2.0 * math.pi)


def _weibull_logpdf(x, shape, scale):
    z = x / scale
    return math.log(shape / scale) + (shape - 1.0) * np.log(z) - z**shape


def _weibull_quantile(q, shape, scale):
    return scale * (-np.log1p(-q)) ** (1.0 / shape)


def _log_logistic_logpdf(x, shape, scale):
    z = np.log(x / scale) * shape
    return math.log(shape / scale) + (shape - 1.0) * np.log(x / scale) - 2.0 * np.logaddexp(0.0, z)


def _cauchy_logpdf(x, location, scale):
    z = (x - location) / scale
    return -np.log(math.pi * scale * (1.0 + z * z))


def _mixture_logpdf(x, wshape, wscale, nmean, nsd):
    x = np.asarray(x, dtype=float)
    norm_part = math.log(MIXTURE_NORMAL_WEIGHT) + _norm_logpdf(x, nmean, nsd)
    pos = x > 0.0
    if pos.all():  # the Weibull part is defined everywhere, so there is nothing to mask
        weib_part = math.log(MIXTURE_WEIBULL_WEIGHT) + _weibull_logpdf(x, wshape, wscale)
    else:
        weib_part = np.where(
            pos,
            math.log(MIXTURE_WEIBULL_WEIGHT) + _weibull_logpdf(np.where(pos, x, 1.0), wshape, wscale),
            -np.inf,
        )
    return np.logaddexp(weib_part, norm_part)


def _mixture_cdf(x, wshape, wscale, nmean, nsd):
    x = np.asarray(x, dtype=float)
    weib = np.where(x > 0.0, -np.expm1(-((np.maximum(x, 0.0) / wscale) ** wshape)), 0.0)
    return MIXTURE_WEIBULL_WEIGHT * weib + MIXTURE_NORMAL_WEIGHT * scipy.special.ndtr((x - nmean) / nsd)


def _ieee_div(a: float, b: float) -> float:
    """`a / b` with the IEEE 754 result that C gives where Python raises ZeroDivisionError."""
    if b != 0.0:
        return a / b
    if a == 0.0 or math.isnan(a):
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _brentq(f: Callable[[float], float], a: float, b: float, xtol: float = 2e-12) -> float:
    """A root of `f` in [a, b] by the steps of scipy 1.17.1's `optimize.brentq` (Brent 1973, ch. 4).

    A port of scipy's brentq.c on Python floats, with its relative tolerance
    (4 eps), its 100-iteration cap and IEEE division. Raises ValueError when
    f(a) and f(b) have the same sign or `f` returns NaN, and RuntimeError
    when the cap is reached.
    """
    rtol = 4.0 * math.ulp(1.0)

    def evaluate(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    def negative(v: float) -> bool:  # C's signbit
        return math.copysign(1.0, v) < 0.0

    xpre, xcur = float(a), float(b)
    fpre, fcur = evaluate(xpre), evaluate(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # the end with the smaller |f| becomes xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.nan  # a bisection unless interpolation proposes a step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = _ieee_div(-fcur * (xcur - xpre), fcur - fpre)
            else:  # extrapolate
                dpre = _ieee_div(fpre - fcur, xpre - xcur)
                dblk = _ieee_div(fblk - fcur, xblk - xcur)
                stry = _ieee_div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
        limit = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta  # C's MIN
        if 2 * abs(stry) < limit:  # good short step
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = evaluate(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


def _mixture_quantile_scalar(p: float, params: tuple[float, ...]) -> float:
    wshape, wscale, nmean, nsd = params
    lo = min(nmean + nsd * scipy.special.ndtri(p), 0.0) - 1.0
    hi = max(nmean + nsd * scipy.special.ndtri(p), wscale * (-math.log1p(-p)) ** (1.0 / wshape)) + 1.0
    while _mixture_cdf(lo, *params) > p:
        lo -= 2.0 * (hi - lo)
    while _mixture_cdf(hi, *params) < p:
        hi += 2.0 * (hi - lo)
    return _brentq(lambda t: float(_mixture_cdf(t, *params) - p), lo, hi, xtol=1e-12)


def _mixture_draw(gen: np.random.Generator, n: int, wshape, wscale, nmean, nsd) -> np.ndarray:
    pick_weibull = gen.random(n) < MIXTURE_WEIBULL_WEIGHT
    out = np.empty(n, dtype=float)
    n_weib = int(np.count_nonzero(pick_weibull))
    out[pick_weibull] = _weibull_quantile(gen.random(n_weib), wshape, wscale)
    out[~pick_weibull] = nmean + nsd * gen.standard_normal(n - n_weib)
    return out


def _weibull_moment_start(x: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(x))
    sd = float(np.std(x))
    if sd == 0.0 or mean <= 0.0:
        return 1.0, max(mean, 1e-6)
    shape = float(np.clip((sd / mean) ** -1.086, 0.05, 50.0))
    scale = mean / math.gamma(1.0 + 1.0 / shape)
    return shape, max(scale, 1e-12)


def _moments(x: np.ndarray) -> tuple[float, float]:
    """Mean and variance; a variance that underflows to 0 leaves no moment start."""
    mean, var = float(np.mean(x)), float(np.var(x))
    if var == 0.0:
        raise FitFailureError("sample variance underflows to 0")
    return mean, var


def _gamma_start(x: np.ndarray) -> tuple[float, float]:
    mean, var = _moments(x)
    shape = float(np.clip(mean * mean / var, 1e-3, 1e6))
    return shape, shape / mean


def _inverse_gamma_start(x: np.ndarray) -> tuple[float, float]:
    mean, var = _moments(x)
    shape = mean * mean / var + 2.0
    return shape, mean * (shape - 1.0)


def _log_logistic_start(x: np.ndarray) -> tuple[float, float]:
    lx = np.log(x)
    spread = max(float(np.std(lx)), 1e-9)
    return math.pi / (math.sqrt(3.0) * spread), math.exp(float(np.mean(lx)))


def _gompertz_start(x: np.ndarray) -> tuple[float, float]:
    m = float(np.quantile(x, 0.5))
    q = float(np.quantile(x, 0.9))
    ratio = math.log(10.0) / math.log(2.0)
    if m <= 0.0 or q <= m or q / m >= ratio:
        a = 1e-4 / max(float(np.mean(x)), 1e-12)
    else:
        def gap(a_try: float) -> float:
            return math.expm1(a_try * q) / math.expm1(a_try * m) - ratio

        lo, hi = 1e-8 / m, 50.0 / m
        a = _brentq(gap, lo, hi) if gap(lo) < 0.0 < gap(hi) else 1e-4 / m
    b = a * math.log(2.0) / math.expm1(a * m) if a * m < 700 else 1.0 / m
    return max(a, 1e-12), max(b, 1e-12)


def _normal_start(x: np.ndarray) -> tuple[float, float]:
    mean, var = float(np.mean(x)), float(np.var(x))
    return mean, max(math.sqrt(var), 1e-9)


def _cauchy_start(x: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(x))
    q1, q3 = np.quantile(x, [0.25, 0.75])
    spread = max(float(q3 - q1) / 2.0, 1e-9 * max(abs(mean), 1.0), 1e-12)
    return float(np.median(x)), spread


def _gumbel_start(x: np.ndarray) -> tuple[float, float]:
    mean, var = float(np.mean(x)), float(np.var(x))
    scale = max(math.sqrt(6.0 * var) / math.pi, 1e-9)
    return mean - _EULER_GAMMA * scale, scale


def _mixture_start(x: np.ndarray) -> tuple[float, float, float, float]:
    med = float(np.median(x))
    lower = x[x <= med]
    upper = x[x > med]
    if lower.size >= 2 and np.min(lower) > 0.0:
        wshape, wscale = _weibull_moment_start(lower)
    else:
        wshape, wscale = 1.0, max(abs(med), 1.0)
    if upper.size >= 2:
        nmean, nsd = float(np.mean(upper)), max(float(np.std(upper)), 1e-9)
    else:
        nmean, nsd = _normal_start(x)
    return wshape, wscale, nmean, nsd


def _fit_inverse_gamma(x: np.ndarray, start: tuple[float, float]) -> tuple[tuple[float, float], bool]:
    """Newton-Raphson on the profiled shape score from the moment start's shape, damped."""
    m1 = float(np.mean(1.0 / x))
    mlog = float(np.mean(np.log(x)))
    rhs = math.log(m1) + mlog
    if rhs <= 0.0:
        raise FitFailureError("inverse-gamma score has no root for this sample")

    def score(a: float) -> float:
        return math.log(a) - float(scipy.special.digamma(a)) - rhs

    alpha = start[0]
    g = score(alpha)
    converged = False
    for _ in range(MAX_FIT_ITERATIONS):
        slope = 1.0 / alpha - float(scipy.special.polygamma(1, alpha))
        step = g / slope
        new_alpha = alpha - step
        for _ in range(60):
            if new_alpha > 0.0 and abs(score(new_alpha)) <= abs(g):
                break
            step *= 0.5
            new_alpha = alpha - step
        moved = abs(new_alpha - alpha)
        alpha = new_alpha
        g = score(alpha)
        if abs(g) < 1e-13 or moved <= FIT_TOLERANCE * (1.0 + alpha):
            converged = True
            break
    return (alpha, alpha / m1), converged


# ---------------------------------------------------------------------------
# the family registry: everything family-specific is looked up here


@dataclass(frozen=True)
class _Family:
    """One family: parameters, density triple, start values, optional sampler and fitter.

    `logpdf`, `cdf` and `quantile` take the points, then the parameters unpacked.
    `draw(gen, n, *params)` replaces inverse-transform sampling and
    `fit(x, start) -> (params, converged)` replaces Nelder-Mead.
    """

    param_names: tuple[str, ...]
    positive: tuple[bool, ...]  # which parameters must be > 0
    positive_support: bool
    logpdf: Callable[..., np.ndarray]
    cdf: Callable[..., np.ndarray]
    quantile: Callable[..., np.ndarray]
    start: Callable[[np.ndarray], tuple[float, ...]]
    draw: Callable[..., np.ndarray] | None = None
    fit: Callable[[np.ndarray, tuple[float, ...]], tuple[tuple[float, ...], bool]] | None = None


_FAMILIES: dict[str, _Family] = {
    "exponential": _Family(
        ("rate",), (True,), True,
        logpdf=lambda x, rate: math.log(rate) - rate * x,
        cdf=lambda x, rate: -np.expm1(-rate * x),
        quantile=lambda q, rate: -np.log1p(-q) / rate,
        start=lambda x: (1.0 / float(np.mean(x)),),
        # 1/mean is the closed-form MLE, so there is nothing left to optimise
        fit=lambda x, start: (start, True),
    ),
    "weibull": _Family(
        ("shape", "scale"), (True, True), True,
        logpdf=_weibull_logpdf,
        cdf=lambda x, shape, scale: -np.expm1(-((x / scale) ** shape)),
        quantile=_weibull_quantile,
        start=_weibull_moment_start,
    ),
    "gamma": _Family(
        ("shape", "rate"), (True, True), True,
        logpdf=lambda x, a, b: a * math.log(b) + (a - 1.0) * np.log(x) - b * x - scipy.special.gammaln(a),
        cdf=lambda x, a, b: scipy.special.gammainc(a, b * x),
        quantile=lambda q, a, b: scipy.special.gammaincinv(a, q) / b,
        start=_gamma_start,
        draw=lambda gen, n, a, b: gen.gamma(a, 1.0, size=n) / b,
    ),
    "log-normal": _Family(
        ("meanlog", "sdlog"), (False, True), True,
        logpdf=lambda x, m, s: _norm_logpdf(np.log(x), m, s) - np.log(x),
        cdf=lambda x, m, s: scipy.special.ndtr((np.log(x) - m) / s),
        quantile=lambda q, m, s: np.exp(m + s * scipy.special.ndtri(q)),
        start=lambda x: (float(np.mean(np.log(x))), max(float(np.std(np.log(x))), 1e-9)),
        draw=lambda gen, n, m, s: np.exp(m + s * gen.standard_normal(n)),
    ),
    "inverse-gamma": _Family(
        ("shape", "rate"), (True, True), True,
        logpdf=lambda x, a, b: a * math.log(b) - scipy.special.gammaln(a) - (a + 1.0) * np.log(x) - b / x,
        cdf=lambda x, a, b: scipy.special.gammaincc(a, b / x),
        quantile=lambda q, a, b: b / scipy.special.gammainccinv(a, q),
        start=_inverse_gamma_start,
        draw=lambda gen, n, a, b: b / gen.gamma(a, 1.0, size=n),
        fit=_fit_inverse_gamma,
    ),
    "log-logistic": _Family(
        ("shape", "scale"), (True, True), True,
        logpdf=_log_logistic_logpdf,
        cdf=lambda x, shape, scale: (x / scale) ** shape / (1.0 + (x / scale) ** shape),
        quantile=lambda q, shape, scale: scale * (q / (1.0 - q)) ** (1.0 / shape),
        start=_log_logistic_start,
    ),
    "gompertz": _Family(
        ("shape", "rate"), (True, True), True,
        logpdf=lambda x, a, b: math.log(b) + a * x - (b / a) * np.expm1(a * x),
        cdf=lambda x, a, b: -np.expm1(-(b / a) * np.expm1(a * x)),
        quantile=lambda q, a, b: np.log1p(-(a / b) * np.log1p(-q)) / a,
        start=_gompertz_start,
    ),
    "normal": _Family(
        ("mean", "sd"), (False, True), False,
        logpdf=_norm_logpdf,
        cdf=lambda x, m, s: scipy.special.ndtr((x - m) / s),
        quantile=lambda q, m, s: m + s * scipy.special.ndtri(q),
        start=_normal_start,
        draw=lambda gen, n, m, s: m + s * gen.standard_normal(n),
    ),
    "cauchy": _Family(
        ("location", "scale"), (False, True), False,
        logpdf=_cauchy_logpdf,
        cdf=lambda x, loc, scale: 0.5 + np.arctan((x - loc) / scale) / math.pi,
        quantile=lambda q, loc, scale: loc + scale * np.tan(math.pi * (q - 0.5)),
        start=_cauchy_start,
    ),
    "gumbel": _Family(
        ("location", "scale"), (False, True), False,
        logpdf=lambda x, loc, scale: (
            -math.log(scale) - (x - loc) / scale - np.exp(-((x - loc) / scale))
        ),
        cdf=lambda x, loc, scale: np.exp(-np.exp(-(x - loc) / scale)),
        quantile=lambda q, loc, scale: loc - scale * np.log(-np.log(q)),
        start=_gumbel_start,
    ),
    "weibull-normal-mixture": _Family(
        ("weibull_shape", "weibull_scale", "normal_mean", "normal_sd"),
        (True, True, False, True),
        False,
        logpdf=_mixture_logpdf,
        cdf=_mixture_cdf,
        quantile=lambda q, *p: np.array(
            [_mixture_quantile_scalar(float(v), p) for v in np.atleast_1d(q)]
        ),
        start=_mixture_start,
        draw=_mixture_draw,
    ),
}

# registry order doubles as the tie-break rule when CvM p-values are equal
CANONICAL_FAMILIES = tuple(_FAMILIES)


# ---------------------------------------------------------------------------
# evaluation and sampling, dispatched through the registry


def _logpdf(family: ParametricFamily, x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _FAMILIES[family.family_id].logpdf(x, *family.parameters)


def _cdf(family: ParametricFamily, x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _FAMILIES[family.family_id].cdf(x, *family.parameters)


def _quantile(family: ParametricFamily, q: np.ndarray) -> np.ndarray:
    return _FAMILIES[family.family_id].quantile(q, *family.parameters)


def _check_support(family: ParametricFamily, x: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{what} must be finite for family {family.family_id}")
    if family.positive_support and np.any(x <= 0.0):
        raise SupportError(f"family {family.family_id} is supported on x > 0 only")


def sample(family: ParametricFamily, n: int, gen: np.random.Generator) -> np.ndarray:
    """Draw n values from the family, deterministically under a fixed generator state.

    Families without a direct sampler go through the inverse transform.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    draw = _FAMILIES[family.family_id].draw
    if draw is not None:
        return draw(gen, n, *family.parameters)
    return np.asarray(_quantile(family, gen.random(n)), dtype=float)


# ---------------------------------------------------------------------------
# Cramer-von Mises one-sample test


def _cvm_cdf_asymptotic(w2: float) -> float:
    """Limiting distribution of the one-sample statistic, evaluated at w2."""
    if w2 <= 0.0:
        return 0.0
    if w2 >= 12.0:
        return 1.0
    total = 0.0
    for k in range(200):
        y = 4.0 * k + 1.0
        q = y * y / (16.0 * w2)
        # kve = exp(q) * kv keeps the product stable when q is large
        term = (
            math.exp(scipy.special.gammaln(k + 0.5) - scipy.special.gammaln(k + 1))
            / (math.pi**1.5 * math.sqrt(w2))
            * math.sqrt(y)
            * math.exp(-2.0 * q)
            * float(scipy.special.kve(0.25, q))
        )
        total += term
        if term < 1e-13:
            break
    return min(max(total, 0.0), 1.0)


def cvm_test(sample_values, family: ParametricFamily) -> tuple[float, float]:
    """One-sample Cramer-von Mises statistic and asymptotic p-value."""
    x = np.sort(np.asarray(sample_values, dtype=float))
    if x.size == 0:
        raise ValueError("cvm_test needs at least one observation")
    _check_support(family, x, "sample")
    n = x.size
    u = np.asarray(_cdf(family, x), dtype=float)
    i = np.arange(1, n + 1)
    w2 = 1.0 / (12.0 * n) + float(np.sum(((2.0 * i - 1.0) / (2.0 * n) - u) ** 2))
    p_value = 1.0 - _cvm_cdf_asymptotic(w2)
    return w2, min(max(p_value, 0.0), 1.0)


# ---------------------------------------------------------------------------
# maximum likelihood


def _loglik(family_id: str, params: tuple[float, ...], x: np.ndarray) -> float:
    try:
        fam = ParametricFamily(family_id, params)
    except DomainError:
        return -np.inf
    vals = _logpdf(fam, x)
    total = float(np.sum(vals))
    return total if math.isfinite(total) else -np.inf


class _EvaluationCap(Exception):
    """An evaluation past the cap; the Nelder-Mead iteration it falls in is dropped."""


def _nelder_mead(objective: Callable[[list[float]], float], y0: list[float]) -> tuple[list[float], bool]:
    """Minimise `objective` from `y0` with the steps of scipy 1.17.1's non-adaptive Nelder-Mead.

    The simplex, coefficients, vertex order (``np.argsort`` of the values,
    so ties break as scipy breaks them), stopping tests and caps are
    scipy's, computed on Python floats. Returns the best vertex and whether
    neither the iteration nor the evaluation cap was reached.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = len(y0)
    max_evaluations = 4 * MAX_FIT_ITERATIONS
    evaluations = 0

    def evaluate(y: list[float]) -> float:
        nonlocal evaluations
        if evaluations >= max_evaluations:
            raise _EvaluationCap
        evaluations += 1
        return objective(y)

    sim = [list(y0)]
    for k in range(n):
        y = list(y0)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _EvaluationCap:
        pass
    for _ in range(2):  # scipy sorts twice before the first iteration
        order = np.array(fsim).argsort().tolist()
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]

    iterations = 1
    while evaluations < max_evaluations and iterations < MAX_FIT_ITERATIONS:
        try:
            best = sim[0]
            if all(abs(v - b) <= FIT_TOLERANCE for y in sim[1:] for v, b in zip(y, best)) and all(
                abs(fsim[0] - f) <= FIT_TOLERANCE for f in fsim[1:]
            ):
                break
            xbar = best
            for y in sim[1:-1]:
                xbar = [c + v for c, v in zip(xbar, y)]
            xbar = [c / n for c in xbar]
            worst = sim[-1]
            xr = [(1 + rho) * c - rho * w for c, w in zip(xbar, worst)]
            fxr = evaluate(xr)
            if fxr < fsim[0]:
                xe = [(1 + rho * chi) * c - rho * chi * w for c, w in zip(xbar, worst)]
                fxe = evaluate(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = [(1 + psi * rho) * c - psi * rho * w for c, w in zip(xbar, worst)]
                    fxc = evaluate(xc)
                    keep = fxc <= fxr
                else:  # inside contraction
                    xc = [(1 - psi) * c + psi * w for c, w in zip(xbar, worst)]
                    fxc = evaluate(xc)
                    keep = fxc < fsim[-1]
                if keep:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = [b + sigma * (v - b) for b, v in zip(best, sim[j])]
                        fsim[j] = evaluate(sim[j])
            iterations += 1
        except _EvaluationCap:
            pass
        order = np.array(fsim).argsort().tolist()
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
    return sim[0], evaluations < max_evaluations and iterations < MAX_FIT_ITERATIONS


def _fit_nelder_mead(
    family_id: str, x: np.ndarray, start: tuple[float, ...]
) -> tuple[tuple[float, ...], bool]:
    spec = _FAMILIES[family_id]
    positive, logpdf = spec.positive, spec.logpdf

    def to_natural(y: list[float]) -> tuple[float, ...]:
        return tuple([math.exp(min(v, 700.0)) if pos else v for v, pos in zip(y, positive)])

    def objective(y: list[float]) -> float:
        params = to_natural(y)
        # the domain rule of ParametricFamily, without building one per evaluation
        if not all(math.isfinite(v) and (v > 0.0 or not pos) for v, pos in zip(params, positive)):
            return 1e300
        total = float(logpdf(x, *params).sum())
        return -total if math.isfinite(total) else 1e300

    y0 = [math.log(s) if pos else float(s) for s, pos in zip(start, positive)]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y, converged = _nelder_mead(objective, y0)
    return to_natural(y), converged


def fit_mle(family_id: str, sample_values) -> FittedDistribution:
    """Fit one family by maximum likelihood and score it with the CvM test."""
    spec = _FAMILIES.get(family_id)
    if spec is None:
        raise DomainError(f"unknown family {family_id!r}")
    x = np.asarray(sample_values, dtype=float)
    if x.size < 2:
        raise FitFailureError(f"{family_id}: need at least 2 observations, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample must be finite")
    if float(np.min(x)) == float(np.max(x)):
        raise FitFailureError(f"{family_id}: degenerate sample, all values equal")
    if spec.positive_support and float(np.min(x)) <= 0.0:
        raise SupportError(f"family {family_id} needs a strictly positive sample")

    start = spec.start(x)
    start_ll = _loglik(family_id, start, x)
    if not math.isfinite(start_ll):
        raise FitFailureError(f"{family_id}: likelihood not finite at the starting point")

    if spec.fit is not None:
        params, converged = spec.fit(x, start)
    else:
        params, converged = _fit_nelder_mead(family_id, x, start)

    ll = _loglik(family_id, params, x)
    if not math.isfinite(ll) or ll < start_ll:
        # never return something worse than the moment start
        params, ll, converged = start, start_ll, False
    family = ParametricFamily(family_id, params)
    statistic, p_value = cvm_test(x, family)
    return FittedDistribution(family, ll, statistic, p_value, converged)


def fit_candidates(sample_values) -> tuple[list[FittedDistribution], dict[str, str]]:
    """Fit every canonical family; returns successes plus skip reasons."""
    fits: list[FittedDistribution] = []
    failures: dict[str, str] = {}
    for family_id in CANONICAL_FAMILIES:
        try:
            fits.append(fit_mle(family_id, sample_values))
        except (SupportError, FitFailureError) as exc:
            failures[family_id] = str(exc)
    return fits, failures


def select_distribution(sample_values) -> FittedDistribution:
    """Pick the candidate with the largest CvM p-value.

    Ties fall back to the canonical family order, so reruns on the same
    sample are reproducible.
    """
    x = np.asarray(sample_values, dtype=float)
    if x.size < 5:
        raise SelectionError(f"need at least 5 observations to select a family, got {x.size}")
    fits, failures = fit_candidates(x)
    if not fits:
        detail = "; ".join(f"{k}: {v}" for k, v in failures.items())
        raise SelectionError(f"no candidate family could be fitted ({detail})")
    best = fits[0]
    for fit in fits[1:]:
        if fit.cvm_p_value > best.cvm_p_value:
            best = fit
    return best
