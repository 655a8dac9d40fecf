"""Statistical tests for funnel-plot asymmetry.

Four test families operate on one measure's per-study effect estimates
(an :class:`~funnelbias.model.EstimateSet`):

* Egger-style regression of the standardized effect t/SE on a precision
  coordinate; publication bias pushes the intercept above zero.
* Macaskill-style weighted regression of the raw effect on a sample-size
  coordinate; bias tilts the slope.
* Begg-Mazumdar rank correlation (Kendall's tau) between standardized
  centered effects and a dispersion measure.
* Duval-Tweedie trim and fill, which estimates the number of suppressed
  studies (k0) from the run/rank structure of effects centered on an
  iteratively re-estimated pooled effect, and tests k0 > 0 under a
  symmetric-signs null.

All effect measures are oriented so that larger values mean higher
accuracy, hence suppressed studies are assumed to sit on the left of
the funnel and every one-sided alternative points in a fixed direction
per family.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr, stdtr

from .errors import (
    AllTied,
    SingularDesign,
    TooFewStudies,
)
from .model import MIN_STUDIES, AsymmetryTestResult, EstimateSet, Sidedness

MAX_TRIM_ITERATIONS = 50


class PrecisionAxis(enum.Enum):
    """Funnel-plot y-axis choices; every test family keys its variants on them."""

    SE = "se"  # precision 1/SE
    N = "n"  # total sample size
    ESS = "ess"  # effective sample size
    INV_N = "inv_n"  # 1/N


class EggerWeighting(enum.Enum):
    UNWEIGHTED = "unweighted"
    INV_VARIANCE_FIXED = "ivfixed"
    INV_VARIANCE_RANDOM = "ivrandom"


class MacaskillWeighting(enum.Enum):
    INV_VARIANCE_FIXED = "ivfixed"
    ESS = "ess"
    PETERS = "peters"  # m1*m2/N mass weight


class TrimFillEstimator(enum.Enum):
    R = "r"  # run-based
    L = "l"  # rank-sum based


@dataclass(frozen=True, slots=True)
class RegressionFit:
    """A two-parameter weighted least-squares fit y = b0 + b1*x."""

    b0: float
    b1: float
    se_b0: float
    se_b1: float
    df: int


@dataclass(frozen=True, slots=True)
class TrimFillState:
    """Final state of the trim-and-fill iteration.

    ``centered`` and ``ranks`` are arrays over all k original studies;
    ranks are average ranks of the absolute centered effects and
    ``s_plus`` sums those of the positive centered effects.
    ``r_estimate`` is gamma_plus - 1 before clamping (so it can be -1),
    ``k0`` the clamped integer actually used for trimming. From
    :func:`trim_fill_rows` every field gains a leading axis, one entry
    per row.
    """

    theta_hat: float
    centered: np.ndarray
    ranks: np.ndarray
    s_plus: float
    gamma_plus: int
    r_estimate: int
    l_estimate: float
    k0: int
    iterations: int
    converged: bool


class AxisRule(NamedTuple):
    """What a regression or rank test does on one funnel axis."""

    tag: str  # the axis's part of the test_id
    column: Callable[[EstimateSet], np.ndarray]  # the predictor or dispersion
    weighting: enum.Enum | None = None  # the weighting used when none is given
    alternative: str = "greater"  # one-sided alternative for the tested coefficient


class AxisTable(dict):
    """A test family's rules by :class:`PrecisionAxis`; an axis it lacks raises ``ValueError``."""

    def __init__(self, family: str, rules: dict):
        super().__init__(rules)
        self.family = family

    def __missing__(self, axis):
        accepted = ", ".join(a.name for a in self)
        raise ValueError(f"{self.family} axis must be one of {accepted}, got {axis}")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _require_studies(estimates: EstimateSet) -> None:
    if len(estimates) < MIN_STUDIES:
        raise TooFewStudies(f"need at least {MIN_STUDIES} estimates, got {len(estimates)}")


def weighted_linear_fit(
    x: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None
) -> RegressionFit:
    """Weighted least squares for y = b0 + b1*x with known relative weights.

    The closed-form two-parameter fit about the weighted means: b1 =
    Sxy / Sxx and b0 = y_bar - b1 * x_bar, with Sxx the weighted spread
    of the predictor. Coefficient standard errors use the usual scaled
    covariance sigma2 * (X'WX)^-1 with sigma2 = weighted RSS / (k - 2).
    A predictor whose weighted spread vanishes against its weighted
    second moment (constant, or swamped by one study's weight) raises
    :class:`SingularDesign`.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = len(x)
    if k < MIN_STUDIES:
        raise TooFewStudies(f"regression needs k >= {MIN_STUDIES}, got {k}")
    w = np.ones(k) if weights is None else np.asarray(weights, dtype=float)
    sw = np.sum(w)
    x_bar = np.sum(w * x) / sw
    y_bar = np.sum(w * y) / sw
    dx = x - x_bar
    sxx = np.sum(w * dx * dx)
    # Below this share of sum(w x^2), X'WX keeps fewer than four digits.
    if not sxx > 1e-12 * np.sum(w * x * x):
        raise SingularDesign("predictor has no weighted spread across studies")
    b1 = np.sum(w * dx * (y - y_bar)) / sxx
    b0 = y_bar - b1 * x_bar
    resid = y - b0 - b1 * x
    rss = float(np.sum(w * resid * resid))
    # An exact fit leaves only rounding noise in the residuals; treat it
    # as zero so coefficient SEs do not become noise ratios.
    scale = max(1.0, float(np.max(np.sqrt(w) * np.abs(y))))
    if rss < (1e-10 * scale) ** 2 * k:
        rss = 0.0
    sigma2 = rss / (k - 2)
    return RegressionFit(
        b0=float(b0),
        b1=float(b1),
        se_b0=math.sqrt(sigma2 * (1.0 / sw + x_bar * x_bar / sxx)),
        se_b1=math.sqrt(sigma2 / sxx),
        df=k - 2,
    )


def _coefficient_statistic(coef: float, se_coef: float, scale: float) -> float:
    """t statistic for a coefficient, defined under perfect fits too.

    With zero residual variance the SE collapses to 0; a coefficient that
    is itself (numerically) zero then carries no evidence in either
    direction, so the statistic is 0, otherwise it is +/- infinity.
    """
    if se_coef > 0.0:
        return coef / se_coef
    if abs(coef) <= 1e-12 * max(1.0, scale):
        return 0.0
    return math.copysign(math.inf, coef)


def _t_pvalue(statistic: float, df: int, sidedness: Sidedness, direction: str) -> float:
    if sidedness is Sidedness.TWO_SIDED:
        return float(2.0 * stdtr(df, -abs(statistic)))
    if direction == "greater":
        return float(stdtr(df, -statistic))
    return float(stdtr(df, statistic))


def _finish(
    test_id: str,
    statistic: float,
    p_value: float,
    sidedness: Sidedness,
    alpha: float,
    **extra,
) -> AsymmetryTestResult:
    p_value = min(max(p_value, 0.0), 1.0)
    return AsymmetryTestResult(
        test_id=test_id,
        statistic=statistic,
        p_value=p_value,
        sidedness=sidedness,
        alpha=alpha,
        reject=p_value <= alpha,
        **extra,
    )


# ---------------------------------------------------------------------------
# pooled effects
# ---------------------------------------------------------------------------


def pool_fixed_effects(estimates: EstimateSet) -> float:
    """Inverse-variance weighted mean of the estimates."""
    if not len(estimates):
        raise TooFewStudies("cannot pool an empty set of estimates")
    return _pool_fixed(estimates.value, estimates.se**2)


def pool_random_effects(estimates: EstimateSet) -> tuple[float, float]:
    """DerSimonian-Laird pooled effect and between-study variance tau2."""
    if len(estimates) < 2:
        raise TooFewStudies(f"random-effects pooling needs k >= 2, got {len(estimates)}")
    theta, tau2 = _pool_dersimonian_laird(estimates.value, estimates.se**2)
    return float(theta), float(tau2)


def _pool_fixed(values: np.ndarray, variances: np.ndarray) -> float:
    w = 1.0 / variances
    return float(np.sum(w * values) / np.sum(w))


def _pool_dersimonian_laird(values: np.ndarray, variances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pooled effect and tau2 of each row, reducing along the last axis."""
    k = values.shape[-1]
    if k == 1:
        return values[..., 0], np.zeros(values.shape[:-1])
    w = 1.0 / variances
    sum_w = w.sum(axis=-1)
    t_bar = (w * values).sum(axis=-1) / sum_w
    q = (w * (values - t_bar[..., None]) ** 2).sum(axis=-1)
    denom = sum_w - (w**2).sum(axis=-1) / sum_w
    excess = (q - (k - 1)) / np.where(denom > 0, denom, np.inf)  # no excess without a positive denom
    tau2 = np.where(excess > 0.0, excess, 0.0)
    w_star = 1.0 / (variances + tau2[..., None])
    return (w_star * values).sum(axis=-1) / w_star.sum(axis=-1), tau2


# ---------------------------------------------------------------------------
# Egger and Macaskill regressions
# ---------------------------------------------------------------------------


EGGER_AXES = AxisTable("Egger", {
    PrecisionAxis.SE: AxisRule("se", lambda e: 1.0 / e.se, EggerWeighting.UNWEIGHTED),
    PrecisionAxis.N: AxisRule("n", lambda e: e.n, EggerWeighting.UNWEIGHTED),
})

MACASKILL_AXES = AxisTable("Macaskill", {
    PrecisionAxis.N: AxisRule("n", lambda e: e.n, MacaskillWeighting.INV_VARIANCE_FIXED, "less"),
    PrecisionAxis.ESS: AxisRule("inv_sqrt_ess", lambda e: 1.0 / np.sqrt(e.ess), MacaskillWeighting.ESS),
    PrecisionAxis.INV_N: AxisRule("inv_n", lambda e: 1.0 / e.n, MacaskillWeighting.PETERS),
})


def egger_test(
    estimates: EstimateSet,
    axis: PrecisionAxis = PrecisionAxis.SE,
    weighting: EggerWeighting | None = None,
    sidedness: Sidedness = Sidedness.ONE_SIDED,
    alpha: float = 0.1,
) -> AsymmetryTestResult:
    """Regress t/SE on precision (1/SE) or on N and test the intercept.

    The one-sided alternative is b0 > 0: under bias the small imprecise
    studies drag the standardized effects up near the origin.
    """
    _require_studies(estimates)
    rule = EGGER_AXES[axis]
    weighting = rule.weighting if weighting is None else weighting
    values, ses = estimates.value, estimates.se
    response = values / ses
    if weighting is EggerWeighting.UNWEIGHTED:
        weights = None
    elif weighting is EggerWeighting.INV_VARIANCE_FIXED:
        weights = 1.0 / ses**2
    else:
        _, tau2 = _pool_dersimonian_laird(values, ses**2)
        weights = 1.0 / (ses**2 + tau2)
    fit = weighted_linear_fit(rule.column(estimates), response, weights)
    statistic = _coefficient_statistic(fit.b0, fit.se_b0, float(np.max(np.abs(response))))
    p = _t_pvalue(statistic, fit.df, sidedness, rule.alternative)
    test_id = f"E({estimates.measure.value},{rule.tag},{weighting.value})"
    return _finish(test_id, statistic, p, sidedness, alpha)


def macaskill_test(
    estimates: EstimateSet,
    axis: PrecisionAxis = PrecisionAxis.N,
    weighting: MacaskillWeighting | None = None,
    sidedness: Sidedness = Sidedness.ONE_SIDED,
    alpha: float = 0.1,
) -> AsymmetryTestResult:
    """Weighted regression of the raw effect on a size coordinate; tests b1.

    The axis picks the predictor, the one-sided alternative and the
    default weighting from ``MACASKILL_AXES``: those of Macaskill et al.
    (2001) on N (b1 < 0 under bias), Deeks et al. (2005) on 1/sqrt(ESS)
    and Peters et al. (2006) on 1/N (b1 > 0).
    """
    _require_studies(estimates)
    rule = MACASKILL_AXES[axis]
    weighting = rule.weighting if weighting is None else weighting
    values = estimates.value
    if weighting is MacaskillWeighting.INV_VARIANCE_FIXED:
        weights = 1.0 / estimates.se**2
    elif weighting is MacaskillWeighting.ESS:
        weights = estimates.ess
    else:
        weights = estimates.m1 * estimates.m2 / estimates.n
    fit = weighted_linear_fit(rule.column(estimates), values, weights)
    statistic = _coefficient_statistic(fit.b1, fit.se_b1, float(np.max(np.abs(values))))
    p = _t_pvalue(statistic, fit.df, sidedness, rule.alternative)
    test_id = f"M({estimates.measure.value},{rule.tag},{weighting.value})"
    return _finish(test_id, statistic, p, sidedness, alpha)


# ---------------------------------------------------------------------------
# Kendall's tau and Begg's rank correlation
# ---------------------------------------------------------------------------

EXACT_KENDALL_MAX_K = 7


@lru_cache(maxsize=None)
def _kendall_s_tail_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Null distribution of S = C - D for untied samples of size k.

    Returns (support, P(S >= support)) computed from the Mahonian
    (permutation inversion) counts: S = k(k-1)/2 - 2 * inversions.
    """
    counts = np.array([1], dtype=float)  # inversion counts, start with 0 inversions
    for i in range(2, k + 1):
        kernel = np.ones(i)
        counts = np.convolve(counts, kernel)
    n0 = k * (k - 1) // 2
    support = n0 - 2 * np.arange(len(counts))  # S for 0, 1, ... inversions
    probs = counts / counts.sum()
    tail = np.cumsum(probs)  # P(S >= support[j]) since support is decreasing
    return support, tail


def _exact_kendall_tail(k: int, s: int) -> float:
    """P(S_perm >= s) under the untied null for sample size k."""
    support, tail = _kendall_s_tail_table(k)
    idx = np.nonzero(support >= s)[0]
    if len(idx) == 0:
        return 0.0
    return float(tail[idx[-1]])


def _tie_stats(values: np.ndarray) -> tuple[float, float, float]:
    _, counts = np.unique(values, return_counts=True)
    t = counts.astype(float)
    return (
        float(np.sum(t * (t - 1) / 2)),
        float(np.sum(t * (t - 1) * (2 * t + 5))),
        float(np.sum(t * (t - 1) * (t - 2))),
    )


def _kendall_tau(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Kendall's tau-b, P(S >= s) for the alternative tau > 0, and the two-sided p."""
    k = len(xs)
    iu = np.triu_indices(k, 1)
    dx = np.sign(xs[:, None] - xs[None, :])[iu]
    dy = np.sign(ys[:, None] - ys[None, :])[iu]
    s = float(np.sum(dx * dy))
    n0 = k * (k - 1) / 2
    tx_pairs, tx_var, tx_triple = _tie_stats(xs)
    ty_pairs, ty_var, ty_triple = _tie_stats(ys)
    denom = math.sqrt((n0 - tx_pairs) * (n0 - ty_pairs))
    if denom == 0.0:
        # one vector is constant: every pair ties, no evidence either way
        return 0.0, 0.5, 1.0
    tau = s / denom

    no_ties = tx_pairs == 0.0 and ty_pairs == 0.0
    if no_ties and k <= EXACT_KENDALL_MAX_K:
        p_greater = _exact_kendall_tail(k, int(round(s)))
        p_less = _exact_kendall_tail(k, int(round(-s)))  # symmetric null
    else:
        var_s = (
            (k * (k - 1) * (2 * k + 5) - tx_var - ty_var) / 18.0
            + tx_pairs * ty_pairs / n0
            + tx_triple * ty_triple / (9.0 * k * (k - 1) * (k - 2))
        )
        sd = math.sqrt(var_s) if var_s > 0 else 0.0
        if sd == 0.0:
            # All pair comparisons tied away; no information either way.
            return tau, 0.5, 1.0
        # continuity correction: S moves on a lattice of spacing 2 when untied,
        # so each tail threshold shifts by half a step toward the center
        p_greater = float(ndtr(-((s - 1.0) / sd)))
        p_less = float(ndtr((s + 1.0) / sd))
    return tau, p_greater, min(1.0, 2.0 * min(p_greater, p_less))


BEGG_AXES = AxisTable("Begg", {
    PrecisionAxis.SE: AxisRule("var", lambda e: e.se**2),
    PrecisionAxis.N: AxisRule("inv_n", lambda e: 1.0 / e.n),
    PrecisionAxis.ESS: AxisRule("inv_ess", lambda e: 1.0 / e.ess),
    PrecisionAxis.INV_N: AxisRule("inv_n", lambda e: 1.0 / e.n),  # the same test as axis N
})


def begg_test(
    estimates: EstimateSet,
    axis: PrecisionAxis = PrecisionAxis.SE,
    sidedness: Sidedness = Sidedness.ONE_SIDED,
    alpha: float = 0.1,
) -> AsymmetryTestResult:
    """Rank correlation between standardized centered effects and dispersion.

    Effects are centered on the fixed-effects pooled mean and divided by
    sqrt(Var_i - Var(t_bar)), the variance of the centered value
    (dividing by SE_i alone is miscalibrated under the null). The axis
    picks the dispersion: the variance for SE, 1/N for N and inv-N, 1/ESS
    for ESS. Each grows as studies shrink, so the one-sided alternative
    is tau > 0 throughout.
    """
    _require_studies(estimates)
    values, ses = estimates.value, estimates.se
    variances = ses**2
    t_bar = _pool_fixed(values, variances)
    se_star = np.sqrt(variances - 1.0 / np.sum(1.0 / variances))
    if np.any(se_star <= 0.0):
        raise AllTied("centered-effect variance is not positive for every study")
    t_star = (values - t_bar) / se_star
    rule = BEGG_AXES[axis]
    disp = rule.column(estimates)
    if np.ptp(disp) == 0.0:
        raise AllTied("dispersion values are all identical")
    tau, p_greater, p_two = _kendall_tau(t_star, disp)
    p = p_two if sidedness is Sidedness.TWO_SIDED else p_greater
    test_id = f"B({estimates.measure.value},{rule.tag})"
    return _finish(test_id, tau, p, sidedness, alpha)


# ---------------------------------------------------------------------------
# trim and fill
# ---------------------------------------------------------------------------


def _gamma_plus(centered: np.ndarray) -> np.ndarray:
    """Length of each row's run of positive centered effects holding the top |centered| ranks.

    The run is every value whose magnitude exceeds that of the largest
    non-positive one: a tie group mixing positive and non-positive
    values interrupts it before any of its members are counted, which
    keeps the run statistic conservative. No sort is needed.
    """
    magnitude = np.abs(centered)
    blocking = np.where(centered <= 0, magnitude, -1.0).max(axis=-1)
    return np.count_nonzero(magnitude > blocking[:, None], axis=-1)


def _center_and_rank(values: np.ndarray, theta: np.ndarray):
    """Centered effects, average ranks of |centered|, gamma_plus, S+ and L of each row.

    ``values`` is (rows, k), ``theta`` has one pooled effect per row.
    """
    rows, k = values.shape
    centered = values - theta[:, None]
    magnitude = np.abs(centered)
    row = np.arange(rows)[:, None]
    order = magnitude.argsort(axis=-1, kind="stable")
    ascending = magnitude[row, order]
    position = np.arange(k)
    rank = position + 1.0
    ties = ascending[:, 1:] == ascending[:, :-1]
    if ties.any():
        # every member of a tie group gets the mean of its first and last
        # sorted positions, found by running maxima forward and backward
        starts = np.zeros((rows, k), dtype=np.intp)
        starts[:, 1:] = np.where(ties, 0, position[1:])
        ends = np.full((rows, k), k - 1, dtype=np.intp)
        ends[:, :-1] = np.where(ties, k - 1, position[:-1])
        first = np.maximum.accumulate(starts, axis=-1)
        last = np.minimum.accumulate(ends[:, ::-1], axis=-1)[:, ::-1]
        rank = 0.5 * (first + last) + 1.0
    ranks = np.empty((rows, k))
    ranks[row, order] = rank
    s_plus = np.where(centered > 0, ranks, 0.0).sum(axis=-1)  # sums of halves: exact in any order
    l_estimate = (4.0 * s_plus - k * (k + 1)) / (2.0 * k - 1.0)
    return centered, ranks, _gamma_plus(centered), s_plus, l_estimate


@lru_cache(maxsize=None)
def _signed_rank_probs(k: int) -> np.ndarray:
    """P(S+ = s) by s, halved at each step: the bits of (subset count) / 2**k, and no overflow past k = 1023."""
    probs = np.zeros(k * (k + 1) // 2 + 1)
    probs[0] = 1.0
    shifted = np.empty_like(probs)  # one buffer: a fresh copy per step faults in new pages
    for r in range(1, k + 1):
        m = r * (r - 1) // 2 + 1  # before this step only sums up to r(r-1)/2 are reachable
        probs[:m] *= 0.5
        shifted[:m] = probs[:m]
        probs[r:r + m] += shifted[:m]
    return probs


def _signed_rank_tail(k: int, s_plus: float) -> float:
    """P(S+ >= s_plus) when every sign is an independent fair coin."""
    probs = _signed_rank_probs(k)
    threshold = math.ceil(s_plus - 1e-9)
    if threshold <= 0:
        return 1.0
    return float(probs[threshold:].sum())  # 0.0 beyond the largest sum


def _l_pvalue(k: int, ranks: np.ndarray, s_plus: float) -> float:
    """One-sided p for the L estimator under the symmetric-signs null.

    Exact via the signed-rank-sum distribution when the ranks are the
    untied integers 1..k; otherwise a normal approximation with
    continuity correction on the rank-sum scale.
    """
    untied = np.array_equal(np.sort(ranks), np.arange(1, k + 1, dtype=float))
    if untied:
        return _signed_rank_tail(k, s_plus)
    mean = k * (k + 1) / 4.0
    sd = math.sqrt(k * (k + 1) * (2 * k + 1) / 24.0)
    return float(ndtr(-((s_plus - 0.5 - mean) / sd)))


# Each axis's pooled effect of each row, reducing (values, variances, sample sizes) along the last axis.
TRIM_FILL_AXES = AxisTable("trim and fill", {
    PrecisionAxis.SE: lambda values, variances, ns: _pool_dersimonian_laird(values, variances)[0],
    PrecisionAxis.N: lambda values, variances, ns: (ns * values).sum(axis=-1) / ns.sum(axis=-1),
})


def trim_fill_rows(
    values: np.ndarray,
    variances: np.ndarray,
    ns: np.ndarray,
    estimator: TrimFillEstimator,
    axis: PrecisionAxis = PrecisionAxis.SE,
) -> TrimFillState:
    """Run the trim-and-fill iteration on every row of (rows, k) arrays.

    Each row is one dataset's usable studies; the rows iterate
    independently and the result is a ``TrimFillState`` whose fields
    gain a leading row axis. A pass pools each active row's kept studies
    (its k - k0 smallest effects), centers all k values on that pooled
    effect and re-estimates k0; a row stops when k0 repeats or after
    ``MAX_TRIM_ITERATIONS`` passes. Rows with the same kept count m pool
    together over the first m of their sorted values, so every sum is
    the one a single row reduces, and each row's numbers are those it
    would get alone. Only the L estimator ranks within a pass; under R
    the final ranks, S+ and L are computed once, after the last pass.
    """
    rows, k = values.shape
    pool = TRIM_FILL_AXES[axis]
    row = np.arange(rows)[:, None]
    order = values.argsort(axis=-1, kind="stable")  # ascending; trim from the top
    ascending = (values[row, order], variances[row, order], ns[row, order])
    theta = np.empty(rows)
    k0 = np.zeros(rows, dtype=np.int64)
    iterations = np.zeros(rows, dtype=np.int64)
    converged = np.zeros(rows, dtype=bool)
    active = np.arange(rows)
    # each row's centered effects, ranks, gamma_plus, S+ and L from its last pass
    final = (
        np.empty((rows, k)), np.empty((rows, k)), np.empty(rows, np.intp), np.empty(rows), np.empty(rows)
    )
    for iteration in range(1, MAX_TRIM_ITERATIONS + 1):
        kept = k - k0[active]
        if len(active) == 1 or (kept == kept[0]).all():
            groups = [(active, int(kept[0]))]
        else:
            groups = [(active[kept == m], m) for m in np.unique(kept).tolist()]
        for chosen, m in groups:
            theta[chosen] = pool(*(column[chosen, :m] for column in ascending))
        if estimator is TrimFillEstimator.R:
            estimate = _gamma_plus(values[active] - theta[active, None]) - 1.0
        else:
            ranked = _center_and_rank(values[active], theta[active])
            for column, part in zip(final, ranked):
                column[active] = part
            estimate = ranked[4]
        k0_new = np.floor(estimate + 0.5).clip(0, k - 1).astype(np.int64)  # round half up
        iterations[active] = iteration
        done = k0_new == k0[active]
        converged[active[done]] = True
        k0[active] = k0_new
        active = active[~done]
        if not len(active):
            break
    if estimator is TrimFillEstimator.R:
        final = _center_and_rank(values, theta)
    centered, ranks, gamma_plus, s_plus, l_estimate = final
    return TrimFillState(
        theta_hat=theta,
        centered=centered,
        ranks=ranks,
        s_plus=s_plus,
        gamma_plus=gamma_plus,
        r_estimate=gamma_plus - 1,
        l_estimate=l_estimate,
        k0=k0,
        iterations=iterations,
        converged=converged,
    )


def trim_fill_iterate(
    values: np.ndarray,
    variances: np.ndarray,
    ns: np.ndarray,
    estimator: TrimFillEstimator,
    axis: PrecisionAxis = PrecisionAxis.SE,
) -> TrimFillState:
    """Run the trim-and-fill iteration on one dataset: a block of one row.

    Each pass pools the currently kept studies, centers all k original
    values on that pooled effect and re-estimates the number of
    suppressed studies k0; the k0 largest effects are trimmed for the
    next pass until k0 stabilizes (or the iteration cap is hit).
    """
    state = trim_fill_rows(values[None], variances[None], ns[None], estimator, axis)
    return TrimFillState(
        theta_hat=float(state.theta_hat[0]),
        centered=state.centered[0],
        ranks=state.ranks[0],
        s_plus=float(state.s_plus[0]),
        gamma_plus=int(state.gamma_plus[0]),
        r_estimate=int(state.r_estimate[0]),
        l_estimate=float(state.l_estimate[0]),
        k0=int(state.k0[0]),
        iterations=int(state.iterations[0]),
        converged=bool(state.converged[0]),
    )


def _trim_fill_p(
    estimator: TrimFillEstimator, gamma_plus: int, ranks: np.ndarray, s_plus: float
) -> float:
    """One-sided p of one dataset's final state, as ``trim_fill_test`` reports it."""
    if estimator is TrimFillEstimator.R:
        return 2.0 ** (-gamma_plus)
    return _l_pvalue(len(ranks), ranks, s_plus)


def trim_fill_rejections(state: TrimFillState, estimator: TrimFillEstimator, alpha: float) -> int:
    """How many rows of a ``trim_fill_rows`` state ``trim_fill_test`` would reject at ``alpha``."""
    return sum(
        min(_trim_fill_p(estimator, gamma_plus, ranks, s_plus), 1.0) <= alpha
        for gamma_plus, ranks, s_plus in zip(state.gamma_plus.tolist(), state.ranks, state.s_plus.tolist())
    )


def trim_fill_test(
    estimates: EstimateSet,
    axis: PrecisionAxis = PrecisionAxis.SE,
    estimator: TrimFillEstimator = TrimFillEstimator.R,
    alpha: float = 0.1,
) -> AsymmetryTestResult:
    """Trim-and-fill test for suppressed left-side studies (one-sided only).

    The run estimator R = gamma_plus - 1 has exact one-sided
    p = 2**(-gamma_plus) under the fair-signs null; the rank-sum
    estimator L is tested via the signed-rank-sum null distribution.
    The axis picks the pooling weights: inverse-variance (DerSimonian-
    Laird) for SE, plain sample-size weights for N.
    """
    _require_studies(estimates)
    state = trim_fill_iterate(estimates.value, estimates.se**2, estimates.n, estimator, axis)
    statistic = float(state.r_estimate) if estimator is TrimFillEstimator.R else state.l_estimate
    p = _trim_fill_p(estimator, state.gamma_plus, state.ranks, state.s_plus)
    test_id = f"T({estimates.measure.value},{axis.value},{estimator.value})"
    return _finish(
        test_id,
        statistic,
        p,
        Sidedness.ONE_SIDED,
        alpha,
        k0=state.k0,
        pooled_effect=state.theta_hat,
        converged=state.converged,
    )


# ---------------------------------------------------------------------------
# funnel coordinates
# ---------------------------------------------------------------------------


def funnel_points(estimates: EstimateSet, axis: PrecisionAxis) -> tuple[np.ndarray, np.ndarray]:
    """(effects, axis values) in study order, for external plotting."""
    if axis is PrecisionAxis.SE:
        return estimates.value, 1.0 / estimates.se
    if axis is PrecisionAxis.N:
        return estimates.value, estimates.n.astype(float)
    if axis is PrecisionAxis.ESS:
        return estimates.value, estimates.ess
    return estimates.value, 1.0 / estimates.n
