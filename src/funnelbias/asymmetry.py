"""Statistical tests for funnel-plot asymmetry.

Four test families operate on one measure's per-study effect estimates,
each through one kernel over the rows of an ``EstimateRows`` block; a
family's single-dataset test is its kernel on a block of one:

* Egger-style regression of the standardized effect t/SE on a precision
  coordinate; publication bias pushes the intercept above zero.
* Macaskill-style weighted regression of the raw effect on a sample-size
  coordinate; bias tilts the slope.
* Begg-Mazumdar rank correlation (Kendall's tau) between standardized
  centered effects and a dispersion measure.
* Duval-Tweedie trim and fill, which estimates the number of suppressed
  studies (k0) from the run/rank structure of effects centered on an
  iteratively re-estimated pooled effect, and tests k0 > 0 under a
  symmetric-signs null. Its kernel returns a ``TrimFillState`` of each
  row's last pass: pooled effect, k0, pass count, convergence,
  statistic and p.

All effect measures are oriented so that larger values mean higher
accuracy, hence suppressed studies are assumed to sit on the left of
the funnel and every one-sided alternative points in a fixed direction
per family.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr, stdtr

from .errors import (
    AllTied,
    SingularDesign,
    TooFewStudies,
)
from .model import MIN_STUDIES, AsymmetryTestResult, EstimateRows, EstimateSet, Sidedness

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
    """A weighted least-squares fit y = b0 + b1*x per row; the numbers of a ``singular`` row mean nothing."""

    b0: np.ndarray
    b1: np.ndarray
    se_b0: np.ndarray
    se_b1: np.ndarray
    df: int
    singular: np.ndarray


@dataclass(frozen=True, slots=True)
class TrimFillState:
    """Final state of the trim-and-fill iteration.

    ``theta_hat`` is the last pass's pooled effect and ``k0`` the clamped
    number of suppressed studies that pass estimated. ``statistic`` is
    the estimator's from the last pass (R = gamma_plus - 1, so it can be
    -1, or L) and ``p_value`` its one-sided p. From
    :func:`trim_fill_rows` every field is an array with one entry per row.
    """

    theta_hat: float
    k0: int
    iterations: int
    converged: bool
    statistic: float
    p_value: float


class Failure(enum.IntEnum):
    """Why a test cannot run on a row of a block; ``NONE`` where it ran."""

    NONE = 0
    SINGULAR_DESIGN = 1
    CENTERED_VARIANCE = 2
    ALL_TIED = 3


# The exception a single-dataset test raises for each failure reason.
FAILURE_ERRORS = {
    Failure.SINGULAR_DESIGN: (SingularDesign, "predictor has no weighted spread across studies"),
    Failure.CENTERED_VARIANCE: (AllTied, "centered-effect variance is not positive for every study"),
    Failure.ALL_TIED: (AllTied, "dispersion values are all identical"),
}


class RowResults(NamedTuple):
    """A test on each row of a block: statistic and p, which mean nothing where ``failure`` is set."""

    statistic: np.ndarray
    p_value: np.ndarray  # in [0, 1]; nan only where the arithmetic failed
    failure: np.ndarray  # a Failure per row


class AxisRule(NamedTuple):
    """What a regression or rank test does on one funnel axis."""

    tag: str  # the axis's part of the test_id
    column: Callable[[EstimateRows], np.ndarray]  # the predictor or dispersion
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
    """Weighted least squares for y = b0 + b1*x with known relative weights, along the last axis.

    The closed-form two-parameter fit about the weighted means: b1 =
    Sxy / Sxx and b0 = y_bar - b1 * x_bar, with Sxx the weighted spread
    of the predictor. Coefficient standard errors use the usual scaled
    covariance sigma2 * (X'WX)^-1 with sigma2 = weighted RSS / (k - 2).
    A row whose predictor has no weighted spread against its weighted
    second moment (constant, or swamped by one study's weight) is
    ``singular``. Every sum runs along one row, so each row's fit is
    the one it gets alone.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = x.shape[-1]
    if k < MIN_STUDIES:
        raise TooFewStudies(f"regression needs k >= {MIN_STUDIES}, got {k}")
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # singular rows divide by a zero spread
        sw = w.sum(axis=-1)
        x_bar = (w * x).sum(axis=-1) / sw
        y_bar = (w * y).sum(axis=-1) / sw
        dx = x - x_bar[..., None]
        sxx = (w * dx * dx).sum(axis=-1)
        # Below this share of sum(w x^2), X'WX keeps fewer than four digits.
        singular = ~(sxx > 1e-12 * (w * x * x).sum(axis=-1))
        b1 = (w * dx * (y - y_bar[..., None])).sum(axis=-1) / sxx
        b0 = y_bar - b1 * x_bar
        resid = y - b0[..., None] - b1[..., None] * x
        rss = (w * resid * resid).sum(axis=-1)
        # An exact fit leaves only rounding noise in the residuals; treat it
        # as zero so coefficient SEs do not become noise ratios.
        scale = np.fmax(1.0, (np.sqrt(w) * np.abs(y)).max(axis=-1))
        rss = np.where(rss < (1e-10 * scale) ** 2 * k, 0.0, rss)
        sigma2 = rss / (k - 2)
        return RegressionFit(
            b0=b0,
            b1=b1,
            se_b0=np.sqrt(sigma2 * (1.0 / sw + x_bar * x_bar / sxx)),
            se_b1=np.sqrt(sigma2 / sxx),
            df=k - 2,
            singular=singular,
        )


def _coefficient_statistic(coef: np.ndarray, se_coef: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """t statistic of each row's coefficient, defined under perfect fits too.

    With zero residual variance the SE collapses to 0; a coefficient that
    is itself (numerically) zero then carries no evidence in either
    direction, so the statistic is 0, otherwise it is +/- infinity.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = coef / se_coef
    flat = np.where(np.abs(coef) <= 1e-12 * np.fmax(1.0, scale), 0.0, np.copysign(np.inf, coef))
    return np.where(se_coef > 0.0, ratio, flat)


def _t_pvalue(statistic: np.ndarray, df: int, sidedness: Sidedness, direction: str) -> np.ndarray:
    if sidedness is Sidedness.TWO_SIDED:
        p = 2.0 * stdtr(df, -np.abs(statistic))
    else:
        p = stdtr(df, -statistic if direction == "greater" else statistic)
    return np.minimum(p, 1.0)


def _finish(test_id: str, results, sidedness: Sidedness, alpha: float, **extra) -> AsymmetryTestResult:
    """One dataset's result from its (statistic, p, failure), scalars or a block of one row.

    A failed row raises the exception its failure reason names.
    """
    statistic, p_value, failure = (np.ravel(column)[0].item() for column in results)
    if failure != Failure.NONE:
        error, message = FAILURE_ERRORS[Failure(failure)]
        raise error(message)
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
    return float(_pool_fixed(estimates.value, estimates.se**2))


def pool_random_effects(estimates: EstimateSet) -> tuple[float, float]:
    """DerSimonian-Laird pooled effect and between-study variance tau2."""
    if len(estimates) < 2:
        raise TooFewStudies(f"random-effects pooling needs k >= 2, got {len(estimates)}")
    theta, tau2 = _pool_dersimonian_laird(estimates.value, estimates.se**2)
    return float(theta), float(tau2)


def _pool_fixed(values: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Inverse-variance weighted mean of each row, reducing along the last axis."""
    w = 1.0 / variances
    return (w * values).sum(axis=-1) / w.sum(axis=-1)


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


def egger_rows(
    rows: EstimateRows,
    axis: PrecisionAxis = PrecisionAxis.SE,
    weighting: EggerWeighting | None = None,
    sidedness: Sidedness = Sidedness.ONE_SIDED,
) -> RowResults:
    """Egger's intercept test on every row of a block of at least ``MIN_STUDIES`` studies."""
    rule = EGGER_AXES[axis]
    weighting = rule.weighting if weighting is None else weighting
    values, ses = rows.value, rows.se
    response = values / ses
    if weighting is EggerWeighting.UNWEIGHTED:
        weights = None
    elif weighting is EggerWeighting.INV_VARIANCE_FIXED:
        weights = 1.0 / ses**2
    else:
        _, tau2 = _pool_dersimonian_laird(values, ses**2)
        weights = 1.0 / (ses**2 + tau2[:, None])
    fit = weighted_linear_fit(rule.column(rows), response, weights)
    statistic = _coefficient_statistic(fit.b0, fit.se_b0, np.abs(response).max(axis=-1))
    p = _t_pvalue(statistic, fit.df, sidedness, rule.alternative)
    return RowResults(statistic, p, np.where(fit.singular, Failure.SINGULAR_DESIGN, Failure.NONE))


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
    results = egger_rows(estimates.rows(), axis, weighting, sidedness)
    return _finish(f"E({estimates.measure.value},{rule.tag},{weighting.value})", results, sidedness, alpha)


def macaskill_rows(
    rows: EstimateRows,
    axis: PrecisionAxis = PrecisionAxis.N,
    weighting: MacaskillWeighting | None = None,
    sidedness: Sidedness = Sidedness.ONE_SIDED,
) -> RowResults:
    """Macaskill's slope test on every row of a block of at least ``MIN_STUDIES`` studies."""
    rule = MACASKILL_AXES[axis]
    weighting = rule.weighting if weighting is None else weighting
    values = rows.value
    if weighting is MacaskillWeighting.INV_VARIANCE_FIXED:
        weights = 1.0 / rows.se**2
    elif weighting is MacaskillWeighting.ESS:
        weights = rows.ess
    else:
        weights = rows.m1 * rows.m2 / rows.n
    fit = weighted_linear_fit(rule.column(rows), values, weights)
    statistic = _coefficient_statistic(fit.b1, fit.se_b1, np.abs(values).max(axis=-1))
    p = _t_pvalue(statistic, fit.df, sidedness, rule.alternative)
    return RowResults(statistic, p, np.where(fit.singular, Failure.SINGULAR_DESIGN, Failure.NONE))


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
    results = macaskill_rows(estimates.rows(), axis, weighting, sidedness)
    return _finish(f"M({estimates.measure.value},{rule.tag},{weighting.value})", results, sidedness, alpha)


# ---------------------------------------------------------------------------
# Kendall's tau and Begg's rank correlation
# ---------------------------------------------------------------------------

EXACT_KENDALL_MAX_K = 7


@lru_cache(maxsize=None)
def _kendall_s_tail_table(k: int) -> np.ndarray:
    """P(S >= n0 - 2j) by j, for S = C - D of untied samples of size k and n0 = k(k-1)/2.

    Computed from the Mahonian (permutation inversion) counts: S = n0 -
    2 * inversions.
    """
    counts = np.array([1], dtype=float)  # inversion counts, start with 0 inversions
    for i in range(2, k + 1):
        kernel = np.ones(i)
        counts = np.convolve(counts, kernel)
    probs = counts / counts.sum()
    return np.minimum(np.cumsum(probs), 1.0)  # S falls as inversions rise


def _run_starts(ties: np.ndarray) -> np.ndarray:
    """Sorted position where each entry's run of equal values starts, in rows sorted along the last axis.

    ``ties`` marks each sorted entry (but the first) that equals the one before it.
    """
    rows, k = ties.shape[0], ties.shape[1] + 1
    position = np.arange(k)
    starts = np.zeros((rows, k), dtype=np.intp)
    starts[:, 1:] = np.where(ties, 0, position[1:])
    return np.maximum.accumulate(starts, axis=-1)


def _tie_sums(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sums over each row's tie groups of sizes t: t(t-1)/2, t(t-1)(2t+5) and t(t-1)(t-2).

    An entry at position p of its sorted run adds f(p + 1) - f(p) to each
    sum f, so the sums are exact integers whatever the order.
    """
    ascending = np.sort(values, axis=-1)
    p = np.arange(values.shape[-1]) - _run_starts(ascending[:, 1:] == ascending[:, :-1])
    return tuple(terms.sum(axis=-1).astype(float) for terms in (p, 6 * p * (p + 2), 3 * p * (p - 1)))


def _kendall_rows(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kendall's tau-b of each row, P(S >= s) for the alternative tau > 0, and the two-sided p.

    S sums sign products one pair offset at a time, so memory stays
    O(rows * k); the sums of +-1 and 0 are exact. Rows without ties take
    the exact null for k up to ``EXACT_KENDALL_MAX_K``, the rest a normal
    approximation with Kendall's (1970) tie-corrected variance.
    """
    rows, k = xs.shape
    n0 = k * (k - 1) / 2
    tx_pairs, tx_var, tx_triple = _tie_sums(xs)
    ty_pairs, ty_var, ty_triple = _tie_sums(ys)
    # inf or nan entries (rows a caller has failed) give a nan S; constant rows are set below
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.zeros(rows)
        for d in range(1, k):
            s = s + (np.sign(xs[:, d:] - xs[:, :-d]) * np.sign(ys[:, d:] - ys[:, :-d])).sum(axis=-1)
        untied_pairs = (n0 - tx_pairs) * (n0 - ty_pairs)
        tau = s / np.sqrt(untied_pairs)
        var_s = (
            (k * (k - 1) * (2 * k + 5) - tx_var - ty_var) / 18.0
            + tx_pairs * ty_pairs / n0
            + tx_triple * ty_triple / (9.0 * k * (k - 1) * (k - 2))
        )
        sd = np.sqrt(np.where(var_s > 0, var_s, 0.0))
        # continuity correction: S moves on a lattice of spacing 2 when untied,
        # so each tail threshold shifts by half a step toward the center
        p_greater = ndtr(-((s - 1.0) / sd))
        p_less = ndtr((s + 1.0) / sd)
    exact = (tx_pairs == 0.0) & (ty_pairs == 0.0) & (k <= EXACT_KENDALL_MAX_K) & ~np.isnan(s)
    if exact.any():
        tail = _kendall_s_tail_table(k)
        untied = s[exact].astype(np.int64)
        p_greater[exact] = tail[(int(n0) - untied) // 2]
        p_less[exact] = tail[(int(n0) + untied) // 2]  # symmetric null
    # one vector is constant (every pair ties), or all pair comparisons
    # are tied away: no information either way
    constant = untied_pairs == 0.0
    flat = constant | (~exact & (sd == 0.0))
    p_two = np.minimum(1.0, 2.0 * np.minimum(p_greater, p_less))
    return np.where(constant, 0.0, tau), np.where(flat, 0.5, p_greater), np.where(flat, 1.0, p_two)


BEGG_AXES = AxisTable("Begg", {
    PrecisionAxis.SE: AxisRule("var", lambda e: e.se**2),
    PrecisionAxis.N: AxisRule("inv_n", lambda e: 1.0 / e.n),
    PrecisionAxis.ESS: AxisRule("inv_ess", lambda e: 1.0 / e.ess),
    PrecisionAxis.INV_N: AxisRule("inv_n", lambda e: 1.0 / e.n),  # the same test as axis N
})


def begg_rows(
    rows: EstimateRows,
    axis: PrecisionAxis = PrecisionAxis.SE,
    sidedness: Sidedness = Sidedness.ONE_SIDED,
) -> RowResults:
    """Begg's rank correlation test on every row of a block of at least ``MIN_STUDIES`` studies.

    A row fails with ``CENTERED_VARIANCE`` when some centered effect's
    variance is not positive, else with ``ALL_TIED`` when its dispersion
    is constant.
    """
    values, ses = rows.value, rows.se
    variances = ses**2
    t_bar = _pool_fixed(values, variances)
    disp = BEGG_AXES[axis].column(rows)
    # rounding can leave a centered variance at or below 0, whose square root is 0 or nan
    with np.errstate(divide="ignore", invalid="ignore"):
        se_star = np.sqrt(variances - 1.0 / (1.0 / variances).sum(axis=-1, keepdims=True))
        failed = [~(se_star > 0.0).all(axis=-1), np.ptp(disp, axis=-1) == 0.0]
        failure = np.select(failed, [Failure.CENTERED_VARIANCE, Failure.ALL_TIED], Failure.NONE)
        t_star = (values - t_bar[:, None]) / se_star
    tau, p_greater, p_two = _kendall_rows(t_star, disp)
    return RowResults(tau, p_two if sidedness is Sidedness.TWO_SIDED else p_greater, failure)


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
    results = begg_rows(estimates.rows(), axis, sidedness)
    return _finish(f"B({estimates.measure.value},{BEGG_AXES[axis].tag})", results, sidedness, alpha)


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


def _average_ranks(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average ranks along each row of (rows, k) values, and whether the row has a tie.

    A row's ranks are exactly 1..k if and only if it has no tie.
    """
    rows, k = magnitude.shape
    row = np.arange(rows)[:, None]
    order = magnitude.argsort(axis=-1, kind="stable")
    ascending = magnitude[row, order]
    ties = ascending[:, 1:] == ascending[:, :-1]
    rank = np.arange(1.0, k + 1.0)
    if ties.any():
        # every member of a tie group gets the mean of its first and last
        # sorted positions; the last is the first counted from the other end
        first = _run_starts(ties)
        last = k - 1 - _run_starts(ties[:, ::-1])[:, ::-1]
        rank = 0.5 * (first + last) + 1.0
    ranks = np.empty((rows, k))
    ranks[row, order] = rank
    return ranks, ties.any(axis=-1)


def _l_pass(values: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S+, the L estimator and whether |centered| ties, for each row of (rows, k) values centered on its theta."""
    k = values.shape[-1]
    centered = values - theta[:, None]
    ranks, tied = _average_ranks(np.abs(centered))
    s_plus = np.where(centered > 0, ranks, 0.0).sum(axis=-1)  # sums of halves: exact in any order
    return s_plus, (4.0 * s_plus - k * (k + 1)) / (2.0 * k - 1.0), tied


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


def _l_pvalue(k: int, s_plus: np.ndarray, tied: np.ndarray) -> np.ndarray:
    """One-sided p of each row's L estimator under the symmetric-signs null.

    Exact via the signed-rank-sum distribution for a row without ``tied``
    |centered| values, whose ranks are the integers 1..k; otherwise a
    normal approximation with continuity correction on the rank-sum scale.
    """
    mean = k * (k + 1) / 4.0
    sd = math.sqrt(k * (k + 1) * (2 * k + 1) / 24.0)
    p = ndtr(-((s_plus - 0.5 - mean) / sd))
    p[~tied] = [_signed_rank_tail(k, s) for s in s_plus[~tied].tolist()]
    return p


# Each axis's pooled effect of each row, reducing (values, variances, sample sizes) along the last axis.
TRIM_FILL_AXES = AxisTable("trim and fill", {
    PrecisionAxis.SE: lambda values, variances, ns: _pool_dersimonian_laird(values, variances)[0],
    PrecisionAxis.N: lambda values, variances, ns: (ns * values).sum(axis=-1) / ns.sum(axis=-1),
})


def trim_fill_rows(
    rows: EstimateRows,
    estimator: TrimFillEstimator,
    axis: PrecisionAxis = PrecisionAxis.SE,
) -> TrimFillState:
    """Run the trim-and-fill iteration on every row of a block of at least ``MIN_STUDIES`` studies.

    The rows iterate independently and the result is a ``TrimFillState``
    of arrays with one entry per row. A pass pools each active row's
    kept studies (its k - k0 smallest effects), centers all k values on
    that pooled effect and re-estimates k0; a row stops when k0 repeats
    or after ``MAX_TRIM_ITERATIONS`` passes, and keeps the statistic of
    its last pass. Rows with the same kept count m pool together over
    the first m of their sorted values, so every sum is the one a single
    row reduces, and each row's numbers are those it would get alone.
    The run estimator R = gamma_plus - 1 has exact one-sided p =
    2**(-gamma_plus) under the fair-signs null; L is tested via the
    signed-rank-sum null distribution.
    """
    values = rows.value
    count, k = values.shape
    pool = TRIM_FILL_AXES[axis]
    row = np.arange(count)[:, None]
    order = values.argsort(axis=-1, kind="stable")  # ascending; trim from the top
    ascending = (values[row, order], rows.se[row, order] ** 2, rows.n[row, order])
    theta = np.empty(count)
    k0 = np.zeros(count, dtype=np.int64)
    iterations = np.zeros(count, dtype=np.int64)
    converged = np.zeros(count, dtype=bool)
    # each row's statistic from its last pass and, under L, that pass's S+ and ties
    statistic, s_plus, tied = np.empty(count), np.empty(count), np.empty(count, dtype=bool)
    active = np.arange(count)
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
            s_plus[active], estimate, tied[active] = _l_pass(values[active], theta[active])
        statistic[active] = estimate
        k0_new = np.floor(estimate + 0.5).clip(0, k - 1).astype(np.int64)  # round half up
        iterations[active] = iteration
        done = k0_new == k0[active]
        converged[active[done]] = True
        k0[active] = k0_new
        active = active[~done]
        if not len(active):
            break
    if estimator is TrimFillEstimator.R:
        p_value = np.ldexp(1.0, -1 - statistic.astype(np.int64))
    else:
        p_value = np.minimum(_l_pvalue(k, s_plus, tied), 1.0)
    return TrimFillState(theta, k0, iterations, converged, statistic, p_value)


def trim_fill_iterate(
    estimates: EstimateSet,
    estimator: TrimFillEstimator,
    axis: PrecisionAxis = PrecisionAxis.SE,
) -> TrimFillState:
    """Run the trim-and-fill iteration on one dataset, a block of one row; every field is a Python scalar.

    Each pass pools the currently kept studies, centers all k original
    values on that pooled effect and re-estimates the number of
    suppressed studies k0; the k0 largest effects are trimmed for the
    next pass until k0 stabilizes (or the iteration cap is hit).
    """
    state = trim_fill_rows(estimates.rows(), estimator, axis)
    return TrimFillState(*(getattr(state, field.name)[0].item() for field in fields(TrimFillState)))


def trim_fill_test(
    estimates: EstimateSet,
    axis: PrecisionAxis = PrecisionAxis.SE,
    estimator: TrimFillEstimator = TrimFillEstimator.R,
    alpha: float = 0.1,
) -> AsymmetryTestResult:
    """Trim-and-fill test for suppressed left-side studies (one-sided only).

    The statistic is the estimator's (R or L) and p its one-sided p from
    :func:`trim_fill_rows`. The axis picks the pooling weights:
    inverse-variance (DerSimonian-Laird) for SE, plain sample-size
    weights for N.
    """
    _require_studies(estimates)
    state = trim_fill_iterate(estimates, estimator, axis)
    test_id = f"T({estimates.measure.value},{axis.value},{estimator.value})"
    return _finish(
        test_id,
        (state.statistic, state.p_value, Failure.NONE),
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
