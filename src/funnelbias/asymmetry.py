"""Statistical tests for funnel-plot asymmetry.

Four test families operate on one measure's per-study effect estimates,
each through a kernel over the rows of an ``EstimateRows`` block; a
family's single-dataset test is its kernel on a block of one. The two
regression families share one kernel, ``regression_rows``:

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

A ``TestVariantId`` names one runnable (family, measure, axis, options)
combination. It is validated against ``FAMILIES`` when it is made, and
it is what both paths run: ``run_rows`` on a block's every row for the
Monte Carlo harness, ``run_test`` on one dataset for the analyst.

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
from .model import MIN_STUDIES, AsymmetryTestResult, EstimateRows, EstimateSet, MeasureId, Sidedness

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


class TestFamily(enum.Enum):
    EGGER = "egger"
    MACASKILL = "macaskill"
    BEGG = "begg"
    TRIMFILL = "trimfill"


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


# ---------------------------------------------------------------------------
# pooled effects
# ---------------------------------------------------------------------------


def pool_fixed_effects(estimates: EstimateSet) -> float:
    """Inverse-variance weighted mean of the estimates."""
    if not len(estimates):
        raise TooFewStudies("cannot pool an empty set of estimates")
    return float(_weighted_mean(estimates.value, 1.0 / estimates.se**2))


def pool_random_effects(estimates: EstimateSet) -> tuple[float, float]:
    """DerSimonian-Laird pooled effect and between-study variance tau2."""
    if len(estimates) < 2:
        raise TooFewStudies(f"random-effects pooling needs k >= 2, got {len(estimates)}")
    theta, tau2 = _pool_dersimonian_laird(estimates.value, estimates.se**2)
    return float(theta), float(tau2)


class _Groups(NamedTuple):
    """How a pool reduces its members along the last axis.

    ``total`` sums each group's members, ``spread`` gives each member its
    group's value and ``size`` counts each group's members; ``None``
    means one group per row, the whole axis.
    """

    total: Callable[[np.ndarray], np.ndarray]
    spread: Callable[[np.ndarray], np.ndarray]
    size: np.ndarray | None


_ROWS = _Groups(lambda a: a.sum(axis=-1), lambda x: x[..., None], None)


def _weighted_mean(values: np.ndarray, weights: np.ndarray, groups: _Groups = _ROWS) -> np.ndarray:
    """Weighted mean of each row, or of each of its ``groups``: every pool's mean."""
    return groups.total(weights * values) / groups.total(weights)


def _pool_dersimonian_laird(
    values: np.ndarray, variances: np.ndarray, groups: _Groups = _ROWS,
) -> tuple[np.ndarray, np.ndarray]:
    """Pooled effect and tau2 of each row, or of each of its ``groups``; a row of one value pools to it."""
    total, spread, size = groups
    if size is None:
        size = values.shape[-1]
        if size == 1:
            return values[..., 0], np.zeros(values.shape[:-1])
    w = 1.0 / variances
    sum_w = total(w)
    t_bar = total(w * values) / sum_w
    q = total(w * (values - spread(t_bar)) ** 2)
    denom = sum_w - total(w**2) / sum_w
    excess = (q - (size - 1)) / np.where(denom > 0, denom, np.inf)  # no excess without a positive denom
    tau2 = np.where(excess > 0.0, excess, 0.0)
    return _weighted_mean(values, 1.0 / (variances + spread(tau2)), groups), tau2


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

REGRESSION_WEIGHTS = {
    EggerWeighting.UNWEIGHTED: lambda rows: None,
    EggerWeighting.INV_VARIANCE_FIXED: lambda rows: 1.0 / rows.se**2,
    EggerWeighting.INV_VARIANCE_RANDOM:
        lambda rows: 1.0 / (rows.se**2 + _pool_dersimonian_laird(rows.value, rows.se**2)[1][:, None]),
    MacaskillWeighting.INV_VARIANCE_FIXED: lambda rows: 1.0 / rows.se**2,
    MacaskillWeighting.ESS: lambda rows: rows.ess,
    # an int64 product would wrap past 2**63
    MacaskillWeighting.PETERS: lambda rows: np.multiply(rows.m1, rows.m2, dtype=float) / rows.n,
}

# Each regression family's response, and the (coefficient, SE) of the fit that it tests.
REGRESSION_TESTS = {
    TestFamily.EGGER: (lambda rows: rows.value / rows.se, lambda fit: (fit.b0, fit.se_b0)),
    TestFamily.MACASKILL: (lambda rows: rows.value, lambda fit: (fit.b1, fit.se_b1)),
}


def regression_rows(rows: EstimateRows, variant: TestVariantId) -> RowResults:
    """An Egger or Macaskill variant's coefficient test on every row of a block of at least ``MIN_STUDIES`` studies."""
    rule = FAMILIES[variant.family].axes[variant.axis]
    response, coefficient = REGRESSION_TESTS[variant.family]
    y = response(rows)
    fit = weighted_linear_fit(rule.column(rows), y, REGRESSION_WEIGHTS[variant.weighting](rows))
    statistic = _coefficient_statistic(*coefficient(fit), np.abs(y).max(axis=-1))
    p = _t_pvalue(statistic, fit.df, variant.sidedness, rule.alternative)
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
    variant = TestVariantId(TestFamily.EGGER, estimates.measure, axis, weighting, sidedness=sidedness)
    return run_test(variant, estimates, alpha)


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
    variant = TestVariantId(TestFamily.MACASKILL, estimates.measure, axis, weighting, sidedness=sidedness)
    return run_test(variant, estimates, alpha)


# ---------------------------------------------------------------------------
# Kendall's tau and Begg's rank correlation
# ---------------------------------------------------------------------------

EXACT_KENDALL_MAX_K = 7
# Exact L p for untied rows up to this k: its table is O(k**3) (2.2 s at k = 2000), and normal is within 8.3e-5 beyond.
EXACT_SIGNED_RANK_MAX_K = 1024
# From this k on, Kendall's S comes from an inversion count, which costs
# O(log k) passes over a block against the pair offsets' O(k). Timed on S
# alone, the count is the faster from about k = 24 on one row, and from
# between k = 48 and 56 on blocks of 1024 rows, the Monte Carlo path; on
# one row below 64 it would save less than 0.2 ms.
KENDALL_MERGE_MIN_K = 64
# Up to this many rows * k * k, trim and fill pools every kept count of a
# block once and walks the tables (see ``trim_fill_rows``); larger blocks
# run the pass loop. Over the 5-replicate lnDOR blocks of all 240
# default-grid cells, the tables took 27 ms and the loop 61-62 ms
# (seeds 1 and 11, best of 5, 2 shared CPUs). The tables pool all k kept
# counts, so the loop is the faster in the 28-29 cells where every row
# stops within two passes, most of them without bias: at fixed effects,
# mu = (0, 0), k = 30 and pi = 0.5 (cell 10, seed 1) it took 55 us and
# the tables 126 us. Past the bound the tables took 2.1-3.6 times the
# loop's time at (rows, k) = (20, 30), (72, 30) and (650, 10).
TRIM_FILL_TABLE_MAX_WORK = 2**13


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


def _kendall_s_offsets(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Kendall's S of each row, summing the sign products of the pairs one offset at a time.

    Each of the k - 1 offsets takes a few passes over the block. The
    sums of +-1 and 0 are exact. A pair whose difference is nan (a nan
    entry, or one infinity twice) makes its row's S nan.
    """
    s = np.zeros(xs.shape[0])
    with np.errstate(invalid="ignore"):
        for d in range(1, xs.shape[1]):
            s = s + (np.sign(xs[:, d:] - xs[:, :-d]) * np.sign(ys[:, d:] - ys[:, :-d])).sum(axis=-1)
    return s


def _inversions(perm: np.ndarray) -> np.ndarray:
    """The inversions (i < j with perm_i > perm_j) of each row of a (rows, k) block of permutations of 0..k-1.

    A bottom-up merge sort counts them as it merges; here the merges run
    backwards, as stable splits of the values on one bit, from the
    highest bit down. Rows are padded with k..size-1 to a power-of-two
    size, so at each bit the values that agree above it form groups of
    equal width, each in its order in the row. A pair that the bit splits, a 1 before a
    0, is an inversion counted once, at the highest bit where the two
    differ. Each level is a few passes over the block, so the count
    costs O(rows * k log k) time and O(rows * k) memory.
    """
    rows, k = perm.shape
    levels = (k - 1).bit_length()
    size = 1 << levels
    values = np.empty((rows, size), dtype=np.int32)
    values[:, :k] = perm
    values[:, k:] = np.arange(k, size)  # above every value and in order: no inversion
    values = values.ravel()
    split = np.empty_like(values)
    position = np.arange(rows * size, dtype=np.int32)  # 2**31 entries would take 16 GB per float column
    count = np.zeros(rows, dtype=np.int64)
    for b in reversed(range(levels)):
        width = 2 << b
        groups = values.reshape(-1, width)
        bit = (groups >> b) & 1
        ones_before = np.cumsum(bit, axis=-1, dtype=np.int32) - bit
        count += (ones_before * (1 - bit)).reshape(rows, -1).sum(axis=-1)
        # zeros keep their order at the front of the group, ones follow them
        at = position.reshape(-1, width)
        split[np.where(bit, at[:, :1] + (1 << b) + ones_before, at - ones_before).ravel()] = values
        values, split = split, values
    return count


def _nan_pairs(values: np.ndarray) -> np.ndarray:
    """Whether some pair of each row has a nan difference: a nan entry, or one infinity twice."""
    twice = [(values == infinity).sum(axis=-1) > 1 for infinity in (np.inf, -np.inf)]
    return np.isnan(values).any(axis=-1) | twice[0] | twice[1]


def _kendall_s_merge(xs: np.ndarray, ys: np.ndarray, tx_pairs: np.ndarray, ty_pairs: np.ndarray) -> np.ndarray:
    """Kendall's S of each row from sorts and an inversion count (Knight 1966), given its tied pairs in x and in y.

    In (x, y) order a pair is discordant exactly when its y values are
    strictly inverted, and the stable sort of y in that order is a
    permutation with the same inversions D. With n0 pairs and txy of
    them tied in both x and y, S = n0 - tx - ty + txy - 2 * D. Every
    term is an integer count below 2**53, so S is the exact S that
    :func:`_kendall_s_offsets` sums, nan where it is nan too.
    """
    rows, k = xs.shape
    row = np.arange(rows)[:, None]
    order = np.lexsort((ys, xs), axis=-1)
    x_sorted, y_sorted = xs[row, order], ys[row, order]
    discordant = _inversions(y_sorted.argsort(axis=-1, kind="stable"))
    both = (x_sorted[:, 1:] == x_sorted[:, :-1]) & (y_sorted[:, 1:] == y_sorted[:, :-1])
    txy = (np.arange(k) - _run_starts(both)).sum(axis=-1)
    s = (k * (k - 1) // 2 - tx_pairs - ty_pairs) + (txy - 2 * discordant)
    finite = np.isfinite(xs).all(axis=-1) & np.isfinite(ys).all(axis=-1)
    if not finite.all():
        s[~finite] = np.where(_nan_pairs(xs[~finite]) | _nan_pairs(ys[~finite]), np.nan, s[~finite])
    return s


def _kendall_rows(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kendall's tau-b of each row, P(S >= s) for the alternative tau > 0, and the two-sided p.

    S takes one of two exact ways, chosen by k: below
    ``KENDALL_MERGE_MIN_K`` it sums sign products one pair offset at a
    time (:func:`_kendall_s_offsets`, O(k) passes), from there on it
    comes from sorts and a merge-sort inversion count
    (:func:`_kendall_s_merge`, O(log k) passes). Both give the same
    integer S and keep memory O(rows * k). Rows without ties take the
    exact null for k up to ``EXACT_KENDALL_MAX_K``, the rest a normal
    approximation with Kendall's (1970) tie-corrected variance.
    """
    rows, k = xs.shape
    n0 = k * (k - 1) / 2
    tx_pairs, tx_var, tx_triple = _tie_sums(xs)
    ty_pairs, ty_var, ty_triple = _tie_sums(ys)
    # inf or nan entries (rows a caller has failed) can give a nan S; constant rows are set below
    if k < KENDALL_MERGE_MIN_K:
        s = _kendall_s_offsets(xs, ys)
    else:
        s = _kendall_s_merge(xs, ys, tx_pairs, ty_pairs)
    with np.errstate(divide="ignore", invalid="ignore"):
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
})
BEGG_AXES[PrecisionAxis.INV_N] = BEGG_AXES[PrecisionAxis.N]  # the same test as axis N


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
    values, variances = rows.value, rows.se**2
    w = 1.0 / variances
    t_bar = _weighted_mean(values, w)
    disp = BEGG_AXES[axis].column(rows)
    # rounding can leave a centered variance at or below 0, whose square root is 0 or nan
    with np.errstate(divide="ignore", invalid="ignore"):
        se_star = np.sqrt(variances - 1.0 / w.sum(axis=-1, keepdims=True))
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
    return run_test(TestVariantId(TestFamily.BEGG, estimates.measure, axis, sidedness=sidedness), estimates, alpha)


# ---------------------------------------------------------------------------
# trim and fill
# ---------------------------------------------------------------------------


def _gamma_plus(centered: np.ndarray) -> np.ndarray:
    """Length of each row's run of positive centered effects holding the top |centered| ranks.

    The run is every value whose magnitude exceeds that of the largest
    non-positive one, the row's minimum if that is at most 0: a tie group
    mixing positive and non-positive values interrupts it before any of
    its members are counted, which keeps the run statistic conservative.
    No sort is needed, and a nan is neither non-positive nor counted.
    """
    lowest = np.fmin.reduce(centered, axis=-1)  # fmin skips nan
    blocking = np.where(lowest <= 0, -lowest, -1.0)
    return np.count_nonzero(centered > blocking[..., None], axis=-1)


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


def _trim_fill_estimate(
    estimator: TrimFillEstimator, values: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """S+, the statistic and whether |centered| ties, for each row of values centered on its theta.

    ``values`` broadcasts against ``theta[..., None]``: each row of k
    values along the last axis, under any leading shape. The statistic
    is R = gamma_plus - 1 or L; R needs neither S+ nor the ties, which
    are None for it.
    """
    k = values.shape[-1]
    centered = values - theta[..., None]
    if estimator is TrimFillEstimator.R:
        return None, _gamma_plus(centered) - 1.0, None
    ranks, tied = _average_ranks(np.abs(centered).reshape(-1, k))
    ranks, tied = ranks.reshape(centered.shape), tied.reshape(centered.shape[:-1])
    s_plus = np.where(centered > 0, ranks, 0.0).sum(axis=-1)  # sums of halves: exact in any order
    return s_plus, (4.0 * s_plus - k * (k + 1)) / (2.0 * k - 1.0), tied


# A table holds k(k+1)/2 + 1 doubles, 4.2 MB at k = 1024; 32 of them bound the cache at about 134 MB.
@lru_cache(maxsize=32)
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
    """P(S+ >= s_plus) when every sign is an independent fair coin: a sum over the O(k**2) tail of the table."""
    threshold = math.ceil(s_plus - 1e-9)
    if threshold <= 0:
        return 1.0
    return float(_signed_rank_probs(k)[threshold:].sum())  # 0.0 beyond the largest sum


def _l_pvalue(k: int, s_plus: np.ndarray, tied: np.ndarray) -> np.ndarray:
    """One-sided p of each row's L estimator under the symmetric-signs null.

    Exact via the signed-rank-sum distribution for a row without ``tied``
    |centered| values (ranks 1..k) of at most ``EXACT_SIGNED_RANK_MAX_K``
    studies; otherwise a normal approximation with continuity correction.
    """
    mean = k * (k + 1) / 4.0
    sd = math.sqrt(k * (k + 1) * (2 * k + 1) / 24.0)
    p = ndtr(-((s_plus - 0.5 - mean) / sd))
    if k <= EXACT_SIGNED_RANK_MAX_K:  # one tail sum per distinct S+ of the block
        distinct, inverse = np.unique(s_plus[~tied], return_inverse=True)
        p[~tied] = np.array([_signed_rank_tail(k, s) for s in distinct.tolist()])[inverse]
    return p


class TrimFillRule(NamedTuple):
    """How trim and fill pools on one funnel axis: one weight column beside the values."""

    weights: Callable[[EstimateRows], np.ndarray]  # each study's weight column
    pad: float  # a weight under which a study of value 0 adds 0 to every sum of the pool
    # each row's pooled effect from (values, weights), reducing along the last axis or over ``groups``
    pool: Callable[..., np.ndarray]


TRIM_FILL_AXES = AxisTable("trim and fill", {
    PrecisionAxis.SE: TrimFillRule(
        lambda rows: rows.se**2,
        np.inf,
        lambda values, variances, groups=_ROWS: _pool_dersimonian_laird(values, variances, groups)[0],
    ),
    # the sizes are floats, whose sums cannot wrap as int64 sums of sizes past 2**63 do
    PrecisionAxis.N: TrimFillRule(lambda rows: rows.n.astype(float), 0.0, _weighted_mean),
})


@lru_cache(maxsize=None)
def _prefix_layout(k: int) -> tuple[np.ndarray, np.ndarray, _Groups]:
    """Where the prefixes m = 2..k of a row sit in one row, each behind a pad: (pad positions, source columns, groups)."""
    lengths = np.arange(3, k + 2)  # the pad and m members
    starts = np.cumsum(lengths) - lengths
    take = np.concatenate([np.arange(-1, m) for m in range(2, k + 1)])  # -1 is overwritten by the pad
    groups = _Groups(
        lambda a: np.add.reduceat(a, starts, axis=-1),
        lambda x: np.repeat(x, lengths, axis=-1),
        np.arange(2, k + 1),
    )
    return starts, take, groups


def _prefix_pools(values: np.ndarray, weights: np.ndarray, rule: TrimFillRule) -> np.ndarray:
    """Each row's pooled effect over its m smallest values, for every m = 1..k, as a (rows, k) table.

    ``values`` and ``weights`` are the rows' columns sorted by value. A
    prefix of one pools as a row of one. The prefixes m = 2..k are laid
    out in one row, each behind a pad (value 0 with the rule's pad
    weight: variance inf, or n 0) that adds 0 to every sum, and pooled
    together with ``np.add.reduceat`` as the sum. That sums a segment as
    its first element plus the pairwise sum of the rest, and
    ``sum(axis=-1)`` starts from 0, so with the pad first each prefix's
    sum is bit-identical to its own sum.
    """
    count, k = values.shape
    table = np.empty((count, k))
    table[:, 0] = rule.pool(values[:, :1], weights[:, :1])
    if k > 1:
        starts, take, groups = _prefix_layout(k)
        laid_values, laid_weights = values[:, take], weights[:, take]
        laid_values[:, starts] = 0.0
        laid_weights[:, starts] = rule.pad
        table[:, 1:] = rule.pool(laid_values, laid_weights, groups)
    return table


def _sorted_block(rows: EstimateRows, rule: TrimFillRule) -> tuple[np.ndarray, np.ndarray]:
    """Each row's values and the rule's weights, sorted ascending by value: trimming takes from the top."""
    row = np.arange(len(rows.value))[:, None]
    order = rows.value.argsort(axis=-1, kind="stable")
    return rows.value[row, order], rule.weights(rows)[row, order]


def _k0_estimate(estimate: np.ndarray, k: int) -> np.ndarray:
    """The estimated number of suppressed studies: the estimate rounded half up into [0, k - 1]."""
    return np.floor(estimate + 0.5).clip(0, k - 1).astype(np.int64)


def _trim_fill_state(
    estimator: TrimFillEstimator, k: int, theta, k0, iterations, converged, statistic, s_plus, tied,
) -> TrimFillState:
    """The ``TrimFillState`` of each row's last pass, with the one-sided p of its statistic; L reads S+ and ties."""
    if estimator is TrimFillEstimator.R:
        p_value = np.ldexp(1.0, -1 - statistic.astype(np.int64))
    else:
        p_value = np.minimum(_l_pvalue(k, s_plus, tied), 1.0)
    return TrimFillState(theta, k0, iterations, converged, statistic, p_value)


def _trim_fill_passes(rows: EstimateRows, estimator: TrimFillEstimator, rule: TrimFillRule) -> TrimFillState:
    """``trim_fill_rows`` pass by pass: each pass pools the active rows' kept counts, one pool per count."""
    values, weights = _sorted_block(rows, rule)
    count, k = values.shape
    theta = np.empty(count)
    k0 = np.zeros(count, dtype=np.int64)
    iterations = np.zeros(count, dtype=np.int64)
    converged = np.zeros(count, dtype=bool)
    # each row's statistic from its last pass and, under L, that pass's S+ and ties
    statistic, s_plus, tied = np.empty(count), np.empty(count), np.empty(count, dtype=bool)
    active = np.arange(count)
    for iteration in range(1, MAX_TRIM_ITERATIONS + 1):
        kept = k - k0[active]
        for m in np.unique(kept).tolist():
            chosen = active[kept == m]
            theta[chosen] = rule.pool(values[chosen, :m], weights[chosen, :m])
        pass_s_plus, estimate, pass_tied = _trim_fill_estimate(estimator, values[active], theta[active])
        statistic[active] = estimate
        if estimator is TrimFillEstimator.L:
            s_plus[active], tied[active] = pass_s_plus, pass_tied
        k0_new = _k0_estimate(estimate, k)
        iterations[active] = iteration
        done = k0_new == k0[active]
        converged[active[done]] = True
        k0[active] = k0_new
        active = active[~done]
        if not len(active):
            break
    return _trim_fill_state(estimator, k, theta, k0, iterations, converged, statistic, s_plus, tied)


def _trim_fill_tables(rows: EstimateRows, estimator: TrimFillEstimator, rule: TrimFillRule) -> TrimFillState:
    """``trim_fill_rows`` as lookups: every row's pass at every kept count m = 1..k, then a walk through them."""
    values, weights = _sorted_block(rows, rule)
    count, k = values.shape
    theta = _prefix_pools(values, weights, rule)  # (row, m - 1)
    # each row against each of its thetas: the (count, k, k) broadcast of its values
    s_plus, statistic, tied = _trim_fill_estimate(estimator, values[:, None], theta)
    # flat entry row * k + m - 1
    theta, statistic = theta.ravel(), statistic.ravel()
    k0_table = _k0_estimate(statistic, k)
    # the pass at a row's entry for m leaves k0_table's k0 there, so its
    # next pass is at m = k - k0; a row whose k0 repeats stays put
    top = np.arange(count) * k + k - 1  # each row's first pass: m = k
    step = np.repeat(top, k) - k0_table
    at = top
    moves = np.zeros(count, dtype=np.int64)
    for _ in range(MAX_TRIM_ITERATIONS - 1):
        after = step[at]
        moving = after != at
        if not moving.any():
            break
        moves += moving
        at = after
    if estimator is TrimFillEstimator.L:
        s_plus, tied = s_plus.ravel()[at], tied.ravel()[at]
    return _trim_fill_state(
        estimator, k, theta[at], k0_table[at], moves + 1, step[at] == at, statistic[at], s_plus, tied,
    )


def trim_fill_rows(
    rows: EstimateRows,
    estimator: TrimFillEstimator,
    axis: PrecisionAxis = PrecisionAxis.SE,
) -> TrimFillState:
    """Run the trim-and-fill iteration on every row of a block of at least ``MIN_STUDIES`` studies.

    The rows iterate independently and the result is a ``TrimFillState``
    of arrays with one entry per row. A pass pools a row's kept studies
    (its k - k0 smallest effects), centers all k values on that pooled
    effect and re-estimates k0; a row stops when k0 repeats or after
    ``MAX_TRIM_ITERATIONS`` passes, and keeps the statistic of its last
    pass. The run estimator R = gamma_plus - 1 has exact one-sided p =
    2**(-gamma_plus) under the fair-signs null; L is tested via the
    signed-rank-sum null distribution.

    A block of rows * k * k up to ``TRIM_FILL_TABLE_MAX_WORK`` computes
    every row's pass at every kept count m = 1..k at once and walks
    those tables; a larger one runs the passes, pooling the rows with
    the same kept count together. Either way each pool sums exactly what
    a single row's pool over its m smallest values sums, so every row's
    numbers are those it would get alone, by either path.
    """
    if not isinstance(estimator, TrimFillEstimator):
        raise ValueError(f"trim and fill estimator must be a TrimFillEstimator, got {estimator!r}")
    rule = TRIM_FILL_AXES[axis]
    count, k = rows.value.shape
    path = _trim_fill_tables if count * k * k <= TRIM_FILL_TABLE_MAX_WORK else _trim_fill_passes
    return path(rows, estimator, rule)


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
    return run_test(TestVariantId(TestFamily.TRIMFILL, estimates.measure, axis, estimator=estimator), estimates, alpha)


# ---------------------------------------------------------------------------
# funnel coordinates
# ---------------------------------------------------------------------------


# Each axis's funnel-plot value of every study.
FUNNEL_AXES = AxisTable("funnel", {
    PrecisionAxis.SE: lambda e: 1.0 / e.se,
    PrecisionAxis.N: lambda e: e.n.astype(float),
    PrecisionAxis.ESS: lambda e: e.ess,
    PrecisionAxis.INV_N: lambda e: 1.0 / e.n,
})


def funnel_points(estimates: EstimateSet, axis: PrecisionAxis) -> tuple[np.ndarray, np.ndarray]:
    """(effects, axis values) in study order, for external plotting."""
    return estimates.value, FUNNEL_AXES[axis](estimates)


# ---------------------------------------------------------------------------
# test variants
# ---------------------------------------------------------------------------


class FamilyRule(NamedTuple):
    """The variants one test family takes."""

    axes: AxisTable  # the family's per-axis rules
    weighting: type[enum.Enum] | None = None  # its weighting enum; default per axis
    estimator: TrimFillEstimator | None = None  # the default, for a family with estimators
    two_sided: bool = True


FAMILIES = {
    TestFamily.EGGER: FamilyRule(EGGER_AXES, EggerWeighting),
    TestFamily.MACASKILL: FamilyRule(MACASKILL_AXES, MacaskillWeighting),
    TestFamily.BEGG: FamilyRule(BEGG_AXES),
    TestFamily.TRIMFILL: FamilyRule(TRIM_FILL_AXES, estimator=TrimFillEstimator.R, two_sided=False),
}


@dataclass(frozen=True, slots=True)
class TestVariantId:
    """One runnable combination of family, measure, axis and options.

    Construction validates the combination against the family's rule in
    ``FAMILIES``, raising ``ValueError`` for any mismatch, and fills in a
    missing weighting or estimator with the family's default on that axis.
    """

    family: TestFamily
    measure: MeasureId
    axis: PrecisionAxis
    weighting: EggerWeighting | MacaskillWeighting | None = None
    estimator: TrimFillEstimator | None = None
    sidedness: Sidedness = Sidedness.ONE_SIDED

    def __post_init__(self) -> None:
        for value, kind in ((self.family, TestFamily), (self.measure, MeasureId), (self.sidedness, Sidedness)):
            if not isinstance(value, kind):
                raise ValueError(f"expected a {kind.__name__}, got {value!r}")
        rule = FAMILIES[self.family]
        family = rule.axes.family
        axis_rule = rule.axes[self.axis]  # raises ValueError for an axis the family does not take
        if self.weighting is None:
            default = None if rule.weighting is None else axis_rule.weighting
            object.__setattr__(self, "weighting", default)
        elif rule.weighting is None or not isinstance(self.weighting, rule.weighting):
            raise ValueError(f"{family} takes no weighting {self.weighting}")
        if self.estimator is None:
            object.__setattr__(self, "estimator", rule.estimator)
        elif rule.estimator is None or not isinstance(self.estimator, TrimFillEstimator):
            raise ValueError(f"{family} takes no estimator {self.estimator}")
        if self.sidedness is not Sidedness.ONE_SIDED and not rule.two_sided:
            raise ValueError(f"{family} is one-sided only")

    @property
    def label(self) -> str:
        """The variant's name: measure, axis and options, with ``:two`` when two-sided."""
        return self._name(self.axis.value, "" if self.sidedness is Sidedness.ONE_SIDED else ":two")

    @property
    def test_id(self) -> str:
        """The name a result carries: the axis's tag (trim and fill: the axis) in place of the axis, no sidedness."""
        tag = self.axis.value if self.family is TestFamily.TRIMFILL else FAMILIES[self.family].axes[self.axis].tag
        return self._name(tag, "")

    def _name(self, axis: str, suffix: str) -> str:
        parts = [self.measure.value, axis]
        parts += [option.value for option in (self.weighting, self.estimator) if option is not None]
        return f"{self.family.value[0].upper()}({','.join(parts)}){suffix}"


def run_rows(variant: TestVariantId, rows: EstimateRows) -> RowResults:
    """Evaluate one variant's kernel on a block's every row; the rows need at least ``MIN_STUDIES`` studies."""
    if variant.family in REGRESSION_TESTS:
        return regression_rows(rows, variant)
    if variant.family is TestFamily.BEGG:
        return begg_rows(rows, variant.axis, variant.sidedness)
    state = trim_fill_rows(rows, variant.estimator, variant.axis)
    return RowResults(state.statistic, state.p_value, np.zeros(len(state.p_value), dtype=int))


def run_test(variant: TestVariantId, estimates: EstimateSet, alpha: float = 0.1) -> AsymmetryTestResult:
    """Evaluate one variant on one dataset: its kernel on a block of one row.

    Raises ``ValueError`` for estimates of another measure,
    ``TooFewStudies`` below ``MIN_STUDIES`` estimates, and for a row the
    kernel fails the exception ``FAILURE_ERRORS`` names. Trim and fill
    runs :func:`trim_fill_iterate` and also reports its k0, pooled
    effect and convergence.
    """
    if estimates.measure is not variant.measure:
        raise ValueError(f"{variant.label} cannot run on estimates of {estimates.measure}")
    if len(estimates) < MIN_STUDIES:
        raise TooFewStudies(f"need at least {MIN_STUDIES} estimates, got {len(estimates)}")
    extra = {}
    if variant.family is TestFamily.TRIMFILL:
        state = trim_fill_iterate(estimates, variant.estimator, variant.axis)
        statistic, p_value = state.statistic, state.p_value
        extra = {"k0": state.k0, "pooled_effect": state.theta_hat, "converged": state.converged}
    else:
        statistic, p_value, failure = (column[0].item() for column in run_rows(variant, estimates.rows()))
        if failure != Failure.NONE:
            error, message = FAILURE_ERRORS[Failure(failure)]
            raise error(message)
    return AsymmetryTestResult(variant.test_id, statistic, p_value, variant.sidedness, alpha, p_value <= alpha, **extra)
