"""Independent reference for the accuracy measures and asymmetry tests.

Written from the published formulas, not from the program: it imports
nothing from ``funnelbias``. Cells follow the usual 2x2 notation
a = TP, b = FP, c = FN, d = TN.

* lnDOR = ln(ad / bc), SE = sqrt(1/a + 1/b + 1/c + 1/d) (Woolf).
* -ln theta, theta = ln(Sen) / ln(FPR) (Lehmann ROC), delta-method SE.
* Youden J = Sen - FPR with the binomial SE.
* Cohen's kappa with the Fleiss, Cohen & Everitt (1969) large-sample SE.
* Egger (1997) and Macaskill (2001) by weighted least squares, with
  ``scipy.stats.linregress`` for the unweighted fit.
* Begg & Mazumdar (1994) with Kendall's tau-b from ``scipy.stats.kendalltau``;
  p from the exact null (k <= 7, no ties) or from Kendall's (1970)
  tie-corrected normal approximation with continuity correction.
* Duval & Tweedie (2000) trim and fill with the R0 and L0 estimators.

Every function raises :class:`Excluded` for a study whose measure is
undefined and :class:`Degenerate` for a test whose preconditions fail.

Each measure is evaluated in the same order of operations as the program
(ln Sen = ln a - ln n1; J = Sen + (1 - FPR) - 1; kappa's closed form
with one rounding), so that values agree to the last bit. Trim and fill turns last-bit noise
into discrete outcomes: ties between values pick the exact or the normal
p for L0, and the centred value of a lone kept study is exactly 0 or
one ulp either side of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import stats

MIN_STUDIES = 3
TRIM_FILL_MAX_PASSES = 50
EXACT_KENDALL_MAX_K = 7


class Excluded(Exception):
    """The measure is undefined for this 2x2 table."""


class Degenerate(Exception):
    """The test cannot be evaluated on these estimates."""


@dataclass(frozen=True)
class Variant:
    """A test variant in the CLI's terms (flag values)."""

    family: str  # egger | macaskill | begg | trimfill
    measure: str  # lndor | lntheta | youden | kappa
    axis: str  # se | n | ess | inv-n
    weighting: str | None = None
    estimator: str | None = None
    sided: str = "one"

    def argv(self) -> list[str]:
        out = ["--test", self.family, "--measure", self.measure, "--axis", self.axis]
        if self.weighting:
            out += ["--weighting", self.weighting]
        if self.estimator:
            out += ["--estimator", self.estimator]
        return out + ["--sided", self.sided]


EGGER_WEIGHTINGS = ("unweighted", "ivfixed", "ivrandom")
MACASKILL_WEIGHTINGS = ("ivfixed", "ess", "peters")
MACASKILL_DEFAULT_WEIGHTING = {"n": "ivfixed", "ess": "ess", "inv-n": "peters"}


def one_sided_variants(measure: str) -> list[Variant]:
    """The 23 one-sided variants per measure: 6 Egger, 9 Macaskill, 4 Begg, 4 trim and fill."""
    out = [Variant("egger", measure, ax, w) for ax in ("se", "n") for w in EGGER_WEIGHTINGS]
    out += [
        Variant("macaskill", measure, ax, w)
        for ax in ("n", "ess", "inv-n")
        for w in MACASKILL_WEIGHTINGS
    ]
    out += [Variant("begg", measure, ax) for ax in ("se", "n", "ess", "inv-n")]
    out += [Variant("trimfill", measure, ax, estimator=e) for ax in ("se", "n") for e in ("r", "l")]
    return out


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    value: float
    se: float
    n: int
    ess: float
    m1: int
    m2: int


def measure_table(tp: int, fn: int, fp: int, tn: int, measure: str, correction: str) -> Estimate:
    """One study's estimate; sizes always come from the raw counts."""
    n1, n2 = tp + fn, fp + tn
    if correction == "half" and 0 in (tp, fn, fp, tn):
        a, b, c, d = tp + 0.5, fp + 0.5, fn + 0.5, tn + 0.5
    else:
        a, b, c, d = float(tp), float(fp), float(fn), float(tn)
    value, se = _MEASURES[measure](a, b, c, d)
    return Estimate(value, se, n1 + n2, 4.0 * n1 * n2 / (n1 + n2), tp + fp, fn + tn)


def _lndor(a, b, c, d):
    if 0.0 in (a, b, c, d):
        raise Excluded("zero cell")
    return math.log(a * d / (b * c)), math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)


def _neg_ln_theta(a, b, c, d):
    n1, n2 = a + c, b + d
    if a == 0.0 or b == 0.0:
        raise Excluded("zero cell")
    if a == n1 or b == n2:
        raise Excluded("Sen or FPR is 1")
    ln_sen, ln_fpr = math.log(a) - math.log(n1), math.log(b) - math.log(n2)
    var = (1 / a - 1 / n1) / ln_sen**2 + (1 / b - 1 / n2) / ln_fpr**2
    if var <= 0.0:
        raise Excluded("zero SE")
    return -math.log(ln_sen / ln_fpr), math.sqrt(var)


def _youden(a, b, c, d):
    n1, n2 = a + c, b + d
    sen, fpr = a / n1, b / n2
    var = sen * (1 - sen) / n1 + fpr * (1 - fpr) / n2
    if var <= 0.0:
        raise Excluded("zero SE")
    return sen + (1 - fpr) - 1, math.sqrt(var)


def _kappa(a, b, c, d):
    n = a + b + c + d
    p11, p12, p21, p22 = a / n, c / n, b / n, d / n  # rows: diseased, healthy
    r1, r2 = p11 + p12, p21 + p22  # disease margins
    c1, c2 = p11 + p21, p12 + p22  # test margins
    p_e = r1 * c1 + r2 * c2
    if p_e >= 1.0:
        raise Excluded("expected agreement is 1")
    # (p_o - p_e) / (1 - p_e) in its 2x2 closed form: exact integer
    # arithmetic and one rounding, so equal kappas come out as equal floats
    k = 2 * (a * d - b * c) / ((a + c) * (c + d) + (b + d) * (a + b))
    big_a = p11 * (1 - (r1 + c1) * (1 - k)) ** 2 + p22 * (1 - (r2 + c2) * (1 - k)) ** 2
    big_b = (1 - k) ** 2 * (p12 * (c1 + r2) ** 2 + p21 * (c2 + r1) ** 2)
    big_c = (k - p_e * (1 - k)) ** 2
    var = (big_a + big_b - big_c) / (n * (1 - p_e) ** 2)
    if var <= 0.0:
        raise Excluded("zero SE")
    return k, math.sqrt(var)


_MEASURES = {"lndor": _lndor, "lntheta": _neg_ln_theta, "youden": _youden, "kappa": _kappa}


def measure_dataset(tables, measure: str, correction: str) -> tuple[list[int], list[Estimate]]:
    """Indices of the usable studies and their estimates, in input order."""
    kept, estimates = [], []
    for i, (tp, fn, fp, tn) in enumerate(tables):
        try:
            estimates.append(measure_table(tp, fn, fp, tn, measure, correction))
        except Excluded:
            continue
        kept.append(i)
    return kept, estimates


def axis_value(est: Estimate, axis: str) -> float:
    """The funnel plot's vertical coordinate."""
    return {"se": 1.0 / est.se, "n": float(est.n), "ess": est.ess, "inv-n": 1.0 / est.n}[axis]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    test_id: str
    statistic: float
    p_value: float
    k0: int | None = None
    pooled_effect: float | None = None
    converged: bool | None = None


def _columns(estimates):
    v = np.array([e.value for e in estimates])
    se = np.array([e.se for e in estimates])
    n = np.array([e.n for e in estimates], dtype=float)
    ess = np.array([e.ess for e in estimates])
    return v, se, n, ess


def _dersimonian_laird(v, var):
    w = 1.0 / var
    mean = np.sum(w * v) / np.sum(w)
    q = np.sum(w * (v - mean) ** 2)
    denom = np.sum(w) - np.sum(w**2) / np.sum(w)
    tau2 = max(0.0, (q - (len(v) - 1)) / denom) if denom > 0 else 0.0
    w_star = 1.0 / (var + tau2)
    return float(np.sum(w_star * v) / np.sum(w_star)), tau2


def _wls(x, y, w):
    """Intercept, slope and their SEs for y = b0 + b1 x with weights w."""
    if np.ptp(x) == 0.0:
        raise Degenerate("constant predictor")
    k = len(x)
    if w is None:
        fit = stats.linregress(x, y)
        return fit.intercept, fit.slope, fit.intercept_stderr, fit.stderr
    sw = np.sum(w)
    xm, ym = np.sum(w * x) / sw, np.sum(w * y) / sw
    sxx = np.sum(w * (x - xm) ** 2)
    b1 = np.sum(w * (x - xm) * (y - ym)) / sxx
    b0 = ym - b1 * xm
    sigma2 = np.sum(w * (y - b0 - b1 * x) ** 2) / (k - 2)
    return b0, b1, math.sqrt(sigma2 * (1.0 / sw + xm**2 / sxx)), math.sqrt(sigma2 / sxx)


def _t_p(t, df, sided, greater):
    if sided == "two":
        return float(2.0 * stats.t.sf(abs(t), df))
    return float(stats.t.sf(t, df) if greater else stats.t.cdf(t, df))


def egger(estimates, variant: Variant) -> Outcome:
    v, se, n, _ = _columns(estimates)
    y = v / se
    x = 1.0 / se if variant.axis == "se" else n
    if variant.weighting == "unweighted":
        w = None
    elif variant.weighting == "ivfixed":
        w = 1.0 / se**2
    else:
        w = 1.0 / (se**2 + _dersimonian_laird(v, se**2)[1])
    b0, _, se_b0, _ = _wls(x, y, w)
    t = b0 / se_b0
    tid = f"E({variant.measure},{variant.axis},{variant.weighting})"
    return Outcome(tid, t, _t_p(t, len(v) - 2, variant.sided, True))


_MACASKILL_PREDICTOR = {"n": "n", "ess": "inv_sqrt_ess", "inv-n": "inv_n"}


def macaskill(estimates, variant: Variant) -> Outcome:
    v, se, n, ess = _columns(estimates)
    x = {"n": n, "ess": 1.0 / np.sqrt(ess), "inv-n": 1.0 / n}[variant.axis]
    weighting = variant.weighting or MACASKILL_DEFAULT_WEIGHTING[variant.axis]
    if weighting == "ivfixed":
        w = 1.0 / se**2
    elif weighting == "ess":
        w = ess
    else:
        w = np.array([e.m1 * e.m2 / e.n for e in estimates])
    _, b1, _, se_b1 = _wls(x, v, w)
    t = b1 / se_b1
    tid = f"M({variant.measure},{_MACASKILL_PREDICTOR[variant.axis]},{weighting})"
    return Outcome(tid, t, _t_p(t, len(v) - 2, variant.sided, variant.axis != "n"))


def _tie_sums(x):
    _, t = np.unique(x, return_counts=True)
    t = t.astype(float)
    return np.sum(t * (t - 1)), np.sum(t * (t - 1) * (2 * t + 5)), np.sum(t * (t - 1) * (t - 2))


def kendall(x, y, sided: str) -> tuple[float, float]:
    """Kendall's tau-b and its p for tau > 0 (or two-sided)."""
    k = len(x)
    tx, ty = _tie_sums(x), _tie_sums(y)
    n0 = k * (k - 1) / 2
    if tx[0] / 2 == n0 or ty[0] / 2 == n0:  # a constant vector orders nothing
        return 0.0, 1.0 if sided == "two" else 0.5
    tau = float(stats.kendalltau(x, y).statistic)
    if tx[0] == 0 and ty[0] == 0 and k <= EXACT_KENDALL_MAX_K:
        alternative = "two-sided" if sided == "two" else "greater"
        return tau, float(stats.kendalltau(x, y, method="exact", alternative=alternative).pvalue)
    s = float(np.sum(np.sign(x[:, None] - x[None, :]) * np.sign(y[:, None] - y[None, :])) / 2)
    var_s = (
        (k * (k - 1) * (2 * k + 5) - tx[1] - ty[1]) / 18
        + tx[2] * ty[2] / (9 * k * (k - 1) * (k - 2))
        + tx[0] * ty[0] / (2 * k * (k - 1))
    )
    sd = math.sqrt(var_s)
    p_greater = float(stats.norm.sf((s - 1) / sd))
    if sided == "two":
        return tau, min(1.0, 2 * min(p_greater, float(stats.norm.cdf((s + 1) / sd))))
    return tau, p_greater


_BEGG_DISPERSION = {"se": "var", "n": "inv_n", "ess": "inv_ess", "inv-n": "inv_n"}


def begg(estimates, variant: Variant) -> Outcome:
    v, se, n, ess = _columns(estimates)
    var = se**2
    w = 1.0 / var
    mean = np.sum(w * v) / np.sum(w)
    v_star = var - 1.0 / np.sum(w)
    if np.any(v_star <= 0.0):
        raise Degenerate("centered variance not positive")
    t_star = (v - mean) / np.sqrt(v_star)
    disp = {"se": var, "n": 1.0 / n, "ess": 1.0 / ess, "inv-n": 1.0 / n}[variant.axis]
    if np.ptp(disp) == 0.0:
        raise Degenerate("constant dispersion")
    tau, p = kendall(t_star, disp, variant.sided)
    return Outcome(f"B({variant.measure},{_BEGG_DISPERSION[variant.axis]})", tau, p)


@lru_cache(maxsize=None)
def _signed_rank_null(k: int) -> np.ndarray:
    """P(T+ = t) for t = 0..k(k+1)/2 when each rank's sign is a fair coin."""
    p = np.zeros(k * (k + 1) // 2 + 1)
    p[0] = 1.0
    for r in range(1, k + 1):
        p[r:] = (p[r:] + p[:-r]) / 2  # slices of the old array: RHS is built first
        p[:r] /= 2
    return p


def _signed_rank_sf(k: int, t: float) -> float:
    """P(T+ >= t)."""
    p = _signed_rank_null(k)
    lo = math.ceil(t - 1e-9)
    return float(np.sum(p[max(lo, 0):]))


def trim_fill(estimates, variant: Variant) -> Outcome:
    """Duval & Tweedie: iterate pool -> centre -> estimate k0 -> trim the k0 largest.

    R0 = gamma* - 1, gamma* being the run of positive centred effects at
    the top of the |centred| ranking; a tie group holding both signs ends
    the run before any of its members count. L0 = (4 T - k(k+1)) / (2k - 1),
    T the rank sum of the positive centred effects. k0 is the half-up
    rounded estimate clamped to [0, k - 1]; ties in the trimming order go
    to the later study. R0's p is 2^-gamma*; L0's is the signed-rank null
    (exact when untied, else normal with continuity correction).
    """
    v, se, n, _ = _columns(estimates)
    k = len(v)
    order = np.argsort(v, kind="stable")
    k0, converged = 0, False
    for _ in range(TRIM_FILL_MAX_PASSES):
        kept = order[: k - k0]
        if variant.axis == "n":
            theta = float(np.sum(n[kept] * v[kept]) / np.sum(n[kept]))
        elif len(kept) == 1:
            theta = float(v[kept[0]])
        else:
            theta = _dersimonian_laird(v[kept], se[kept] ** 2)[0]
        centred = v - theta
        mag = np.abs(centred)
        ranks = stats.rankdata(mag)
        gamma = 0
        for level in sorted(set(mag.tolist()), reverse=True):
            group = centred[mag == level]
            if not np.all(group > 0):
                break
            gamma += len(group)
        t_plus = float(np.sum(ranks[centred > 0]))
        l0 = (4 * t_plus - k * (k + 1)) / (2 * k - 1)
        estimate = gamma - 1 if variant.estimator == "r" else l0
        new_k0 = min(max(math.floor(estimate + 0.5), 0), k - 1)
        if new_k0 == k0:
            converged = True
            break
        k0 = new_k0
    if variant.estimator == "r":
        statistic, p = float(gamma - 1), 2.0**-gamma
    elif np.array_equal(np.sort(ranks), np.arange(1, k + 1)):
        statistic, p = l0, _signed_rank_sf(k, t_plus)
    else:
        mean, sd = k * (k + 1) / 4, math.sqrt(k * (k + 1) * (2 * k + 1) / 24)
        statistic, p = l0, float(stats.norm.sf((t_plus - 0.5 - mean) / sd))
    tid = f"T({variant.measure},{variant.axis},{variant.estimator})"
    return Outcome(tid, statistic, p, k0=k0, pooled_effect=theta, converged=converged)


_TESTS = {"egger": egger, "macaskill": macaskill, "begg": begg, "trimfill": trim_fill}


def run_test(estimates, variant: Variant) -> Outcome:
    if len(estimates) < MIN_STUDIES:
        raise Degenerate("too few usable studies")
    return _TESTS[variant.family](estimates, variant)
