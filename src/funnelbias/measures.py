"""Univariate accuracy measures and their standard errors.

Four measures are supported, each computed from a (possibly
continuity-corrected) 2x2 table and each oriented so that larger values
mean a more accurate test:

* ``LNDOR`` - log diagnostic odds ratio, ln(xz / yw).
* ``NEG_LNTHETA`` - negated log of the Lehmann ROC parameter; the raw
  parameter satisfies Sen = FPR**theta, so theta = ln(Sen)/ln(FPR) and
  small theta means high accuracy. Negating its log flips the direction
  to match the other measures.
* ``YOUDEN`` - Youden's index, Sen + Spe - 1.
* ``KAPPA`` - Cohen's kappa between index test and gold standard, with
  the Fleiss large-sample standard error.

The SE formulas are delta-method approximations; their accuracy is
checked against parametric-bootstrap oracles in the test suite.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundaryProportion,
    DegenerateMarginals,
    DegenerateSE,
    MeasureError,
    ZeroCell,
)
from .model import CorrectionPolicy, EstimateSet, MeasureId, MetaDataset


def effective_sample_size(n1, n2):
    """4 * n1 * n2 / (n1 + n2): equals N for balanced groups, less otherwise."""
    return 4.0 * n1 * n2 / (n1 + n2)


def ln_dor(x: float, w: float, y: float, z: float) -> tuple[float, float]:
    """Log diagnostic odds ratio with se = sqrt(1/x + 1/y + 1/w + 1/z)."""
    if 0.0 in (x, w, y, z):
        raise ZeroCell("lnDOR undefined with a zero cell; apply continuity correction")
    value = math.log(x * z / (y * w))
    se = math.sqrt(1.0 / x + 1.0 / y + 1.0 / w + 1.0 / z)
    return value, se


def neg_ln_theta(x: float, w: float, y: float, z: float) -> tuple[float, float]:
    """Negated log Lehmann parameter, -ln(ln(Sen) / ln(FPR))."""
    n1, n2 = x + w, y + z
    if x == 0.0 or y == 0.0:
        raise ZeroCell("lnTheta undefined with x = 0 or y = 0")
    if x == n1 or y == n2:
        raise BoundaryProportion("lnTheta degenerate when Sen = 1 or FPR = 1")
    log_sen = math.log(x) - math.log(n1)
    log_fpr = math.log(y) - math.log(n2)
    value = -math.log(log_sen / log_fpr)
    se = math.sqrt(
        (1.0 / x - 1.0 / n1) / log_sen**2 + (1.0 / y - 1.0 / n2) / log_fpr**2
    )
    if se == 0.0:
        raise DegenerateSE("lnTheta standard error is zero")
    return value, se


def youden(x: float, w: float, y: float, z: float) -> tuple[float, float]:
    """Youden's index x/n1 + z/n2 - 1 with the binomial standard error."""
    n1, n2 = x + w, y + z
    sen = x / n1
    fpr = y / n2
    value = sen + (1.0 - fpr) - 1.0
    se = math.sqrt(sen * (1.0 - sen) / n1 + fpr * (1.0 - fpr) / n2)
    if se == 0.0:
        raise DegenerateSE("Youden standard error is zero (both proportions on a boundary)")
    return value, se


def kappa(x: float, w: float, y: float, z: float) -> tuple[float, float]:
    """Cohen's kappa 2(xz - yw) / (n1*m2 + n2*m1) with the Fleiss SE.

    The variance pieces follow the Fleiss-Cohen-Everitt large-sample
    form for a 2x2 agreement table: the A term collects the diagonal
    (agreement) cells x and z, B the off-diagonal cells w and y, and C
    the centering correction.
    """
    n1, n2, m1, m2 = x + w, y + z, x + y, w + z
    n = n1 + n2
    denom = n1 * m2 + n2 * m1
    if denom == 0.0:
        raise DegenerateMarginals("kappa undefined: n1*m2 + n2*m1 = 0")
    value = 2.0 * (x * z - y * w) / denom
    p_e = (n1 * m1 + n2 * m2) / n**2
    if p_e == 1.0:
        raise DegenerateMarginals("kappa SE undefined: expected agreement is 1")
    one_minus_k = 1.0 - value
    a_term = (
        x * (n - (n1 + m1) * one_minus_k) ** 2 + z * (n - (n2 + m2) * one_minus_k) ** 2
    ) / n**3
    b_term = one_minus_k**2 * (w * (n2 + m1) ** 2 + y * (n1 + m2) ** 2) / n**3
    c_term = (value - p_e * one_minus_k) ** 2
    variance_core = a_term + b_term - c_term
    # On tables whose variance is exactly 0, a + b - c still leaves a few
    # ulps of a + b (at most 5e-16 of it seen), and sqrt turns that into
    # a spurious tiny SE. Real variances sit above 2e-10 of a + b up to
    # N = 4000, so anything within 1e-12 of a + b counts as 0.
    if variance_core <= 1e-12 * (a_term + b_term):
        raise DegenerateSE("kappa standard error is zero")
    se = math.sqrt(variance_core) / ((1.0 - p_e) * math.sqrt(n))
    return value, se


MEASURES: dict[MeasureId, Callable[[float, float, float, float], tuple[float, float]]] = {
    MeasureId.LNDOR: ln_dor,
    MeasureId.NEG_LNTHETA: neg_ln_theta,
    MeasureId.YOUDEN: youden,
    MeasureId.KAPPA: kappa,
}


class Measurement(NamedTuple):
    """One measure over a dataset: the usable estimates and what happened to the rest."""

    estimates: EstimateSet
    corrected: tuple[int, ...]  # studies whose cells were continuity-corrected
    excluded: tuple[tuple[int, str], ...]  # (study index, reason) per unusable study


def measure_studies(
    dataset: MetaDataset,
    measure: MeasureId,
    policy: CorrectionPolicy = CorrectionPolicy.HALF_IF_ANY_ZERO,
) -> Measurement:
    """Correct and measure every study, in order, skipping degenerate ones.

    Under ``HALF_IF_ANY_ZERO`` all four cells of a study get +0.5 as soon
    as any one of them is zero; under ``NEVER`` the cells pass through.
    A study whose measure is undefined is left out of the estimates and
    listed in ``excluded`` with the reason, so callers can surface it
    instead of silently dropping data. The size columns come from the
    observed tables.
    """
    fn = MEASURES[measure]
    correct = policy is CorrectionPolicy.HALF_IF_ANY_ZERO
    values: list[float] = []
    ses: list[float] = []
    kept: list[int] = []
    corrected: list[int] = []
    excluded: list[tuple[int, str]] = []
    for i, study in enumerate(dataset.studies):
        x, w, y, z = study.x, study.w, study.y, study.z
        if correct and 0 in (x, w, y, z):
            cells = (x + 0.5, w + 0.5, y + 0.5, z + 0.5)
            corrected.append(i)
        else:
            cells = (float(x), float(w), float(y), float(z))
        try:
            value, se = fn(*cells)
        except MeasureError as exc:
            excluded.append((i, str(exc)))
            continue
        values.append(value)
        ses.append(se)
        kept.append(i)
    raw = np.array([(t.x, t.w, t.y, t.z) for t in dataset.studies], dtype=np.int64)
    x, w, y, z = raw.reshape(-1, 4)[kept].T
    n1, n2 = x + w, y + z
    estimates = EstimateSet(
        measure=measure,
        value=values,
        se=ses,
        n=n1 + n2,
        ess=effective_sample_size(n1, n2),
        m1=x + y,
        m2=w + z,
        index=kept,
    )
    return Measurement(estimates, tuple(corrected), tuple(excluded))
