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
from collections.abc import Callable, Iterator
from typing import NamedTuple

import numpy as np

from .model import CorrectionPolicy, EstimateRows, EstimateSet, MeasureId, MetaDataset

# Each measure maps the (possibly corrected) cell columns x, w, y, z to
# (value, se, checks): value and se for every study, and (undefined,
# reason) pairs in check order, where ``undefined`` marks the studies
# whose measure fails that check. A study's value and se mean nothing
# once any check fails. The formulas keep the order of operations of
# the published scalar forms; + - * / and sqrt round the same in numpy
# as in Python floats, but np.log and numpy's ** can differ from
# math.log and float ** in the last bit, so those go through _log and
# _pow.
Checks = list[tuple[np.ndarray, str]]


def _log(values: np.ndarray) -> np.ndarray:
    """math.log of each value, in the input's shape; nan where it is undefined."""
    logs = np.full(values.shape, math.nan)
    defined = values > 0.0
    logs[defined] = list(map(math.log, values[defined].tolist()))
    return logs


def _pow(values: np.ndarray, exponent: int) -> np.ndarray:
    """Python's float ** of each value, in the input's shape."""
    return np.array([v**exponent for v in values.ravel().tolist()]).reshape(values.shape)


def effective_sample_size(n1, n2):
    """4 * n1 * n2 / (n1 + n2): equals N for balanced groups, less otherwise."""
    return 4.0 * n1 * n2 / (n1 + n2)


def ln_dor(x, w, y, z) -> tuple[np.ndarray, np.ndarray, Checks]:
    """Log diagnostic odds ratio ln(xz / yw) with se = sqrt(1/x + 1/y + 1/w + 1/z)."""
    xz, yw = x * z, y * w
    value = _log(xz / yw)
    se = np.sqrt(1.0 / x + 1.0 / y + 1.0 / w + 1.0 / z)
    zero = (xz == 0.0) | (yw == 0.0)  # cells are 0 or at least 0.5, so no product underflows
    return value, se, [(zero, "lnDOR undefined with a zero cell; apply continuity correction")]


def neg_ln_theta(x, w, y, z) -> tuple[np.ndarray, np.ndarray, Checks]:
    """Negated log Lehmann parameter, -ln(ln(Sen) / ln(FPR))."""
    n1, n2 = x + w, y + z
    log_x, log_n1, log_y, log_n2 = _log(np.array((x, n1, y, n2)))
    log_sen = log_x - log_n1
    log_fpr = log_y - log_n2
    value = -_log(log_sen / log_fpr)
    log_sen_sq, log_fpr_sq = _pow(np.array((log_sen, log_fpr)), 2)
    se = np.sqrt((1.0 / x - 1.0 / n1) / log_sen_sq + (1.0 / y - 1.0 / n2) / log_fpr_sq)
    return value, se, [
        ((x == 0.0) | (y == 0.0), "lnTheta undefined with x = 0 or y = 0"),
        # on the logs, not the counts: past about 1e13 subjects ln(x) can equal ln(n1) with x < n1
        ((log_sen == 0.0) | (log_fpr == 0.0), "lnTheta degenerate when Sen = 1 or FPR = 1"),
        (se == 0.0, "lnTheta standard error is zero"),
    ]


def youden(x, w, y, z) -> tuple[np.ndarray, np.ndarray, Checks]:
    """Youden's index x/n1 + z/n2 - 1 with the binomial standard error."""
    n1, n2 = x + w, y + z
    sen = x / n1
    fpr = y / n2
    value = sen + (1.0 - fpr) - 1.0
    se = np.sqrt(sen * (1.0 - sen) / n1 + fpr * (1.0 - fpr) / n2)
    return value, se, [
        (se == 0.0, "Youden standard error is zero (both proportions on a boundary)")
    ]


def kappa(x, w, y, z) -> tuple[np.ndarray, np.ndarray, Checks]:
    """Cohen's kappa 2(xz - yw) / (n1*m2 + n2*m1) with the Fleiss SE.

    The variance pieces follow the Fleiss-Cohen-Everitt large-sample
    form for a 2x2 agreement table: the A term collects the diagonal
    (agreement) cells x and z, B the off-diagonal cells w and y, and C
    the centering correction.
    """
    n1, n2, m1, m2 = x + w, y + z, x + y, w + z
    n = n1 + n2
    denom = n1 * m2 + n2 * m1
    value = 2.0 * (x * z - y * w) / denom
    # each squared distance is named after the cell that weights it
    n_sq, w_sq, y_sq = _pow(np.array((n, n2 + m1, n1 + m2)), 2)
    n_cubed = _pow(n, 3)
    p_e = (n1 * m1 + n2 * m2) / n_sq
    one_minus_k = 1.0 - value
    x_sq, z_sq, one_minus_k_sq, c_term = _pow(
        np.array((
            n - (n1 + m1) * one_minus_k,
            n - (n2 + m2) * one_minus_k,
            one_minus_k,
            value - p_e * one_minus_k,
        )),
        2,
    )
    a_term = (x * x_sq + z * z_sq) / n_cubed
    b_term = one_minus_k_sq * (w * w_sq + y * y_sq) / n_cubed
    variance_core = a_term + b_term - c_term
    se = np.sqrt(variance_core) / ((1.0 - p_e) * np.sqrt(n))
    # On tables whose variance is exactly 0, a + b - c still leaves a few
    # ulps of a + b (at most 5e-16 of it seen), and sqrt turns that into
    # a spurious tiny SE. Real variances sit above 2e-10 of a + b up to
    # N = 4000, so anything within 1e-12 of a + b counts as 0.
    return value, se, [
        (denom == 0.0, "kappa undefined: n1*m2 + n2*m1 = 0"),
        (p_e == 1.0, "kappa SE undefined: expected agreement is 1"),
        (variance_core <= 1e-12 * (a_term + b_term), "kappa standard error is zero"),
    ]


MEASURES: dict[MeasureId, Callable[..., tuple[np.ndarray, np.ndarray, Checks]]] = {
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


class MeasureBlock(NamedTuple):
    """One measure over a block of datasets: (reps, k) arrays.

    ``estimates`` covers every study; its ``value`` and ``se`` mean
    nothing where ``usable`` is false. Each ``excluded`` mask marks the
    studies whose first failed check has that reason, in check order.
    """

    estimates: EstimateRows
    usable: np.ndarray
    corrected: np.ndarray
    excluded: tuple[tuple[np.ndarray, str], ...]

    def groups(self) -> Iterator[EstimateRows]:
        """The usable estimates of the block's datasets, one block per usable count, counts ascending.

        A block whose studies are all usable is its own only group. Every
        group's columns are read-only views, as each variant reads the same
        group; the block's own columns stay as they are.
        """
        if self.usable.all():
            yield _read_only(self.estimates)
            return
        counts = self.usable.sum(axis=-1)
        for k in np.flatnonzero(np.bincount(counts)).tolist():
            chosen = counts == k
            usable = self.usable & chosen[:, None]
            rows = np.count_nonzero(chosen)
            yield _read_only(EstimateRows(*(column[usable].reshape(rows, k) for column in self.estimates)))


def _read_only(rows: EstimateRows) -> EstimateRows:
    """The rows as read-only views of their columns."""
    views = tuple(column.view() for column in rows)
    for view in views:
        view.flags.writeable = False
    return EstimateRows(*views)


def measure_block(
    tables: np.ndarray,
    measure: MeasureId,
    policy: CorrectionPolicy = CorrectionPolicy.HALF_IF_ANY_ZERO,
) -> MeasureBlock:
    """Correct and measure every study of a (reps, k, 4) table block.

    Under ``HALF_IF_ANY_ZERO`` all four cells of a study get +0.5 as soon
    as any one of them is zero; under ``NEVER`` the cells pass through.
    A study whose measure is undefined is marked unusable, under the
    reason of the first check it fails. Every formula is elementwise, so
    each dataset's numbers are those it would get alone. The size
    columns come from the observed tables, which must already be
    checked: no cell is negative and no group is empty.
    """
    corrected = (tables == 0).any(axis=-1) & (policy is CorrectionPolicy.HALF_IF_ANY_ZERO)
    cells = tables + 0.5 * corrected[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        value, se, checks = MEASURES[measure](*(cells[..., j] for j in range(4)))
    usable = np.ones(corrected.shape, dtype=bool)
    excluded = []
    for undefined, reason in checks:
        failed = undefined & usable
        excluded.append((failed, reason))
        usable &= ~failed
    x, w, y, z = (tables[..., j] for j in range(4))
    n1, n2 = x + w, y + z
    estimates = EstimateRows(value, se, n1 + n2, effective_sample_size(n1, n2), x + y, w + z)
    return MeasureBlock(estimates, usable, corrected, tuple(excluded))


def measure_studies(
    dataset: MetaDataset,
    measure: MeasureId,
    policy: CorrectionPolicy = CorrectionPolicy.HALF_IF_ANY_ZERO,
) -> Measurement:
    """Correct and measure every study of one dataset: a block of one.

    Correction and exclusion follow :func:`measure_block`. Excluded
    studies are listed with their reasons, so callers can surface them
    instead of silently dropping data. ``MetaDataset`` has already
    checked the tables.
    """
    block = measure_block(dataset.tables[None], measure, policy)
    usable = block.usable[0]
    columns = (column[0][usable] for column in block.estimates)
    estimates = EstimateSet(measure, *columns, index=np.flatnonzero(usable))
    excluded = [(i, reason) for failed, reason in block.excluded for i in np.flatnonzero(failed[0]).tolist()]
    return Measurement(estimates, tuple(np.flatnonzero(block.corrected[0]).tolist()), tuple(sorted(excluded)))
