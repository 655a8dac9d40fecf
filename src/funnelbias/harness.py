"""Monte Carlo harness: rejection rates over a grid of conditions.

For every replicate one dataset is generated and *all* requested test
variants are evaluated on it (a paired design, so between-variant
comparisons share the Monte Carlo noise). A replicate on which a
variant cannot be evaluated (degenerate estimates, test precondition
failure) is counted in ``degenerate_reps`` and scored as a
non-rejection.

Seeds are derived per (master seed, condition index, replicate index),
so rejection counts are identical whatever the parallelism degree.

A condition's replicates run in blocks of up to ``BLOCK_REPS``. Each
replicate still draws from its own stream in the sampler's documented
order; only the arithmetic after the draws runs on the block's (reps, k)
arrays, and every reduction runs along a row of equal-length data, so
each replicate's result is the one it gets alone.
"""

from __future__ import annotations

import csv
import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .asymmetry import (
    BEGG_AXES,
    EGGER_AXES,
    MACASKILL_AXES,
    TRIM_FILL_AXES,
    AxisTable,
    EggerWeighting,
    Failure,
    MacaskillWeighting,
    PrecisionAxis,
    RowResults,
    TrimFillEstimator,
    begg_rows,
    begg_test,
    egger_rows,
    egger_test,
    macaskill_rows,
    macaskill_test,
    trim_fill_rows,
    trim_fill_test,
)
from .errors import EmptyInput
from .measures import measure_block
from .model import (
    MIN_STUDIES,
    AsymmetryTestResult,
    CorrectionPolicy,
    EstimateRows,
    EstimateSet,
    MeasureId,
    Sidedness,
)
from .sampler import SimCondition, generate_block, replicate_rng

# perfbench/tracing.py wraps these names in this module; the block engine does not call them
from .measures import measure_studies as compute_usable  # noqa: F401
from .sampler import generate_meta_analysis  # noqa: F401


class TestFamily(enum.Enum):
    EGGER = "egger"
    MACASKILL = "macaskill"
    BEGG = "begg"
    TRIMFILL = "trimfill"


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
    ``FAMILIES`` and fills in a missing weighting or estimator with the
    family's default on that axis.
    """

    family: TestFamily
    measure: MeasureId
    axis: PrecisionAxis
    weighting: EggerWeighting | MacaskillWeighting | None = None
    estimator: TrimFillEstimator | None = None
    sidedness: Sidedness = Sidedness.ONE_SIDED

    def __post_init__(self) -> None:
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
        parts = [self.measure.value, self.axis.value]
        parts += [option.value for option in (self.weighting, self.estimator) if option is not None]
        letter = self.family.value[0].upper()
        suffix = "" if self.sidedness is Sidedness.ONE_SIDED else ":two"
        return f"{letter}({','.join(parts)}){suffix}"


def run_variant(
    variant: TestVariantId, estimates: EstimateSet, alpha: float
) -> AsymmetryTestResult:
    """Evaluate one variant on one set of estimates."""
    if variant.family is TestFamily.EGGER:
        return egger_test(estimates, variant.axis, variant.weighting, variant.sidedness, alpha)
    if variant.family is TestFamily.MACASKILL:
        return macaskill_test(estimates, variant.axis, variant.weighting, variant.sidedness, alpha)
    if variant.family is TestFamily.BEGG:
        return begg_test(estimates, variant.axis, variant.sidedness, alpha)
    return trim_fill_test(estimates, variant.axis, variant.estimator, alpha)


def run_rows(variant: TestVariantId, rows: EstimateRows) -> RowResults:
    """Evaluate one variant's kernel, which ``run_variant`` runs on one row, on a block's every row.

    The rows need at least ``MIN_STUDIES`` studies.
    """
    if variant.family is TestFamily.EGGER:
        return egger_rows(rows, variant.axis, variant.weighting, variant.sidedness)
    if variant.family is TestFamily.MACASKILL:
        return macaskill_rows(rows, variant.axis, variant.weighting, variant.sidedness)
    if variant.family is TestFamily.BEGG:
        return begg_rows(rows, variant.axis, variant.sidedness)
    state = trim_fill_rows(rows, variant.estimator, variant.axis)
    return RowResults(state.statistic, state.p_value, np.zeros(len(state.p_value), dtype=int))


@dataclass(frozen=True, slots=True)
class SimResult:
    """Rejection tally for one (condition, variant) cell."""

    condition_id: int
    condition: SimCondition
    variant: TestVariantId
    reps: int
    rejections: int
    degenerate_reps: int
    seed: int

    @property
    def rejection_rate(self) -> float:
        return self.rejections / self.reps


BLOCK_REPS = 1024  # replicates realized and measured together; bounds a block's memory


def run_condition(
    condition: SimCondition,
    variants: Sequence[TestVariantId],
    reps: int,
    alpha: float = 0.1,
    master_seed: int = 0,
    condition_index: int = 0,
    policy: CorrectionPolicy = CorrectionPolicy.HALF_IF_ANY_ZERO,
) -> list[SimResult]:
    """Rejection counts for every variant over ``reps`` paired replicates.

    Replicates run in blocks of up to ``BLOCK_REPS``: each replicate
    draws from its own stream, in the sampler's documented order, and
    the block's tables are realized, checked and measured as one
    (reps, k) array. Each measure's block splits once into groups of
    equal usable count, and every variant runs its family's kernel on
    each group. A replicate with fewer than ``MIN_STUDIES`` usable
    studies, or whose row the kernel fails, is degenerate; a nan p
    raises ``ValueError``, as in the single-dataset test. Every
    replicate gets the numbers it would get alone.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if not variants:
        raise ValueError("no test variants supplied")
    measures = sorted({v.measure for v in variants}, key=lambda m: m.value)
    rejections = [0] * len(variants)
    degenerate = [0] * len(variants)
    for start in range(0, reps, BLOCK_REPS):
        rngs = [
            replicate_rng(master_seed, condition_index, rep)
            for rep in range(start, min(start + BLOCK_REPS, reps))
        ]
        tables = generate_block(condition, rngs)
        for measure in measures:
            mine = [(j, v) for j, v in enumerate(variants) if v.measure is measure]
            for rows in measure_block(tables, measure, policy).groups():
                count, k = rows.value.shape
                for j, variant in mine:
                    if k < MIN_STUDIES:
                        degenerate[j] += count
                        continue
                    results = run_rows(variant, rows)
                    p_values = results.p_value[results.failure == Failure.NONE]
                    if np.isnan(p_values).any():
                        raise ValueError("p_value out of [0, 1]: nan")
                    degenerate[j] += count - len(p_values)
                    rejections[j] += int(np.count_nonzero(p_values <= alpha))
    return [
        SimResult(
            condition_id=condition_index,
            condition=condition,
            variant=variant,
            reps=reps,
            rejections=rejections[j],
            degenerate_reps=degenerate[j],
            seed=master_seed,
        )
        for j, variant in enumerate(variants)
    ]


def _run_condition_task(args) -> list[SimResult]:
    index, condition, variants, reps, alpha, master_seed, policy = args
    return run_condition(
        condition,
        variants,
        reps,
        alpha=alpha,
        master_seed=master_seed,
        condition_index=index,
        policy=policy,
    )


def run_grid(
    grid: Sequence[SimCondition],
    variants: Sequence[TestVariantId],
    reps: int,
    alpha: float = 0.1,
    master_seed: int = 0,
    parallelism: int = 1,
    policy: CorrectionPolicy = CorrectionPolicy.HALF_IF_ANY_ZERO,
) -> list[SimResult]:
    """Run every condition of the grid; output order follows the grid."""
    tasks = [
        (i, condition, tuple(variants), reps, alpha, master_seed, policy)
        for i, condition in enumerate(grid)
    ]
    results: list[SimResult] = []
    if parallelism <= 1:
        for task in tasks:
            results.extend(_run_condition_task(task))
    else:
        # a fork pool starts every worker at once, so never more than there are tasks
        with ProcessPoolExecutor(max_workers=min(parallelism, len(tasks))) as pool:
            for chunk in pool.map(_run_condition_task, tasks):
                results.extend(chunk)
    return results


# ---------------------------------------------------------------------------
# aggregation and persistence
# ---------------------------------------------------------------------------


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = float(ndtri(0.5 + confidence / 2.0))
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials**2)) / denom
    low = 0.0 if successes == 0 else max(center - half, 0.0)
    high = 1.0 if successes == trials else min(center + half, 1.0)
    return low, high


_FIELD_GETTERS = {
    "condition_id": lambda r: r.condition_id,
    "mu_a": lambda r: r.condition.params.mu[0],
    "mu_b": lambda r: r.condition.params.mu[1],
    "sigma_a2": lambda r: r.condition.params.sigma_a2,
    "sigma_ab": lambda r: r.condition.params.sigma_ab,
    "sigma_b2": lambda r: r.condition.params.sigma_b2,
    "k": lambda r: r.condition.k,
    "pi": lambda r: r.condition.pi,
    "bias": lambda r: r.condition.bias.mechanism.value,
    "bias_strength": lambda r: r.condition.bias.strength,
    "test_family": lambda r: r.variant.family.value,
    "measure": lambda r: r.variant.measure.value,
    "axis": lambda r: r.variant.axis.value,
    "weighting": lambda r: r.variant.weighting.value if r.variant.weighting else "",
    "estimator": lambda r: r.variant.estimator.value if r.variant.estimator else "",
    "sided": lambda r: r.variant.sidedness.value,
}


@dataclass(frozen=True, slots=True)
class SummaryRow:
    key: tuple
    rate: float
    reps: int
    rejections: int
    wilson_low: float
    wilson_high: float


def summarize(
    results: Sequence[SimResult], group_by: Sequence[str]
) -> list[SummaryRow]:
    """Pool rejection counts by the given result fields.

    Group keys may mix condition fields (mu_a, ..., bias, bias_strength)
    and variant fields (test_family, measure, axis, weighting,
    estimator, sided). The rate is pooled rejections over pooled reps,
    with a Wilson 95% interval.
    """
    if not results:
        raise EmptyInput("no simulation results to summarize")
    unknown = [f for f in group_by if f not in _FIELD_GETTERS]
    if unknown:
        raise ValueError(f"unknown group fields: {unknown}")
    getters = [_FIELD_GETTERS[f] for f in group_by]
    buckets: dict[tuple, list[int]] = {}
    order: list[tuple] = []
    for r in results:
        key = tuple(g(r) for g in getters)
        if key not in buckets:
            buckets[key] = [0, 0]
            order.append(key)
        buckets[key][0] += r.rejections
        buckets[key][1] += r.reps
    rows = []
    for key in order:
        rejections, reps = buckets[key]
        low, high = wilson_interval(rejections, reps)
        rows.append(
            SummaryRow(
                key=key,
                rate=rejections / reps,
                reps=reps,
                rejections=rejections,
                wilson_low=low,
                wilson_high=high,
            )
        )
    return rows


RESULTS_CSV_HEADER = (
    "condition_id,mu_a,mu_b,sigma_a2,sigma_ab,sigma_b2,k,pi,bias,bias_strength,"
    "test_family,measure,axis,weighting,estimator,sided,reps,rejections,rate,"
    "degenerate,seed"
)


def write_results_csv(path: str | Path, results: Sequence[SimResult]) -> None:
    """Write results in a stable, byte-reproducible CSV layout."""
    columns = RESULTS_CSV_HEADER.split(",")
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for r in results:
            row = [_FIELD_GETTERS[c](r) for c in columns[:16]]
            row += [r.reps, r.rejections, repr(r.rejection_rate), r.degenerate_reps, r.seed]
            writer.writerow(row)
