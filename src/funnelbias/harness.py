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
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from collections.abc import Sequence

import numpy as np
from scipy.special import ndtri

# the variant types live with the kernels they name; imported here for callers of this module too
from .asymmetry import (  # noqa: F401
    FAMILIES,
    Failure,
    TestFamily,
    TestVariantId,
    begg_test,
    egger_test,
    macaskill_test,
    run_rows,
    trim_fill_test,
)
from .errors import EmptyInput
from .measures import measure_block
from .model import MIN_STUDIES, AsymmetryTestResult, CorrectionPolicy, EstimateSet
from .sampler import SimCondition, generate_block, replicate_rng

# perfbench/tracing.py wraps these names in this module; the block engine does not call them
from .measures import measure_studies as compute_usable  # noqa: F401
from .sampler import generate_meta_analysis  # noqa: F401


def run_variant(
    variant: TestVariantId, estimates: EstimateSet, alpha: float
) -> AsymmetryTestResult:
    """Evaluate one variant on one set of estimates, through its family's single-dataset test.

    Each test is called by its name in this module, where
    perfbench/tracing.py wraps it; ``asymmetry.run_test`` is the same
    evaluation without the names.
    """
    if variant.family is TestFamily.EGGER:
        return egger_test(estimates, variant.axis, variant.weighting, variant.sidedness, alpha)
    if variant.family is TestFamily.MACASKILL:
        return macaskill_test(estimates, variant.axis, variant.weighting, variant.sidedness, alpha)
    if variant.family is TestFamily.BEGG:
        return begg_test(estimates, variant.axis, variant.sidedness, alpha)
    return trim_fill_test(estimates, variant.axis, variant.estimator, alpha)


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


def run_grid(
    grid: Sequence[SimCondition],
    variants: Sequence[TestVariantId],
    reps: int,
    alpha: float = 0.1,
    master_seed: int = 0,
    parallelism: int = 1,
    policy: CorrectionPolicy = CorrectionPolicy.HALF_IF_ANY_ZERO,
) -> list[SimResult]:
    """Run every condition of the grid; output order follows the grid.

    Condition i runs as ``run_condition(grid[i], ..., condition_index=i)``
    through the builtin ``map`` at parallelism 1 and a process pool's
    ``map`` above it, so the results are the same at every parallelism.
    An empty grid or variant list, or a parallelism below 1, raises
    ``ValueError`` before any worker starts.
    """
    if not grid:
        raise ValueError("no conditions supplied")
    if not variants:
        raise ValueError("no test variants supplied")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    with ExitStack() as stack:
        mapper = map
        if parallelism > 1:
            # a fork pool starts every worker at once, so never more than there are conditions
            pool = ProcessPoolExecutor(max_workers=min(parallelism, len(grid)))
            mapper = stack.enter_context(pool).map
        chunks = mapper(
            run_condition, grid, repeat(tuple(variants)), repeat(reps), repeat(alpha),
            repeat(master_seed), range(len(grid)), repeat(policy),
        )
        return [result for chunk in chunks for result in chunk]


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
    buckets: dict[tuple, list[int]] = {}  # in the order each key first appears
    for r in results:
        bucket = buckets.setdefault(tuple(g(r) for g in getters), [0, 0])
        bucket[0] += r.rejections
        bucket[1] += r.reps
    rows = []
    for key, (rejections, reps) in buckets.items():
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


RESULTS_CSV_HEADER = ",".join([*_FIELD_GETTERS, "reps", "rejections", "rate", "degenerate", "seed"])


def write_results_csv(path: str | Path, results: Sequence[SimResult]) -> None:
    """Write results in a stable, byte-reproducible CSV layout."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_CSV_HEADER.split(","))
        for r in results:
            row = [getter(r) for getter in _FIELD_GETTERS.values()]
            row += [r.reps, r.rejections, repr(r.rejection_rate), r.degenerate_reps, r.seed]
            writer.writerow(row)
