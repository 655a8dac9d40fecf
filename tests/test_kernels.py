"""Every family's kernel gives each row of a block the numbers that row gets alone.

The blocks mix continuous, tied and constant columns and a study whose
variance swamps the rest, so the exact and normal Kendall paths, both
ways to Kendall's S, the regression's singular designs and Begg's
failure reasons all occur. Every variant's label and test_id are pinned
here too.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funnelbias.asymmetry import (
    EXACT_KENDALL_MAX_K,
    FAILURE_ERRORS,
    KENDALL_MERGE_MIN_K,
    Failure,
    PrecisionAxis,
    TrimFillEstimator,
    TrimFillState,
    begg_rows,
    begg_test,
    run_test,
    trim_fill_rows,
)
from funnelbias.errors import AllTied
from funnelbias.harness import FAMILIES, TestVariantId, run_rows, run_variant
from funnelbias.model import EstimateRows, EstimateSet, MeasureId, Sidedness


def every_variant(measure=MeasureId.LNDOR):
    """Each family's axes by its weightings or estimators, two-sided too where the family takes it."""
    variants = []
    for family, rule in FAMILIES.items():
        options = [{}]
        if rule.weighting is not None:
            options = [{"weighting": w} for w in rule.weighting]
        elif rule.estimator is not None:
            options = [{"estimator": e} for e in TrimFillEstimator]
        sides = list(Sidedness) if rule.two_sided else [Sidedness.ONE_SIDED]
        for axis, option, sidedness in itertools.product(rule.axes, options, sides):
            variants.append(TestVariantId(family, measure, axis, sidedness=sidedness, **option))
    return variants


VARIANTS = every_variant()
SWAMPED_SE = 2.0**-40  # its inverse variance absorbs every other study's, so its centered variance is 0


def column(draw, k, continuous, tied, swamped=None):
    """One row's column: continuous, drawn from a few values, constant, or with one swamped entry."""
    modes = ["continuous", "tied", "constant"] + (["swamped"] if swamped is not None else [])
    mode = draw(st.sampled_from(modes))
    if mode == "constant":
        return [draw(tied)] * k
    entries = draw(st.lists(continuous if mode == "continuous" else tied, min_size=k, max_size=k))
    if mode == "swamped":
        entries[draw(st.integers(0, k - 1))] = swamped
    return entries


@st.composite
def blocks(draw, min_k=3, max_k=40):
    count = draw(st.integers(1, 5))
    k = draw(st.integers(min_k, max_k))
    rows = []
    for _ in range(count):
        values = column(draw, k, st.floats(-3.0, 3.0), st.sampled_from([-1.0, 0.0, 0.5, 2.0]))
        ses = column(draw, k, st.floats(0.05, 2.0), st.sampled_from([0.25, 0.5, 1.0]), SWAMPED_SE)
        ns = column(draw, k, st.integers(20, 2000), st.sampled_from([50, 100, 400]))
        rows.append((values, ses, ns))
    values, ses, ns = (np.array(c) for c in zip(*rows))
    m1 = ns // 3 + 1
    m2 = ns - m1
    return EstimateRows(values, ses, ns, 4.0 * m1 * m2 / ns, m1, m2)


def one_row(rows, i):
    return EstimateRows(*(c[i:i + 1] for c in rows))


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def assert_each_row_is_that_row_alone(rows):
    for variant in VARIANTS:
        block = run_rows(variant, rows)
        for i in range(len(rows.value)):
            alone = run_rows(variant, one_row(rows, i))
            assert bits(alone.statistic) == bits(block.statistic[i:i + 1]), variant.label
            assert bits(alone.p_value) == bits(block.p_value[i:i + 1]), variant.label
            assert alone.failure.tolist() == block.failure[i:i + 1].tolist(), variant.label


@settings(max_examples=60, deadline=None)
@given(rows=blocks())
def test_each_row_of_a_block_is_that_row_alone(rows):
    assert_each_row_is_that_row_alone(rows)


@settings(max_examples=30, deadline=None)
@given(rows=blocks(max_k=EXACT_KENDALL_MAX_K))
def test_each_row_of_a_small_block_is_that_row_alone(rows):
    # k <= 7 reaches Kendall's exact null on every untied row
    assert_each_row_is_that_row_alone(rows)


@settings(max_examples=30, deadline=None)
@given(rows=blocks(min_k=KENDALL_MERGE_MIN_K - 2, max_k=KENDALL_MERGE_MIN_K + 2))
def test_each_row_of_a_block_is_that_row_alone_across_the_merge_threshold(rows):
    # k on both sides of KENDALL_MERGE_MIN_K, so Begg's S takes each of its two ways
    assert_each_row_is_that_row_alone(rows)


@settings(max_examples=60, deadline=None)
@given(rows=blocks())
def test_each_row_keeps_its_own_trim_fill_state(rows):
    # pooling, k0, the pass count and convergence, not just the statistic and p run_rows reads
    for estimator, axis in itertools.product(TrimFillEstimator, (PrecisionAxis.SE, PrecisionAxis.N)):
        block = trim_fill_rows(rows, estimator, axis)
        for i in range(len(rows.value)):
            alone = trim_fill_rows(one_row(rows, i), estimator, axis)
            for name in TrimFillState.__slots__:
                assert bits(getattr(alone, name)) == bits(getattr(block, name)[i:i + 1]), (name, estimator, axis)


@settings(max_examples=60, deadline=None)
@given(rows=blocks())
def test_failure_reason_is_what_the_single_dataset_test_raises(rows):
    for variant in VARIANTS:
        block = run_rows(variant, rows)
        for i in range(len(rows.value)):
            estimates = EstimateSet(MeasureId.LNDOR, *(c[i] for c in rows))
            failure = Failure(int(block.failure[i]))
            if failure is not Failure.NONE:
                error, message = FAILURE_ERRORS[failure]
                with pytest.raises(error, match=message):
                    run_variant(variant, estimates, 0.1)
            elif np.isnan(block.p_value[i]):
                with pytest.raises(ValueError, match="p_value out of"):
                    run_variant(variant, estimates, 0.1)
            else:
                result = run_variant(variant, estimates, 0.1)
                assert bits(result.statistic) == bits(block.statistic[i]), variant.label
                assert bits(result.p_value) == bits(block.p_value[i]), variant.label


# Each one-sided lndor variant's label and the test_id its result carries,
# recorded before the variant types moved next to the kernels. Another
# measure changes only the measure's name; a two-sided variant adds
# ":two" to the label and keeps the test_id.
VARIANT_NAMES = {
    "E(lndor,se,unweighted)": "E(lndor,se,unweighted)",
    "E(lndor,se,ivfixed)": "E(lndor,se,ivfixed)",
    "E(lndor,se,ivrandom)": "E(lndor,se,ivrandom)",
    "E(lndor,n,unweighted)": "E(lndor,n,unweighted)",
    "E(lndor,n,ivfixed)": "E(lndor,n,ivfixed)",
    "E(lndor,n,ivrandom)": "E(lndor,n,ivrandom)",
    "M(lndor,n,ivfixed)": "M(lndor,n,ivfixed)",
    "M(lndor,n,ess)": "M(lndor,n,ess)",
    "M(lndor,n,peters)": "M(lndor,n,peters)",
    "M(lndor,ess,ivfixed)": "M(lndor,inv_sqrt_ess,ivfixed)",
    "M(lndor,ess,ess)": "M(lndor,inv_sqrt_ess,ess)",
    "M(lndor,ess,peters)": "M(lndor,inv_sqrt_ess,peters)",
    "M(lndor,inv_n,ivfixed)": "M(lndor,inv_n,ivfixed)",
    "M(lndor,inv_n,ess)": "M(lndor,inv_n,ess)",
    "M(lndor,inv_n,peters)": "M(lndor,inv_n,peters)",
    "B(lndor,se)": "B(lndor,var)",
    "B(lndor,n)": "B(lndor,inv_n)",
    "B(lndor,ess)": "B(lndor,inv_ess)",
    "B(lndor,inv_n)": "B(lndor,inv_n)",
    "T(lndor,se,r)": "T(lndor,se,r)",
    "T(lndor,se,l)": "T(lndor,se,l)",
    "T(lndor,n,r)": "T(lndor,n,r)",
    "T(lndor,n,l)": "T(lndor,n,l)",
}


def test_every_variant_keeps_its_label_and_test_id():
    for measure in MeasureId:
        rng = np.random.default_rng(44)
        ses = rng.uniform(0.2, 0.8, size=12)
        ns = rng.integers(60, 800, size=12)
        estimates = EstimateSet(measure, rng.normal(1.0, ses), ses, ns, 0.7 * ns, ns // 3, ns - ns // 3)
        expected = {}
        for label, test_id in VARIANT_NAMES.items():
            label, test_id = (name.replace("lndor", measure.value) for name in (label, test_id))
            expected[label] = test_id
            if not label.startswith("T("):
                expected[label + ":two"] = test_id
        variants = every_variant(measure)
        assert len(variants) == len(expected) == 42
        names = {v.label: v.test_id for v in variants}
        assert names == expected
        for variant in variants:
            assert run_variant(variant, estimates, 0.1).test_id == variant.test_id, variant.label
            assert run_test(variant, estimates, 0.1) == run_variant(variant, estimates, 0.1), variant.label


def test_begg_failure_reasons_in_check_order():
    k = 6
    ses = np.array([
        [0.3, 0.4, 0.5, 0.6, 0.7, 0.8],  # runs
        [SWAMPED_SE, 1, 1, 1, 1, 1],  # a centered variance of 0
        [0.5] * k,  # a constant dispersion
        [SWAMPED_SE] + [0.5] * 5,  # both: the centered variance is checked first
    ])
    values = np.tile(np.linspace(-1.0, 1.0, k), (4, 1))
    ns = np.full((4, k), 100)
    rows = EstimateRows(values, ses, ns, ns * 1.0, ns // 2, ns - ns // 2)
    assert begg_rows(rows).failure.tolist() == [
        Failure.NONE, Failure.CENTERED_VARIANCE, Failure.ALL_TIED, Failure.CENTERED_VARIANCE
    ]


def test_negative_centered_variance_is_a_centered_variance_failure():
    # rounding leaves the first study's centered variance below 0, so its
    # square root is nan: the row fails as a centered variance of 0 does
    ses = np.array([1.8389906439653345e-09, 1.0, 0.7, 0.5])
    ns = [100] * 4
    estimates = EstimateSet(MeasureId.LNDOR, [0.1, 0.4, -0.2, 0.3], ses, ns, ess=ns, m1=[50] * 4, m2=[50] * 4)
    assert begg_rows(estimates.rows()).failure.tolist() == [Failure.CENTERED_VARIANCE]
    with pytest.raises(AllTied, match=FAILURE_ERRORS[Failure.CENTERED_VARIANCE][1]):
        begg_test(estimates)


def test_kendall_kernel_memory_is_linear_in_the_block():
    # a (rows, k(k-1)/2) sign tensor would take 64 * 499500 * 8 bytes = 256 MB here
    rng = np.random.default_rng(5)
    rows, k = 64, 1000
    ses = rng.uniform(0.1, 1.0, size=(rows, k))
    ns = rng.integers(50, 2001, size=(rows, k))
    block = EstimateRows(rng.normal(0.0, ses), ses, ns, ns * 1.0, ns // 2, ns - ns // 2)
    tracemalloc.start()
    try:
        begg_rows(block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the block's own columns take 64 * 1000 * 8 bytes = 0.5 MB each
    assert peak < 16 * rows * k * 8
