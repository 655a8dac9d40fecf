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

from funnelbias import asymmetry
from funnelbias.asymmetry import (
    EXACT_KENDALL_MAX_K,
    FAILURE_ERRORS,
    KENDALL_MERGE_MIN_K,
    MAX_TRIM_ITERATIONS,
    TRIM_FILL_AXES,
    Failure,
    PrecisionAxis,
    TrimFillEstimator,
    TrimFillState,
    _trim_fill_estimate,
    _trim_fill_passes,
    _trim_fill_tables,
    begg_rows,
    begg_test,
    run_test,
    trim_fill_rows,
)
from funnelbias.errors import AllTied, FunnelBiasError
from funnelbias.harness import FAMILIES, TestVariantId, run_rows, run_variant
from funnelbias.measures import measure_studies
from funnelbias.model import CorrectionPolicy, EstimateRows, EstimateSet, MeasureId, MetaDataset, Sidedness


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


# a raw 2x2 cell: zero or a few, as in small studies, or anything up to 10**6
CELLS = st.integers(0, 3) | st.integers(0, 10**6)
TABLES = st.tuples(CELLS, CELLS, CELLS, CELLS).filter(lambda t: t[0] + t[1] > 0 and t[2] + t[3] > 0)


@st.composite
def raw_datasets(draw):
    tables = draw(st.lists(TABLES, min_size=1, max_size=10))
    duplicates = draw(st.lists(st.sampled_from(tables), max_size=4))
    return MetaDataset(draw(st.permutations(tables + duplicates)))


@settings(max_examples=60, deadline=None)
@given(dataset=raw_datasets(), policy=st.sampled_from(CorrectionPolicy))
def test_every_variant_of_raw_tables_gives_a_p_or_a_library_error(dataset, policy):
    # any valid input ends in a result or a FunnelBiasError, never another exception
    alpha = 0.1
    for measure in MeasureId:
        estimates = measure_studies(dataset, measure, policy).estimates
        for variant in every_variant(measure):
            try:
                result = run_test(variant, estimates, alpha)
            except FunnelBiasError:
                continue
            assert 0.0 <= result.p_value <= 1.0, variant.label
            assert result.reject == (result.p_value <= alpha), variant.label


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


def assert_both_trim_fill_paths_agree(rows):
    """The prefix tables and the pass loop give every row the same state, bit for bit, whatever the block size."""
    for estimator, axis in itertools.product(TrimFillEstimator, (PrecisionAxis.SE, PrecisionAxis.N)):
        pool = TRIM_FILL_AXES[axis]
        tables = _trim_fill_tables(rows, estimator, pool)
        passes = _trim_fill_passes(rows, estimator, pool)
        for name in TrimFillState.__slots__:
            mine, theirs = getattr(tables, name), getattr(passes, name)
            assert mine.dtype == theirs.dtype, (name, estimator, axis)
            assert np.array_equal(mine, theirs, equal_nan=True), (name, estimator, axis)


# values whose differences are exact zeros of either sign, with ties among the magnitudes
SIGNED_ZEROS = st.sampled_from([-1.5, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5])


@st.composite
def rows_and_thetas(draw):
    """Sorted (count, k) values and a (count, k) table of thetas, one per kept count, as the k0 table has."""
    count, k = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    entries = st.one_of(SIGNED_ZEROS, st.floats(-3.0, 3.0))
    values = np.sort(np.array(draw(st.lists(entries, min_size=count * k, max_size=count * k))).reshape(count, k))
    thetas = np.array(draw(st.lists(entries, min_size=count * k, max_size=count * k))).reshape(count, k)
    return values, thetas


@settings(max_examples=200, deadline=None)
@given(drawn=rows_and_thetas())
def test_k0_table_broadcast_is_the_repeated_rows(drawn):
    # the tables center each row on each of its k thetas through a (count, k, k) broadcast; a copy of each
    # row per theta, as np.repeat makes, gives the same S+, statistic and ties, bit for bit
    values, thetas = drawn
    count, k = values.shape
    for estimator in TrimFillEstimator:
        broadcast = _trim_fill_estimate(estimator, values[:, None], thetas)
        repeated = _trim_fill_estimate(estimator, np.repeat(values, k, axis=0), thetas.ravel())
        for mine, theirs in zip(broadcast, repeated):
            if theirs is None:
                assert mine is None, estimator
                continue
            assert mine.shape == (count, k) and mine.dtype == theirs.dtype, estimator
            assert mine.ravel().tobytes() == theirs.tobytes(), estimator


def rounded_block(seed, count, k, decimals):
    """A seeded block with values and SEs rounded, so ties and k0 cycles are common."""
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(0.0, 1.0, (count, k)), decimals)
    ses = np.round(rng.uniform(0.05, 1.5, (count, k)), max(decimals, 1))
    ns = rng.integers(20, 500, (count, k))
    m1 = ns // 3 + 1
    return EstimateRows(values, ses, ns, 4.0 * m1 * (ns - m1) / ns, m1, ns - m1)


@settings(max_examples=40, deadline=None)
@given(rows=blocks())
def test_trim_fill_tables_match_the_pass_loop(rows):
    # swamped and constant columns, ties, and blocks on both sides of the size threshold
    assert_both_trim_fill_paths_agree(rows)


def test_trim_fill_tables_match_the_pass_loop_on_rounded_blocks():
    rng = np.random.default_rng(20)
    for seed in range(40):
        count, k, decimals = int(rng.integers(1, 13)), int(rng.integers(3, 61)), int(rng.integers(0, 3))
        assert_both_trim_fill_paths_agree(rounded_block(seed, count, k, decimals))


def test_trim_fill_tables_match_the_pass_loop_at_the_pass_cap():
    # this block has rows whose k0 cycles until the cap, under both estimators
    rows = rounded_block(170, 256, 6, 2)
    for estimator in TrimFillEstimator:
        state = _trim_fill_passes(rows, estimator, TRIM_FILL_AXES[PrecisionAxis.SE])
        capped = ~state.converged
        assert capped.any() and (state.iterations[capped] == MAX_TRIM_ITERATIONS).all(), estimator
    assert_both_trim_fill_paths_agree(rows)


def test_benchmark_block_shapes_keep_their_trim_fill_path(monkeypatch):
    # grid-trimfill's 5-replicate cells at k = 10 and 30 take the tables;
    # analyze-cli's single rows at k = 300 and 1000 and simulate's
    # 1024-row blocks take the pass loop
    taken = []
    monkeypatch.setattr(asymmetry, "_trim_fill_tables", lambda rows, estimator, pool: taken.append("tables"))
    monkeypatch.setattr(asymmetry, "_trim_fill_passes", lambda rows, estimator, pool: taken.append("passes"))
    shapes = {(5, 10): "tables", (5, 30): "tables", (1, 300): "passes", (1, 1000): "passes", (1024, 30): "passes"}
    for (count, k), path in shapes.items():
        taken.clear()
        trim_fill_rows(EstimateRows(*(np.ones((count, k)) for _ in EstimateRows._fields)), TrimFillEstimator.R)
        assert taken == [path], (count, k)


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
