import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funnelbias import asymmetry, cli, harness, model
from funnelbias.asymmetry import (
    EggerWeighting,
    MacaskillWeighting,
    PrecisionAxis,
    TrimFillEstimator,
    begg_test,
    egger_test,
    macaskill_test,
    run_test,
    trim_fill_iterate,
    trim_fill_test,
)
from funnelbias.errors import EmptyInput, StatisticalError
from funnelbias.harness import (
    FAMILIES,
    RESULTS_CSV_HEADER,
    TestFamily,
    TestVariantId,
    run_condition,
    run_grid,
    run_variant,
    summarize,
    wilson_interval,
    write_results_csv,
)
from funnelbias.measures import measure_block, measure_studies
from funnelbias.model import CorrectionPolicy, EstimateSet, MeasureId, Sidedness
from funnelbias.sampler import (
    BiasMechanism,
    BiasSpec,
    BivariateParams,
    SimCondition,
    default_grid,
    generate_block,
    generate_meta_analysis,
    replicate_rng,
)

LNDOR = MeasureId.LNDOR
T_SE_R = TestVariantId(TestFamily.TRIMFILL, LNDOR, PrecisionAxis.SE, estimator=TrimFillEstimator.R)
E_SE = TestVariantId(TestFamily.EGGER, LNDOR, PrecisionAxis.SE)
B_VAR = TestVariantId(TestFamily.BEGG, LNDOR, PrecisionAxis.SE)


def fe_condition(k=10, bias=None, **kw):
    return SimCondition(
        params=BivariateParams(mu=(1.0, -1.0)), k=k, pi=0.5,
        bias=bias or BiasSpec(), **kw,
    )


# ---------------------------------------------------------------------------
# variant construction
# ---------------------------------------------------------------------------


SE, N, ESS, INV_N = PrecisionAxis
ACCEPTED_AXES = {
    TestFamily.EGGER: (SE, N),
    TestFamily.MACASKILL: (N, ESS, INV_N),
    TestFamily.BEGG: (SE, N, ESS, INV_N),
    TestFamily.TRIMFILL: (SE, N),
}
REJECTED_AXES = [
    (family, axis) for family in TestFamily for axis in PrecisionAxis if axis not in ACCEPTED_AXES[family]
]


@pytest.mark.parametrize("family,axis", REJECTED_AXES)
def test_variant_rejects_axis_outside_family(family, axis):
    with pytest.raises(ValueError, match="axis must be one of"):
        TestVariantId(family, LNDOR, axis)


def test_variant_validation():
    with pytest.raises(ValueError):
        TestVariantId(TestFamily.BEGG, LNDOR, PrecisionAxis.SE, weighting=EggerWeighting.UNWEIGHTED)
    with pytest.raises(ValueError):
        TestVariantId(TestFamily.TRIMFILL, LNDOR, PrecisionAxis.SE, sidedness=Sidedness.TWO_SIDED)
    with pytest.raises(ValueError):
        TestVariantId(TestFamily.EGGER, LNDOR, PrecisionAxis.SE, estimator=TrimFillEstimator.R)
    with pytest.raises(ValueError):
        TestVariantId(TestFamily.TRIMFILL, LNDOR, PrecisionAxis.SE, estimator="r")


def test_variant_canonical_weighting_defaults():
    deeks = TestVariantId(TestFamily.MACASKILL, LNDOR, PrecisionAxis.ESS)
    assert deeks.weighting is MacaskillWeighting.ESS
    peters = TestVariantId(TestFamily.MACASKILL, LNDOR, PrecisionAxis.INV_N)
    assert peters.weighting is MacaskillWeighting.PETERS
    macaskill = TestVariantId(TestFamily.MACASKILL, LNDOR, PrecisionAxis.N)
    assert macaskill.weighting is MacaskillWeighting.INV_VARIANCE_FIXED
    assert E_SE.weighting is EggerWeighting.UNWEIGHTED
    assert T_SE_R.label == "T(lndor,se,r)"


@pytest.mark.parametrize("test,options", [
    (egger_test, (PrecisionAxis.SE, MacaskillWeighting.ESS)),
    (macaskill_test, (PrecisionAxis.N, EggerWeighting.UNWEIGHTED)),
])
def test_single_dataset_test_rejects_another_familys_weighting(test, options):
    with pytest.raises(ValueError, match="takes no weighting"):
        test(variant_sample(), *options)
    # the variant is checked before the study count
    two_studies = EstimateSet(LNDOR, [1.0, 2.0], [0.5, 0.6], n=[100, 120], ess=[50.0, 60.0], m1=[50, 60], m2=[50, 60])
    with pytest.raises(ValueError, match="takes no weighting"):
        test(two_studies, *options)


def test_sidedness_must_be_a_sidedness():
    with pytest.raises(ValueError, match="expected a Sidedness"):
        TestVariantId(TestFamily.EGGER, LNDOR, PrecisionAxis.SE, sidedness="two")
    with pytest.raises(ValueError, match="expected a Sidedness"):
        begg_test(variant_sample(), PrecisionAxis.SE, "two")
    # the family and the measure are checked the same way
    with pytest.raises(ValueError, match="expected a TestFamily"):
        TestVariantId("egger", LNDOR, PrecisionAxis.SE)
    with pytest.raises(ValueError, match="expected a MeasureId"):
        TestVariantId(TestFamily.EGGER, "lndor", PrecisionAxis.SE)


def test_trim_fill_estimator_must_be_an_estimator():
    with pytest.raises(ValueError, match="takes no estimator"):
        trim_fill_test(variant_sample(), PrecisionAxis.SE, "r")
    with pytest.raises(ValueError, match="must be a TrimFillEstimator"):
        trim_fill_iterate(variant_sample(), "r")


def test_run_test_needs_estimates_of_the_variants_measure():
    youden = dataclasses.replace(variant_sample(), measure=MeasureId.YOUDEN)
    with pytest.raises(ValueError, match="cannot run on estimates of MeasureId.YOUDEN"):
        run_test(E_SE, youden, 0.1)


def variant_sample():
    """Twelve studies whose sizes, marginals and SEs all differ, so every weighting differs."""
    rng = np.random.default_rng(44)
    ns = rng.integers(60, 800, size=12)
    m1 = rng.integers(10, ns - 10)
    ses = rng.uniform(0.2, 0.8, size=12)
    return EstimateSet(
        LNDOR, rng.normal(1.0, ses), ses, n=ns, ess=ns * rng.uniform(0.5, 1.0, size=12), m1=m1, m2=ns - m1
    )


def direct_call(family, estimates, axis, option, sidedness):
    """The library call a variant stands for; ``option`` None leaves the library's default."""
    kwargs = {} if option is None else {"estimator" if family is TestFamily.TRIMFILL else "weighting": option}
    if family is TestFamily.EGGER:
        return egger_test(estimates, axis=axis, sidedness=sidedness, alpha=0.1, **kwargs)
    if family is TestFamily.MACASKILL:
        return macaskill_test(estimates, axis=axis, sidedness=sidedness, alpha=0.1, **kwargs)
    if family is TestFamily.BEGG:
        return begg_test(estimates, axis=axis, sidedness=sidedness, alpha=0.1)
    return trim_fill_test(estimates, axis=axis, alpha=0.1, **kwargs)


FAMILY_OPTIONS = {
    TestFamily.EGGER: ([None, *EggerWeighting], list(Sidedness)),
    TestFamily.MACASKILL: ([None, *MacaskillWeighting], list(Sidedness)),
    TestFamily.BEGG: ([None], list(Sidedness)),
    TestFamily.TRIMFILL: ([None, *TrimFillEstimator], [Sidedness.ONE_SIDED]),
}


def test_run_variant_is_the_direct_library_call():
    estimates = variant_sample()
    for family, (options, sides) in FAMILY_OPTIONS.items():
        for axis, option, sidedness in itertools.product(ACCEPTED_AXES[family], options, sides):
            key = "estimator" if family is TestFamily.TRIMFILL else "weighting"
            variant = TestVariantId(family, LNDOR, axis, sidedness=sidedness, **{key: option})
            assert run_variant(variant, estimates, 0.1) == direct_call(
                family, estimates, axis, option, sidedness
            ), variant.label


def test_macaskill_default_weighting_is_the_variant_default():
    estimates = variant_sample()
    for axis in ACCEPTED_AXES[TestFamily.MACASKILL]:
        weighting = TestVariantId(TestFamily.MACASKILL, LNDOR, axis).weighting
        result = macaskill_test(estimates, axis)
        assert result == macaskill_test(estimates, axis, weighting)
        assert result.test_id.endswith(f",{weighting.value})")


# ---------------------------------------------------------------------------
# run_condition / run_grid
# ---------------------------------------------------------------------------


def test_run_condition_single_rep_deterministic():
    cond = fe_condition(k=10)
    a = run_condition(cond, [T_SE_R], reps=1, master_seed=5)
    b = run_condition(cond, [T_SE_R], reps=1, master_seed=5)
    assert a[0].rejections == b[0].rejections
    assert a[0].reps == 1
    assert a[0].seed == 5


def test_run_condition_paired_design():
    # every variant sees the same replicate datasets, so running variants
    # separately or together cannot change any per-variant tally
    cond = fe_condition(k=12)
    together = run_condition(cond, [E_SE, B_VAR, T_SE_R], reps=60, master_seed=9)
    alone = [
        run_condition(cond, [v], reps=60, master_seed=9)[0]
        for v in (E_SE, B_VAR, T_SE_R)
    ]
    assert [r.rejections for r in together] == [r.rejections for r in alone]


def test_run_condition_degenerate_scored_as_non_rejection():
    # tiny studies without correction produce undefined lnDOR everywhere
    cond = fe_condition(k=5, n_min=3, n_max=4)
    res = run_condition(
        cond, [E_SE], reps=40, master_seed=1, policy=CorrectionPolicy.NEVER
    )[0]
    assert res.degenerate_reps > 0
    assert res.rejections + res.degenerate_reps <= res.reps
    assert 0.0 <= res.rejection_rate <= 1.0


def test_run_condition_checks_each_replicate_tables_once(monkeypatch):
    # the sampler checks each block's tables together; neither measure checks them again
    calls = []
    check = model._first_invalid
    monkeypatch.setattr(model, "_first_invalid", lambda tables: calls.append(len(tables)) or check(tables))
    youden_egger = TestVariantId(TestFamily.EGGER, MeasureId.YOUDEN, PrecisionAxis.SE)
    run_condition(fe_condition(k=10), [T_SE_R, youden_egger], reps=7, master_seed=4)
    assert sum(calls) == 7 * 10
    calls.clear()
    monkeypatch.setattr(harness, "BLOCK_REPS", 3)
    run_condition(fe_condition(k=10), [T_SE_R, youden_egger], reps=7, master_seed=4)
    assert calls == [30, 30, 10]


def test_run_condition_draws_each_replicate_stream_through_the_harness_name(monkeypatch):
    # perfbench/tracing.py times the stream layer by wrapping harness.replicate_rng, as here
    keys = []
    original = harness.replicate_rng

    def wrapper(*args, **kwargs):
        keys.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "replicate_rng", wrapper)
    run_condition(default_grid()[10], [T_SE_R], reps=5, master_seed=11, condition_index=10)
    assert keys == [(11, 10, rep) for rep in range(5)]


@pytest.mark.parametrize("condition,policy", [
    (fe_condition(k=10), CorrectionPolicy.HALF_IF_ANY_ZERO),  # every study usable: one group, the block itself
    (fe_condition(k=6, n_min=3, n_max=8), CorrectionPolicy.NEVER),  # zero cells: groups of several counts
])
def test_a_kernel_cannot_write_into_the_rows_the_next_variant_reads(monkeypatch, condition, policy):
    tables = generate_block(condition, [replicate_rng(2, 0, rep) for rep in range(40)])
    assert measure_block(tables, LNDOR, policy).usable.all() == (policy is CorrectionPolicy.HALF_IF_ANY_ZERO)
    kernel = harness.run_rows
    seen = []

    def writing_kernel(variant, rows):
        seen.append(rows.value.shape)
        rows.value[...] = 0.0
        return kernel(variant, rows)

    monkeypatch.setattr(harness, "run_rows", writing_kernel)
    with pytest.raises(ValueError, match="read-only"):
        run_condition(condition, [T_SE_R, E_SE], reps=40, master_seed=2, policy=policy)
    assert len(seen) == 1


def one_sided_variants():
    """Every one-sided variant: each family's axes by its weightings or estimators, for each measure."""
    variants = []
    for measure, (family, rule) in itertools.product(MeasureId, FAMILIES.items()):
        options = [{}]
        if rule.weighting is not None:
            options = [{"weighting": w} for w in rule.weighting]
        elif rule.estimator is not None:
            options = [{"estimator": e} for e in TrimFillEstimator]
        variants += [TestVariantId(family, measure, axis, **o) for axis in rule.axes for o in options]
    return variants


ALL_ONE_SIDED = one_sided_variants()


def replicate_by_replicate(condition, variants, reps, alpha, seed, index, policy):
    """(rejections, degenerate) per variant, one replicate at a time through the single-dataset calls."""
    rejections = [0] * len(variants)
    degenerate = [0] * len(variants)
    for rep in range(reps):
        dataset = generate_meta_analysis(condition, replicate_rng(seed, index, rep))
        estimates = {m: measure_studies(dataset, m, policy).estimates for m in MeasureId}
        for j, variant in enumerate(variants):
            try:
                rejections[j] += run_variant(variant, estimates[variant.measure], alpha).reject
            except StatisticalError:
                degenerate[j] += 1
    return rejections, degenerate


@st.composite
def grid_cells(draw):
    mechanism = draw(st.sampled_from(BiasMechanism))
    bias = BiasSpec()
    if mechanism is BiasMechanism.SELECTION:
        bias = BiasSpec(mechanism, selection_fraction=draw(st.sampled_from((0.1, 0.2, 0.4))))
    elif mechanism is BiasMechanism.MIXTURE:
        bias = BiasSpec(mechanism, eta=(0.75, -0.75), mixture_fraction=draw(st.sampled_from((1 / 3, 1.0))))
    mu = (draw(st.sampled_from((0.0, 1.0, 3.0))), draw(st.sampled_from((0.0, -1.0, -3.0))))
    params = draw(st.sampled_from((
        BivariateParams(mu),
        BivariateParams(mu, sigma_a2=0.5, sigma_ab=0.3, sigma_b2=0.5),
        BivariateParams(mu, sigma_a2=1.0, sigma_ab=0.5, sigma_b2=1.0),
    )))
    n_min = draw(st.integers(3, 60))  # small studies give zero cells
    n_max = n_min + draw(st.integers(0, 300))
    k = draw(st.integers(3, 40))
    return SimCondition(params, k, draw(st.sampled_from((0.5, 0.2))), n_min, n_max, bias)


@settings(max_examples=30, deadline=None)
@given(
    condition=grid_cells(),
    policy=st.sampled_from(CorrectionPolicy),
    reps=st.integers(1, 8),
    seed=st.integers(0, 2**32),
)
def test_run_condition_blocks_match_replicate_by_replicate(condition, policy, reps, seed):
    assert len(set(ALL_ONE_SIDED)) == 92
    expected = replicate_by_replicate(condition, ALL_ONE_SIDED, reps, 0.1, seed, 3, policy)
    for block_reps in (harness.BLOCK_REPS, 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "BLOCK_REPS", block_reps)
            results = run_condition(condition, ALL_ONE_SIDED, reps, 0.1, seed, 3, policy)
        assert [r.rejections for r in results] == expected[0], block_reps
        assert [r.degenerate_reps for r in results] == expected[1], block_reps


# sha256 of the results CSV of all 92 one-sided variants on every 10th
# cell of the default grid, 5 replicates at seed 1, per correction policy:
# any change to one variant's rejections or degenerate count shows here.
ALL_VARIANTS_CSV_SHA256 = {
    CorrectionPolicy.HALF_IF_ANY_ZERO: "cd19ca767cb8860fd86ef08f347a0e28f59596ee37510a7a2a960c56778b9087",
    CorrectionPolicy.NEVER: "365f9ba00306c4cb5f7d96b64a3e1cf7eee1666a4342f45dfdd8cf45a0110d32",
}


@pytest.mark.parametrize("policy", list(ALL_VARIANTS_CSV_SHA256))
def test_all_variants_golden_bytes(tmp_path, policy):
    results = run_grid(default_grid()[::10], ALL_ONE_SIDED, reps=5, master_seed=1, policy=policy)
    path = tmp_path / "results.csv"
    write_results_csv(path, results)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ALL_VARIANTS_CSV_SHA256[policy]


# sha256 of the results CSV of the 16 one-sided trim-and-fill variants on
# every 13th cell of the default grid, 10 replicates at seed 1, per
# correction policy. Its k = 30 blocks (10 * 30 * 30 studies past
# TRIM_FILL_TABLE_MAX_WORK) run the pass loop and its k = 10 blocks the
# tables, so a change to either path's numbers shows here.
TRIM_FILL_CSV_SHA256 = {
    CorrectionPolicy.HALF_IF_ANY_ZERO: "68654ef006a8c8a343a3bff78dc9fb5d4b470f87b4edaac8bd1353fd03a7c282",
    CorrectionPolicy.NEVER: "5372331977de69e5eed44d4c707eb47b7e6866ff5a4139556ae50cc576dc3567",
}


@pytest.mark.parametrize("policy", list(TRIM_FILL_CSV_SHA256))
def test_trim_fill_golden_bytes_on_both_paths(tmp_path, monkeypatch, policy):
    variants = [v for v in ALL_ONE_SIDED if v.family is TestFamily.TRIMFILL]
    assert len(variants) == 16
    taken = set()
    for name in ("_trim_fill_tables", "_trim_fill_passes"):
        path = getattr(asymmetry, name)
        monkeypatch.setattr(asymmetry, name, lambda *args, path=path, name=name: taken.add(name) or path(*args))
    results = run_grid(default_grid()[::13], variants, reps=10, master_seed=1, policy=policy)
    assert taken == {"_trim_fill_tables", "_trim_fill_passes"}
    path = tmp_path / "results.csv"
    write_results_csv(path, results)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRIM_FILL_CSV_SHA256[policy]


def test_run_condition_raises_on_a_nan_p(monkeypatch):
    # a nan p is a fault, not a degenerate replicate, as it is for one dataset
    kernel = harness.run_rows

    def nan_p(variant, rows):
        return kernel(variant, rows)._replace(p_value=np.full(len(rows.value), np.nan))

    monkeypatch.setattr(harness, "run_rows", nan_p)
    with pytest.raises(ValueError, match="p_value out of"):
        run_condition(fe_condition(k=10), [E_SE], reps=3, master_seed=1)


def test_run_condition_validates_args():
    with pytest.raises(ValueError):
        run_condition(fe_condition(), [T_SE_R], reps=0)
    with pytest.raises(ValueError):
        run_condition(fe_condition(), [], reps=5)


def test_run_grid_cardinality_and_order():
    grid = [fe_condition(k=10), fe_condition(k=12), fe_condition(k=14)]
    results = run_grid(grid, [E_SE, T_SE_R], reps=5, master_seed=2)
    assert len(results) == 6
    assert [r.condition_id for r in results] == [0, 0, 1, 1, 2, 2]
    assert [r.condition.k for r in results] == [10, 10, 12, 12, 14, 14]


def test_run_grid_parallelism_invariant():
    grid = [fe_condition(k=10), fe_condition(k=10, bias=BiasSpec(BiasMechanism.SELECTION, selection_fraction=0.4))]
    serial = run_grid(grid, [T_SE_R], reps=40, master_seed=3, parallelism=1)
    parallel = run_grid(grid, [T_SE_R], reps=40, master_seed=3, parallelism=4)
    assert [r.rejections for r in serial] == [r.rejections for r in parallel]
    assert [r.degenerate_reps for r in serial] == [r.degenerate_reps for r in parallel]


def test_run_grid_starts_no_more_workers_than_conditions(monkeypatch):
    # a fork pool starts all max_workers processes at once, so the cap matters
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    grid = [fe_condition(k=10), fe_condition(k=12)]
    results = run_grid(grid, [T_SE_R], reps=3, master_seed=1, parallelism=5000)
    assert started == [2]
    run_grid(grid, [T_SE_R], reps=3, master_seed=1, parallelism=2)
    assert started == [2, 2]
    assert results == run_grid(grid, [T_SE_R], reps=3, master_seed=1, parallelism=1)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_grid_rejects_empty_input_before_any_worker(monkeypatch, parallelism):
    # the same ValueError at every parallelism, and no process started for it
    def no_pool(max_workers):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError, match="no conditions supplied"):
        run_grid([], [], reps=1, parallelism=parallelism)
    with pytest.raises(ValueError, match="no conditions supplied"):
        run_grid([], [T_SE_R], reps=1, parallelism=parallelism)
    with pytest.raises(ValueError, match="no test variants supplied"):
        run_grid([fe_condition(k=10)], [], reps=1, parallelism=parallelism)


@pytest.mark.parametrize("parallelism", [0, -3])
def test_run_grid_rejects_parallelism_below_1_before_any_work(monkeypatch, parallelism):
    def never(*args, **kwargs):
        raise AssertionError("work was started")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", never)
    monkeypatch.setattr(harness, "run_condition", never)
    with pytest.raises(ValueError, match=f"parallelism must be >= 1, got {parallelism}"):
        run_grid([fe_condition(k=10)], [T_SE_R], reps=1, parallelism=parallelism)


@pytest.mark.parametrize("alpha", [math.nan, 0.0, 1.0, -0.2, 1.5])
def test_library_callers_get_the_cli_alpha_rule(alpha):
    # nan would reject nothing and 1.5 everything; the CLI refuses both
    message = rf"^alpha must be in \(0, 1\), got {alpha}$"
    with pytest.raises(ValueError, match=message):
        run_condition(fe_condition(k=10), [T_SE_R], reps=20, alpha=alpha)
    with pytest.raises(ValueError, match=message):
        run_grid([fe_condition(k=10)], [T_SE_R], reps=1, alpha=alpha)
    estimates = variant_sample()
    calls = [
        lambda: run_test(E_SE, estimates, alpha),
        lambda: run_variant(T_SE_R, estimates, alpha),
        lambda: egger_test(estimates, alpha=alpha),
        lambda: macaskill_test(estimates, alpha=alpha),
        lambda: begg_test(estimates, alpha=alpha),
        lambda: trim_fill_test(estimates, alpha=alpha),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


BAD_RUN_ARGS = [
    ("reps", 0, "reps must be >= 1, got 0"),
    ("reps", True, "reps must be an integer, got True"),
    ("reps", 10.0, "reps must be an integer, got 10.0"),
    ("alpha", math.nan, "alpha must be in (0, 1), got nan"),
    ("alpha", 1.5, "alpha must be in (0, 1), got 1.5"),
    ("master_seed", True, "master_seed must be an integer, got True"),
    ("master_seed", 1.5, "master_seed must be an integer, got 1.5"),
]
BAD_INDEX_ARGS = [
    ("condition_index", True, "condition_index must be an integer, got True"),
    ("condition_index", 1.5, "condition_index must be an integer, got 1.5"),
]


def arg_id(case):
    name, value, _ = case
    return f"{name}={value!r}"


def refuse_work(*args, **kwargs):
    raise AssertionError("work was started")


@pytest.mark.parametrize("case", BAD_RUN_ARGS + BAD_INDEX_ARGS, ids=arg_id)
def test_run_condition_refuses_bad_run_arguments_before_any_draw(monkeypatch, case):
    # unrefused, True would run as one replicate and reach the CSV as True, and a float would end in a TypeError
    name, value, message = case
    monkeypatch.setattr(harness, "replicate_rng", refuse_work)
    args = {"reps": 5, "alpha": 0.1, "master_seed": 1, "condition_index": 0, name: value}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_condition(fe_condition(k=10), [T_SE_R], **args)


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("case", BAD_RUN_ARGS, ids=arg_id)
def test_run_grid_refuses_bad_run_arguments_before_any_worker(monkeypatch, case, parallelism):
    name, value, message = case
    monkeypatch.setattr(harness, "ProcessPoolExecutor", refuse_work)
    monkeypatch.setattr(harness, "run_condition", refuse_work)
    args = {"reps": 5, "alpha": 0.1, "master_seed": 1, name: value}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_grid(default_grid()[:4], [T_SE_R], parallelism=parallelism, **args)


def test_run_arguments_accept_numpy_integers():
    grid = [fe_condition(k=10), fe_condition(k=12)]
    expected = run_grid(grid, [T_SE_R], reps=5, master_seed=3)
    assert run_grid(grid, [T_SE_R], reps=np.int64(5), master_seed=np.uint32(3)) == expected
    single = run_condition(grid[1], [T_SE_R], reps=np.int32(5), master_seed=np.int64(3), condition_index=np.int8(1))
    assert single == expected[1:]


LATTICE_ALPHA = 0.125  # 2^-3, which the run test's p = 2^-gamma reaches


def test_engine_counts_a_p_equal_to_alpha_as_a_rejection():
    # AsymmetryTestResult rejects at p <= alpha; at alpha 0.1 no p equals
    # alpha, so only a lattice alpha shows a block engine counting p < alpha
    condition, reps = default_grid()[10], 400
    (result,) = run_condition(condition, [T_SE_R], reps, LATTICE_ALPHA, master_seed=1, condition_index=0)
    datasets = (generate_meta_analysis(condition, replicate_rng(1, 0, r)) for r in range(reps))
    single = [run_test(T_SE_R, measure_studies(d, LNDOR).estimates, LATTICE_ALPHA) for d in datasets]
    assert sum(1 for t in single if t.p_value == LATTICE_ALPHA) == 24
    assert result.degenerate_reps == 0
    assert result.rejections == sum(t.reject for t in single) == 57


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracing.py swaps wrappers into these modules by name and
    # restores them on exit; a renamed target would break a traced run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = (harness, asymmetry, cli)
    before = [dict(vars(module)) for module in modules]
    tracer = tracing.Tracer()
    with tracer.patched():
        assert harness.trim_fill_test is not before[0]["trim_fill_test"]
        run_condition(fe_condition(k=10), [T_SE_R, E_SE], reps=2, master_seed=1)
        # the analyst's path calls the single-dataset tests through run_variant
        run_variant(E_SE, variant_sample(), 0.1)
        run_variant(T_SE_R, variant_sample(), 0.1)
    assert [dict(vars(module)) for module in modules] == before
    assert tracer.durations("asymmetry.egger")
    assert tracer.durations("asymmetry.trimfill")
    # the pass counter adds the state's fields into counters written as JSON
    passes = tracer.counts["asymmetry.trimfill_passes"]
    assert type(passes) is float and passes > 0
    assert all(type(count) in (int, float) for count in tracer.counts.values())
    json.dumps(tracer.counts)


def load_benchmark_workloads(monkeypatch):
    """perfbench/workloads.py, with its sibling reference.py as ``ref``, loaded without changing either."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", perfbench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_workloads_find_every_name_they_import(monkeypatch):
    # perfbench/workloads.py imports the program's names (and its sibling
    # reference.py); a moved name would otherwise fail only a benchmark run
    workloads = load_benchmark_workloads(monkeypatch)
    variants = [workloads.program_variant(v) for v in workloads.ALL_VARIANTS]
    assert len({v.label for v in variants}) == 92


# default-grid cells: k = 10 and 30, fixed and random effects, no bias,
# selection and mixture (checked in the test)
REFERENCE_CELLS = (120, 97, 229, 13)


def test_block_engine_counts_what_the_reference_counts(monkeypatch):
    # perfbench/reference.py is an independent scalar implementation of
    # every measure and test; the block engine must reject and give up on
    # exactly the replicates where it does, for all 92 one-sided variants
    workloads = load_benchmark_workloads(monkeypatch)
    ref, alpha, seed, reps = workloads.ref, 0.1, 3, 3
    variants = workloads.ALL_VARIANTS
    grid = default_grid()
    cells = [grid[i] for i in REFERENCE_CELLS]
    assert {c.k for c in cells} == {10, 30}
    assert {c.params.sigma_a2 == 0.0 for c in cells} == {True, False}
    assert {c.bias.mechanism for c in cells} == set(BiasMechanism)
    program = [workloads.program_variant(v) for v in variants]
    for index, condition in zip(REFERENCE_CELLS, cells):
        counts = [[0, 0] for _ in variants]  # rejections, degenerate
        for rep in range(reps):
            tables = generate_meta_analysis(condition, replicate_rng(seed, index, rep)).tables.tolist()
            estimates = {m: ref.measure_dataset(tables, m, "half")[1] for m in workloads.MEASURES}
            for count, v in zip(counts, variants):
                try:
                    count[0] += ref.run_test(estimates[v.measure], v).p_value <= alpha
                except ref.Degenerate:
                    count[1] += 1
        results = run_condition(condition, program, reps, alpha, seed, index)
        assert [[r.rejections, r.degenerate_reps] for r in results] == counts, index


# default-grid cells: k = 10 and 30, fixed and random effects, and every bias mechanism
PERMUTATION_CELLS = (13, 61, 97, 120, 183, 229)


def outcome(variant, estimates):
    """(decision, p) of one variant, or (exception class, None) where it cannot run."""
    try:
        result = run_test(variant, estimates, 0.1)
    except StatisticalError as exc:
        return type(exc), None
    return result.reject, result.p_value


def test_permuting_study_order_changes_no_result():
    grid = default_grid()
    cells = [grid[i] for i in PERMUTATION_CELLS]
    assert {c.k for c in cells} == {10, 30}
    assert {c.params.sigma_a2 == 0.0 for c in cells} == {True, False}
    assert {c.bias.mechanism for c in cells} == set(BiasMechanism)
    shuffle = np.random.default_rng(8)
    compared = 0
    for (index, condition), rep, policy in itertools.product(zip(PERMUTATION_CELLS, cells), range(2), CorrectionPolicy):
        dataset = generate_meta_analysis(condition, replicate_rng(1, index, rep))
        order = shuffle.permutation(dataset.k)
        assert (order != np.arange(dataset.k)).any()
        outcomes = []
        for tables in (dataset.tables, dataset.tables[order]):
            estimates = {m: measure_studies(model.MetaDataset(tables), m, policy).estimates for m in MeasureId}
            outcomes.append([outcome(v, estimates[v.measure]) for v in ALL_ONE_SIDED])
        for variant, (kind, p), (shuffled_kind, shuffled_p) in zip(ALL_ONE_SIDED, *outcomes):
            where = (index, rep, policy, variant.label)
            assert kind == shuffled_kind, where
            assert p == shuffled_p or math.isclose(p, shuffled_p, rel_tol=1e-9), where
            compared += 1
    assert compared == len(cells) * 2 * 2 * 92


@st.composite
def raw_tables(draw):
    """Raw 2x2 tables: small studies with zero cells, studies of N near 1e6, and repeated studies."""
    small, large = st.integers(0, 12), st.integers(0, 500_000)
    tables = []
    for _ in range(draw(st.integers(3, 10))):
        cell = draw(st.sampled_from([small, large]))
        x, w, y, z = draw(st.tuples(cell, cell, cell, cell))
        tables.append((x, w + (x + w == 0), y, z + (y + z == 0)))  # no empty group
    tables += [tables[i] for i in draw(st.lists(st.integers(0, len(tables) - 1), max_size=4))]
    return np.array(tables, dtype=np.int64)


@settings(max_examples=40, deadline=None)
@given(tables=raw_tables(), data=st.data())
def test_permuting_drawn_tables_changes_no_result(tables, data):
    order = np.array(data.draw(st.permutations(range(len(tables)))))
    for policy in CorrectionPolicy:
        outcomes = []
        for rows in (tables, tables[order]):
            estimates = {m: measure_studies(model.MetaDataset(rows), m, policy).estimates for m in MeasureId}
            outcomes.append([outcome(v, estimates[v.measure]) for v in ALL_ONE_SIDED])
        # the same failure or decision; p may move in its last digits where a
        # sum runs in another order, and most in E(kappa, ivrandom), whose
        # DL tau2 is a difference of sums: by up to 7e-9 over 800 drawn sets
        for variant, (kind, p), (shuffled_kind, shuffled_p) in zip(ALL_ONE_SIDED, *outcomes):
            where = (policy, variant.label)
            assert kind == shuffled_kind, where
            assert p == shuffled_p or math.isclose(p, shuffled_p, rel_tol=1e-6), where


# analyze-style specs in perfbench's DATASETS layout: (k, n range, mu, sigma,
# selected, zero-cell and duplicated shares). Each study has its own
# prevalence, so 1/ESS orders studies unlike 1/N, which grid data cannot show.
ANALYZE_STYLE_SPECS = (
    (5, (20, 200), (1.0, -1.0), 0.5, 0.0, 0.2, 0.2),
    (8, (10, 60), (2.5, -2.5), 0.5, 0.3, 0.0, 0.0),  # zero cells of their own
    (12, (30, 300), (2.0, -2.0), 0.5, 0.2, 0.25, 0.0),
    (30, (50, 1000), (1.0, -1.0), 0.5, 0.2, 0.0, 0.2),
)
# marginals near 5e9, whose products pass 2**63
LARGE_MARGINALS = (
    (4_000_000_000, 1_000_000_000, 1_000_000_000, 4_000_000_000),
    (4_500_000_000, 600_000_000, 1_500_000_000, 3_500_000_000),
    (3_000_000_000, 2_000_000_000, 900_000_000, 4_200_000_000),
    (4_200_000_000, 800_000_000, 1_200_000_000, 3_700_000_000),
)
# totals near 4e18, whose sum passes 2**63
LARGE_TOTALS = tuple(
    tuple(cell * 10**17 for cell in table)
    for table in ((10, 10, 5, 10), (15, 5, 4, 12), (9, 11, 7, 13), (12, 9, 3, 17))
)


def test_single_dataset_tests_give_the_reference_p_on_analyze_style_datasets(monkeypatch):
    # every one-sided variant and every two-sided one, under both correction
    # policies: the same degenerate outcome and decision, and p within 1e-9
    workloads = load_benchmark_workloads(monkeypatch)
    ref, alpha = workloads.ref, 0.1
    rng = np.random.default_rng(5)
    datasets = [workloads.make_tables(rng, spec) for spec in ANALYZE_STYLE_SPECS for _ in range(2)]
    datasets += [LARGE_MARGINALS, LARGE_TOTALS]
    two_sided = [dataclasses.replace(v, sided="two") for v in workloads.ALL_VARIANTS if v.family != "trimfill"]
    variants = [*workloads.ALL_VARIANTS, *two_sided]
    checked = 0
    for tables, measure, policy in itertools.product(datasets, workloads.MEASURES, CorrectionPolicy):
        if measure == "kappa" and policy is CorrectionPolicy.NEVER and 0 in itertools.chain(*tables):
            continue  # the reference's kappa rule still differs here (ROADMAP item 1)
        kept, expected = ref.measure_dataset(tables, measure, policy.value)
        estimates = measure_studies(model.MetaDataset(tables), MeasureId(measure), policy).estimates
        assert estimates.index.tolist() == kept
        for v in variants:
            if v.measure != measure:
                continue
            variant = dataclasses.replace(workloads.program_variant(v), sidedness=Sidedness(v.sided))
            try:
                with np.errstate(divide="ignore"):  # the reference divides by the SE of an exact fit
                    p = ref.run_test(expected, v).p_value
            except ref.Degenerate:
                with pytest.raises(StatisticalError):
                    run_test(variant, estimates, alpha)
                continue
            result = run_test(variant, estimates, alpha)
            assert result.reject == (p <= alpha), (tables, v)
            # two distinct studies fit a line exactly: the program's SE is 0 and its p
            # is 0, 1/2 or 1, where the reference's p is rounding noise
            exact_fit = v.family in ("egger", "macaskill") and len(set(expected)) < ref.MIN_STUDIES
            assert exact_fit or workloads._close(result.p_value, p), (tables, v)
            checked += not exact_fit
    assert checked > 2000


def test_begg_variants_gain_power_under_selection():
    # selection leaves inflated small studies behind, so every dispersion
    # flavor should fire more often than it does under the null
    params = BivariateParams(mu=(2.0, -2.0), sigma_a2=0.5, sigma_ab=0.3, sigma_b2=0.5)
    variants = [
        TestVariantId(TestFamily.BEGG, LNDOR, PrecisionAxis.SE),
        TestVariantId(TestFamily.BEGG, LNDOR, PrecisionAxis.N),
        TestVariantId(TestFamily.BEGG, LNDOR, PrecisionAxis.ESS),
    ]
    reps = 800
    null_cond = SimCondition(params=params, k=30, pi=0.5)
    sel_cond = SimCondition(
        params=params, k=30, pi=0.5,
        bias=BiasSpec(BiasMechanism.SELECTION, selection_fraction=0.4),
    )
    null_rates = {r.variant.label: r.rejection_rate
                  for r in run_condition(null_cond, variants, reps=reps, master_seed=0)}
    sel_rates = {r.variant.label: r.rejection_rate
                 for r in run_condition(sel_cond, variants, reps=reps, master_seed=0)}
    for label, null_rate in null_rates.items():
        gap_se = math.sqrt(
            (null_rate * (1 - null_rate) + sel_rates[label] * (1 - sel_rates[label])) / reps
        )
        assert sel_rates[label] - null_rate > 2.0 * gap_se, label


def test_bias_strength_monotonicity_paired():
    """More suppression, more detections: none <= small <= large selection."""
    variants = [T_SE_R]
    params = BivariateParams(mu=(2.0, -2.0), sigma_a2=0.5, sigma_ab=0.3, sigma_b2=0.5)
    reps = 2000
    rates = []
    for frac in (0.0, 0.2, 0.4):
        bias = (
            BiasSpec()
            if frac == 0.0
            else BiasSpec(BiasMechanism.SELECTION, selection_fraction=frac)
        )
        cond = SimCondition(params=params, k=30, pi=0.5, bias=bias)
        res = run_condition(cond, variants, reps=reps, master_seed=0)[0]
        rates.append(res.rejection_rate)
    for low, high in zip(rates, rates[1:]):
        gap_se = math.sqrt((low * (1 - low) + high * (1 - high)) / reps)
        assert high - low > 2.0 * gap_se


# ---------------------------------------------------------------------------
# summaries and persistence
# ---------------------------------------------------------------------------


def test_wilson_interval_golden():
    low, high = wilson_interval(1000, 10000)
    assert low == pytest.approx(0.0943, abs=1e-4)
    assert high == pytest.approx(0.1061, abs=1e-4)
    # precision claim: half-width below 0.007 at rate 0.1, reps 10000
    assert (high - low) / 2 < 0.007


def test_wilson_interval_bounds():
    low, high = wilson_interval(0, 50)
    assert low == 0.0
    assert high > 0.0
    low, high = wilson_interval(50, 50)
    assert high == 1.0


@pytest.mark.parametrize("successes", [11, -1])
def test_wilson_interval_rejects_successes_outside_the_trials(successes):
    with pytest.raises(ValueError, match=r"successes must be in \[0, trials\] = \[0, 10\]"):
        wilson_interval(successes, 10)


@pytest.mark.parametrize("confidence", [1.5, 1.0, 0.0, -0.5, math.nan])
def test_wilson_interval_rejects_confidence_outside_the_unit_interval(confidence):
    with pytest.raises(ValueError, match=r"confidence must be in \(0, 1\)"):
        wilson_interval(5, 10, confidence)


def test_summarize_single_result():
    res = run_condition(fe_condition(), [T_SE_R], reps=20, master_seed=4)
    rows = summarize(res, ("test_family",))
    assert len(rows) == 1
    assert rows[0].rate == res[0].rejection_rate
    assert rows[0].reps == 20


def test_summarize_by_bias_level():
    biases = (
        BiasSpec(),
        BiasSpec(BiasMechanism.SELECTION, selection_fraction=0.2),
        BiasSpec(BiasMechanism.SELECTION, selection_fraction=0.4),
        BiasSpec(BiasMechanism.MIXTURE, eta=(0.75, -0.75)),
        BiasSpec(BiasMechanism.MIXTURE, eta=(1.25, -1.25)),
    )
    results = run_grid([fe_condition(k=10, bias=b) for b in biases], [T_SE_R], reps=5, master_seed=6)
    rows = summarize(results, ("bias", "bias_strength"))
    assert [row.key for row in rows] == [(b.mechanism.value, b.strength) for b in biases]
    # rows follow the order in which each key first appears, not a sorted one
    rows = summarize(results[::-1] + results, ("bias",))
    assert [row.key for row in rows] == [("mixture",), ("selection",), ("none",)]
    assert [row.reps for row in rows] == [20, 20, 10]


def test_summarize_empty_and_unknown_fields():
    with pytest.raises(EmptyInput):
        summarize([], ("bias",))
    res = run_condition(fe_condition(), [T_SE_R], reps=5, master_seed=7)
    with pytest.raises(ValueError):
        summarize(res, ("nope",))


def test_write_results_csv(tmp_path):
    res = run_grid([fe_condition(k=10)], [T_SE_R, E_SE], reps=5, master_seed=8)
    path = tmp_path / "results.csv"
    write_results_csv(path, res)
    lines = path.read_text().splitlines()
    assert lines[0] == RESULTS_CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[10] == "trimfill"
    assert first[16] == "5"
    # byte-for-byte reproducible
    path2 = tmp_path / "results2.csv"
    write_results_csv(path2, res)
    assert path.read_bytes() == path2.read_bytes()
