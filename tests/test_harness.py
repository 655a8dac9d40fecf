import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math
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
from funnelbias.measures import measure_studies
from funnelbias.model import CorrectionPolicy, EstimateSet, MeasureId, Sidedness
from funnelbias.sampler import (
    BiasMechanism,
    BiasSpec,
    BivariateParams,
    SimCondition,
    default_grid,
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

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    grid = [fe_condition(k=10), fe_condition(k=12)]
    results = run_grid(grid, [T_SE_R], reps=3, master_seed=1, parallelism=5000)
    assert started == [2]
    run_grid(grid, [T_SE_R], reps=3, master_seed=1, parallelism=2)
    assert started == [2, 2]
    assert results == run_grid(grid, [T_SE_R], reps=3, master_seed=1, parallelism=1)


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


def test_benchmark_workloads_find_every_name_they_import(monkeypatch):
    # perfbench/workloads.py imports the program's names (and its sibling
    # reference.py); a moved name would otherwise fail only a benchmark run
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", perfbench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    variants = [workloads.program_variant(v) for v in workloads.ALL_VARIANTS]
    assert len({v.label for v in variants}) == 92


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


def test_summarize_single_result():
    res = run_condition(fe_condition(), [T_SE_R], reps=20, master_seed=4)
    rows = summarize(res, ("test_family",))
    assert len(rows) == 1
    assert rows[0].rate == res[0].rejection_rate
    assert rows[0].reps == 20


def test_summarize_by_bias_level():
    grid = [fe_condition(k=10, bias=b) for b in (
        BiasSpec(),
        BiasSpec(BiasMechanism.SELECTION, selection_fraction=0.2),
        BiasSpec(BiasMechanism.SELECTION, selection_fraction=0.4),
        BiasSpec(BiasMechanism.MIXTURE, eta=(0.75, -0.75)),
        BiasSpec(BiasMechanism.MIXTURE, eta=(1.25, -1.25)),
    )]
    results = run_grid(grid, [T_SE_R], reps=5, master_seed=6)
    rows = summarize(results, ("bias", "bias_strength"))
    assert len(rows) == 5


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
