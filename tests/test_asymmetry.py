import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats as sps

from funnelbias import asymmetry
from funnelbias.asymmetry import (
    EXACT_SIGNED_RANK_MAX_K,
    KENDALL_MERGE_MIN_K,
    EggerWeighting,
    MacaskillWeighting,
    PrecisionAxis,
    TrimFillEstimator,
    begg_rows,
    begg_test,
    egger_rows,
    egger_test,
    funnel_points,
    macaskill_rows,
    macaskill_test,
    pool_fixed_effects,
    pool_random_effects,
    trim_fill_iterate,
    trim_fill_rows,
    trim_fill_test,
    weighted_linear_fit,
)
from funnelbias.asymmetry import (
    Failure,
    TrimFillState,
    _average_ranks,
    _gamma_plus,
    _kendall_rows,
    _kendall_s_merge,
    _kendall_s_offsets,
    _l_pvalue,
    _pool_dersimonian_laird,
    _prefix_pools,
    _signed_rank_tail,
    _sorted_block,
    _tie_sums,
    _trim_fill_estimate,
)
from funnelbias.errors import AllTied, FunnelBiasError, SingularDesign, TooFewStudies
from funnelbias.model import EstimateRows, EstimateSet, MeasureId, Sidedness


def est(values, ses, n=100, ess=None, m1=None, m2=None, measure=MeasureId.LNDOR):
    """An estimate set; scalar columns are repeated for every study."""
    k = len(values)
    n = np.broadcast_to(n, k)
    return EstimateSet(
        measure=measure,
        value=values,
        se=np.broadcast_to(ses, k),
        n=n,
        ess=n if ess is None else np.broadcast_to(ess, k),
        m1=n // 2 if m1 is None else np.broadcast_to(m1, k),
        m2=n - n // 2 if m2 is None else np.broadcast_to(m2, k),
    )


def random_estimates(rng, k=12):
    ses = rng.uniform(0.1, 1.0, size=k)
    values = rng.normal(0.5, ses)
    ns = rng.integers(50, 1001, size=k)
    return est(values, ses, n=ns)


@pytest.mark.parametrize("single_test", [egger_test, macaskill_test, begg_test, trim_fill_test])
@pytest.mark.parametrize("column,bad", [
    ("values", math.nan), ("values", math.inf), ("values", -math.inf), ("ses", math.inf), ("ess", math.inf),
])
def test_no_family_is_given_an_estimate_that_is_not_finite(single_test, column, bad):
    # each family returned a p, or raised about a nan p, on such a study
    columns = {"values": [0.1, 0.4, -0.2, 0.8, 0.3], "ses": [0.1, 0.2, 0.3, 0.4, 0.5], "ess": [40.0, 80, 150, 300, 600]}
    columns[column][2] = bad
    with pytest.raises(ValueError, match="must be finite for every study"):
        single_test(est(**columns, n=[40, 80, 150, 300, 600]))


# ---------------------------------------------------------------------------
# weighted least squares vs a normal-equations oracle
# ---------------------------------------------------------------------------


def normal_equations_fit(x, y, w):
    """Closed-form two-parameter WLS, written from the summation formulas."""
    sw = np.sum(w)
    swx = np.sum(w * x)
    swy = np.sum(w * y)
    swxx = np.sum(w * x * x)
    swxy = np.sum(w * x * y)
    det = sw * swxx - swx * swx
    b1 = (sw * swxy - swx * swy) / det
    b0 = (swy - b1 * swx) / sw
    resid = y - b0 - b1 * x
    sigma2 = np.sum(w * resid**2) / (len(x) - 2)
    se_b0 = math.sqrt(sigma2 * swxx / det)
    se_b1 = math.sqrt(sigma2 * sw / det)
    return b0, b1, se_b0, se_b1


def test_weighted_fit_matches_normal_equations_oracle():
    rng = np.random.default_rng(20)
    for _ in range(50):
        k = int(rng.integers(3, 40))
        x = rng.normal(0.0, 3.0, size=k)
        y = 1.5 + 0.3 * x + rng.normal(0.0, 1.0, size=k)
        w = rng.uniform(0.2, 5.0, size=k)
        fit = weighted_linear_fit(x, y, w)
        b0, b1, se_b0, se_b1 = normal_equations_fit(x, y, w)
        for got, want in [(fit.b0, b0), (fit.b1, b1), (fit.se_b0, se_b0), (fit.se_b1, se_b1)]:
            assert got == pytest.approx(want, rel=1e-10)
        assert fit.df == k - 2


def test_weighted_fit_singular_design():
    x = np.array([[2.0, 2.0, 2.0], [1.0, 2.0, 3.0]])
    assert weighted_linear_fit(x, np.array([1.0, 2.0, 3.0])).singular.tolist() == [True, False]
    with pytest.raises(TooFewStudies):
        weighted_linear_fit(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# Egger regression
# ---------------------------------------------------------------------------


def test_egger_constant_effects_line_through_origin():
    # t/se = c * (1/se) exactly, so b0 = 0 with a perfect fit
    ests = est([1.0, 1.0, 1.0], [1.0, 0.5, 0.25])
    r = egger_test(ests, PrecisionAxis.SE, EggerWeighting.UNWEIGHTED)
    assert r.statistic == 0.0
    assert r.p_value == 0.5
    assert not r.reject


def test_egger_identical_ses_singular():
    with pytest.raises(SingularDesign):
        egger_test(est([1.0, 2.0, 3.0], 0.5), PrecisionAxis.SE)


def test_egger_matches_oracle_on_random_data():
    rng = np.random.default_rng(21)
    ests = random_estimates(rng, k=15)
    ses, values = ests.se, ests.value
    r = egger_test(ests, PrecisionAxis.SE, EggerWeighting.UNWEIGHTED)
    b0, _, se_b0, _ = normal_equations_fit(1.0 / ses, values / ses, np.ones(len(ests)))
    assert r.statistic == pytest.approx(b0 / se_b0, rel=1e-10)
    assert r.p_value == pytest.approx(float(sps.t.sf(b0 / se_b0, len(ests) - 2)), rel=1e-10)


def test_egger_axis_n_uses_sample_size():
    rng = np.random.default_rng(22)
    ests = random_estimates(rng, k=10)
    ns, ses, values = ests.n.astype(float), ests.se, ests.value
    r = egger_test(ests, PrecisionAxis.N)
    b0, _, se_b0, _ = normal_equations_fit(ns, values / ses, np.ones(len(ests)))
    assert r.statistic == pytest.approx(b0 / se_b0, rel=1e-10)


def test_egger_weighting_variants_run():
    rng = np.random.default_rng(23)
    ests = random_estimates(rng, k=10)
    for weighting in EggerWeighting:
        r = egger_test(ests, PrecisionAxis.SE, weighting)
        assert 0.0 <= r.p_value <= 1.0
        assert weighting.value in r.test_id


def test_egger_two_sided():
    rng = np.random.default_rng(24)
    ests = random_estimates(rng, k=10)
    one = egger_test(ests, sidedness=Sidedness.ONE_SIDED)
    two = egger_test(ests, sidedness=Sidedness.TWO_SIDED)
    expected = 2 * min(one.p_value, 1 - one.p_value)
    assert two.p_value == pytest.approx(expected, rel=1e-9)


def test_egger_too_few_studies():
    with pytest.raises(TooFewStudies):
        egger_test(est([1.0, 2.0], [0.5, 0.4]))


# ---------------------------------------------------------------------------
# Macaskill regression
# ---------------------------------------------------------------------------


def test_macaskill_constant_response_never_rejects():
    ests = est([1.0, 1.0, 1.0], [0.5, 0.4, 0.3], n=[50, 200, 800])
    r = macaskill_test(ests, PrecisionAxis.N)
    assert r.statistic == 0.0
    assert r.p_value == 0.5
    assert not r.reject


def test_macaskill_small_studies_inflated():
    ests = est([2.0, 1.5, 1.0], 1.0, n=[50, 200, 800])
    r_n = macaskill_test(ests, PrecisionAxis.N)
    assert r_n.statistic < 0.0
    r_inv = macaskill_test(ests, PrecisionAxis.INV_N, MacaskillWeighting.PETERS)
    assert r_inv.statistic > 0.0


def test_macaskill_matches_oracle():
    rng = np.random.default_rng(25)
    ests = random_estimates(rng, k=12)
    values, ns, w = ests.value, ests.n.astype(float), 1.0 / ests.se**2
    r = macaskill_test(ests, PrecisionAxis.N, MacaskillWeighting.INV_VARIANCE_FIXED)
    _, b1, _, se_b1 = normal_equations_fit(ns, values, w)
    assert r.statistic == pytest.approx(b1 / se_b1, rel=1e-10)
    # alternative is b1 < 0, so p is the lower tail
    assert r.p_value == pytest.approx(float(sps.t.cdf(b1 / se_b1, len(ests) - 2)), rel=1e-10)


def test_macaskill_deeks_predictor_and_weights():
    rng = np.random.default_rng(26)
    ests = random_estimates(rng, k=12)
    values, esses = ests.value, ests.ess
    r = macaskill_test(ests, PrecisionAxis.ESS, MacaskillWeighting.ESS)
    _, b1, _, se_b1 = normal_equations_fit(1.0 / np.sqrt(esses), values, esses)
    assert r.statistic == pytest.approx(b1 / se_b1, rel=1e-10)
    assert r.p_value == pytest.approx(float(sps.t.sf(b1 / se_b1, len(ests) - 2)), rel=1e-10)


# at scale 10**7 the marginals reach 8e9, and m1 * m2 passes 2**63
@pytest.mark.parametrize("scale", [1, 10**7])
def test_macaskill_peters_mass_weights(scale):
    rng = np.random.default_rng(39)
    rows = []
    for _ in range(11):
        n = int(rng.integers(60, 800))
        m1 = int(rng.integers(10, n - 10))
        rows.append((rng.normal(1.0, 0.4), rng.uniform(0.2, 0.8), n * scale, m1 * scale, (n - m1) * scale))
    values, ses, ns, m1s, m2s = (np.array(col) for col in zip(*rows))
    ests = est(values, ses, n=ns, m1=m1s, m2=m2s)
    masses = np.array([m1 * m2 / n for _, _, n, m1, m2 in rows])
    ns = ns.astype(float)
    r = macaskill_test(ests, PrecisionAxis.INV_N, MacaskillWeighting.PETERS)
    _, b1, _, se_b1 = normal_equations_fit(1.0 / ns, values, masses)
    assert r.statistic == pytest.approx(b1 / se_b1, rel=1e-10)


# ---------------------------------------------------------------------------
# Kendall's tau
# ---------------------------------------------------------------------------


def brute_force_tail(xs, ys):
    """P(S_perm >= S_obs) by exhaustive permutation of ys."""
    xs = list(xs)
    ys = list(ys)

    def s_stat(bs):
        s = 0
        for i, j in itertools.combinations(range(len(xs)), 2):
            s += np.sign(xs[j] - xs[i]) * np.sign(bs[j] - bs[i])
        return s

    observed = s_stat(ys)
    count = 0
    total = 0
    for perm in itertools.permutations(ys):
        total += 1
        if s_stat(perm) >= observed:
            count += 1
    return count / total


def kendall_tau(xs, ys):
    """Kendall's tau-b and the one-sided (tau > 0) p-value."""
    tau, p_greater, _ = _kendall_rows(np.array([xs], dtype=float), np.array([ys], dtype=float))
    return tau[0], p_greater[0]


def test_kendall_trivial_orderings():
    tau, p = kendall_tau([1, 2, 3, 4], [1, 2, 3, 4])
    assert tau == 1.0
    assert p == pytest.approx(1 / 24)
    tau, _ = kendall_tau([1, 2, 3, 4], [4, 3, 2, 1])
    assert tau == -1.0
    tau, _ = kendall_tau([1, 2, 3], [1, 3, 2])
    assert tau == pytest.approx(1 / 3)
    tau, p = kendall_tau([1, 2, 3, 4], [1, 2, 4, 3])
    assert tau == pytest.approx(2 / 3)
    assert p == pytest.approx(brute_force_tail([1, 2, 3, 4], [1, 2, 4, 3]))


def test_kendall_exact_matches_enumeration():
    rng = np.random.default_rng(27)
    for k in (4, 5, 6, 7):
        xs = rng.normal(size=k)
        ys = rng.normal(size=k)
        _, p = kendall_tau(xs, ys)
        assert p == pytest.approx(brute_force_tail(xs, ys), abs=1e-12)


def test_kendall_normal_approx_close_to_exact_small_k():
    rng = np.random.default_rng(28)
    for k in (4, 5, 6, 7):
        for _ in range(10):
            xs = rng.normal(size=k)
            ys = rng.normal(size=k)
            _, p_exact = kendall_tau(xs, ys)
            # recompute the approximate path by hand
            s = 0.0
            for i, j in itertools.combinations(range(k), 2):
                s += np.sign(xs[j] - xs[i]) * np.sign(ys[j] - ys[i])
            sd = math.sqrt(k * (k - 1) * (2 * k + 5) / 18.0)
            p_norm = float(sps.norm.sf((s - 1.0) / sd))
            assert abs(p_norm - p_exact) < 0.05


def pairwise_s(xs, ys):
    """Kendall's S of one sample: the sign products of its every pair, summed."""
    i, j = np.triu_indices(len(xs), 1)
    return float((np.sign(xs[j] - xs[i]) * np.sign(ys[j] - ys[i])).sum())


def kendall_tied_p_greater(xs, ys):
    """P(S >= s) from Kendall's (1970) tie-corrected Var(S), continuity-corrected."""
    k = len(xs)
    s = pairwise_s(xs, ys)
    t = np.unique(xs, return_counts=True)[1].astype(float)
    u = np.unique(ys, return_counts=True)[1].astype(float)
    var_s = (
        (k * (k - 1) * (2 * k + 5) - np.sum(t * (t - 1) * (2 * t + 5))
         - np.sum(u * (u - 1) * (2 * u + 5))) / 18.0
        + np.sum(t * (t - 1)) * np.sum(u * (u - 1)) / (2.0 * k * (k - 1))
        + np.sum(t * (t - 1) * (t - 2)) * np.sum(u * (u - 1) * (u - 2))
        / (9.0 * k * (k - 1) * (k - 2))
    )
    return float(sps.norm.sf((s - 1.0) / math.sqrt(var_s)))


def test_kendall_tau_b_matches_scipy_with_ties():
    # k runs across KENDALL_MERGE_MIN_K, so both ways to S meet scipy
    rng = np.random.default_rng(29)
    for k, _ in itertools.product([12, KENDALL_MERGE_MIN_K - 1, KENDALL_MERGE_MIN_K, 100, 300], range(25)):
        xs = rng.integers(0, 5, size=k).astype(float)
        ys = rng.integers(0, 5, size=k).astype(float)
        if np.ptp(xs) == 0 or np.ptp(ys) == 0:
            continue
        tau, p = kendall_tau(xs, ys)
        expected = sps.kendalltau(xs, ys, variant="b").statistic
        assert tau == pytest.approx(expected, rel=1e-12)
        assert p == pytest.approx(kendall_tied_p_greater(xs, ys), rel=1e-12)


@pytest.mark.parametrize("k", [63, 64, 65, 100, 300])
@pytest.mark.parametrize("values", [4, None])
def test_kendall_s_matches_every_pair(k, values):
    # a few values tie in x, in y and in both; continuous draws do not tie
    rng = np.random.default_rng(k)
    xs, ys = rng.normal(size=(2, 8, k)) if values is None else rng.integers(0, values, size=(2, 8, k)) * 0.5
    expected = [pairwise_s(x, y) for x, y in zip(xs, ys)]
    tx, ty = _tie_sums(xs)[0], _tie_sums(ys)[0]
    assert _kendall_s_merge(xs, ys, tx, ty).tolist() == expected
    assert _kendall_s_offsets(xs, ys).tolist() == expected
    n0 = k * (k - 1) / 2
    assert _kendall_rows(xs, ys)[0].tolist() == (np.array(expected) / np.sqrt((n0 - tx) * (n0 - ty))).tolist()


def test_kendall_s_ways_agree_on_non_finite_rows():
    # a pair whose difference is nan (a nan, or one infinity twice) makes S nan;
    # one infinity is just the largest value
    rng = np.random.default_rng(30)
    k = KENDALL_MERGE_MIN_K + 5
    xs, ys = rng.normal(size=(2, 7, k))
    xs[0, 3] = np.inf
    xs[1, [3, 9]] = np.inf
    xs[2, [3, 9]] = -np.inf
    xs[3, [3, 9]] = [np.inf, -np.inf]
    xs[4, 5] = np.nan
    ys[5, [0, 1]] = np.inf
    ys[6, 2] = np.nan
    merged = _kendall_s_merge(xs, ys, _tie_sums(xs)[0], _tie_sums(ys)[0])
    summed = _kendall_s_offsets(xs, ys)
    _kendall_rows(xs, ys)  # and no warning on the way
    undefined = [False, True, True, False, True, True, True]
    assert np.isnan(merged).tolist() == undefined
    assert np.isnan(summed).tolist() == undefined
    assert merged[[0, 3]].tolist() == summed[[0, 3]].tolist()
    for row in (0, 3):
        # an infinity sorts as a finite value past every other does
        assert merged[row] == pairwise_s(np.clip(xs[row], -1e300, 1e300), ys[row])


def test_begg_block_with_failed_rows_raises_no_warning():
    # a study whose variance swamps the rest has a centered variance of 0, so
    # its t_star is inf (row 1: the rest move the pooled effect off its tiny
    # value) or nan (row 2: every value is the pooled effect); warnings are
    # errors under the suite's filterwarnings
    rng = np.random.default_rng(31)
    for k in (KENDALL_MERGE_MIN_K - 1, KENDALL_MERGE_MIN_K, 100):
        ses = rng.uniform(0.1, 1.0, size=(4, k))
        values = rng.normal(0.0, ses)
        ses[[1, 2], 0] = 2.0**-40
        values[1, 0] = 1e-9
        values[2] = 0.25
        ses[3] = 0.5
        ns = np.full((4, k), 100)
        rows = EstimateRows(values, ses, ns, ns * 1.0, ns // 2, ns - ns // 2)
        results = begg_rows(rows)
        assert results.failure.tolist() == [
            Failure.NONE, Failure.CENTERED_VARIANCE, Failure.CENTERED_VARIANCE, Failure.ALL_TIED
        ]
        for i in range(4):
            alone = begg_rows(EstimateRows(*(column[i:i + 1] for column in rows)))
            assert np.array_equal(alone.statistic, results.statistic[i:i + 1], equal_nan=True)
            assert np.array_equal(alone.p_value, results.p_value[i:i + 1], equal_nan=True)


def test_kendall_constant_vector_is_uninformative():
    tau, p = kendall_tau([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0])
    assert (tau, p) == (0.0, 0.5)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def test_pool_fixed_effects():
    assert pool_fixed_effects(est([1.0, 3.0], 0.3)) == pytest.approx(2.0)
    assert pool_fixed_effects(est([1.0, 3.0], [1.0, math.sqrt(0.5)])) == pytest.approx(7 / 3)
    assert pool_fixed_effects(est([4.2], 0.7)) == pytest.approx(4.2)


def test_pool_random_effects_homogeneous():
    theta, tau2 = pool_random_effects(est([1.0, 1.0, 1.0], [0.2, 0.4, 0.6]))
    assert tau2 == 0.0
    assert theta == pytest.approx(1.0)


def test_pool_random_effects_reduces_to_fixed_when_tau0():
    # Q < k - 1 here, so the heterogeneity estimate truncates at zero
    ests = est([1.0, 1.2, 0.9], [0.5, 0.6, 0.4])
    theta, tau2 = pool_random_effects(ests)
    assert tau2 == 0.0
    assert theta == pytest.approx(pool_fixed_effects(ests))


def test_pool_random_effects_dersimonian_laird_golden():
    ests = est([0.0, 2.0, 4.0], 1.0)
    theta, tau2 = pool_random_effects(ests)
    assert tau2 == pytest.approx(3.0)  # Q = 8, (8 - 2) / 2
    assert theta == pytest.approx(2.0)


def test_pool_random_effects_needs_two():
    with pytest.raises(TooFewStudies):
        pool_random_effects(est([1.0], 0.5))


def test_reduceat_behind_a_zero_pad_sums_like_sum():
    # trim and fill's prefix tables sum each prefix this way and rely on
    # getting the bits of the prefix's own sum(axis=-1)
    rng = np.random.default_rng(11)
    for length in range(1, 301):
        a = rng.standard_normal(length) * 10.0 ** rng.uniform(-8.0, 8.0, length)
        b = rng.standard_normal((3, length)) * 10.0 ** rng.uniform(-8.0, 8.0, (3, length))
        zero = np.zeros(1)
        assert np.add.reduceat(np.concatenate((zero, a)), [0]).tobytes() == a.sum(keepdims=True).tobytes()
        padded = np.concatenate((np.zeros((3, 1)), b), axis=1)
        assert np.add.reduceat(padded, [0], axis=1)[:, 0].tobytes() == b.sum(axis=1).tobytes()
        # several padded segments in one row, as the tables lay them out
        row = np.concatenate((zero, a, zero, -a[::-1], zero, np.full(length, -0.0)))
        sums = np.add.reduceat(row, [0, length + 1, 2 * length + 2])
        assert sums.tobytes() == np.array([a.sum(), (-a[::-1]).sum(), np.full(length, -0.0).sum()]).tobytes()


@pytest.mark.parametrize("axis", [PrecisionAxis.SE, PrecisionAxis.N])
def test_prefix_pools_are_each_prefix_pooled_alone(axis):
    rng = np.random.default_rng(3)
    values = np.sort(np.round(rng.normal(0.0, 1.0, (4, 12)), 1), axis=-1)
    ses = rng.uniform(0.1, 1.4, (4, 12))
    ns = rng.integers(20, 500, (4, 12))
    rule = asymmetry.TRIM_FILL_AXES[axis]
    # each axis pools one weight column: the variances, or the sizes as floats
    weights = rule.weights(EstimateRows(values, ses, ns, None, None, None))
    expected = ses**2 if axis is PrecisionAxis.SE else ns.astype(float)
    assert weights.dtype == np.float64 and weights.tobytes() == expected.tobytes()
    table = _prefix_pools(values, weights, rule)
    for m in range(1, 13):
        alone = rule.pool(values[:, :m], weights[:, :m])
        assert table[:, m - 1].tobytes() == alone.tobytes(), m
    if axis is PrecisionAxis.SE:
        assert table[:, 0].tobytes() == values[:, 0].tobytes()  # one value pools to itself
        assert table[:, -1].tobytes() == _pool_dersimonian_laird(values, ses**2)[0].tobytes()


# ---------------------------------------------------------------------------
# Begg's rank correlation
# ---------------------------------------------------------------------------


def test_begg_perfectly_concordant():
    # big effects riding on big variances: t* strictly increasing in Var
    k = 10
    ses = np.linspace(0.2, 2.0, k)
    ests = est(100.0 * ses * ses, ses)
    r = begg_test(ests, PrecisionAxis.SE)
    assert r.statistic == 1.0
    s_stat = k * (k - 1) / 2
    sd = math.sqrt(k * (k - 1) * (2 * k + 5) / 18.0)
    assert r.p_value == pytest.approx(float(sps.norm.sf((s_stat - 1) / sd)))


def test_begg_constant_standardized_effects():
    # all effects equal: every t* is zero, no information either way
    ests = est([1.0] * 4, [0.3, 0.5, 0.7, 0.9], n=[50, 100, 200, 400])
    r = begg_test(ests, PrecisionAxis.SE)
    assert r.statistic == 0.0
    assert r.p_value == 0.5
    assert not r.reject


def test_begg_all_tied_dispersion():
    ests = est([0.2, 0.5, 0.9, 1.4], 0.5, n=100)
    with pytest.raises(AllTied):
        begg_test(ests, PrecisionAxis.SE)
    # same N everywhere is fine for the variance dispersion but not 1/N
    ests = est([0.2, 0.5, 0.9, 1.4], [0.3, 0.4, 0.5, 0.6], n=100)
    with pytest.raises(AllTied):
        begg_test(ests, PrecisionAxis.N)


def test_begg_standardizes_by_centered_variance():
    rng = np.random.default_rng(30)
    ests = random_estimates(rng, k=10)
    variances = ests.se**2
    t_bar = np.sum(ests.value / variances) / np.sum(1.0 / variances)
    centered = (ests.value - t_bar) / np.sqrt(variances - 1.0 / np.sum(1.0 / variances))
    plain = (ests.value - t_bar) / ests.se
    expected = kendall_tau(centered, variances)[0]
    assert begg_test(ests).statistic == pytest.approx(expected, rel=1e-12)
    # dividing by SE alone reorders t* here, so it gives another statistic
    assert kendall_tau(plain, variances)[0] != expected


def test_begg_dispersion_variants_and_two_sided():
    rng = np.random.default_rng(31)
    ests = random_estimates(rng, k=9)
    for axis in PrecisionAxis:
        one = begg_test(ests, axis)
        two = begg_test(ests, axis, sidedness=Sidedness.TWO_SIDED)
        assert 0.0 <= one.p_value <= 1.0
        assert two.p_value <= 1.0


# ---------------------------------------------------------------------------
# trim and fill
# ---------------------------------------------------------------------------


def _center_and_rank(values, theta):
    """One row's centered effects, average ranks of |centered|, gamma_plus, S+ and L, from the pass helpers."""
    centered = values - theta
    ranks, _ = _average_ranks(np.abs(centered)[None])
    s_plus, l_est, _ = _trim_fill_estimate(TrimFillEstimator.L, values[None], np.array([theta]))
    return centered, ranks[0], _gamma_plus(centered[None])[0], s_plus[0], l_est[0]


def test_center_and_rank_hand_case():
    # positive centered effects hold ranks {4, 5}: L = (4*9 - 30) / 9
    centered, ranks, gamma, s_plus, l_est = _center_and_rank(
        np.array([-1.0, -2.0, -3.0, 4.0, 5.0]), 0.0
    )
    assert list(ranks) == [1, 2, 3, 4, 5]
    assert gamma == 2
    assert s_plus == 9.0
    assert l_est == pytest.approx(2 / 3)
    assert round(l_est + 0.5 - 1e-12) == 1  # rounds to k0 = 1


def test_gamma_plus_tie_groups():
    # a tie group counts whole when every member is positive ...
    _, ranks, gamma, _, _ = _center_and_rank(np.array([5.0, 5.0, 3.0, -1.0]), 0.0)
    assert list(ranks) == [3.5, 3.5, 2, 1]
    assert gamma == 3
    # ... a mixed top group leaves no run ...
    _, _, gamma, s_plus, _ = _center_and_rank(np.array([-3.0, 3.0, 1.0, -1.0, 2.0]), 0.0)
    assert gamma == 0
    assert s_plus == 4.5 + 3 + 1.5
    # ... and a mixed lower group ends the run before any of its members
    _, _, gamma, _, _ = _center_and_rank(np.array([5.0, 4.0, 2.0, -2.0, 1.0]), 0.0)
    assert gamma == 2
    # a centered value of exactly 0 is not positive
    _, _, gamma, _, _ = _center_and_rank(np.array([1.0, 3.0, 1.0]), 1.0)
    assert gamma == 1


def test_gamma_plus_matches_group_loop():
    def reference(centered):
        gamma = 0
        for level in sorted(set(np.abs(centered).tolist()), reverse=True):
            group = centered[np.abs(centered) == level]
            if not np.all(group > 0):
                break
            gamma += len(group)
        return gamma

    rng = np.random.default_rng(39)
    for _ in range(2000):
        values = rng.integers(-3, 4, size=int(rng.integers(1, 12))) * 0.5
        theta = float(rng.choice([0.0, 0.5, -1.0]))
        centered, ranks, gamma, s_plus, _ = _center_and_rank(values, theta)
        assert gamma == reference(centered)
        # the tied average ranks too, and S+ over the positive ones
        assert np.array_equal(ranks, sps.rankdata(np.abs(centered)))
        assert s_plus == np.sum(ranks[centered > 0])
        # a row is tied exactly when its ranks are not the integers 1..k
        _, _, tied = _trim_fill_estimate(TrimFillEstimator.L, values[None], np.array([theta]))
        assert tied[0] == (not np.array_equal(np.sort(ranks), np.arange(1, len(values) + 1)))


def gamma_plus_by_magnitude(centered):
    """gamma_plus of each row: |centered| above the largest |non-positive| one, over the whole (rows, k) table."""
    magnitude = np.abs(centered)
    blocking = np.where(centered <= 0, magnitude, -1.0).max(axis=-1)
    return np.count_nonzero(magnitude > blocking[:, None], axis=-1)


@settings(max_examples=300, deadline=None)
@given(
    halves=arrays(np.int64, st.tuples(st.integers(1, 5), st.integers(1, 12)), elements=st.integers(-6, 6)),
    theta=st.sampled_from([0.0, 0.5, -1.0, -3.5, 3.0]),  # -3.5 leaves no non-positive value
    ascending=st.booleans(),
)
def test_gamma_plus_is_the_magnitude_form(halves, theta, ascending):
    # halves tie often, and centered values of exactly 0 (and -0.0 at theta 0) occur
    values = halves * 0.5
    if ascending:
        values = np.sort(values, axis=-1)  # as the table path hands its rows
    centered = values - theta
    expected = gamma_plus_by_magnitude(centered)
    assert _gamma_plus(centered).tolist() == expected.tolist()
    _, statistic, _ = _trim_fill_estimate(TrimFillEstimator.R, values, np.full(len(values), theta))
    assert statistic.tolist() == (expected - 1.0).tolist()


def test_gamma_plus_is_the_magnitude_form_on_edge_rows():
    rows = np.array([
        [-0.0, 0.0, 1.0, 2.0],  # zeros of either sign block nothing above them
        [2.0, 0.5, 1.0, 1.0],  # no non-positive value: every value counts
        [2.0, -2.0, 1.0, -1.0],  # a mixed top tie group leaves no run
        [1.5, -1.0, 2.0, 1.0],
        [-3.0, -0.5, -2.0, -1.0],  # nothing positive
        [np.nan, -1.0, 1.5, 2.0],  # a nan neither blocks nor counts
        [np.nan, np.nan, np.nan, np.nan],
    ])
    assert _gamma_plus(rows).tolist() == gamma_plus_by_magnitude(rows).tolist() == [2, 4, 0, 2, 0, 2, 0]


def test_trim_fill_state_holds_the_last_pass_as_python_scalars():
    values = np.array([-1.0, -2.0, -3.0, 4.0, 5.0])
    state = trim_fill_iterate(est(values, 0.5), TrimFillEstimator.L)
    assert [field.name for field in dataclasses.fields(TrimFillState)] == [
        "theta_hat", "k0", "iterations", "converged", "statistic", "p_value"
    ]
    assert [type(value) for value in dataclasses.astuple(state)] == [float, int, int, bool, float, float]
    # the statistic is L at the final pooled effect, which rounds to k0
    _, _, _, s_plus, l_est = _center_and_rank(values, state.theta_hat)
    assert state.converged
    assert state.statistic == l_est
    assert state.k0 == min(max(math.floor(l_est + 0.5), 0), len(values) - 1)
    assert state.p_value == _signed_rank_tail(len(values), s_plus)


def test_trim_fill_symmetric_no_bias():
    ests = est([-2.0, -1.0, 0.0, 1.0, 2.0], 0.5)
    r = trim_fill_test(ests, PrecisionAxis.SE, TrimFillEstimator.R)
    assert abs(r.pooled_effect) < 1e-12
    assert r.k0 == 0
    assert not r.reject
    assert r.converged


def test_trim_fill_all_below_pooled_clamps_to_zero():
    # equal weights pool to -0.5, so the top-ranked centered effect (-4.5)
    # is negative: run length 0, R = -1, clamped k0 = 0
    values = np.array([-5.0, -1.0, 0.5, 1.0, 2.0])
    state = trim_fill_iterate(est(values, 0.5), TrimFillEstimator.R)
    assert state.theta_hat == -0.5
    assert _gamma_plus((values - state.theta_hat)[None]).tolist() == [0]
    assert state.statistic == -1.0
    assert state.p_value == 1.0
    assert state.k0 == 0


def test_trim_fill_run_p_value():
    # one clear outlier above a tight symmetric cluster
    rng = np.random.default_rng(32)
    values = np.concatenate([rng.normal(0, 0.05, size=9), [5.0]])
    ests = est(values, 0.5)
    r = trim_fill_test(ests, PrecisionAxis.SE, TrimFillEstimator.R)
    state = trim_fill_iterate(ests, TrimFillEstimator.R)
    gamma = int(_gamma_plus((values - state.theta_hat)[None])[0])
    assert state.statistic == gamma - 1
    assert r.p_value == state.p_value == 2.0 ** (-gamma)
    assert r.k0 in (0, 1)


def test_signed_rank_tail_matches_enumeration():
    k = 5
    ranks = list(range(1, k + 1))
    for s_obs in range(0, 16):
        exact = sum(
            1
            for signs in itertools.product([0, 1], repeat=k)
            if sum(r for r, up in zip(ranks, signs) if up) >= s_obs
        ) / 2.0**k
        assert _signed_rank_tail(k, float(s_obs)) == pytest.approx(exact)


def full_recurrence(k):
    """Subset counts of {1..k} by rank sum, adding every shifted slice, zero tails included."""
    counts = np.zeros(k * (k + 1) // 2 + 1)
    counts[0] = 1.0
    for r in range(1, k + 1):
        counts[r:] += counts[:-r].copy()
    return counts


@pytest.mark.parametrize("k, step", [(1, 1), (2, 1), (3, 1), (10, 1), (57, 1), (200, 1), (1000, 997), (1023, 997)])
def test_signed_rank_tail_matches_full_recurrence_bitwise(k, step):
    # the table halves its probabilities at each step; while 2**k is
    # finite that is the subset counts scaled by a power of two, which
    # rounds nothing
    counts = full_recurrence(k)
    for threshold in [*range(1, len(counts), step), len(counts) - 1]:
        expected = counts[threshold:].sum() / 2.0**k
        assert _signed_rank_tail(k, float(threshold)).hex() == expected.hex(), threshold


@pytest.mark.parametrize("k", [1024, 1100])
def test_l_estimator_beyond_float_range_of_subset_counts(k):
    # 2**k overflows from k = 1024 on, and the subset counts from about k = 1030
    top = k * (k + 1) // 2
    tails = [_signed_rank_tail(k, float(s)) for s in (1, top // 4, top // 2, 3 * top // 4, top)]
    assert all(0.0 <= p <= 1.0 for p in tails)
    assert tails == sorted(tails, reverse=True)
    values = np.random.default_rng(k).normal(size=k)
    result = trim_fill_test(est(values, 0.5), PrecisionAxis.SE, TrimFillEstimator.L)
    assert 0.0 <= result.p_value <= 1.0


def test_l_pvalue_tied_ranks_falls_back_to_normal():
    k = 6
    ranks, tied = _average_ranks(np.array([[1.0, 1.0, 2.0, 3.0, 4.0, 5.0], [3.0, 1.0, 2.0, 6.0, 5.0, 4.0]]))
    assert ranks[0].tolist() == [1.5, 1.5, 3.0, 4.0, 5.0, 6.0]
    assert ranks[1].tolist() == [3.0, 1.0, 2.0, 6.0, 5.0, 4.0]
    assert tied.tolist() == [True, False]
    s_plus = 10.5
    expected = float(
        sps.norm.sf((s_plus - 0.5 - k * (k + 1) / 4.0) / math.sqrt(k * (k + 1) * (2 * k + 1) / 24.0))
    )
    # untied integer ranks take the exact path instead
    p = _l_pvalue(k, np.array([s_plus, 21.0]), tied)
    assert p[0] == pytest.approx(expected)
    assert p[1] == pytest.approx(1.0 / 2.0**6)


def test_l_pvalue_of_an_untied_row_past_the_exact_bound_is_normal():
    # the exact table costs O(k**3) time, so past the bound an untied row takes a tied row's normal p
    k = EXACT_SIGNED_RANK_MAX_K + 1
    values = np.random.default_rng(k).normal(size=k)
    state = trim_fill_iterate(est(values, 0.5), TrimFillEstimator.L)
    _, ranks, _, s_plus, _ = _center_and_rank(values, state.theta_hat)
    assert sorted(ranks.tolist()) == list(range(1, k + 1))  # untied
    mean, sd = k * (k + 1) / 4.0, math.sqrt(k * (k + 1) * (2 * k + 1) / 24.0)
    assert state.p_value == pytest.approx(float(sps.norm.sf((s_plus - 0.5 - mean) / sd)), rel=1e-12)
    s_plus = np.array([s_plus, mean + 2.0 * sd])
    untied = _l_pvalue(k, s_plus, np.array([False, False]))
    assert untied.tobytes() == _l_pvalue(k, s_plus, np.array([True, True])).tobytes()
    # up to the bound the same row takes the exact path
    exact = _l_pvalue(k - 1, s_plus, np.array([False, False]))
    assert exact.tolist() == [_signed_rank_tail(k - 1, s) for s in s_plus.tolist()]


def test_trim_fill_l_estimator_paths():
    rng = np.random.default_rng(33)
    ests = random_estimates(rng, k=10)
    r = trim_fill_test(ests, PrecisionAxis.SE, TrimFillEstimator.L)
    assert 0.0 <= r.p_value <= 1.0
    assert 0 <= r.k0 <= 9
    assert r.test_id.endswith(",l)")


# at scale 10**16 the sizes sum past 2**63
@pytest.mark.parametrize("scale", [1, 10**16])
def test_trim_fill_axis_n_pools_by_sample_size(scale):
    values = np.array([1.0, 2.0, 6.0])
    ns = np.array([100, 200, 700]) * scale
    state = trim_fill_iterate(est(values, 0.5, n=ns), TrimFillEstimator.R, PrecisionAxis.N)
    # N weights pool to (100 + 400 + 4200) / 1000; the most extreme
    # centered value is then negative, so k0 = 0 and convergence is
    # immediate with the untrimmed pooled effect
    assert state.iterations == 1
    assert state.theta_hat == pytest.approx(4.7)
    assert state.k0 == 0


def test_trim_fill_converges_quickly_on_random_data():
    rng = np.random.default_rng(38)
    for _ in range(200):
        k = int(rng.integers(5, 31))
        values = rng.normal(0.0, 1.0, size=k)
        variances = rng.uniform(0.05, 1.0, size=k)
        ns = rng.integers(50, 1001, size=k)
        ests = est(values, np.sqrt(variances), n=ns)
        for estimator in TrimFillEstimator:
            for axis in (PrecisionAxis.SE, PrecisionAxis.N):
                state = trim_fill_iterate(ests, estimator, axis)
                assert state.converged
                assert state.iterations <= 25


def test_trim_fill_one_sided_only():
    rng = np.random.default_rng(34)
    ests = random_estimates(rng, k=8)
    r = trim_fill_test(ests)
    assert r.sidedness is Sidedness.ONE_SIDED
    assert r.k0 is not None
    assert r.pooled_effect is not None


# ---------------------------------------------------------------------------
# shared invariance properties
# ---------------------------------------------------------------------------


def shift_estimates(ests, c):
    return dataclasses.replace(ests, value=ests.value + c)


def scale_estimates(ests, c):
    return dataclasses.replace(ests, value=ests.value * c, se=ests.se * c)


@st.composite
def drawn_estimates(draw):
    """Estimates on fine grids: values in [-3, 3], SEs in [0.05, 2] and sizes from 10 to 5000.

    From k = 5 on, neither trim-and-fill estimator can trim all but one
    study: R would need every centered value positive, and L's k0 is at
    most k(k + 1) / (2k - 1), rounded, which is below k - 1.
    """
    k = draw(st.integers(5, 25))
    column = lambda low, high: draw(arrays(np.int64, k, elements=st.integers(low, high), fill=st.nothing()))
    return est(column(-3_000_000, 3_000_000) / 1e6, column(5, 200) / 100, n=column(10, 5000))


def in_general_position(ests, tolerance=1e-9):
    """No |value - pool| is within ``tolerance`` of 0 or of another value's, for the pools of 2..k smallest values.

    At such a near-tie, the rounding of a shifted or scaled pooled effect
    can flip a sign or swap two ranks; equal values stay equal. The pool
    of one value is out of reach (see ``drawn_estimates``).
    """
    for rule in (asymmetry.TRIM_FILL_AXES[PrecisionAxis.SE], asymmetry.TRIM_FILL_AXES[PrecisionAxis.N]):
        values, weights = _sorted_block(ests.rows(), rule)
        pools = _prefix_pools(values, weights, rule)[0, 1:]
        magnitudes = np.sort(np.abs(np.unique(values) - pools[:, None]), axis=-1)
        if not ((magnitudes[:, 0] > tolerance).all() and (np.diff(magnitudes, axis=-1) > tolerance).all()):
            return False
    return True


def statistic_or_failure(test, ests):
    """The test's statistic, or the class of the library error it raises."""
    try:
        return test(ests).statistic
    except FunnelBiasError as exc:
        return type(exc)


def assert_trim_fill_moves_with(before, after, pooled):
    """Every trim-and-fill variant keeps its k0, statistic and p, and its pooled effect maps by ``pooled``."""
    for axis, estimator in itertools.product((PrecisionAxis.SE, PrecisionAxis.N), TrimFillEstimator):
        base, moved = trim_fill_test(before, axis, estimator), trim_fill_test(after, axis, estimator)
        where = (axis, estimator)
        assert (moved.k0, moved.statistic, moved.p_value) == (base.k0, base.statistic, base.p_value), where
        assert moved.pooled_effect == pytest.approx(pooled(base.pooled_effect), rel=1e-12, abs=1e-12), where


@settings(max_examples=150, deadline=None)
@given(ests=drawn_estimates(), shift=st.floats(-10.0, 10.0))
def test_location_shift_leaves_rank_statistics_unchanged(ests, shift):
    assume(in_general_position(ests))
    shifted = shift_estimates(ests, shift)
    assert statistic_or_failure(begg_test, shifted) == pytest.approx(statistic_or_failure(begg_test, ests))
    assert_trim_fill_moves_with(ests, shifted, lambda theta: theta + shift)


@settings(max_examples=150, deadline=None)
@given(ests=drawn_estimates(), scale=st.floats(0.25, 4.0), power=st.integers(-4, 4))
def test_scale_leaves_standardized_statistics_unchanged(ests, scale, power):
    # by a power of two every product and sum scales exactly, so trim and fill's state does too
    exact = 2.0**power
    assert_trim_fill_moves_with(ests, scale_estimates(ests, exact), lambda theta: theta * exact)
    assume(in_general_position(ests))
    scaled = scale_estimates(ests, scale)
    for test in (egger_test, begg_test):
        assert statistic_or_failure(test, scaled) == pytest.approx(statistic_or_failure(test, ests), rel=1e-9), test
    assert_trim_fill_moves_with(ests, scaled, lambda theta: theta * scale)


# ---------------------------------------------------------------------------
# funnel coordinates
# ---------------------------------------------------------------------------


def test_funnel_points_axes():
    e = est([1.2], 0.5, n=100, ess=64.0)
    for axis, coordinate in [
        (PrecisionAxis.SE, 2.0),
        (PrecisionAxis.N, 100.0),
        (PrecisionAxis.ESS, 64.0),
        (PrecisionAxis.INV_N, 0.01),
    ]:
        effects, axis_values = funnel_points(e, axis)
        assert (effects.tolist(), axis_values.tolist()) == ([1.2], [coordinate])


def test_funnel_points_rejects_an_axis_that_is_not_a_precision_axis():
    with pytest.raises(ValueError, match="funnel axis must be one of"):
        funnel_points(est([1.2, 0.4, 0.9], 0.5), "se")


# ---------------------------------------------------------------------------
# null calibration on synthetic estimates
# ---------------------------------------------------------------------------


def test_null_calibration_synthetic():
    """Rejection rates at alpha = 0.1 under an exchangeable null.

    The regression tests sit near 0.10 (t-approximation slack), Begg is a
    touch conservative, trim-and-fill L near 0.11. Trim-and-fill R is a
    discrete run test: rejection at alpha = 0.1 needs a run of 4, so its
    size is pinned near the fair-signs bound 2^-4 = 0.0625 and it is
    checked against that value.
    """
    rng = np.random.default_rng(37)
    k, reps = 30, 10_000
    draws = []
    for _ in range(reps):  # each replicate's draws in the order a loop over single datasets makes them
        ses = rng.uniform(0.1, 1.0, size=k)
        draws.append((ses, rng.normal(0.0, ses), rng.integers(50, 1001, size=k)))
    ses, values, ns = (np.array(column) for column in zip(*draws))
    rows = EstimateRows(values, ses, ns, ns.astype(float), ns // 2, ns - ns // 2)
    results = {
        "egger": egger_rows(rows, PrecisionAxis.SE, EggerWeighting.UNWEIGHTED),
        "macaskill": macaskill_rows(rows, PrecisionAxis.N, MacaskillWeighting.INV_VARIANCE_FIXED),
        "begg": begg_rows(rows),
    }
    assert not any(r.failure.any() for r in results.values())
    p_values = {name: r.p_value for name, r in results.items()}
    for name, estimator in (("tf_r", TrimFillEstimator.R), ("tf_l", TrimFillEstimator.L)):
        p_values[name] = trim_fill_rows(rows, estimator).p_value
    rates = {name: np.count_nonzero(p <= 0.1) / reps for name, p in p_values.items()}
    assert 0.06 <= rates["egger"] <= 0.14
    assert 0.06 <= rates["macaskill"] <= 0.14
    assert 0.07 <= rates["begg"] <= 0.13
    assert 0.07 <= rates["tf_l"] <= 0.13
    assert abs(rates["tf_r"] - 0.0625) <= 0.01
