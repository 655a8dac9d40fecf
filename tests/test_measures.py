import itertools
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from funnelbias.errors import EmptyGroup, NegativeCell
from funnelbias.measures import (
    _log,
    effective_sample_size,
    kappa,
    ln_dor,
    measure_block,
    measure_studies,
    neg_ln_theta,
    youden,
)
from funnelbias.model import (
    CorrectionPolicy,
    MeasureId,
    MetaDataset,
    StudyTable,
)

HALF = CorrectionPolicy.HALF_IF_ANY_ZERO
NEVER = CorrectionPolicy.NEVER


def cells(t):
    return float(t.x), float(t.w), float(t.y), float(t.z)


def one(fn, *cells):
    """A measure on one table's cells: (value, se, reason of its first failed check or None)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        value, se, checks = fn(*(np.array([c], dtype=float) for c in cells))
    reasons = [reason for undefined, reason in checks if undefined[0]]
    return float(value[0]), float(se[0]), reasons[0] if reasons else None


ZERO_CELL = "lnDOR undefined with a zero cell; apply continuity correction"


def random_table(rng, n_lo=20, n_hi=200):
    n1 = int(rng.integers(n_lo, n_hi))
    n2 = int(rng.integers(n_lo, n_hi))
    x = int(rng.integers(1, n1))
    y = int(rng.integers(1, n2))
    return StudyTable(x=x, w=n1 - x, y=y, z=n2 - y)


# ---------------------------------------------------------------------------
# golden values
# ---------------------------------------------------------------------------


def test_ln_dor_golden():
    value, se, reason = one(ln_dor, 40.0, 10.0, 10.0, 40.0)
    assert reason is None
    assert abs(value - math.log(16.0)) < 1e-12
    assert se == 0.5


def test_ln_dor_zero_when_cells_balance():
    for a in (1.0, 5.0, 33.0):
        assert one(ln_dor, a, a, a, a)[0] == 0.0


def test_ln_dor_after_correction():
    measured = measure_studies(MetaDataset([StudyTable(50, 0, 5, 45)]), MeasureId.LNDOR, HALF)
    expected = math.log(50.5 * 45.5 / (5.5 * 0.5))
    assert abs(measured.estimates.value[0] - expected) < 1e-12
    assert abs(expected - 6.727) < 2e-3


def test_ln_dor_zero_cell_excluded():
    assert one(ln_dor, 50.0, 0.0, 5.0, 45.0)[2] == ZERO_CELL


def test_neg_ln_theta_golden():
    value, se, reason = one(neg_ln_theta, 80.0, 20.0, 20.0, 80.0)
    assert reason is None
    theta = math.log(0.8) / math.log(0.2)
    assert abs(theta - 0.13865) < 1e-4
    assert abs(value - (-math.log(theta))) < 1e-12
    assert abs(value - 1.976) < 1e-3
    expected_se = math.sqrt(
        (1 / 80 - 1 / 100) / math.log(0.8) ** 2 + (1 / 20 - 1 / 100) / math.log(0.2) ** 2
    )
    assert abs(se - expected_se) < 1e-12


def test_neg_ln_theta_chance_line_is_zero():
    # x/n1 == y/n2 makes the Lehmann exponent 1
    value, _, _ = one(neg_ln_theta, 30.0, 70.0, 15.0, 35.0)
    assert abs(value) < 1e-12


def test_neg_ln_theta_boundary_excluded():
    assert one(neg_ln_theta, 100.0, 0.0, 20.0, 80.0)[2] == "lnTheta degenerate when Sen = 1 or FPR = 1"
    assert one(neg_ln_theta, 0.0, 100.0, 20.0, 80.0)[2] == "lnTheta undefined with x = 0 or y = 0"
    # FPR = (1e15 + 0.5) / (1e15 + 1) is below 1, but ln(y) and ln(n2) are the same double
    assert one(neg_ln_theta, 3.5, 1e17, 1e15 + 0.5, 0.5)[2] == "lnTheta degenerate when Sen = 1 or FPR = 1"
    assert one(neg_ln_theta, 1e15 + 0.5, 0.5, 3.5, 1e17)[2] == "lnTheta degenerate when Sen = 1 or FPR = 1"


# every table of these cells; past about 1e13 subjects per group a count's
# log and its group total's log can be the same double
EXTREME_CELLS = (0, 1, 2, 3, 7, 100, 10**6, 10**9, 10**12, 10**13, 10**14, 10**15, 2**52, 10**17, 10**18, 2 * 10**18)


@pytest.mark.parametrize("policy", list(CorrectionPolicy))
@pytest.mark.parametrize("measure", list(MeasureId))
def test_every_usable_study_has_a_finite_estimate(measure, policy):
    tables = np.array(list(itertools.product(EXTREME_CELLS, repeat=4)), dtype=np.int64)
    tables = tables[(tables[:, 0] + tables[:, 1] > 0) & (tables[:, 2] + tables[:, 3] > 0)]
    estimates = measure_studies(MetaDataset(tables), measure, policy).estimates
    assert (estimates.n > 10**13).any()
    assert np.isfinite(estimates.value).all() and np.isfinite(estimates.ess).all()
    assert np.isfinite(estimates.se).all() and (estimates.se > 0).all()


def test_youden_golden():
    value, se, reason = one(youden, 80.0, 20.0, 40.0, 60.0)
    assert reason is None
    assert abs(value - 0.4) < 1e-12
    assert abs(se - math.sqrt(0.004)) < 1e-12


def test_youden_perfect_test_degenerate():
    assert one(youden, 50.0, 0.0, 0.0, 50.0)[2] == (
        "Youden standard error is zero (both proportions on a boundary)"
    )


def test_youden_chance_line():
    assert one(youden, 50.0, 50.0, 25.0, 25.0)[0] == 0.0


def test_kappa_equal_cells_zero():
    assert one(kappa, 7.0, 7.0, 7.0, 7.0)[0] == 0.0


def test_kappa_cancelled_variance_is_degenerate():
    # the variance is exactly 0 here; rounding used to leave se ~ 3.5e-9
    assert one(kappa, 0.0, 4.0, 0.0, 3.0)[2] == "kappa standard error is zero"


def test_kappa_equals_youden_balanced():
    k_value = one(kappa, 80.0, 20.0, 40.0, 60.0)[0]
    y_value = one(youden, 80.0, 20.0, 40.0, 60.0)[0]
    assert abs(k_value - y_value) < 1e-12
    assert k_value == pytest.approx(0.4)


def test_effective_sample_size():
    assert effective_sample_size(50, 50) == 100.0
    assert effective_sample_size(20, 80) == 64.0
    assert effective_sample_size(1, 1) == 2.0


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_direction_convention():
    # better-than-chance tables give positive values under every measure
    rng = np.random.default_rng(3)
    count = 0
    while count < 200:
        t = random_table(rng)
        if t.x / t.n1 <= t.y / t.n2 or t.x == t.n1 or t.y == t.n2:
            continue
        count += 1
        c = cells(t)  # no zero cells, so no correction
        for fn in (ln_dor, neg_ln_theta, youden, kappa):
            assert one(fn, *c)[0] > 0


def test_swap_symmetry_negates_lndor_and_youden():
    rng = np.random.default_rng(4)
    for _ in range(200):
        t = random_table(rng)
        swapped = StudyTable(x=t.w, w=t.x, y=t.z, z=t.y)
        c, cs = cells(t), cells(swapped)
        assert abs(one(ln_dor, *cs)[0] + one(ln_dor, *c)[0]) < 1e-12
        assert abs(one(youden, *cs)[0] + one(youden, *c)[0]) < 1e-12


def test_kappa_equals_youden_for_balanced_random_tables():
    rng = np.random.default_rng(5)
    for _ in range(500):
        n1 = int(rng.integers(2, 150))
        x = int(rng.integers(1, n1))
        y = int(rng.integers(1, n1))
        t = StudyTable(x=x, w=n1 - x, y=y, z=n1 - y)
        c = cells(t)
        assert abs(one(kappa, *c)[0] - one(youden, *c)[0]) < 1e-12


def test_value_ranges():
    rng = np.random.default_rng(6)
    for _ in range(300):
        c = cells(random_table(rng))
        assert -1.0 <= one(youden, *c)[0] <= 1.0
        assert -1.0 <= one(kappa, *c)[0] <= 1.0


def test_se_shrinks_with_sample_size():
    # scaling all cells by c divides se(lnDOR) by sqrt(c) exactly and
    # strictly shrinks the other three
    t = StudyTable(30, 20, 15, 35)
    big = StudyTable(120, 80, 60, 140)
    c, cb = cells(t), cells(big)
    assert one(ln_dor, *cb)[1] == one(ln_dor, *c)[1] / 2.0
    for fn in (neg_ln_theta, youden, kappa):
        assert one(fn, *cb)[1] < one(fn, *c)[1]


# ---------------------------------------------------------------------------
# bootstrap oracles for the standard errors
# ---------------------------------------------------------------------------


def _boot_values(measure, xs, ws, ys, zs):
    """Vectorized recomputation of measure values, independent of the package."""
    n1 = xs + ws
    n2 = ys + zs
    if measure == "lndor":
        return np.log(xs * zs / (ys * ws))
    if measure == "lntheta":
        return -np.log((np.log(xs) - np.log(n1)) / (np.log(ys) - np.log(n2)))
    if measure == "youden":
        return xs / n1 + zs / n2 - 1.0
    n = n1 + n2
    m1, m2 = xs + ys, ws + zs
    return 2.0 * (xs * zs - ys * ws) / (n1 * m2 + n2 * m1)


@pytest.mark.parametrize("measure,fn", [
    ("lndor", ln_dor),
    ("lntheta", neg_ln_theta),
    ("youden", youden),
    ("kappa", kappa),
])
@pytest.mark.parametrize("table", [
    StudyTable(150, 50, 60, 140),   # balanced groups, N = 400
    StudyTable(150, 50, 160, 240),  # unbalanced 200 / 400
])
def test_se_matches_binomial_bootstrap(measure, fn, table):
    # a fixed seed per case: the same draws in every process
    rng = np.random.default_rng(zlib.crc32(f"{measure} {table.x}".encode()))
    reps = 100_000
    if measure == "kappa":
        # Fleiss's SE assumes multinomial sampling of all four cells; with
        # n1 and n2 fixed, the bootstrap SD of the unbalanced table sits
        # about 2.4% below it
        draws = rng.multinomial(table.n, np.array(cells(table)) / table.n, size=reps).astype(float)
        xs, ws, ys, zs = draws.T
    else:
        xs = rng.binomial(table.n1, table.x / table.n1, size=reps).astype(float)
        ys = rng.binomial(table.n2, table.y / table.n2, size=reps).astype(float)
        ws, zs = table.n1 - xs, table.n2 - ys
    # cell proportions sit in [0.1, 0.9], so boundary draws are essentially
    # impossible at these sizes; drop any to keep the logs finite
    keep = (xs > 0) & (ws > 0) & (ys > 0) & (zs > 0)
    values = _boot_values(measure, xs[keep], ws[keep], ys[keep], zs[keep])
    boot_sd = float(np.std(values))
    analytic = one(fn, *cells(table))[1]
    assert abs(boot_sd - analytic) / analytic < 0.03


def test_kappa_se_matches_multinomial_bootstrap():
    table = StudyTable(80, 20, 40, 60)
    rng = np.random.default_rng(11)
    n = table.n
    probs = np.array([table.x, table.w, table.y, table.z]) / n
    draws = rng.multinomial(n, probs, size=1_000_000).astype(float)
    xs, ws, ys, zs = draws[:, 0], draws[:, 1], draws[:, 2], draws[:, 3]
    values = _boot_values("kappa", xs, ws, ys, zs)
    boot_sd = float(np.std(values))
    analytic = one(kappa, *cells(table))[1]
    assert abs(boot_sd - analytic) / analytic < 0.02


# ---------------------------------------------------------------------------
# dataset-level plumbing
# ---------------------------------------------------------------------------


def test_measure_studies_preserves_order():
    rng = np.random.default_rng(7)
    studies = [random_table(rng) for _ in range(5)]
    ds = MetaDataset(studies)
    ests = measure_studies(ds, MeasureId.LNDOR, HALF).estimates
    assert len(ests) == 5
    assert ests.measure is MeasureId.LNDOR
    assert ests.index.tolist() == [0, 1, 2, 3, 4]
    assert ests.value.tolist() == [one(ln_dor, *cells(t))[0] for t in studies]
    assert ests.se.tolist() == [one(ln_dor, *cells(t))[1] for t in studies]


def test_measure_studies_names_excluded_study():
    studies = [StudyTable(10, 5, 4, 11), StudyTable(9, 6, 3, 12), StudyTable(100, 0, 20, 80)]
    measured = measure_studies(MetaDataset(studies), MeasureId.NEG_LNTHETA, NEVER)
    assert measured.estimates.index.tolist() == [0, 1]
    assert measured.corrected == ()
    [(index, reason)] = measured.excluded
    assert index == 2
    assert "Sen = 1" in reason


def test_measure_studies_balanced_kappa_matches_youden():
    rng = np.random.default_rng(8)
    studies = []
    for _ in range(6):
        n1 = int(rng.integers(10, 100))
        x, y = int(rng.integers(1, n1)), int(rng.integers(1, n1))
        studies.append(StudyTable(x, n1 - x, y, n1 - y))
    ds = MetaDataset(studies)
    kv = measure_studies(ds, MeasureId.KAPPA, HALF).estimates.value
    yv = measure_studies(ds, MeasureId.YOUDEN, HALF).estimates.value
    assert kv == pytest.approx(yv, abs=1e-12)


def test_measure_studies_reports_skips():
    studies = [StudyTable(10, 5, 4, 11), StudyTable(100, 0, 20, 80), StudyTable(9, 6, 3, 12)]
    ds = MetaDataset(studies)
    ests, _, skipped = measure_studies(ds, MeasureId.NEG_LNTHETA, NEVER)
    assert len(ests) == 2
    assert ests.index.tolist() == [0, 2]
    assert [i for i, _ in skipped] == [1]


def test_estimate_bookkeeping_uses_source_table():
    # correction changes cells, but n / ess / marginals stay observed
    t = StudyTable(50, 0, 5, 45)
    est = measure_studies(MetaDataset([t]), MeasureId.LNDOR, HALF).estimates
    assert est.n.tolist() == [100]
    assert est.ess.tolist() == [effective_sample_size(t.n1, t.n2)]
    assert (est.m1.tolist(), est.m2.tolist()) == ([55], [45])


# ---------------------------------------------------------------------------
# the array path
# ---------------------------------------------------------------------------


def edge_tables(rng, k=60):
    """Random tables with zero cells, perfect tests and balanced groups among them."""
    tables = [random_table(rng, n_lo=2, n_hi=30) for _ in range(k)]
    tables += [
        StudyTable(10, 0, 0, 10), StudyTable(0, 4, 0, 3), StudyTable(0, 5, 5, 0),
        StudyTable(7, 7, 7, 7), StudyTable(3, 0, 2, 9), StudyTable(1, 1, 0, 1),
    ]
    for i in rng.choice(len(tables), size=k // 4, replace=False):
        x, w, y, z = tables[i]
        tables[i] = StudyTable(x + w, 0, y, z) if i % 2 else StudyTable(x, w, 0, y + z)
    return tables


@pytest.mark.parametrize("policy", [HALF, NEVER])
@pytest.mark.parametrize("measure", list(MeasureId))
def test_dataset_measurement_stacks_one_row_measurements(measure, policy):
    tables = edge_tables(np.random.default_rng(41))
    whole = measure_studies(MetaDataset(tables), measure, policy)
    rows = [measure_studies(MetaDataset([t]), measure, policy) for t in tables]
    est = whole.estimates
    usable = [i for i, row in enumerate(rows) if len(row.estimates)]
    assert est.index.tolist() == usable
    for column in ("value", "se", "n", "ess", "m1", "m2"):
        stacked = [getattr(rows[i].estimates, column)[0] for i in usable]
        assert getattr(est, column).tolist() == stacked, column
    assert whole.corrected == tuple(i for i, row in enumerate(rows) if row.corrected)
    assert whole.excluded == tuple((i, row.excluded[0][1]) for i, row in enumerate(rows) if row.excluded)
    assert len(est) and (whole.corrected or whole.excluded)  # the edge tables do their job


def test_every_reachable_exclusion_reason():
    # Three checks cannot fire on valid tables: kappa's denominator is 0
    # only with an empty group, which MetaDataset rejects, its
    # expected agreement is 1 only where that denominator is 0, and
    # lnTheta's SE is positive whenever 0 < x < n1 and 0 < y < n2.
    ds = MetaDataset([(10, 5, 4, 11), (5, 0, 0, 5), (0, 4, 0, 3), (3, 2, 5, 0)])
    youden_zero_se = "Youden standard error is zero (both proportions on a boundary)"
    reasons = {
        measure: measure_studies(ds, measure, NEVER).excluded for measure in MeasureId
    }
    assert reasons == {
        MeasureId.LNDOR: ((1, ZERO_CELL), (2, ZERO_CELL), (3, ZERO_CELL)),
        MeasureId.NEG_LNTHETA: (
            (1, "lnTheta undefined with x = 0 or y = 0"),  # checked before Sen = 1
            (2, "lnTheta undefined with x = 0 or y = 0"),
            (3, "lnTheta degenerate when Sen = 1 or FPR = 1"),
        ),
        MeasureId.YOUDEN: ((1, youden_zero_se), (2, youden_zero_se)),
        MeasureId.KAPPA: ((1, "kappa standard error is zero"), (2, "kappa standard error is zero")),
    }
    assert one(kappa, 0.0, 0.0, 0.0, 5.0)[2] == "kappa undefined: n1*m2 + n2*m1 = 0"


@pytest.mark.parametrize("policy", [HALF, NEVER])
@pytest.mark.parametrize("measure", list(MeasureId))
def test_invalid_table_raises_data_error_naming_the_study(measure, policy):
    # the error comes from MetaDataset, before any measure sees the tables
    with pytest.raises(EmptyGroup, match=r"^study 0: no diseased subjects \(n1 = 0\)$"):
        measure_studies(MetaDataset([(0, 0, 0, 5), (3, 4, 5, 6), (2, 2, 2, 2)]), measure, policy)
    with pytest.raises(NegativeCell, match="^study 2: cell w is negative: -1$"):
        measure_studies(MetaDataset([(3, 4, 5, 6), (2, 2, 2, 2), (1, -1, 4, 4)]), measure, policy)


@pytest.mark.parametrize("cells", [
    np.array([[10, 5, 4, 11]] * 3, dtype=bool),
    np.array([[10.0, 5.0, 4.0, 11.0]] * 3),
    [(10, 5, 4, 11), (9, 6, 3.5, 12), (1, 1, 1, 1)],
])
def test_dataset_rejects_non_integer_cells(cells):
    with pytest.raises(NegativeCell, match="integer counts"):
        MetaDataset(cells)


def test_dataset_tables_are_a_read_only_copy():
    source = np.array([[10, 5, 4, 11], [9, 6, 3, 12], [1, 1, 1, 1]], dtype=np.int32)
    ds = MetaDataset(source)
    source[0, 0] = 99
    assert ds.tables.dtype == np.int64 and ds.tables.shape == (3, 4)
    assert ds.tables[0, 0] == 10
    assert not ds.tables.flags.writeable
    assert ds.studies[0] == StudyTable(10, 5, 4, 11)


# The published scalar forms in Python floats, one table at a time: the
# array formulas must reproduce them bit for bit, because trim and fill
# turns last-bit differences into different decisions.


def scalar_lndor(x, w, y, z):
    if 0.0 in (x, w, y, z):
        return ZERO_CELL
    return math.log(x * z / (y * w)), math.sqrt(1.0 / x + 1.0 / y + 1.0 / w + 1.0 / z)


def scalar_lntheta(x, w, y, z):
    n1, n2 = x + w, y + z
    if x == 0.0 or y == 0.0:
        return "lnTheta undefined with x = 0 or y = 0"
    log_sen = math.log(x) - math.log(n1)
    log_fpr = math.log(y) - math.log(n2)
    if log_sen == 0.0 or log_fpr == 0.0:
        return "lnTheta degenerate when Sen = 1 or FPR = 1"
    se = math.sqrt((1.0 / x - 1.0 / n1) / log_sen**2 + (1.0 / y - 1.0 / n2) / log_fpr**2)
    return -math.log(log_sen / log_fpr), se


def scalar_youden(x, w, y, z):
    n1, n2 = x + w, y + z
    sen, fpr = x / n1, y / n2
    se = math.sqrt(sen * (1.0 - sen) / n1 + fpr * (1.0 - fpr) / n2)
    if se == 0.0:
        return "Youden standard error is zero (both proportions on a boundary)"
    return sen + (1.0 - fpr) - 1.0, se


def scalar_kappa(x, w, y, z):
    n1, n2, m1, m2 = x + w, y + z, x + y, w + z
    n = n1 + n2
    value = 2.0 * (x * z - y * w) / (n1 * m2 + n2 * m1)
    p_e = (n1 * m1 + n2 * m2) / n**2
    one_minus_k = 1.0 - value
    a_term = (
        x * (n - (n1 + m1) * one_minus_k) ** 2 + z * (n - (n2 + m2) * one_minus_k) ** 2
    ) / n**3
    b_term = one_minus_k**2 * (w * (n2 + m1) ** 2 + y * (n1 + m2) ** 2) / n**3
    variance_core = a_term + b_term - (value - p_e * one_minus_k) ** 2
    if variance_core <= 1e-12 * (a_term + b_term):
        return "kappa standard error is zero"
    return value, math.sqrt(variance_core) / ((1.0 - p_e) * math.sqrt(n))


SCALAR = {
    MeasureId.LNDOR: scalar_lndor,
    MeasureId.NEG_LNTHETA: scalar_lntheta,
    MeasureId.YOUDEN: scalar_youden,
    MeasureId.KAPPA: scalar_kappa,
}


@pytest.mark.parametrize("policy", [HALF, NEVER])
@pytest.mark.parametrize("measure", list(MeasureId))
def test_array_measures_match_scalar_formulas_bitwise(measure, policy):
    rng = np.random.default_rng(43)
    tables = []
    for scale in (10, 1000, 10**5, 10**8):
        n1, n2 = rng.integers(1, scale + 1, size=(2, 400))
        x, y = rng.integers(0, n1 + 1), rng.integers(0, n2 + 1)
        tables += np.column_stack((x, n1 - x, y, n2 - y)).tolist()
    tables += [t for t in edge_tables(rng) if t.n1 and t.n2]
    measured = measure_studies(MetaDataset(tables), measure, policy)
    values, ses, excluded = [], [], []
    for i, table in enumerate(tables):
        shift = 0.5 if policy is HALF and 0 in table else 0.0
        result = SCALAR[measure](*(cell + shift for cell in table))
        if isinstance(result, str):
            excluded.append((i, result))
        else:
            values.append(result[0])
            ses.append(result[1])
    assert measured.excluded == tuple(excluded)
    assert [v.hex() for v in measured.estimates.value.tolist()] == [v.hex() for v in values]
    assert [s.hex() for s in measured.estimates.se.tolist()] == [s.hex() for s in ses]


def log_by_element(values):
    """_log as a list comprehension with a test per element: the reference for _log."""
    logs = [math.log(v) if v > 0.0 else math.nan for v in values.ravel().tolist()]
    return np.array(logs).reshape(values.shape)


EDGE_FLOATS = [0.0, -0.0, -1.0, -5e-324, math.nan, math.inf, -math.inf, 5e-324, 2.2e-308, 1.0, 0.5, 1e308]


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
        elements=st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=True, allow_infinity=True),
    )
)
def test_log_is_bit_equal_to_the_per_element_form(values):
    logs = _log(values)
    assert logs.shape == values.shape and logs.dtype == np.float64
    assert logs.tobytes() == log_by_element(values).tobytes()


def test_log_is_bit_equal_on_edge_values_and_block_shapes():
    rng = np.random.default_rng(3)
    for values in (
        np.array(EDGE_FLOATS),
        np.array(EDGE_FLOATS).reshape(3, 4),
        rng.choice(EDGE_FLOATS + list(rng.uniform(0, 50, 40)), size=(1000, 30)),
        np.float64(0.25) * np.ones(()),
    ):
        assert _log(values).tobytes() == log_by_element(values).tobytes()


def masked_groups(block):
    """The groups as a masked gather per usable count, counts from np.unique: the reference for ``groups``."""
    counts = block.usable.sum(axis=-1)
    for k in np.unique(counts).tolist():
        usable = block.usable & (counts == k)[:, None]
        rows = np.count_nonzero(counts == k)
        yield [column[usable].reshape(rows, k) for column in block.estimates]


def assert_same_groups(block):
    groups = list(block.groups())
    expected = list(masked_groups(block))
    assert len(groups) == len(expected)
    for rows, reference in zip(groups, expected):
        for column, ref in zip(rows, reference):
            assert column.dtype == ref.dtype and column.shape == ref.shape
            assert column.tobytes() == ref.tobytes()
            assert not column.flags.writeable
    return groups


@pytest.mark.parametrize("measure", list(MeasureId))
def test_an_all_usable_block_is_its_own_group(measure):
    rng = np.random.default_rng(43)
    tables = rng.integers(1, 60, size=(7, 12, 4))  # no zero cell: every measure is defined
    block = measure_block(tables, measure)
    assert block.usable.all()
    (rows,) = assert_same_groups(block)
    assert rows.value.shape == (7, 12)
    assert all(np.shares_memory(column, whole) for column, whole in zip(rows, block.estimates))
    assert all(whole.flags.writeable for whole in block.estimates)  # iterating leaves the block as it was


@settings(max_examples=100, deadline=None)
@given(
    tables=arrays(np.int64, st.tuples(st.integers(1, 6), st.integers(1, 8), st.just(4)), elements=st.integers(0, 4)),
    measure=st.sampled_from(MeasureId),
    policy=st.sampled_from([HALF, NEVER]),
)
def test_groups_are_the_masked_gather_of_each_usable_count(tables, measure, policy):
    tables[..., 0] += tables[..., 1] == 0  # no empty group
    tables[..., 3] += tables[..., 2] == 0
    assert_same_groups(measure_block(tables, measure, policy))
