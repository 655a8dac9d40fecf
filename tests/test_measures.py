import math

import numpy as np
import pytest

from funnelbias.errors import BoundaryProportion, DegenerateSE, ZeroCell
from funnelbias.measures import (
    effective_sample_size,
    kappa,
    ln_dor,
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
    value, se = ln_dor(40.0, 10.0, 10.0, 40.0)
    assert abs(value - math.log(16.0)) < 1e-12
    assert se == 0.5


def test_ln_dor_zero_when_cells_balance():
    for a in (1.0, 5.0, 33.0):
        assert ln_dor(a, a, a, a)[0] == 0.0


def test_ln_dor_after_correction():
    measured = measure_studies(MetaDataset([StudyTable(50, 0, 5, 45)]), MeasureId.LNDOR, HALF)
    expected = math.log(50.5 * 45.5 / (5.5 * 0.5))
    assert abs(measured.estimates.value[0] - expected) < 1e-12
    assert abs(expected - 6.727) < 2e-3


def test_ln_dor_zero_cell_raises():
    with pytest.raises(ZeroCell):
        ln_dor(50.0, 0.0, 5.0, 45.0)


def test_neg_ln_theta_golden():
    value, se = neg_ln_theta(80.0, 20.0, 20.0, 80.0)
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
    value, _ = neg_ln_theta(30.0, 70.0, 15.0, 35.0)
    assert abs(value) < 1e-12


def test_neg_ln_theta_boundary_raises():
    with pytest.raises(BoundaryProportion):
        neg_ln_theta(100.0, 0.0, 20.0, 80.0)
    with pytest.raises(ZeroCell):
        neg_ln_theta(0.0, 100.0, 20.0, 80.0)


def test_youden_golden():
    value, se = youden(80.0, 20.0, 40.0, 60.0)
    assert abs(value - 0.4) < 1e-12
    assert abs(se - math.sqrt(0.004)) < 1e-12


def test_youden_perfect_test_degenerate():
    with pytest.raises(DegenerateSE):
        youden(50.0, 0.0, 0.0, 50.0)


def test_youden_chance_line():
    assert youden(50.0, 50.0, 25.0, 25.0)[0] == 0.0


def test_kappa_equal_cells_zero():
    assert kappa(7.0, 7.0, 7.0, 7.0)[0] == 0.0


def test_kappa_cancelled_variance_is_degenerate():
    # the variance is exactly 0 here; rounding used to leave se ~ 3.5e-9
    with pytest.raises(DegenerateSE):
        kappa(0.0, 4.0, 0.0, 3.0)


def test_kappa_equals_youden_balanced():
    k_value, _ = kappa(80.0, 20.0, 40.0, 60.0)
    y_value, _ = youden(80.0, 20.0, 40.0, 60.0)
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
        assert ln_dor(*c)[0] > 0
        assert neg_ln_theta(*c)[0] > 0
        assert youden(*c)[0] > 0
        assert kappa(*c)[0] > 0


def test_swap_symmetry_negates_lndor_and_youden():
    rng = np.random.default_rng(4)
    for _ in range(200):
        t = random_table(rng)
        swapped = StudyTable(x=t.w, w=t.x, y=t.z, z=t.y)
        c, cs = cells(t), cells(swapped)
        assert abs(ln_dor(*cs)[0] + ln_dor(*c)[0]) < 1e-12
        assert abs(youden(*cs)[0] + youden(*c)[0]) < 1e-12


def test_kappa_equals_youden_for_balanced_random_tables():
    rng = np.random.default_rng(5)
    for _ in range(500):
        n1 = int(rng.integers(2, 150))
        x = int(rng.integers(1, n1))
        y = int(rng.integers(1, n1))
        t = StudyTable(x=x, w=n1 - x, y=y, z=n1 - y)
        c = cells(t)
        assert abs(kappa(*c)[0] - youden(*c)[0]) < 1e-12


def test_value_ranges():
    rng = np.random.default_rng(6)
    for _ in range(300):
        c = cells(random_table(rng))
        assert -1.0 <= youden(*c)[0] <= 1.0
        assert -1.0 <= kappa(*c)[0] <= 1.0


def test_se_shrinks_with_sample_size():
    # scaling all cells by c divides se(lnDOR) by sqrt(c) exactly and
    # strictly shrinks the other three
    t = StudyTable(30, 20, 15, 35)
    big = StudyTable(120, 80, 60, 140)
    c, cb = cells(t), cells(big)
    assert ln_dor(*cb)[1] == ln_dor(*c)[1] / 2.0
    for fn in (neg_ln_theta, youden, kappa):
        assert fn(*cb)[1] < fn(*c)[1]


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
    rng = np.random.default_rng(hash((measure, table.x)) % 2**32)
    reps = 100_000
    xs = rng.binomial(table.n1, table.x / table.n1, size=reps).astype(float)
    ys = rng.binomial(table.n2, table.y / table.n2, size=reps).astype(float)
    # cell proportions sit in [0.1, 0.9], so boundary draws are essentially
    # impossible at these sizes; drop any to keep the logs finite
    keep = (xs > 0) & (xs < table.n1) & (ys > 0) & (ys < table.n2)
    values = _boot_values(measure, xs[keep], table.n1 - xs[keep], ys[keep], table.n2 - ys[keep])
    boot_sd = float(np.std(values))
    analytic = fn(*cells(table))[1]
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
    analytic = kappa(*cells(table))[1]
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
    assert ests.value.tolist() == [ln_dor(*cells(t))[0] for t in studies]
    assert ests.se.tolist() == [ln_dor(*cells(t))[1] for t in studies]


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
