"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print. Monte Carlo criteria default to 2000 replicates with the wider
calibration band; set ``FUNNELBIAS_ACCEPTANCE_FULL=1`` for the 10000-
replicate profile with the tight band.

The run-based trim-and-fill variants have p = 2**(-gamma), so at alpha =
0.1 their size can reach at most the attainable 2**-4 = 0.0625. Null
calibration checks them against a band centred on that attainable size,
not on alpha, spanning the same number of Monte Carlo SEs as the alpha band.

All simulation criteria share master seed 0, and paired comparisons
across conditions reuse the same per-replicate streams.
"""

import json
import math
import os

import numpy as np
import pytest

from funnelbias.asymmetry import (
    PrecisionAxis,
    TrimFillEstimator,
    _signed_rank_tail,
)
from funnelbias.cli import main as cli_main
from funnelbias.harness import TestFamily, TestVariantId, run_condition
from funnelbias.measures import kappa, ln_dor, youden
from funnelbias.model import MeasureId
from funnelbias.sampler import (
    GRID_BIAS,
    GRID_K,
    GRID_MU,
    GRID_PI,
    GRID_SIGMA,
    BiasMechanism,
    BiasSpec,
    BivariateParams,
    SimCondition,
    default_grid,
)

FULL = os.environ.get("FUNNELBIAS_ACCEPTANCE_FULL") == "1"
REPS = 2000
SEED = 0
ALPHA = 0.1

LNDOR = MeasureId.LNDOR
YOUDEN_M = MeasureId.YOUDEN
SE, N, ESS = PrecisionAxis.SE, PrecisionAxis.N, PrecisionAxis.ESS
R, L = TrimFillEstimator.R, TrimFillEstimator.L

MU_ZERO = BivariateParams(mu=(0.0, 0.0))
MU_HIGH_SMALL_RE = BivariateParams(mu=(2.0, -2.0), sigma_a2=0.5, sigma_ab=0.3, sigma_b2=0.5)
MU_HIGH_LARGE_RE = BivariateParams(mu=(2.0, -2.0), sigma_a2=1.0, sigma_ab=0.5, sigma_b2=1.0)
MU_LOW_FE = BivariateParams(mu=(1.0, -1.0))

SELECTION_LARGE = BiasSpec(BiasMechanism.SELECTION, selection_fraction=0.4)
MIXTURE_LARGE = BiasSpec(BiasMechanism.MIXTURE, eta=(1.25, -1.25))

T_SE_R = TestVariantId(TestFamily.TRIMFILL, LNDOR, SE, estimator=R)
T_N_R = TestVariantId(TestFamily.TRIMFILL, LNDOR, N, estimator=R)
T_SE_L = TestVariantId(TestFamily.TRIMFILL, LNDOR, SE, estimator=L)
E_SE = TestVariantId(TestFamily.EGGER, LNDOR, SE)
B_VAR = TestVariantId(TestFamily.BEGG, LNDOR, SE)
M_N = TestVariantId(TestFamily.MACASKILL, LNDOR, N)
B_INV_ESS = TestVariantId(TestFamily.BEGG, LNDOR, ESS)
M_DEEKS = TestVariantId(TestFamily.MACASKILL, LNDOR, ESS)
E_Y_SE = TestVariantId(TestFamily.EGGER, YOUDEN_M, SE)


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert passed, f"criterion {number} [{name}]: {detail}"


def rates_for(condition, variants, reps=REPS, seed=SEED):
    results = run_condition(condition, variants, reps=reps, alpha=ALPHA, master_seed=seed)
    return {res.variant.label: res.rejection_rate for res in results}


@pytest.fixture(scope="module")
def selection_large_k30():
    cond = SimCondition(params=MU_HIGH_SMALL_RE, k=30, pi=0.5, bias=SELECTION_LARGE)
    return rates_for(cond, [T_SE_R, T_N_R, T_SE_L])


@pytest.fixture(scope="module")
def selection_large_k10():
    cond = SimCondition(params=MU_HIGH_SMALL_RE, k=10, pi=0.5, bias=SELECTION_LARGE)
    return rates_for(cond, [T_SE_R, T_N_R])


def _one_table(fn, *cells):
    value, se, _ = fn(*(np.array([c]) for c in cells))
    return float(value[0]), float(se[0])


def test_criterion_01_measure_golden_values():
    lndor, lndor_se = _one_table(ln_dor, 40.0, 10.0, 10.0, 40.0)
    ok = abs(lndor - math.log(16.0)) <= 1e-12 and lndor_se == 0.5

    yj, yj_se = _one_table(youden, 80.0, 20.0, 40.0, 60.0)
    ok &= abs(yj - 0.4) <= 1e-12 and abs(yj_se - math.sqrt(0.004)) <= 1e-12

    rng = np.random.default_rng(SEED)
    tables = []
    for _ in range(10_000):
        n1 = int(rng.integers(2, 200))
        x, y = int(rng.integers(1, n1)), int(rng.integers(1, n1))
        tables.append((float(x), float(n1 - x), float(y), float(n1 - y)))
    c = np.array(tables).T
    worst = float(np.max(np.abs(kappa(*c)[0] - youden(*c)[0])))
    ok &= worst <= 1e-12
    report(1, "measure golden values", ok,
           f"lnDOR={lndor:.12f} se={lndor_se} Y={yj:.12f} max|K-Y|={worst:.2e}")


def test_criterion_02_null_calibration():
    reps = 10_000 if FULL else REPS
    low, high = (0.07, 0.13) if FULL else (0.06, 0.14)
    # The run test's p = 2**-gamma reaches at most run_size <= ALPHA; its band
    # spans as many Monte Carlo SEs around run_size as [low, high] around ALPHA.
    run_size = 2.0 ** -math.ceil(math.log2(1.0 / ALPHA))
    run_half = (high - low) / 2 * math.sqrt(
        run_size * (1 - run_size) / (ALPHA * (1 - ALPHA))
    )
    run_low, run_high = run_size - run_half, run_size + run_half
    run_labels = {T_SE_R.label, T_N_R.label}
    cond = SimCondition(params=MU_ZERO, k=30, pi=0.5)
    rates = rates_for(cond, [E_SE, B_VAR, M_N, T_SE_R, T_N_R], reps=reps)
    ok = all(
        run_low <= rate <= run_high if label in run_labels else low <= rate <= high
        for label, rate in rates.items()
    )
    detail = ", ".join(f"{k}={v:.4f}" for k, v in rates.items())
    report(2, "null calibration", ok,
           f"bounds=[{low},{high}] run-test bounds=[{run_low:.4f},{run_high:.4f}] "
           f"around {run_size} reps={reps}: {detail}")


def test_criterion_03_alpha_inflation_under_heterogeneity():
    cond = SimCondition(params=MU_HIGH_LARGE_RE, k=30, pi=0.5)
    rates = rates_for(cond, [E_SE, B_VAR, T_N_R])
    egger, begg, trimfill = (
        rates[E_SE.label], rates[B_VAR.label], rates[T_N_R.label]
    )
    ok = (
        egger > 0.20
        and begg > 0.20
        and egger - trimfill >= 0.10
        and begg - trimfill >= 0.10
    )
    report(3, "alpha inflation of Egger/Begg", ok,
           f"E={egger:.4f} B={begg:.4f} T(N,R)={trimfill:.4f}")


def test_criterion_04_trim_fill_calibration_everywhere():
    no_bias = [c for c in default_grid() if c.bias.mechanism is BiasMechanism.NONE]
    assert len(no_bias) == 48
    worst_rate, worst_cond = -1.0, None
    liberal = []
    for cond in no_bias:
        rate = rates_for(cond, [T_N_R])[T_N_R.label]
        if rate > worst_rate:
            worst_rate, worst_cond = rate, cond
        if rate > 0.13:
            liberal.append(f"mu={cond.params.mu} sigma_a2={cond.params.sigma_a2} "
                           f"k={cond.k} pi={cond.pi}: {rate:.4f}")
    ok = worst_rate <= 0.13
    report(4, "trim-and-fill non-liberal in all no-bias cells", ok,
           f"worst={worst_rate:.4f} at mu={worst_cond.params.mu} "
           f"sigma_a2={worst_cond.params.sigma_a2} k={worst_cond.k} pi={worst_cond.pi}; "
           f"{len(liberal)} of {len(no_bias)} cells above 0.13: [{'; '.join(liberal)}]")


def test_criterion_05_trim_fill_power_ordering(selection_large_k30):
    se_r = selection_large_k30[T_SE_R.label]
    n_r = selection_large_k30[T_N_R.label]
    ok = se_r >= n_r and se_r > 0.30 and n_r > 0.30
    report(5, "trim-and-fill power ordering", ok, f"T(SE,R)={se_r:.4f} T(N,R)={n_r:.4f}")


def test_criterion_06_mixture_detected_by_rank_tests():
    cond = SimCondition(params=MU_LOW_FE, k=30, pi=0.5, bias=MIXTURE_LARGE)
    rates = rates_for(cond, [B_INV_ESS, M_DEEKS])
    begg, deeks = rates[B_INV_ESS.label], rates[M_DEEKS.label]
    ok = begg - deeks >= 0.05
    report(6, "mixture detectability by rank correlation", ok,
           f"B(invESS)={begg:.4f} M(1/sqrtESS)={deeks:.4f}")


def test_criterion_07_one_sided_youden_degeneracy():
    no_bias = SimCondition(params=MU_HIGH_LARGE_RE, k=30, pi=0.5)
    biased = SimCondition(params=MU_HIGH_LARGE_RE, k=30, pi=0.5, bias=SELECTION_LARGE)
    r0 = rates_for(no_bias, [E_Y_SE])[E_Y_SE.label]
    r1 = rates_for(biased, [E_Y_SE])[E_Y_SE.label]
    ok = r0 < 0.02 and r1 < 0.02
    report(7, "one-sided Youden degeneracy", ok, f"no-bias={r0:.4f} selection={r1:.4f}")


def test_criterion_08_l_estimator_deficiency(selection_large_k30):
    l_rate = selection_large_k30[T_SE_L.label]
    r_rate = selection_large_k30[T_SE_R.label]
    ok = l_rate < r_rate
    report(8, "L estimator underperforms R", ok, f"T(SE,L)={l_rate:.4f} T(SE,R)={r_rate:.4f}")


def test_criterion_09_small_k_conservatism(selection_large_k30, selection_large_k10):
    null_cond = SimCondition(params=MU_HIGH_SMALL_RE, k=10, pi=0.5)
    null_rates = rates_for(null_cond, [T_SE_R, T_N_R])
    mcse = math.sqrt(0.1 * 0.9 / REPS)
    bound = 0.10 + 2.0 * mcse
    ok = all(rate <= bound for rate in null_rates.values())
    ok &= selection_large_k10[T_SE_R.label] < selection_large_k30[T_SE_R.label]
    ok &= selection_large_k10[T_N_R.label] < selection_large_k30[T_N_R.label]
    report(9, "small-k conservatism", ok,
           f"null(k=10)={null_rates} bound={bound:.4f} "
           f"power k10 vs k30: {selection_large_k10[T_SE_R.label]:.4f}<"
           f"{selection_large_k30[T_SE_R.label]:.4f}, "
           f"{selection_large_k10[T_N_R.label]:.4f}<{selection_large_k30[T_N_R.label]:.4f}")


def test_criterion_10_trim_fill_p_oracle():
    rng = np.random.default_rng(SEED)
    draws = 100_000
    worst = 0.0
    for k in (5, 10, 30):
        signs = rng.integers(0, 2, size=(draws, k)) * 2 - 1
        ranks = np.arange(1, k + 1)
        # run of positive signs from the top rank down
        from_top = signs[:, ::-1] > 0
        any_neg = ~from_top.all(axis=1)
        run = np.where(any_neg, np.argmin(from_top, axis=1), k)
        s_plus = (signs > 0) @ ranks
        for gamma_obs in (1, 2, 3, 4):
            mc = float(np.mean(run >= gamma_obs))
            worst = max(worst, abs(mc - 2.0**-gamma_obs))
        quarter = k * (k + 1) // 4
        for s_obs in (quarter, quarter + k // 2, 2 * quarter - k):
            mc = float(np.mean(s_plus >= s_obs))
            worst = max(worst, abs(mc - _signed_rank_tail(k, float(s_obs))))
    ok = worst <= 0.01
    report(10, "trim-and-fill p-value oracle", ok, f"max |analytic - MC| = {worst:.4f}")


def test_criterion_11_simulate_determinism(tmp_path, capsys):
    grid = {
        "mu": [[1, -1]],
        "sigma": [[[0, 0], [0, 0]], [[0.5, 0.3], [0.3, 0.5]]],
        "k": [10],
        "pi": [0.5],
        "bias": [{"mechanism": "none"}, {"mechanism": "selection", "fraction": 0.4}],
    }
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    outs = [tmp_path / f"r{i}.csv" for i in range(3)]
    for out, workers in zip(outs, ("1", "1", "8")):
        code = cli_main([
            "simulate", "--grid", str(grid_path), "--reps", "100", "--seed", "17",
            "--out", str(out), "--parallelism", workers,
        ])
        assert code == 0
    capsys.readouterr()
    identical = outs[0].read_bytes() == outs[1].read_bytes()
    counts = [
        [line.split(",")[17] for line in out.read_text().splitlines()[1:]]
        for out in outs
    ]
    parallel_same = counts[0] == counts[2]
    ok = identical and parallel_same
    report(11, "simulate determinism", ok,
           f"rerun byte-identical={identical} parallel counts equal={parallel_same}")


def test_criterion_12_grid_cardinality():
    grid = default_grid()
    ok = len(grid) == 240 and len(set(grid)) == 240
    ok &= set(GRID_MU) == {(0.0, 0.0), (1.0, -1.0), (2.0, -2.0), (2.0, -1.0)}
    ok &= set(GRID_SIGMA) == {(0.0, 0.0, 0.0), (0.5, 0.3, 0.5), (1.0, 0.5, 1.0)}
    ok &= set(GRID_K) == {10, 30} and set(GRID_PI) == {0.5, 0.2}
    ok &= {(b.mechanism.value, b.strength) for b in GRID_BIAS} == {
        ("none", 0.0), ("selection", 0.2), ("selection", 0.4),
        ("mixture", 0.75), ("mixture", 1.25),
    }
    ok &= all(c.n_min == 50 and c.n_max == 1000 for c in grid)
    report(12, "default grid matches the 240-cell design", ok, f"size={len(grid)}")
