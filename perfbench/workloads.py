"""The benchmark's two workloads: their inputs, their ops and their checks.

A workload is built from the seed alone. Its ops are grouped in rounds:
every round runs the same ops on the same inputs, so a round's outputs
(its *tally*) must be identical in every round of a run, traced or not.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np

from funnelbias import cli, harness, sampler
from funnelbias.asymmetry import (
    EggerWeighting,
    MacaskillWeighting,
    PrecisionAxis,
    TrimFillEstimator,
)
from funnelbias.harness import TestFamily, TestVariantId
from funnelbias.model import MeasureId

import reference as ref

ALPHA = 0.1
REL_TOL = 1e-9
MEASURES = ("lndor", "lntheta", "youden", "kappa")
ALL_VARIANTS = [v for m in MEASURES for v in ref.one_sided_variants(m)]  # 92


class CheckFailed(Exception):
    """The program's output disagrees with the reference or a promised property."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


_no_span = contextlib.nullcontext


def _close(a: float, b: float) -> bool:
    """Equal within REL_TOL relative to the larger magnitude."""
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# the Monte Carlo path: grid-trimfill
# ---------------------------------------------------------------------------

_AXES = {"se": PrecisionAxis.SE, "n": PrecisionAxis.N, "ess": PrecisionAxis.ESS, "inv-n": PrecisionAxis.INV_N}
_WEIGHTINGS = {
    "egger": {w.value: w for w in EggerWeighting},
    "macaskill": {w.value: w for w in MacaskillWeighting},
}


def program_variant(v: ref.Variant) -> TestVariantId:
    weighting = _WEIGHTINGS[v.family][v.weighting] if v.weighting else None
    return TestVariantId(
        family=TestFamily(v.family),
        measure=MeasureId(v.measure),
        axis=_AXES[v.axis],
        weighting=weighting,
        estimator=TrimFillEstimator(v.estimator) if v.estimator else None,
    )


class GridWorkload:
    """An op is one cell of ``default_grid()`` through ``harness.run_condition``.

    Each cell runs the paper's recommended T(lndor,se,r) on ``REPS``
    replicates. A round runs every cell, then writes the results CSV and
    summarizes it, as ``funnelbias simulate --parallelism 1`` does. The
    round's tally is the CSV's bytes.
    """

    REF_VARIANTS = [ref.Variant("trimfill", "lndor", "se", estimator="r")]
    REPS = 5
    CHECK_EVERY = 7  # reference re-derivation of every 7th cell
    PARALLEL_CELLS = (0, 61, 122, 183)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.variants = [program_variant(v) for v in self.REF_VARIANTS]
        self.grid = sampler.default_grid()
        self.csv_path = workdir / "results.csv"
        self.first_results: list[harness.SimResult] | None = None

    def warm(self) -> None:
        for index in (0, 10):  # one k = 10 and one k = 30 cell
            harness.run_condition(
                self.grid[index], self.variants, 1, alpha=ALPHA, master_seed=self.seed, condition_index=index
            )

    def round(self, tracer=None) -> tuple[list[float], float, str]:
        """(time of each op, time of the output step, tally)."""
        results: list[harness.SimResult] = []
        op_times = []
        clock = time.perf_counter
        span = tracer.span if tracer else _no_span
        for index in range(len(self.grid)):
            t0 = clock()
            with span("harness.run_condition"):
                results += harness.run_condition(
                    self.grid[index], self.variants, self.REPS, ALPHA, self.seed, index
                )
            op_times.append(clock() - t0)
        t0 = clock()
        with span("harness.output"):
            harness.write_results_csv(self.csv_path, results)
            harness.summarize(results, ("bias", "bias_strength"))
        output_s = clock() - t0
        if self.first_results is None:
            self.first_results = results
        return op_times, output_s, hashlib.sha256(self.csv_path.read_bytes()).hexdigest()

    def round_failures(self) -> int:
        return 0

    def degenerate_share(self) -> float:
        res = self.first_results
        return sum(r.degenerate_reps for r in res) / sum(r.reps for r in res)

    # -- checks ------------------------------------------------------------

    def check(self) -> None:
        """Reference re-derivation of sampled cells, sampler properties, parallelism."""
        by_cell: dict[int, list[harness.SimResult]] = {}
        for r in self.first_results:
            by_cell.setdefault(r.condition_id, []).append(r)
        for index in range(0, len(self.grid), self.CHECK_EVERY):
            self._check_cell(index, by_cell[index], self.REF_VARIANTS, self.REPS)
        # the paper's full comparison: all 92 variants, paired, on every 30th cell
        every_variant = [program_variant(v) for v in ALL_VARIANTS]
        for index in range(0, len(self.grid), 30):
            results = harness.run_condition(self.grid[index], every_variant, 1, ALPHA, self.seed, index)
            self._check_cell(index, results, ALL_VARIANTS, 1)
        self._check_parallelism()

    def _check_cell(self, index: int, results, variants: list[ref.Variant], reps: int) -> None:
        condition = self.grid[index]
        rejections = [0] * len(variants)
        degenerate = [0] * len(variants)
        for rep in range(reps):
            rng = sampler.replicate_rng(self.seed, index, rep)
            dataset, trace = sampler.generate_meta_analysis_traced(condition, rng)
            tables = [(t.x, t.w, t.y, t.z) for t in dataset.studies]
            check_generated(condition, tables, trace, f"cell {index} rep {rep}")
            by_measure = {}
            for j, v in enumerate(variants):
                if v.measure not in by_measure:
                    by_measure[v.measure] = ref.measure_dataset(tables, v.measure, "half")[1]
                try:
                    outcome = ref.run_test(by_measure[v.measure], v)
                except ref.Degenerate:
                    degenerate[j] += 1
                    continue
                rejections[j] += outcome.p_value <= ALPHA
        for j, (v, r) in enumerate(zip(variants, results)):
            _require(
                (r.rejections, r.degenerate_reps) == (rejections[j], degenerate[j]),
                f"cell {index} {v}: program {r.rejections} rejections / {r.degenerate_reps} "
                f"degenerate, reference {rejections[j]} / {degenerate[j]}",
            )

    def _check_parallelism(self) -> None:
        grid = [self.grid[i] for i in self.PARALLEL_CELLS]
        outputs = []
        for parallelism in (1, 2):
            results = harness.run_grid(
                grid, self.variants, 2, alpha=ALPHA, master_seed=self.seed, parallelism=parallelism
            )
            path = self.workdir / f"parallelism{parallelism}.csv"
            harness.write_results_csv(path, results)
            outputs.append(path.read_bytes())
        _require(outputs[0] == outputs[1], "parallelism 2 wrote other bytes than parallelism 1")


def _half_up(x: Decimal) -> int:
    return int(x.quantize(Decimal(1), rounding=ROUND_HALF_UP))


def check_generated(condition, tables, trace, where: str) -> None:
    """The sampler's documented properties on one generated dataset."""
    _require(len(tables) == condition.k, f"{where}: {len(tables)} studies, expected k = {condition.k}")
    pi = Decimal(repr(condition.pi))
    for tp, fn, fp, tn in tables:
        total = tp + fn + fp + tn
        _require(condition.n_min <= total <= condition.n_max, f"{where}: N = {total} out of range")
        _require(tp + fn == _half_up(pi * total), f"{where}: n1 = {tp + fn} for N = {total}")
    youden = [tp / (tp + fn) + tn / (fp + tn) - 1.0 for tp, fn, fp, tn in tables]
    _require(list(trace.kept_youden) == youden, f"{where}: trace does not describe the kept studies")
    bias = condition.bias
    if bias.mechanism is sampler.BiasMechanism.SELECTION:
        n_drop = _half_up(Decimal(repr(bias.selection_fraction)) * condition.k)
        _require(
            trace.generated == condition.k + n_drop and len(trace.dropped_youden) == n_drop,
            f"{where}: selection dropped {len(trace.dropped_youden)}, expected {n_drop}",
        )
        _require(
            max(trace.dropped_youden) <= min(youden),
            f"{where}: a dropped study has a higher observed Youden index than a kept one",
        )
    else:
        _require(trace.generated == condition.k and not trace.dropped_youden, f"{where}: studies dropped")


# ---------------------------------------------------------------------------
# the analyst's path: analyze-cli
# ---------------------------------------------------------------------------

# The 8-study table from ROADMAP item 4. Kappa's SE on (0,4,0,3) comes out
# as ~3.5e-9 instead of 0, and the resulting ~1e17 weight makes
# np.linalg.inv raise LinAlgError in these four variants (family, axis,
# weighting). A fix turns them into passing ops; any other escape fails.
REPRODUCER = (
    (1, 1, 1, 1), (1, 1, 1, 1), (1, 4, 1, 4), (4, 2, 3, 0),
    (1, 2, 4, 4), (0, 4, 0, 3), (4, 4, 4, 2), (1, 2, 4, 2),
)
KNOWN_ESCAPES = {
    ("egger", "n", "ivfixed"), ("egger", "n", "ivrandom"),
    ("macaskill", "n", "ivfixed"), ("macaskill", "ess", "ivfixed"),
}

# Begg's test on duplicated studies runs on k30dup drawn at this fixed
# seed. Duplicates tie in both of Begg's vectors, and the program's
# variance of Kendall's S carries half of Kendall's joint-tie term, so p
# differs from the reference in the fifth or sixth digit. On a dataset
# drawn from --seed, S lands now and then where the continuity correction
# makes p independent of the variance (S = 1, or |S| <= 1 two-sided), so
# the count of these failures would depend on the seed; here it does not.
# A fix turns them into passing ops.
TIES = "k30dup-seed0"
TIES_SEED = 0

# name: (k, n range, mu (logit Sen, logit FPR), sigma, selected share,
#        zero-cell share, duplicated share)
DATASETS = {
    "k3": (3, (40, 400), (1.5, -1.5), 0.3, 0.0, 0.0, 0.0),
    "k5": (5, (40, 400), (1.0, -1.0), 0.5, 0.0, 0.0, 0.0),
    "k7": (7, (40, 400), (2.0, -1.0), 0.5, 0.3, 0.0, 0.0),
    "k10": (10, (50, 1000), (1.0, -1.0), 0.5, 0.4, 0.0, 0.0),
    "k30": (30, (50, 1000), (2.0, -2.0), 0.7, 0.0, 0.0, 0.0),
    "k30zero": (30, (30, 300), (2.0, -2.0), 0.5, 0.2, 0.2, 0.0),
    "k30dup": (30, (50, 1000), (1.0, -1.0), 0.5, 0.2, 0.0, 0.2),
    "k100": (100, (50, 1000), (2.0, -1.0), 0.7, 0.3, 0.0, 0.0),
    "k300zero": (300, (30, 1000), (2.0, -2.0), 0.5, 0.2, 0.1, 0.0),
    "k1000": (1000, (50, 2000), (1.5, -1.5), 0.7, 0.3, 0.0, 0.0),
}

ANALYZE_PER_DATASET = 18
FUNNEL_AXES = ("se", "n", "ess", "inv-n")


def analyze_ops() -> list[tuple]:
    """(dataset, command, variant, correction, extra flags) for one round.

    Per dataset: 18 ``analyze`` calls that walk the 92 (measure, variant)
    pairs with stride 5, so every pair is used and measures alternate,
    plus two ``funnel`` calls. Every fourth non-trim-and-fill call is
    two-sided; datasets with zero cells alternate the two correction
    policies. Kappa without correction is left out on zero-cell datasets,
    because of a fault found in the program (CHANGES.md): its SE cancels
    to noise on near-perfect tables. The Begg calls that fall on k30dup
    run on ``TIES`` instead. At k = 1000 trim and fill uses R0 only: L0's
    first untied call builds the exact null in about 0.8 s, and whether
    the generated values tie depends on the seed, which would make set-up
    time bimodal. The 8-study reproducer runs all 23 kappa variants
    without correction.
    """
    ops = []
    for j, (name, spec) in enumerate(DATASETS.items()):
        has_zeros, has_dups = spec[5] > 0, spec[6] > 0
        for t in range(ANALYZE_PER_DATASET):
            v = ALL_VARIANTS[(j * ANALYZE_PER_DATASET + t) * 5 % len(ALL_VARIANTS)]
            correction = "never" if has_zeros and t % 2 else "half"
            if v.measure == "kappa" and has_zeros:
                correction = "half"
            if v.estimator == "l" and spec[0] >= 1000:
                v = ref.Variant("trimfill", v.measure, v.axis, estimator="r")
            if v.family != "trimfill" and t % 4 == 3:
                v = ref.Variant(v.family, v.measure, v.axis, v.weighting, v.estimator, "two")
            dataset = TIES if v.family == "begg" and has_dups else name
            ops.append((dataset, "analyze", v, correction, []))
        for t in range(2):
            v = ref.Variant("egger", MEASURES[(j + t) % 4], FUNNEL_AXES[(j + 2 * t) % 4])
            ops.append((name, "funnel", v, "half", ["--format", ("csv", "json")[t]]))
    ops += [("reproducer", "analyze", v, "never", []) for v in ref.one_sided_variants("kappa")]
    return ops


def make_tables(rng: np.random.Generator, spec) -> list[tuple[int, int, int, int]]:
    """Bivariate-logit 2x2 tables with distinct study sizes.

    Distinct sizes keep every table distinct, except the rows that are
    duplicated on purpose. Selection drops the studies with the lowest
    observed Youden index; a zero cell moves all of FN (or all of FP) to
    TP (or TN), never both in one study.
    """
    k, (n_lo, n_hi), mu, sigma, selected, zero_share, dup_share = spec
    n_dup = round(dup_share * k)
    n_drop = round(selected * (k - n_dup))
    count = k - n_dup + n_drop
    sizes = rng.choice(np.arange(n_lo, n_hi + 1), size=count, replace=False)
    n1 = np.maximum(np.round(rng.uniform(0.2, 0.6, size=count) * sizes).astype(int), 1)
    n1 = np.minimum(n1, sizes - 1)
    logits = np.asarray(mu) + sigma * rng.standard_normal((count, 2))
    tp = rng.binomial(n1, 1 / (1 + np.exp(-logits[:, 0])))
    fp = rng.binomial(sizes - n1, 1 / (1 + np.exp(-logits[:, 1])))
    tables = [(int(a), int(m - a), int(b), int(s - m - b)) for a, b, m, s in zip(tp, fp, n1, sizes)]
    if n_drop:
        youden = [a / (a + c) + d / (b + d) - 1 for a, c, b, d in tables]
        keep = sorted(np.argsort(youden, kind="stable")[n_drop:])
        tables = [tables[i] for i in keep]
    n_zero = round(zero_share * len(tables))
    picks = rng.choice(len(tables), size=2 * n_zero, replace=False)
    for j, i in enumerate(picks):
        a, c, b, d = tables[i]
        tables[i] = (a + c, 0, b, d) if j < n_zero else (a, c, 0, b + d)
    for i in rng.choice(len(tables), size=n_dup, replace=True):
        tables.append(tables[i])
    order = rng.permutation(len(tables))
    return [tables[i] for i in order]


def write_tables(path: Path, tables) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("study_id", "tp", "fn", "fp", "tn"))
        for i, row in enumerate(tables):
            writer.writerow((f"s{i + 1}", *row))


class AnalyzeWorkload:
    """An op is one in-process ``cli.main`` call on a CSV written at set-up."""

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.tables = {name: make_tables(rng, spec) for name, spec in DATASETS.items()}
        self.tables[TIES] = make_tables(np.random.default_rng(TIES_SEED), DATASETS["k30dup"])
        self.tables["reproducer"] = list(REPRODUCER)
        self.paths = {}
        for name, tables in self.tables.items():
            self.paths[name] = workdir / f"{name}.csv"
            write_tables(self.paths[name], tables)
        self.workdir = workdir
        self.ops = []
        for dataset, command, variant, correction, extra in analyze_ops():
            if command == "funnel":
                argv = ["funnel", "--input", str(self.paths[dataset]), "--measure", variant.measure,
                        "--axis", variant.axis, "--correction", correction, *extra]
            else:
                argv = ["analyze", "--input", str(self.paths[dataset]), *variant.argv(),
                        "--correction", correction, *extra]
            self.ops.append((dataset, command, variant, correction, argv))
        self.first_outputs: list[tuple] | None = None

    def warm(self) -> None:
        """Fill the lru_cache tables: the exact L0 null for k up to 1000."""
        for _, _, variant, _, argv in self.ops:
            if variant.estimator == "l":
                self.call(argv)

    @staticmethod
    def call(argv: list[str]) -> tuple:
        """(exit code, stdout, stderr, name of an escaped exception or None)."""
        out, err = io.StringIO(), io.StringIO()
        escaped = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # an escape from the error contract is a failed op
            code, escaped = 1, type(exc).__name__
        return code, out.getvalue(), err.getvalue(), escaped

    def round(self, tracer=None) -> tuple[list[float], float, str]:
        """(time of each op, 0.0: no step outside the ops, tally)."""
        outputs = []
        op_times = []
        clock = time.perf_counter
        span = tracer.span if tracer else _no_span
        for _, _, _, _, argv in self.ops:
            t0 = clock()
            with span("cli.main"):
                result = self.call(argv)
            op_times.append(clock() - t0)
            outputs.append(result)
        if self.first_outputs is None:
            self.first_outputs = outputs
        digest = hashlib.sha256()
        for code, out, err, escaped in outputs:
            digest.update(f"{code}\0{out}\0{err}\0{escaped}\0".encode())
        return op_times, 0.0, digest.hexdigest()

    def round_failures(self) -> int:
        """Ops of a round that fail: escapes, and p faults on ``TIES``."""
        failed = 0
        for (dataset, _, variant, correction, _), output in zip(self.ops, self.first_outputs):
            code, out, _, escaped = output
            if escaped is not None:
                failed += 1
            elif dataset == TIES and code == 0:
                estimates = ref.measure_dataset(self.tables[TIES], variant.measure, correction)[1]
                expected = ref.run_test(estimates, variant).p_value
                failed += not _close(json.loads(out)["test"]["p_value"], expected)
        return failed

    def degenerate_share(self) -> float:
        return 0.0

    # -- checks ------------------------------------------------------------

    def check(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        for op, output in zip(self.ops, self.first_outputs):
            dataset, command, variant, correction, argv = op
            where = " ".join(argv[3:]) + f" on {dataset}"
            known = dataset == "reproducer" and (variant.family, variant.axis, variant.weighting) in KNOWN_ESCAPES
            allowed = {None, "LinAlgError"} if known else {None}
            _require(output[3] in allowed, f"{where}: {output[3]} escaped")
            if dataset == "reproducer":
                check_self_consistent(output, where)
                continue
            tables = self.tables[dataset]
            if command == "funnel":
                check_funnel(tables, variant, correction, argv, output, where)
                continue
            check_analyze(tables, variant, correction, output, where, known_p_fault=dataset == TIES)
            # the same studies in another order give the same p and decision
            perm = rng.permutation(len(tables))
            path = self.workdir / "permuted.csv"
            write_tables(path, [tables[i] for i in perm])
            again = self.call([argv[0], "--input", str(path), *argv[3:]])
            _require(again[0] == output[0], f"{where}: exit code changed under permutation")
            if output[0] == 0:
                a, b = json.loads(output[1])["test"], json.loads(again[1])["test"]
                _require(
                    _close(a["p_value"], b["p_value"]) and a["reject"] == b["reject"],
                    f"{where}: p {a['p_value']!r} became {b['p_value']!r} under permutation",
                )


def check_self_consistent(output, where: str) -> None:
    code, out, _, escaped = output
    if escaped is not None:
        return
    _require(code in (0, 3), f"{where}: exit code {code}")
    if code == 0:
        test = json.loads(out)["test"]
        _require(0.0 <= test["p_value"] <= 1.0, f"{where}: p out of [0, 1]")
        _require(test["reject"] == (test["p_value"] <= test["alpha"]), f"{where}: reject disagrees with p")


def _reference_studies(tables, measure, correction):
    kept, estimates = ref.measure_dataset(tables, measure, correction)
    return [f"s{i + 1}" for i in kept], estimates


def check_analyze(tables, variant, correction, output, where: str, known_p_fault: bool = False) -> None:
    """The report against the reference.

    With ``known_p_fault``, a p that differs from the reference ends the
    check after the statistic; ``round_failures`` counts the op as failed.
    """
    code, out, err, _ = output
    ids, estimates = _reference_studies(tables, variant.measure, correction)
    try:
        expected = ref.run_test(estimates, variant)
    except ref.Degenerate as exc:
        _require(code == 3, f"{where}: exit code {code}, reference says degenerate ({exc})")
        return
    _require(code == 0, f"{where}: exit code {code} ({err.strip()}), reference gives p = {expected.p_value}")
    report = json.loads(out)
    check_self_consistent(output, where)
    _require(report["k"] == len(tables), f"{where}: k = {report['k']}")
    _require([s["study_id"] for s in report["studies"]] == ids, f"{where}: other studies kept")
    excluded = {f"s{i + 1}" for i in range(len(tables))} - set(ids)
    warned = {w.split(":")[0][len("study "):] for w in report["warnings"] if "excluded" in w}
    _require(warned == excluded, f"{where}: exclusion warnings {sorted(warned)} vs {sorted(excluded)}")
    for study, est in zip(report["studies"], estimates):
        for key in ("value", "se", "n", "ess"):
            _require(
                _close(study[key], getattr(est, key)),
                f"{where}: study {study['study_id']} {key} {study[key]!r} vs {getattr(est, key)!r}",
            )
    test = report["test"]
    _require(test["test_id"] == expected.test_id, f"{where}: test id {test['test_id']}")
    for key, want in (("statistic", expected.statistic), ("p_value", expected.p_value)):
        if key == "p_value" and known_p_fault and not _close(test[key], want):
            return
        _require(_close(test[key], want), f"{where}: {key} {test[key]!r} vs reference {want!r}")
    if not math.isclose(expected.p_value, test["alpha"], rel_tol=0.0, abs_tol=REL_TOL):
        _require(test["reject"] == (expected.p_value <= test["alpha"]), f"{where}: decision differs")
    if variant.family == "trimfill":
        _require(test["k0"] == expected.k0, f"{where}: k0 {test['k0']} vs {expected.k0}")
        _require(test["converged"] == expected.converged, f"{where}: convergence differs")
        _require(
            _close(test["pooled_effect"], expected.pooled_effect),
            f"{where}: pooled effect {test['pooled_effect']!r} vs {expected.pooled_effect!r}",
        )


def check_funnel(tables, variant, correction, argv, output, where: str) -> None:
    code, out, _, _ = output
    _require(code == 0, f"{where}: exit code {code}")
    ids, estimates = _reference_studies(tables, variant.measure, correction)
    if "json" in argv:
        rows = [(r["study_id"], r["effect"], r["axis_value"]) for r in json.loads(out)]
    else:
        lines = out.strip().splitlines()[1:]
        rows = [(sid, float(x), float(y)) for sid, x, y in (line.split(",") for line in lines)]
    _require([r[0] for r in rows] == ids, f"{where}: other studies plotted")
    for (sid, effect, axis), est in zip(rows, estimates):
        want = ref.axis_value(est, variant.axis)
        _require(_close(effect, est.value) and _close(axis, want), f"{where}: study {sid} point differs")


WORKLOADS = {
    "grid-trimfill": GridWorkload,
    "analyze-cli": AnalyzeWorkload,
}
