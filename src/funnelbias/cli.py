"""Command-line interface: analyze, funnel, simulate.

Exit codes: 0 success, 2 input/usage error (bad or unreadable input,
unwritable output, bad flags), 3 statistical precondition failure (too
few studies, a degenerate design, every study excluded).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from .asymmetry import (
    PrecisionAxis,
    TrimFillEstimator,
    funnel_points,
)
from .errors import (
    DatasetFormatError,
    FunnelBiasError,
    GridFormatError,
    StatisticalError,
    TooFewStudies,
)
from .harness import (
    FAMILIES,
    TestFamily,
    TestVariantId,
    run_grid,
    run_variant,
    summarize,
    write_results_csv,
)
from .measures import measure_studies
from .model import (
    MIN_STUDIES,
    CorrectionPolicy,
    MeasureId,
    Sidedness,
    read_dataset_csv,
    validate_dataset,
)
from .sampler import default_grid, load_grid

SCHEMA_VERSION = 1

_MEASURES = sorted(m.value for m in MeasureId)
_AXES = {"se": PrecisionAxis.SE, "n": PrecisionAxis.N, "ess": PrecisionAxis.ESS, "inv-n": PrecisionAxis.INV_N}


def _values(*enums) -> list[str]:
    """The members' values in declaration order, without repeats."""
    return list(dict.fromkeys(member.value for e in enums for member in e))


def _build_variant(args) -> TestVariantId:
    """The variant the flags name; ``TestVariantId`` validates the combination."""
    family = TestFamily(args.test)
    try:
        weighting = None
        if args.weighting not in (None, "none"):
            weightings = FAMILIES[family].weighting
            if weightings is None:
                raise ValueError(f"--weighting does not apply to {family.value}")
            weighting = weightings(args.weighting)
        return TestVariantId(
            family=family,
            measure=MeasureId(args.measure),
            axis=_AXES[args.axis],
            weighting=weighting,
            estimator=TrimFillEstimator(args.estimator) if args.estimator else None,
            sidedness=Sidedness(args.sided),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


class _UsageError(Exception):
    """Invalid flag combination; mapped to exit code 2."""


def _add_variant_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--measure", choices=_MEASURES, default="lndor")
    parser.add_argument("--test", choices=sorted(f.value for f in TestFamily), default="trimfill")
    parser.add_argument("--axis", choices=list(_AXES), default="se")
    weightings = [rule.weighting for rule in FAMILIES.values() if rule.weighting is not None]
    parser.add_argument("--weighting", choices=["none", *_values(*weightings)], default=None)
    parser.add_argument("--estimator", choices=_values(TrimFillEstimator), default=None)
    parser.add_argument("--sided", choices=_values(Sidedness), default="one")
    parser.add_argument("--alpha", type=float, default=0.1)
    parser.add_argument("--correction", choices=_values(CorrectionPolicy), default="half")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funnelbias",
        description="Publication-bias (funnel-plot asymmetry) tests for diagnostic meta-analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run one asymmetry test on a dataset CSV")
    analyze.add_argument("--input", required=True, help="dataset CSV (study_id,tp,fn,fp,tn)")
    _add_variant_flags(analyze)

    funnel = sub.add_parser("funnel", help="emit funnel-plot coordinates")
    funnel.add_argument("--input", required=True)
    funnel.add_argument("--measure", choices=_MEASURES, default="lndor")
    funnel.add_argument("--axis", choices=list(_AXES), default="se")
    funnel.add_argument("--correction", choices=_values(CorrectionPolicy), default="half")
    funnel.add_argument("--format", choices=["csv", "json"], default="csv")

    simulate = sub.add_parser("simulate", help="run the Monte Carlo rejection-rate study")
    simulate.add_argument("--grid", default="default", help="'default' or a grid JSON path")
    simulate.add_argument("--reps", type=int, default=1000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--out", default="results.csv")
    simulate.add_argument("--parallelism", type=int, default=1)
    _add_variant_flags(simulate)

    return parser


def _load_estimates(args):
    """Shared analyze/funnel input pipeline: read, validate, measure.

    Returns the dataset, the usable estimates, their study ids and one
    warning per corrected or excluded study, in study order.
    """
    dataset, study_ids = read_dataset_csv(args.input)
    validate_dataset(dataset)
    estimates, corrected, excluded = measure_studies(
        dataset, MeasureId(args.measure), CorrectionPolicy(args.correction)
    )
    corrected = set(corrected)
    reasons = dict(excluded)
    warnings = []
    for i in sorted(corrected | reasons.keys()):
        if i in corrected:
            warnings.append(f"study {study_ids[i]}: continuity correction applied")
        if i in reasons:
            warnings.append(f"study {study_ids[i]}: excluded: {reasons[i]}")
    ids = [study_ids[i] for i in estimates.index.tolist()]
    return dataset, estimates, ids, warnings


def _cmd_analyze(args) -> int:
    dataset, estimates, ids, warnings = _load_estimates(args)
    if len(estimates) < MIN_STUDIES:
        raise TooFewStudies(
            f"only {len(estimates)} usable studies after exclusions; need at least {MIN_STUDIES}"
        )
    variant = _build_variant(args)
    result = run_variant(variant, estimates, args.alpha)
    columns = zip(
        ids,
        estimates.value.tolist(),
        estimates.se.tolist(),
        estimates.n.tolist(),
        estimates.ess.tolist(),
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "input": str(args.input),
        "k": dataset.k,
        "measure": args.measure,
        "correction": args.correction,
        "studies": [
            {"study_id": sid, "value": value, "se": se, "n": n, "ess": ess}
            for sid, value, se, n, ess in columns
        ],
        "warnings": warnings,
        "test": {
            "test_id": result.test_id,
            "statistic": result.statistic,
            "p_value": result.p_value,
            "sided": result.sidedness.value,
            "alpha": result.alpha,
            "reject": result.reject,
        },
    }
    if result.k0 is not None:
        report["test"]["k0"] = result.k0
        report["test"]["pooled_effect"] = result.pooled_effect
        report["test"]["converged"] = result.converged
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return 0


def _cmd_funnel(args) -> int:
    _, estimates, ids, warnings = _load_estimates(args)
    for message in warnings:
        print(message, file=sys.stderr)
    if not ids:
        raise TooFewStudies("no usable studies")
    effects, axis_values = funnel_points(estimates, _AXES[args.axis])
    points = list(zip(ids, effects.tolist(), axis_values.tolist()))
    if args.format == "json":
        rows = [{"study_id": sid, "effect": x, "axis_value": y} for sid, x, y in points]
        sys.stdout.write(json.dumps(rows, indent=2) + "\n")
    else:
        print("study_id,effect,axis_value")
        for sid, x, y in points:
            print(f"{sid},{x!r},{y!r}")
    return 0


def _cmd_simulate(args) -> int:
    if args.reps < 1:
        raise _UsageError(f"--reps must be >= 1, got {args.reps}")
    if args.parallelism < 1:
        raise _UsageError(f"--parallelism must be >= 1, got {args.parallelism}")
    grid = default_grid() if args.grid == "default" else load_grid(args.grid)
    variant = _build_variant(args)
    # claim the output before the run, so an unwritable --out fails at once
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=out.parent, prefix=out.name, suffix=".tmp")
    os.close(fd)
    try:
        results = run_grid(
            grid,
            [variant],
            reps=args.reps,
            alpha=args.alpha,
            master_seed=args.seed,
            parallelism=args.parallelism,
            policy=CorrectionPolicy(args.correction),
        )
        write_results_csv(tmp_name, results)
        os.replace(tmp_name, out)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    print(f"wrote {len(results)} rows to {out}")
    print(f"variant: {variant.label}  alpha={args.alpha}  reps={args.reps}  seed={args.seed}")
    print("bias          strength  rate      95% interval")
    for row in summarize(results, ("bias", "bias_strength")):
        bias, strength = row.key
        print(
            f"{bias:<13} {strength:<9g} {row.rate:<9.4f} "
            f"[{row.wilson_low:.4f}, {row.wilson_high:.4f}]"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "funnel":
            return _cmd_funnel(args)
        return _cmd_simulate(args)
    except DatasetFormatError as exc:
        line = f" (line {exc.line_no})" if exc.line_no is not None else ""
        print(f"error: {args.input if hasattr(args, 'input') else 'input'}{line}: {exc}", file=sys.stderr)
        return 2
    except GridFormatError as exc:
        print(f"error: bad grid: {exc}", file=sys.stderr)
        return 2
    except StatisticalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (_UsageError, FunnelBiasError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
