"""Command-line interface: analyze, funnel, simulate.

Exit codes: 0 success, 2 input/usage error (bad or unreadable input,
unwritable output, bad flags, a negative ``--seed``), 3 statistical
precondition failure (too few studies, a degenerate design, every study
excluded).

The argument parser is built once per process and keeps no state between
calls, so in-process callers of :func:`main` pay for it once. Reports are
written in ``json.dumps(..., indent=2)`` layout by :func:`_json_object`,
:func:`_json_records` and :func:`_json_array`, which lay out each column's
JSON text from one call to json's C encoder instead of running json's
pure-Python indenting encoder.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from json.encoder import JSONEncoder, encode_basestring_ascii
from pathlib import Path

from .asymmetry import (
    FAMILIES,
    PrecisionAxis,
    TestFamily,
    TestVariantId,
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
    check_alpha,
    csv_text,
    read_dataset_csv,
    validate_dataset,
)
from .sampler import default_grid, load_grid

SCHEMA_VERSION = 1

_MEASURES = sorted(m.value for m in MeasureId)
_SCALAR_ENCODER = JSONEncoder(separators=("\n", ":"))
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
        axes = FAMILIES[family].axes
        if _AXES[args.axis] not in axes:
            accepted = ", ".join(flag for flag, axis in _AXES.items() if axis in axes)
            raise ValueError(f"--axis must be one of {accepted} for {family.value}, got {args.axis}")
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


def _alpha(text: str) -> float:
    """A significance level strictly between 0 and 1; anything else, nan and inf too, is a usage error."""
    try:
        alpha = float(text)
        check_alpha(alpha)
    except ValueError:
        raise argparse.ArgumentTypeError(f"alpha must be a number in (0, 1), got {text!r}") from None
    return alpha


def _seed(text: str) -> int:
    """A non-negative integer master seed; anything else is a usage error."""
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")


def _add_variant_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--measure", choices=_MEASURES, default="lndor")
    parser.add_argument("--test", choices=sorted(f.value for f in TestFamily), default="trimfill")
    parser.add_argument("--axis", choices=list(_AXES), default="se")
    weightings = [rule.weighting for rule in FAMILIES.values() if rule.weighting is not None]
    parser.add_argument("--weighting", choices=["none", *_values(*weightings)], default=None)
    parser.add_argument("--estimator", choices=_values(TrimFillEstimator), default=None)
    parser.add_argument("--sided", choices=_values(Sidedness), default="one")
    parser.add_argument("--alpha", type=_alpha, default=0.1)
    parser.add_argument("--correction", choices=_values(CorrectionPolicy), default="half")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call; ``parse_args`` leaves it unchanged."""
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
    simulate.add_argument("--seed", type=_seed, default=0)
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


def _json_scalars(values: list) -> list[str]:
    """Each value's JSON text, as ``json.dumps(value)`` writes it.

    The column is encoded in one call with "\\n" between its items, which
    JSON text never holds raw.
    """
    return _SCALAR_ENCODER.encode(values)[1:-1].split("\n") if values else []


def _json_array(items: list[str]) -> str:
    """``json.dumps(list, indent=2)`` from each item's JSON text, laid out at depth 1."""
    return "[\n  " + ",\n  ".join(items) + "\n]" if items else "[]"


def _json_records(keys: tuple[str, ...], columns: tuple[list, ...]) -> str:
    """``json.dumps([dict(zip(keys, row)) for row in zip(*columns)], indent=2)``.

    The records are flat (every value a JSON scalar) and have at least one
    key. Each column is encoded at once and each record fills one
    template, so the text is written in one pass.
    """
    members = ",\n    ".join(f"{encode_basestring_ascii(key).replace('%', '%%')}: %s" for key in keys)
    template = "{\n    " + members + "\n  }"
    return _json_array([template % row for row in zip(*map(_json_scalars, columns))])


def _json_object(members: list[tuple[str, str]]) -> str:
    """``json.dumps(dict, indent=2)`` from each member's key and JSON text at depth 0.

    JSON text holds no raw newline outside its layout, so the values nest
    by indenting every line after the first.
    """
    body = ",\n".join(f"{encode_basestring_ascii(key)}: {text}" for key, text in members)
    return "{\n  " + body.replace("\n", "\n  ") + "\n}"


def _cmd_analyze(args) -> int:
    # the flags are checked before the input, so a bad combination is a usage error whatever the file
    variant = _build_variant(args)
    dataset, estimates, ids, warnings = _load_estimates(args)
    if len(estimates) < MIN_STUDIES:
        raise TooFewStudies(
            f"only {len(estimates)} usable studies after exclusions; need at least {MIN_STUDIES}"
        )
    result = run_variant(variant, estimates, args.alpha)
    test = {
        "test_id": result.test_id,
        "statistic": result.statistic,
        "p_value": result.p_value,
        "sided": result.sidedness.value,
        "alpha": result.alpha,
        "reject": result.reject,
    }
    if result.k0 is not None:
        test.update(k0=result.k0, pooled_effect=result.pooled_effect, converged=result.converged)
    header = {
        "schema_version": SCHEMA_VERSION,
        "input": str(args.input),
        "k": dataset.k,
        "measure": args.measure,
        "correction": args.correction,
    }
    studies = _json_records(
        ("study_id", "value", "se", "n", "ess"),
        (ids, estimates.value.tolist(), estimates.se.tolist(), estimates.n.tolist(), estimates.ess.tolist()),
    )
    report = _json_object([
        *zip(header, _json_scalars(list(header.values()))),
        ("studies", studies),
        ("warnings", _json_array(_json_scalars(warnings))),
        ("test", _json_object(list(zip(test, _json_scalars(list(test.values())))))),
    ])
    sys.stdout.write(report + "\n")
    return 0


def _cmd_funnel(args) -> int:
    _, estimates, ids, warnings = _load_estimates(args)
    for message in warnings:
        print(message, file=sys.stderr)
    if not ids:
        raise TooFewStudies("no usable studies")
    effects, axis_values = funnel_points(estimates, _AXES[args.axis])
    columns = (ids, effects.tolist(), axis_values.tolist())
    if args.format == "json":
        sys.stdout.write(_json_records(("study_id", "effect", "axis_value"), columns) + "\n")
    else:
        # str(float) is repr(float); ids are quoted only where CSV needs it
        sys.stdout.write(csv_text(("study_id", "effect", "axis_value"), *columns))
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
