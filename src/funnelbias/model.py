"""Core domain types for diagnostic meta-analysis.

A diagnostic study is a 2x2 table cross-classifying the index test
against a perfect gold standard:

                 test +   test -   total
    diseased        x        w       n1
    healthy         y        z       n2
    total          m1       m2        N

Everything downstream (accuracy measures, asymmetry tests, the
simulation harness) consumes these value objects. All types are
immutable and safe to share across threads or processes.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DatasetFormatError,
    EmptyGroup,
    NegativeCell,
    TooFewStudies,
)

CSV_HEADER = ("study_id", "tp", "fn", "fp", "tn")


class MeasureId(enum.Enum):
    """Univariate accuracy measures; all oriented so larger = more accurate."""

    LNDOR = "lndor"
    NEG_LNTHETA = "lntheta"
    YOUDEN = "youden"
    KAPPA = "kappa"


class CorrectionPolicy(enum.Enum):
    """Zero-cell handling before computing a measure."""

    HALF_IF_ANY_ZERO = "half"
    NEVER = "never"


class Sidedness(enum.Enum):
    ONE_SIDED = "one"
    TWO_SIDED = "two"


@dataclass(frozen=True, slots=True)
class StudyTable:
    """One diagnostic 2x2 table of raw integer counts.

    Construction does not validate; call :meth:`validate` (or
    :func:`validate_dataset`) at trust boundaries.
    """

    x: int  # true positives
    w: int  # false negatives
    y: int  # false positives
    z: int  # true negatives

    @property
    def n1(self) -> int:
        return self.x + self.w

    @property
    def n2(self) -> int:
        return self.y + self.z

    @property
    def m1(self) -> int:
        return self.x + self.y

    @property
    def m2(self) -> int:
        return self.w + self.z

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    def validate(self) -> "StudyTable":
        for name in ("x", "w", "y", "z"):
            cell = getattr(self, name)
            if not isinstance(cell, int) or isinstance(cell, bool):
                raise NegativeCell(f"cell {name} must be an integer count, got {cell!r}")
            if cell < 0:
                raise NegativeCell(f"cell {name} is negative: {cell}")
        if self.n1 == 0:
            raise EmptyGroup("no diseased subjects (n1 = 0)")
        if self.n2 == 0:
            raise EmptyGroup("no healthy subjects (n2 = 0)")
        return self


@dataclass(frozen=True, slots=True)
class EstimateSet:
    """One measure's estimates t_i with their SEs, for a dataset's usable studies.

    A structure of arrays with one entry per study. Alongside ``value``
    and ``se`` it carries each source table's size bookkeeping (``n``,
    ``ess`` and the test-result marginals ``m1``/``m2``, all from the
    observed table, before any continuity correction), because several
    asymmetry-test variants order or weight studies by those quantities
    rather than by the SE. ``index`` is each study's 0-based position in
    its dataset and defaults to 0..k-1. Columns are read-only copies.
    """

    measure: MeasureId
    value: np.ndarray
    se: np.ndarray
    n: np.ndarray
    ess: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    index: np.ndarray | None = None

    def __post_init__(self) -> None:
        k = len(self.value)
        if self.index is None:
            object.__setattr__(self, "index", np.arange(k))
        for name, dtype in _ESTIMATE_COLUMNS:
            column = np.array(getattr(self, name), dtype=dtype)
            if column.shape != (k,):
                raise ValueError(f"column {name} has shape {column.shape}, expected ({k},)")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if not (np.all(self.se > 0) and np.all(self.ess > 0) and np.all(self.n > 0)):
            raise ValueError("se, ess and n must be positive for every study")

    def __len__(self) -> int:
        return len(self.value)


_ESTIMATE_COLUMNS = (
    ("value", float),
    ("se", float),
    ("n", np.int64),
    ("ess", float),
    ("m1", np.int64),
    ("m2", np.int64),
    ("index", np.int64),
)


@dataclass(frozen=True, slots=True)
class AsymmetryTestResult:
    """Outcome of one funnel-plot asymmetry test on one dataset."""

    test_id: str
    statistic: float
    p_value: float
    sidedness: Sidedness
    alpha: float
    reject: bool
    k0: int | None = None  # trim-and-fill only
    pooled_effect: float | None = None  # trim-and-fill only
    converged: bool = True  # trim-and-fill iteration status

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value out of [0, 1]: {self.p_value}")
        if self.reject != (self.p_value <= self.alpha):
            raise ValueError("reject flag inconsistent with p_value and alpha")


@dataclass(frozen=True)
class MetaDataset:
    """An ordered collection of study tables forming one meta-analysis."""

    studies: tuple[StudyTable, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "studies", tuple(self.studies))

    @property
    def k(self) -> int:
        return len(self.studies)


MIN_STUDIES = 3  # regression tests need k - 2 >= 1 residual df


def round_half_up(value: float) -> int:
    """Nearest integer with halves rounded up (``round`` rounds them to even)."""
    return math.floor(value + 0.5)


def validate_dataset(dataset: MetaDataset) -> MetaDataset:
    """Check every study's invariants and the minimum study count.

    Returns the dataset unchanged on success; raises ``NegativeCell``,
    ``EmptyGroup`` (with the study index in the message) or
    ``TooFewStudies`` otherwise.
    """
    if dataset.k < MIN_STUDIES:
        raise TooFewStudies(f"need at least {MIN_STUDIES} studies, got {dataset.k}")
    for i, study in enumerate(dataset.studies):
        try:
            study.validate()
        except (NegativeCell, EmptyGroup) as exc:
            raise type(exc)(f"study {i}: {exc}") from None
    return dataset


def read_dataset_csv(path: str | Path) -> tuple[MetaDataset, tuple[str, ...]]:
    """Read a dataset from ``study_id,tp,fn,fp,tn`` CSV.

    Returns the dataset plus the study ids in file order. Any structural
    problem (bad header, non-integer cell, negative count, empty group)
    raises :class:`DatasetFormatError` carrying the 1-based line number.
    """
    path = Path(path)
    studies: list[StudyTable] = []
    ids: list[str] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError("empty file", line_no=1) from None
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise DatasetFormatError(
                f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}",
                line_no=1,
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue  # tolerate blank lines
            if len(row) != 5:
                raise DatasetFormatError(
                    f"expected 5 fields, got {len(row)}", line_no=line_no
                )
            study_id = row[0].strip()
            try:
                tp, fn, fp, tn = (int(cell.strip()) for cell in row[1:])
            except ValueError:
                raise DatasetFormatError(
                    f"non-integer cell count in {row[1:]!r}", line_no=line_no
                ) from None
            table = StudyTable(x=tp, w=fn, y=fp, z=tn)
            try:
                table.validate()
            except (NegativeCell, EmptyGroup) as exc:
                raise DatasetFormatError(str(exc), line_no=line_no) from None
            studies.append(table)
            ids.append(study_id)
    return MetaDataset(studies, label=path.stem), tuple(ids)


def write_dataset_csv(
    path: str | Path,
    dataset: MetaDataset,
    study_ids: tuple[str, ...] | None = None,
) -> None:
    """Write a dataset in the same CSV format :func:`read_dataset_csv` parses."""
    if study_ids is None:
        study_ids = tuple(f"s{i + 1}" for i in range(dataset.k))
    if len(study_ids) != dataset.k:
        raise ValueError("study_ids length does not match dataset size")
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for sid, t in zip(study_ids, dataset.studies):
            writer.writerow([sid, t.x, t.w, t.y, t.z])
