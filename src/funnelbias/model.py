"""Core domain types for diagnostic meta-analysis.

A diagnostic study is a 2x2 table cross-classifying the index test
against a perfect gold standard:

                 test +   test -   total
    diseased        x        w       n1
    healthy         y        z       n2
    total          m1       m2        N

Everything downstream (accuracy measures, asymmetry tests, the
simulation harness) consumes these value objects. All types are
immutable and safe to share across threads or processes. A
``MetaDataset`` checks its tables once, when it is made.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    DataError,
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


class StudyTable(NamedTuple):
    """One diagnostic 2x2 table of integer counts: a row of ``MetaDataset.tables``."""

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
        if not (np.array((self.se, self.ess, self.n)) > 0).all():
            raise ValueError("se, ess and n must be positive for every study")

    def __len__(self) -> int:
        return len(self.value)

    def rows(self) -> EstimateRows:
        """The estimates as a block of one row."""
        return EstimateRows(*(getattr(self, name)[None] for name in EstimateRows._fields))


class EstimateRows(NamedTuple):
    """Estimates of datasets with k usable studies each: a (rows, k) array per ``EstimateSet`` column."""

    value: np.ndarray
    se: np.ndarray
    n: np.ndarray
    ess: np.ndarray
    m1: np.ndarray
    m2: np.ndarray


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


@dataclass(frozen=True, eq=False)
class MetaDataset:
    """The 2x2 tables of one meta-analysis, one (x, w, y, z) row per study.

    ``tables`` is a read-only (k, 4) int64 copy of whatever rows it is
    given (an array, or a sequence of 4-tuples or ``StudyTable``s). It is
    valid by construction. Cells that are not integers (bool and float
    arrays included) raise ``NegativeCell``, and so does the first study
    with a negative cell; the first with an empty group raises
    ``EmptyGroup``. Both errors name the study: "study i: ...".
    """

    tables: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.tables)
        if cells.size and (cells.dtype == bool or not np.can_cast(cells.dtype, np.int64)):
            raise NegativeCell(f"cells must be integer counts within int64, got dtype {cells.dtype}")
        cells = cells.astype(np.int64).reshape(len(cells), 4)
        cells.flags.writeable = False
        error = _first_invalid(cells)
        if error is not None:
            raise error
        object.__setattr__(self, "tables", cells)

    @property
    def k(self) -> int:
        return len(self.tables)

    @property
    def studies(self) -> tuple[StudyTable, ...]:
        """The rows as ``StudyTable``s of Python ints."""
        return tuple(map(StudyTable._make, self.tables.tolist()))


MIN_STUDIES = 3  # regression tests need k - 2 >= 1 residual df


def round_half_up(value: float) -> int:
    """Nearest integer with halves rounded up (``round`` rounds them to even)."""
    return math.floor(value + 0.5)


def _first_invalid(tables: np.ndarray) -> DataError | None:
    """The error of the first study, in row order, with a negative cell or an empty group.

    Within a study the cells are checked in x, w, y, z order, then n1,
    then n2.
    """
    negative = tables < 0
    bad = negative.any(axis=1) | (tables[:, 0] + tables[:, 1] == 0) | (tables[:, 2] + tables[:, 3] == 0)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if negative[i].any():
        j = int(np.argmax(negative[i]))
        return NegativeCell(f"cell {'xwyz'[j]} is negative: {tables[i, j]}", study=i)
    if tables[i, 0] + tables[i, 1] == 0:
        return EmptyGroup("no diseased subjects (n1 = 0)", study=i)
    return EmptyGroup("no healthy subjects (n2 = 0)", study=i)


def validate_dataset(dataset: MetaDataset) -> MetaDataset:
    """Return the dataset if it has at least ``MIN_STUDIES`` studies; raise ``TooFewStudies`` if not."""
    if dataset.k < MIN_STUDIES:
        raise TooFewStudies(f"need at least {MIN_STUDIES} studies, got {dataset.k}")
    return dataset


def read_dataset_csv(path: str | Path) -> tuple[MetaDataset, tuple[str, ...]]:
    """Read a dataset from ``study_id,tp,fn,fp,tn`` CSV.

    Returns the dataset plus the study ids in file order. Any structural
    problem (text not UTF-8, bad header, non-integer cell, negative count,
    empty group) raises :class:`DatasetFormatError`, with its line number if any.
    """
    try:
        reader = csv.reader(io.StringIO(Path(path).read_bytes().decode(), newline=""))
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"not utf-8 text: {exc.reason}") from None
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetFormatError("empty file", line_no=1) from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise DatasetFormatError(
            f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}",
            line_no=1,
        )
    rows: list[list[int]] = []
    ids: list[str] = []
    line_nos: list[int] = []
    parse_error = None
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue  # tolerate blank lines
        if len(row) != 5:
            parse_error = DatasetFormatError(f"expected 5 fields, got {len(row)}", line_no=line_no)
            break
        try:
            rows.append([int(cell.strip()) for cell in row[1:]])
        except ValueError:
            parse_error = DatasetFormatError(
                f"non-integer cell count in {row[1:]!r}", line_no=line_no
            )
            break
        ids.append(row[0].strip())
        line_nos.append(line_no)
    # the rows read before a parse error come first in the file
    try:
        dataset = MetaDataset(rows)
    except DataError as exc:
        if exc.study is None:
            raise  # a cell beyond int64 is no one study's fault
        raise DatasetFormatError(exc.reason, line_no=line_nos[exc.study]) from None
    if parse_error is not None:
        raise parse_error
    return dataset, tuple(ids)


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
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows([sid, *row] for sid, row in zip(study_ids, dataset.tables.tolist()))
