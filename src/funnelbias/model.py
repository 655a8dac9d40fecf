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
import itertools
import math
import re
from collections.abc import Sequence
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
    Every value, SE and ESS is finite, and every SE, ESS and n positive.
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
        if not np.isfinite((self.value, self.se, self.ess)).all():
            raise ValueError("value, se and ess must be finite for every study")

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
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
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
    ``EmptyGroup``, and the first whose total N does not fit in int64
    raises ``DataError``. Each error names the study: "study i: ...".
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
    """The error of the first study, in row order, with a negative cell, an empty group or a total past int64.

    Within a study the cells are checked in x, w, y, z order, then n1,
    then n2, then N. N bounds every other total, n1, n2, m1 and m2, so
    a study whose N fits in int64 has every total in int64.
    """
    negative = tables < 0
    # with no negative cell, a sum past int64 wraps below 0 (to at most -2, never to 0)
    n1, n2 = tables[:, 0] + tables[:, 1], tables[:, 2] + tables[:, 3]
    bad = negative.any(axis=1) | (n1 <= 0) | (n2 <= 0) | (n1 + n2 < 0)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if negative[i].any():
        j = int(np.argmax(negative[i]))
        return NegativeCell(f"cell {'xwyz'[j]} is negative: {tables[i, j]}", study=i)
    if n1[i] == 0:
        return EmptyGroup("no diseased subjects (n1 = 0)", study=i)
    if n2[i] == 0:
        return EmptyGroup("no healthy subjects (n2 = 0)", study=i)
    return DataError(f"total N = {sum(tables[i].tolist())} does not fit in int64", study=i)


def validate_dataset(dataset: MetaDataset) -> MetaDataset:
    """Return the dataset if it has at least ``MIN_STUDIES`` studies; raise ``TooFewStudies`` if not."""
    if dataset.k < MIN_STUDIES:
        raise TooFewStudies(f"need at least {MIN_STUDIES} studies, got {dataset.k}")
    return dataset


def read_dataset_csv(path: str | Path) -> tuple[MetaDataset, tuple[str, ...]]:
    """Read a dataset from ``study_id,tp,fn,fp,tn`` CSV.

    Returns the dataset plus the study ids in file order. Blank lines
    are skipped; ids and counts may have surrounding whitespace, and a
    count is any integer ``int`` parses and int64 holds. A leading
    UTF-8 byte order mark, as spreadsheets write into "CSV UTF-8"
    exports, is skipped; one anywhere else is text. Any structural
    problem (text not UTF-8, bad header, wrong field count, a cell
    that is not a count, a negative count, an empty group, a study
    total past int64) raises :class:`DatasetFormatError` with its line
    number, if any. Line numbers count CSV records, so a quoted
    newline does not advance them. A record the csv module cannot read
    (a field past its size limit) is a format error at that record; an
    error in an earlier record comes first.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"not utf-8 text: {exc.reason}") from None
    records, unreadable = _csv_records(text)
    if not records:
        raise unreadable or DatasetFormatError("empty file", line_no=1)
    header, records = records[0], records[1:]
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise DatasetFormatError(
            f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}",
            line_no=1,
        )
    # a blank line has no cell that is more than whitespace
    kept = [any(map(str.strip, row)) for row in records]
    rows = list(itertools.compress(records, kept))
    line_nos = list(itertools.compress(itertools.count(2), kept))
    # bad is the first row that is not an id and four integers: the first
    # without five fields, or an earlier one with a cell int rejects
    bad = next((i for i, row in enumerate(rows) if len(row) != 5), len(rows))
    # one flat list, not zip(*rows): that holds an iterator per row, which
    # would set off the cyclic garbage collector on every large file
    cells = list(itertools.chain.from_iterable(rows[:bad]))
    del cells[::5]  # the ids
    counts = []
    try:
        # int skips whitespace but not "\x1c" to "\x1f", which str.strip removes;
        # extend keeps the counts before a cell int rejects, so that cell is the next
        counts.extend(map(int, map(str.strip, cells)))
    except ValueError:
        bad = len(counts) // 4
    reason = "non-integer cell count"
    try:
        tables = np.array(counts[: 4 * bad], dtype=np.int64)
    except OverflowError:  # a count int64 cannot hold ends the rows read, as a cell int rejects does
        bad = next(i for i, count in enumerate(counts) if not -(2**63) <= count < 2**63) // 4
        reason = "cell count outside int64"
        tables = np.array(counts[: 4 * bad], dtype=np.int64)
    parse_error = unreadable  # after every record read, so any error found in them comes first
    if bad < len(rows):
        row = rows[bad]
        reason = f"expected 5 fields, got {len(row)}" if len(row) != 5 else f"{reason} in {row[1:]!r}"
        parse_error = DatasetFormatError(reason, line_no=line_nos[bad])
    # the rows read before a parse error come first in the file
    try:
        dataset = MetaDataset(tables.reshape(bad, 4))
    except DataError as exc:
        raise DatasetFormatError(exc.reason, line_no=line_nos[exc.study]) from None
    if parse_error is not None:
        raise parse_error
    return dataset, tuple(row[0].strip() for row in rows)


def _csv_records(text: str) -> tuple[list[list[str]], DatasetFormatError | None]:
    """The CSV records of ``text`` up to the first one the csv module cannot read, and that record's error.

    The records are read in one pass, by ``extend``. When the reader
    fails, ``extend`` keeps the records read before the error, so the
    record that fails is the next one.
    """
    records = []
    try:
        records.extend(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        return records, DatasetFormatError(str(exc), line_no=len(records) + 1)
    return records, None


_CSV_QUOTED = re.compile('[,"\r\n]')


def csv_text(header: Sequence[str], ids: Sequence[str], *columns: Sequence) -> str:
    """CSV of a header line and one ``id,value,...`` line per id, each ending in "\\n".

    Each value is written as ``str`` writes it. An id is quoted, with its
    quotes doubled, when it holds a comma, a quote, "\\n" or "\\r", as
    Python 3.12's csv writer quotes it; the writer of earlier versions
    leaves a bare "\\r" unquoted, and csv.reader reads that as a line break.
    """
    if _CSV_QUOTED.search("".join(ids)):
        ids = ['"' + sid.replace('"', '""') + '"' if _CSV_QUOTED.search(sid) else sid for sid in ids]
    lines = map(",".join, zip(ids, *(map(str, column) for column in columns)))
    return "\n".join((",".join(header), *lines)) + "\n"


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
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(csv_text(CSV_HEADER, study_ids, *dataset.tables.T.tolist()))
