import csv
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from funnelbias.errors import (
    DataError,
    DatasetFormatError,
    EmptyGroup,
    NegativeCell,
    TooFewStudies,
)
from funnelbias.measures import ln_dor, measure_studies
from funnelbias.model import (
    CSV_HEADER,
    AsymmetryTestResult,
    CorrectionPolicy,
    EstimateSet,
    MeasureId,
    MetaDataset,
    Sidedness,
    StudyTable,
    read_dataset_csv,
    validate_dataset,
    write_dataset_csv,
)


def random_table(rng, n_max=200):
    n1 = int(rng.integers(1, n_max))
    n2 = int(rng.integers(1, n_max))
    x = int(rng.integers(0, n1 + 1))
    y = int(rng.integers(0, n2 + 1))
    return StudyTable(x=x, w=n1 - x, y=y, z=n2 - y)


def test_marginals():
    t = StudyTable(x=40, w=10, y=10, z=40)
    assert (t.n1, t.n2, t.m1, t.m2, t.n) == (50, 50, 50, 50, 100)


def test_marginal_consistency_random():
    rng = np.random.default_rng(1)
    for _ in range(500):
        t = random_table(rng)
        assert t.n1 + t.n2 == t.m1 + t.m2 == t.n


def test_validate_dataset_identity_on_valid():
    studies = [StudyTable(10, 5, 4, 11) for _ in range(5)]
    ds = MetaDataset(studies)
    assert validate_dataset(ds) is ds


def test_validate_dataset_empty_group():
    # a dataset is valid by construction, so validate_dataset never sees this one
    with pytest.raises(EmptyGroup, match="study 1"):
        MetaDataset([StudyTable(10, 5, 4, 11), StudyTable(0, 0, 4, 11), StudyTable(1, 1, 1, 1)])


def test_validate_dataset_too_few():
    ds = MetaDataset([StudyTable(10, 5, 4, 11), StudyTable(9, 6, 3, 12)])
    with pytest.raises(TooFewStudies):
        validate_dataset(ds)


def test_validate_dataset_negative_cell():
    with pytest.raises(NegativeCell, match="study 1"):
        MetaDataset([StudyTable(10, 5, 4, 11), StudyTable(9, -1, 3, 12), StudyTable(1, 1, 1, 1)])


def test_validate_dataset_reports_first_problem_in_study_order():
    with pytest.raises(EmptyGroup, match=r"^study 1: no healthy subjects \(n2 = 0\)$"):
        MetaDataset([(10, 5, 4, 11), (3, 4, 0, 0), (0, -2, -1, 5), (0, 0, 4, 11)])
    with pytest.raises(NegativeCell, match="^study 1: cell w is negative: -2$"):
        MetaDataset([(10, 5, 4, 11), (0, -2, -1, 5), (3, 4, 0, 0)])


@pytest.mark.parametrize("table", [
    (2**63 - 1, 2**63 - 1, 1, 1),  # n1 past int64
    (1, 1, 2**62, 2**62),  # n2
    (2**62, 2**62 - 1, 2**62 - 1, 2**62 - 1),  # n1 and n2 fit, and so do m1 and m2
])
def test_a_study_total_past_int64_is_an_error_of_that_study(tmp_path, table):
    # an int64 total would wrap below 0 and reach the measures as a negative N
    with pytest.raises(DataError, match=rf"^study 1: total N = {sum(table)} does not fit in int64$") as err:
        MetaDataset([(10, 5, 4, 11), table, (0, 0, 4, 11)])
    assert type(err.value) is DataError and err.value.study == 1
    # a file names the study's line
    path = tmp_path / "big.csv"
    path.write_text(f"{HEADER}s1,10,5,4,11\n\ns2,{','.join(map(str, table))}\ns3,1,2,3,4\n")
    with pytest.raises(DatasetFormatError, match="does not fit in int64") as err:
        read_dataset_csv(path)
    assert err.value.line_no == 4
    # the largest total that fits is a study like any other
    assert MetaDataset([(2**62, 2**62 - 3, 1, 1)]).studies[0].n == 2**63 - 1


def first_invalid_by_row_scan(rows):
    """(error type, study, message) for the first invalid study, one cell at a time; None if all are valid."""
    for i, (x, w, y, z) in enumerate(rows):
        for name, cell in zip("xwyz", (x, w, y, z)):
            if cell < 0:
                return NegativeCell, i, f"study {i}: cell {name} is negative: {cell}"
        if x + w == 0:
            return EmptyGroup, i, f"study {i}: no diseased subjects (n1 = 0)"
        if y + z == 0:
            return EmptyGroup, i, f"study {i}: no healthy subjects (n2 = 0)"
    return None


# small counts make zero cells and empty groups common; large ones reach N near 4e6
CELLS = st.integers(-2, 3) | st.integers(0, 10**6) | st.integers(0, 10**6)


@settings(max_examples=300, deadline=None)
@given(arrays(np.int64, st.tuples(st.integers(0, 8), st.just(4)), elements=CELLS))
def test_dataset_is_valid_by_construction(tables):
    expected = first_invalid_by_row_scan(tables.tolist())
    if expected is not None:
        error_type, study, message = expected
        with pytest.raises(error_type) as err:
            MetaDataset(tables)
        assert (err.value.study, str(err.value)) == (study, message)
        return
    dataset = MetaDataset(tables)
    for measure in MeasureId:
        for policy in CorrectionPolicy:
            measured = measure_studies(dataset, measure, policy)
            assert len(measured.estimates) + len(measured.excluded) == dataset.k


def measure_one(table, policy):
    return measure_studies(MetaDataset([table]), MeasureId.LNDOR, policy)


def lndor_value(*cells):
    return ln_dor(*(np.array([c], dtype=float) for c in cells))[0][0]


def test_correction_applies_on_zero_cell():
    m = measure_one(StudyTable(50, 0, 5, 45), CorrectionPolicy.HALF_IF_ANY_ZERO)
    assert m.corrected == (0,)
    assert m.estimates.value[0] == lndor_value(50.5, 0.5, 5.5, 45.5)
    assert m.estimates.n[0] == 100  # bookkeeping stays on the source table


def test_correction_no_zero_cell_unchanged():
    m = measure_one(StudyTable(40, 10, 10, 40), CorrectionPolicy.HALF_IF_ANY_ZERO)
    assert m.corrected == ()
    assert m.estimates.value[0] == lndor_value(40.0, 10.0, 10.0, 40.0)


def test_correction_never_policy():
    m = measure_one(StudyTable(50, 0, 5, 45), CorrectionPolicy.NEVER)
    assert m.corrected == ()
    assert len(m.estimates) == 0
    assert m.excluded[0][0] == 0


def test_correction_fires_at_most_once():
    # corrected tables never contain a zero cell, so lnDOR is defined for
    # every study; uncorrected tables pass through cell-for-cell
    rng = np.random.default_rng(2)
    tables = [random_table(rng, n_max=8) for _ in range(300)]
    m = measure_studies(MetaDataset(tables), MeasureId.LNDOR, CorrectionPolicy.HALF_IF_ANY_ZERO)
    assert m.excluded == ()
    assert m.corrected == tuple(i for i, t in enumerate(tables) if 0 in (t.x, t.w, t.y, t.z))
    for i, t in enumerate(tables):
        if i not in m.corrected:
            assert m.estimates.value[i] == lndor_value(t.x, t.w, t.y, t.z)


def test_effect_estimate_requires_positive_se():
    with pytest.raises(ValueError):
        EstimateSet(MeasureId.LNDOR, [1.0], [0.0], n=[100], ess=[100.0], m1=[50], m2=[50])


def test_result_reject_consistency_enforced():
    with pytest.raises(ValueError):
        AsymmetryTestResult(
            test_id="x",
            statistic=1.0,
            p_value=0.5,
            sidedness=Sidedness.ONE_SIDED,
            alpha=0.1,
            reject=True,
        )


def test_csv_round_trip(tmp_path):
    studies = [StudyTable(40, 10, 10, 40), StudyTable(30, 5, 8, 57), StudyTable(45, 15, 12, 38)]
    ds = MetaDataset(studies)
    path = tmp_path / "demo.csv"
    write_dataset_csv(path, ds, ("a", "b", "c"))
    back, ids = read_dataset_csv(path)
    assert back.studies == ds.studies
    assert ids == ("a", "b", "c")


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,tp,fn,fp,tn\ns1,1,2,3,4\n")
    with pytest.raises(DatasetFormatError) as err:
        read_dataset_csv(path)
    assert err.value.line_no == 1


def test_csv_non_integer_cell_has_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("study_id,tp,fn,fp,tn\ns1,40,10,10,40\ns2,1.5,2,3,4\n")
    with pytest.raises(DatasetFormatError) as err:
        read_dataset_csv(path)
    assert err.value.line_no == 3


def test_csv_invalid_study_reported_with_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("study_id,tp,fn,fp,tn\ns1,0,0,10,40\n")
    with pytest.raises(DatasetFormatError) as err:
        read_dataset_csv(path)
    assert err.value.line_no == 2


def test_csv_first_error_in_file_order_wins(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("study_id,tp,fn,fp,tn\ns1,40,10,10,40\ns2,0,0,3,4\ns3,x,1,1,1\n")
    with pytest.raises(DatasetFormatError, match="no diseased subjects") as err:
        read_dataset_csv(path)
    assert err.value.line_no == 3
    path.write_text("study_id,tp,fn,fp,tn\ns1,40,10,10,40\n\ns2,1,2\ns3,0,0,3,4\n")
    with pytest.raises(DatasetFormatError, match="expected 5 fields") as err:
        read_dataset_csv(path)
    assert err.value.line_no == 4
    path.write_text("study_id,tp,fn,fp,tn\ns1,40,10,10,40\n\ns2,1,2,-3,4\n")
    with pytest.raises(DatasetFormatError, match="cell y is negative: -3") as err:
        read_dataset_csv(path)
    assert err.value.line_no == 4


def read_dataset_csv_by_row(path):
    """The reader row by row, a count outside int64 ending the rows read: the reference for read_dataset_csv."""
    try:
        reader = csv.reader(io.StringIO(Path(path).read_bytes().decode(), newline=""))
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"not utf-8 text: {exc.reason}") from None
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetFormatError("empty file", line_no=1) from None
    except csv.Error as exc:
        raise DatasetFormatError(str(exc), line_no=1) from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise DatasetFormatError(
            f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}",
            line_no=1,
        )
    rows, ids, line_nos = [], [], []
    parse_error = None
    records = enumerate(reader, start=2)
    line_no = 1
    while True:
        try:
            line_no, row = next(records)
        except StopIteration:
            break
        except csv.Error as exc:
            parse_error = DatasetFormatError(str(exc), line_no=line_no + 1)
            break
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 5:
            parse_error = DatasetFormatError(f"expected 5 fields, got {len(row)}", line_no=line_no)
            break
        try:
            counts = [int(cell.strip()) for cell in row[1:]]
        except ValueError:
            parse_error = DatasetFormatError(f"non-integer cell count in {row[1:]!r}", line_no=line_no)
            break
        if not all(-(2**63) <= count < 2**63 for count in counts):
            parse_error = DatasetFormatError(f"cell count outside int64 in {row[1:]!r}", line_no=line_no)
            break
        rows.append(counts)
        ids.append(row[0].strip())
        line_nos.append(line_no)
    try:
        dataset = MetaDataset(rows)
    except DataError as exc:
        raise DatasetFormatError(exc.reason, line_no=line_nos[exc.study]) from None
    if parse_error is not None:
        raise parse_error
    return dataset, tuple(ids)


def read_outcome(read, path):
    """(tables, ids) on success; else the exception's class, message and line number."""
    try:
        dataset, ids = read(path)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return dataset.tables.tolist(), ids


def assert_reads_as_row_reader(path, text):
    path.write_bytes(text.encode())
    assert read_outcome(read_dataset_csv, path) == read_outcome(read_dataset_csv_by_row, path)


HEADER = ",".join(CSV_HEADER) + "\n"
INT64_MAX = 2**63 - 1
LONG_ID = "x" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize(
    "body",
    [
        "",
        "s1,1,2,3,4\n\n   \n,,,,\n , ,\t,, \n\"\",\"\",,,\ns2,5,6,7,8\ns3,1,1,1,1\n\n",
        "s1,1,2,3,4\r\ns2,5,6,7,8\r\n\r\ns3,1,1,1,1\r\n",
        "1,2,3,4,5\n 6 ,7,8,9,10\n11,12,13,14,15\n",
        "s1,1,2,3,4\r\ns2,5,6,7,8",
        '"Smith, 2001",1,2,3,4\n"O""Brien",5,6,7,8\n"two\nlines",1,1,1,1\n"car\rriage",0,0,1,1\n',
        "s1,1,2,3\ns2,1,2,3,4\n",
        "s1,1,2,3,4\ns2,1,2,3,4,5\n",
        "s1,1,2,3,4\ns2\n",
        *(f"s1,1,2,3,4\ns2,1,{cell},3,4\ns3,0,0,1,1\n" for cell in ("1.5", "x", "", "+5", " 7 ", "1_000", "٣", "\x1c7\x1f")),
        *(f"s1,1,2,3,4\ns2,1,{cell},3,4\n" for cell in (INT64_MAX, INT64_MAX + 1, -INT64_MAX - 2, 2**64, 10**30)),
        # a count outside int64 ends the rows read: an earlier row's error comes first
        f"s1,-1,2,3,4\ns2,1,{INT64_MAX + 1},3,4\n",
        f"s1,1,2,3,4\ns2,1,{2**64},3,4\ns3,x,1,1,1\n",
        f"s1,1,2,3,4\ns2,{2**64},x,3,4\n",
        *(f"s1,1,2,3,4\ns2,1,2,{cell},4\ns3,1,1,1,1\n" for cell in (INT64_MAX, -INT64_MAX - 1, -INT64_MAX - 2, 2**63)),
        "s1,1,2,3,4\ns2,1,-2,3,4\ns3,x,1,1,1\n",
        "s1,1,2,3,4\ns2,0,0,3,4\ns3,1,2\n",
        "s1,1,2,3,4\ns2,1,2,0,0\n\ns3,1.5,1,1,1\n",
        "s1,1,2,3,4\ns2,x,1,1,1\ns3,1,-2,3,4\n",
        "s1,1,2,3,4\ns2,1,2\ns3,0,0,3,4\n",
        # a field past the csv module's size limit, alone or after an earlier error
        *(f"{before}{LONG_ID},1,2,3,4\ns9,1,1,1,1\n" for before in ("", "s1,1,2,3,4\n\n", "s1,1,2\n", "s1,0,0,3,4\n")),
    ],
)
def test_reader_matches_row_reader_on_named_inputs(tmp_path, body):
    assert_reads_as_row_reader(tmp_path / "in.csv", HEADER + body)


CSV_CELLS = st.integers(-2, 60).map(str) | st.sampled_from(
    ["", " ", "1.5", "x", "+5", " 7 ", "1_000", "٣", "\x1c3", "-0", str(INT64_MAX), str(INT64_MAX + 1), str(-INT64_MAX - 2)]
)
# ids that are integers too, so that mixing up the id and count columns shows
CSV_IDS = st.text(st.sampled_from('ab ,"\r\n\t'), max_size=6) | st.text(max_size=4) | st.integers(0, 60).map(str)
CSV_ROWS = st.one_of(
    st.tuples(CSV_IDS, CSV_CELLS, CSV_CELLS, CSV_CELLS, CSV_CELLS).map(list),
    st.lists(CSV_CELLS | CSV_IDS, max_size=7),
    st.sampled_from([[], [" "], [""] * 5, [" ", "\t", "", "", " "]]),
)


def csv_line(fields, ending):
    """One CSV record; a field is quoted, quotes doubled, when it holds a delimiter, quote or line break."""
    quoted = ['"' + f.replace('"', '""') + '"' if any(c in f for c in ',"\r\n') else f for f in fields]
    return ",".join(quoted) + ending


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(CSV_ROWS, max_size=10),
    ending=st.sampled_from(["\n", "\r\n"]),
    header=st.sampled_from([HEADER, " study_id , tp,fn,fp,tn \r\n", "id,tp,fn,fp,tn\n"]),
)
def test_reader_matches_row_reader(tmp_path, rows, ending, header):
    assert_reads_as_row_reader(tmp_path / "in.csv", header + "".join(csv_line(row, ending) for row in rows))


def test_reader_skips_a_leading_byte_order_mark(tmp_path):
    # spreadsheets write one at the start of their "CSV UTF-8" exports
    text = HEADER + "s1,1,2,3,4\n\ufeffs2,5,6,7,8\na\ufeffb,1,1,1,1\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    outcome = read_outcome(read_dataset_csv, marked)
    assert outcome == read_outcome(read_dataset_csv, plain)
    # one anywhere else is part of the text it sits in
    assert outcome[1] == ("s1", "\ufeffs2", "a\ufeffb")


def test_reader_numbers_a_long_header_as_line_1(tmp_path):
    path = tmp_path / "in.csv"
    assert_reads_as_row_reader(path, LONG_ID + ",tp,fn,fp,tn\ns1,1,2,3,4\n")
    with pytest.raises(DatasetFormatError, match="field larger than field limit") as err:
        read_dataset_csv(path)
    assert err.value.line_no == 1


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    ids=st.lists(st.text(st.sampled_from('ab ,"\r\n'), max_size=5) | st.text(max_size=5), min_size=1, max_size=6),
    data=st.data(),
)
def test_csv_round_trip_keeps_awkward_ids(tmp_path, ids, data):
    tables = data.draw(arrays(np.int64, (len(ids), 4), elements=st.integers(1, 10**6)))
    path = tmp_path / "ids.csv"
    write_dataset_csv(path, MetaDataset(tables), tuple(ids))
    back, back_ids = read_dataset_csv(path)
    assert back.tables.tolist() == tables.tolist()
    assert back_ids == tuple(sid.strip() for sid in ids)
    # csv.writer writes the same bytes, except that it leaves a bare "\r" unquoted before Python 3.12
    if not any("\r" in sid for sid in ids):
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows((sid, *row) for sid, row in zip(ids, tables.tolist()))
        assert path.read_bytes().decode() == text.getvalue()


def test_csv_round_trip_quotes_a_bare_carriage_return(tmp_path):
    path = tmp_path / "cr.csv"
    write_dataset_csv(path, MetaDataset([(1, 2, 3, 4)] * 3), ("a\rb", "c", 'd"\re'))
    assert path.read_bytes().decode() == HEADER + '"a\rb",1,2,3,4\nc,1,2,3,4\n"d""\re",1,2,3,4\n'
    assert read_dataset_csv(path)[1] == ("a\rb", "c", 'd"\re')
