import numpy as np
import pytest

from funnelbias.errors import (
    DatasetFormatError,
    EmptyGroup,
    NegativeCell,
    TooFewStudies,
)
from funnelbias.measures import ln_dor, measure_studies
from funnelbias.model import (
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
    ds = MetaDataset([StudyTable(10, 5, 4, 11), StudyTable(0, 0, 4, 11), StudyTable(1, 1, 1, 1)])
    with pytest.raises(EmptyGroup, match="study 1"):
        validate_dataset(ds)


def test_validate_dataset_too_few():
    ds = MetaDataset([StudyTable(10, 5, 4, 11), StudyTable(9, 6, 3, 12)])
    with pytest.raises(TooFewStudies):
        validate_dataset(ds)


def test_validate_dataset_negative_cell():
    ds = MetaDataset([StudyTable(10, 5, 4, 11), StudyTable(9, -1, 3, 12), StudyTable(1, 1, 1, 1)])
    with pytest.raises(NegativeCell, match="study 1"):
        validate_dataset(ds)


def test_validate_dataset_reports_first_problem_in_study_order():
    ds = MetaDataset([(10, 5, 4, 11), (3, 4, 0, 0), (0, -2, -1, 5), (0, 0, 4, 11)])
    with pytest.raises(EmptyGroup, match=r"^study 1: no healthy subjects \(n2 = 0\)$"):
        validate_dataset(ds)
    ds = MetaDataset([(10, 5, 4, 11), (0, -2, -1, 5), (3, 4, 0, 0)])
    with pytest.raises(NegativeCell, match="^study 1: cell w is negative: -2$"):
        validate_dataset(ds)


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
    ds = MetaDataset(studies, label="demo")
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
