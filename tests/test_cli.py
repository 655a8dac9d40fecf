import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import funnelbias
from funnelbias import cli, model
from funnelbias.cli import main

DATASET = """study_id,tp,fn,fp,tn
s1,40,10,10,40
s2,30,5,8,57
s3,45,15,12,38
s4,20,4,6,30
s5,50,0,5,45
s6,33,7,9,41
s7,25,10,11,34
s8,60,12,14,44
s9,18,6,7,29
s10,42,8,13,37
"""


@pytest.fixture
def dataset_path(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(DATASET)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_trimfill_report(dataset_path, capsys):
    code, out, _ = run(
        capsys, "analyze", "--input", dataset_path,
        "--measure", "lndor", "--test", "trimfill", "--axis", "se",
        "--estimator", "r", "--alpha", "0.1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["k"] == 10
    assert len(report["studies"]) == 10
    assert report["test"]["test_id"] == "T(lndor,se,r)"
    assert "k0" in report["test"]
    assert "pooled_effect" in report["test"]
    assert isinstance(report["test"]["reject"], bool)
    assert any("continuity correction" in w and "s5" in w for w in report["warnings"])


def test_analyze_egger_defaults_one_sided(dataset_path, capsys):
    code, out, _ = run(capsys, "analyze", "--input", dataset_path, "--test", "egger")
    assert code == 0
    report = json.loads(out)
    assert report["test"]["sided"] == "one"
    assert "k0" not in report["test"]


def test_analyze_too_few_studies(tmp_path, capsys):
    path = tmp_path / "two.csv"
    path.write_text("study_id,tp,fn,fp,tn\na,40,10,10,40\nb,30,5,8,57\n")
    code, _, err = run(capsys, "analyze", "--input", str(path))
    assert code == 3
    assert "at least 3" in err


def test_analyze_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("study_id,tp,fn,fp,tn\na,40,10,10,40\nb,x,5,8,57\n")
    code, _, err = run(capsys, "analyze", "--input", str(path))
    assert code == 2
    assert "line 3" in err


def test_analyze_cell_beyond_int64_is_input_error(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("study_id,tp,fn,fp,tn\ns1,40,10,10,40\ns2,30,5,8,57\ns3,100000000000000000000,15,12,38\n")
    code, _, err = run(capsys, "analyze", "--input", str(path))
    assert code == 2
    assert "(line 4): cell count outside int64" in err


@pytest.mark.parametrize("count", [2**63, 2**64, 2**70])
def test_a_count_past_int64_is_reported_at_its_line(tmp_path, capsys, count):
    path = tmp_path / "huge.csv"
    path.write_text(f"study_id,tp,fn,fp,tn\ns1,40,10,10,40\ns2,{count},5,8,57\ns3,20,15,12,38\n")
    code, out, err = run(capsys, "analyze", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path} (line 3): cell count outside int64 in ['{count}', '5', '8', '57']\n"
    # an earlier row's error comes first
    path.write_text(f"study_id,tp,fn,fp,tn\ns1,40,10,10,40\ns2,-1,5,8,57\ns3,{count},15,12,38\n")
    code, out, err = run(capsys, "analyze", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path} (line 3): cell x is negative: -1\n"


@pytest.mark.parametrize("argv", [
    *(["analyze", "--test", test, "--axis", "n"] for test in ("egger", "macaskill", "begg", "trimfill")),
    ["funnel"],
])
def test_a_study_total_past_int64_is_input_error(tmp_path, capsys, argv):
    # n1 = x + w would wrap in int64 and reach the measures as a negative size
    header, _, rows = DATASET.partition("\n")
    path = tmp_path / "total.csv"
    path.write_text(f"{header}\ns1,{2**63 - 1},{2**63 - 1},1,1\n{rows}")
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert (code, out) == (2, "")
    assert err.endswith(f"(line 2): total N = {2**64} does not fit in int64\n")


def test_analyze_id_past_the_csv_field_limit_is_input_error(tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text(f"study_id,tp,fn,fp,tn\ns1,40,10,10,40\n{'x' * 200_000},30,5,8,57\ns3,20,15,12,38\n")
    code, out, err = run(capsys, "analyze", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "(line 3)" in err
    assert "field larger than field limit" in err


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "--input", "/nonexistent/ds.csv")
    assert code == 2


def test_analyze_checks_tables_once(dataset_path, capsys, monkeypatch):
    # read_dataset_csv checks the tables; validate_dataset and measure_studies do not
    calls = []
    check = model._first_invalid
    monkeypatch.setattr(model, "_first_invalid", lambda tables: calls.append(len(tables)) or check(tables))
    code, _, _ = run(capsys, "analyze", "--input", dataset_path)
    assert code == 0
    assert calls == [10]


def test_analyze_directory_input_is_input_error(tmp_path, capsys):
    code, out, err = run(capsys, "analyze", "--input", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_analyze_non_utf8_csv_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("study_id,tp,fn,fp,tn\nM\xfcller,40,10,10,40\n".encode("latin-1"))
    code, out, err = run(capsys, "analyze", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "not utf-8 text" in err


def test_analyze_invalid_combination(dataset_path, capsys):
    code, _, err = run(
        capsys, "analyze", "--input", dataset_path, "--test", "trimfill", "--sided", "two"
    )
    assert code == 2
    assert "one-sided" in err


@pytest.mark.parametrize("test,weighting", [
    ("egger", "peters"),
    ("begg", "ess"),
    ("trimfill", "unweighted"),
])
def test_analyze_weighting_outside_family_is_usage_error(dataset_path, capsys, test, weighting):
    code, out, err = run(
        capsys, "analyze", "--input", dataset_path, "--test", test, "--weighting", weighting
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("test,axis", [
    ("egger", "ess"), ("egger", "inv-n"), ("macaskill", "se"), ("trimfill", "ess"), ("trimfill", "inv-n"),
])
def test_analyze_axis_outside_family_is_usage_error(dataset_path, capsys, test, axis):
    code, out, err = run(capsys, "analyze", "--input", dataset_path, "--test", test, "--axis", axis)
    assert code == 2
    assert out == ""
    # the axes are named as the flag spells them, not as the library's enum members
    accepted = {"egger": "se, n", "macaskill": "n, ess, inv-n", "trimfill": "se, n"}[test]
    assert err == f"error: --axis must be one of {accepted} for {test}, got {axis}\n"


@pytest.mark.parametrize("k", [2, 3])
def test_analyze_checks_the_flags_before_the_input(tmp_path, capsys, k):
    # a bad flag combination is a usage error even on a file with too few studies
    path = tmp_path / "few.csv"
    path.write_text("".join(DATASET.splitlines(keepends=True)[: k + 1]))
    code, out, err = run(
        capsys, "analyze", "--input", str(path), "--test", "begg", "--weighting", "ivfixed"
    )
    assert code == 2
    assert out == ""
    assert "--weighting does not apply to begg" in err


# Kappa's variance on (0,4,0,3) is exactly 0 but came out as rounding noise,
# an SE near 3.5e-9 and a weight near 1e17 that broke the regression fits.
NEAR_DEGENERATE_KAPPA = [
    (1, 1, 1, 1), (1, 1, 1, 1), (1, 4, 1, 4), (4, 2, 3, 0),
    (1, 2, 4, 4), (0, 4, 0, 3), (4, 4, 4, 2), (1, 2, 4, 2),
]
KAPPA_VARIANTS = (
    [["--test", "egger", "--axis", a, "--weighting", w]
     for a in ("se", "n") for w in ("unweighted", "ivfixed", "ivrandom")]
    + [["--test", "macaskill", "--axis", a, "--weighting", w]
       for a in ("n", "ess", "inv-n") for w in ("ivfixed", "ess", "peters")]
    + [["--test", "begg", "--axis", a] for a in ("se", "n", "ess", "inv-n")]
    + [["--test", "trimfill", "--axis", a, "--estimator", e] for a in ("se", "n") for e in ("r", "l")]
)


@pytest.mark.parametrize("variant", KAPPA_VARIANTS, ids=" ".join)
def test_analyze_near_degenerate_kappa_exits_cleanly(tmp_path, capsys, variant):
    path = tmp_path / "kappa.csv"
    rows = [f"s{i + 1},{x},{w},{y},{z}" for i, (x, w, y, z) in enumerate(NEAR_DEGENERATE_KAPPA)]
    path.write_text("study_id,tp,fn,fp,tn\n" + "\n".join(rows) + "\n")
    code, out, err = run(
        capsys, "analyze", "--input", str(path), "--measure", "kappa", "--correction", "never", *variant
    )
    assert code in (0, 3), err
    if code == 0:
        report = json.loads(out)
        assert "study s6: excluded: kappa standard error is zero" in report["warnings"]


def test_funnel_axis_se(dataset_path, capsys):
    code, out, err = run(capsys, "funnel", "--input", dataset_path, "--axis", "se")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "study_id,effect,axis_value"
    assert len(lines) == 11
    sid, effect, axis_value = lines[1].split(",")
    assert sid == "s1"
    assert float(axis_value) == pytest.approx(1.0 / 0.5)  # se of s1 is 0.5
    assert "s5" in err  # correction warning goes to stderr


def test_funnel_axis_ess(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text(
        "study_id,tp,fn,fp,tn\na,16,4,16,64\nb,15,5,20,60\nc,14,6,18,62\n"
    )
    code, out, _ = run(capsys, "funnel", "--input", str(path), "--axis", "ess")
    assert code == 0
    first = out.strip().splitlines()[1].split(",")
    assert float(first[2]) == 64.0  # 4*20*80/100


def test_funnel_csv_quotes_ids_like_the_input(tmp_path, capsys):
    # ids were once written raw: "Smith, 2001" made a 4-field row, "O""Brien" a bare O"Brien
    path = tmp_path / "quoted.csv"
    path.write_text(QUOTED, encoding="utf-8")
    code, out, _ = run(capsys, "funnel", "--input", str(path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert rows[0] == ["study_id", "effect", "axis_value"]
    assert all(len(row) == 3 for row in rows)
    assert [row[0] for row in rows[1:]] == ["Smith, 2001", 'O"Brien', "Müller \U0001d4d0", "back\\slash\tand tab"]
    assert out.splitlines()[1].startswith('"Smith, 2001",')
    assert out.splitlines()[2].startswith('"O""Brien",')
    assert out.splitlines()[3].startswith("Müller \U0001d4d0,")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ids=st.lists(st.text(st.sampled_from('ab ,"\r\n'), max_size=5) | st.text(max_size=5), min_size=3, max_size=6))
def test_funnel_csv_reads_back_every_id(tmp_path, capsys, ids):
    # an id holding a bare "\r" was once written unquoted and read back as two rows
    path = tmp_path / "ids.csv"
    model.write_dataset_csv(path, model.MetaDataset([(40, 10, 10, 40)] * len(ids)), tuple(ids))
    code, out, _ = run(capsys, "funnel", "--input", str(path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert all(len(row) == 3 for row in rows)
    assert [row[0] for row in rows[1:]] == [sid.strip() for sid in ids]


def test_funnel_json(dataset_path, capsys):
    code, out, _ = run(capsys, "funnel", "--input", dataset_path, "--format", "json", "--axis", "n")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["study_id"] == "s1"
    assert rows[0]["axis_value"] == 100.0


GRID = {
    "mu": [[1, -1]],
    "sigma": [[[0, 0], [0, 0]]],
    "k": [10],
    "pi": [0.5],
    "bias": [{"mechanism": "none"}, {"mechanism": "selection", "fraction": 0.4}],
}


def test_simulate_deterministic_output(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(GRID))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    code, _, _ = run(
        capsys, "simulate", "--grid", str(grid_path), "--reps", "50",
        "--seed", "11", "--out", str(out1),
    )
    assert code == 0
    code, _, _ = run(
        capsys, "simulate", "--grid", str(grid_path), "--reps", "50",
        "--seed", "11", "--out", str(out2), "--parallelism", "2",
    )
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 3  # header + 2 conditions


# sha256 of the results CSV of `simulate --reps 3 --seed 1` on the default
# grid, one variant per family; any change to sampling, measures, tests or
# the CSV layout shows here.
GOLDEN_CSV_SHA256 = {
    "--test egger --axis n --weighting ivrandom":
        "2863451b41aeb1cb6db3185a92aaf3965037933bd449d7a382f63f8d7730e3ae",
    "--test macaskill --axis inv-n":
        "c8b8e11600874d65e82f53c44111a9d90e75fdde2ace5c13ff2fa961742a7ec3",
    "--test begg --axis ess":
        "3eda41e03d6ac186126e70f4ea49084b96638962255a94ab98bbe0ec133ca381",
    "--test trimfill --axis se --estimator r":
        "8996d1533acf029c1eea2c5cdac3b854e3733773020979fa9ddc90f49b9a7e8c",
}


@pytest.mark.parametrize("flags", list(GOLDEN_CSV_SHA256))
def test_simulate_default_grid_golden_bytes(tmp_path, capsys, flags):
    out = tmp_path / "results.csv"
    code, _, _ = run(capsys, "simulate", "--reps", "3", "--seed", "1", *flags.split(), "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV_SHA256[flags]


def test_simulate_reps_zero_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "simulate", "--reps", "0", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "reps" in err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("alpha", ["nan", "inf", "0", "1", "-0.5", "1.5"])
def test_alpha_outside_the_open_unit_interval_is_usage_error(dataset_path, tmp_path, capsys, command, alpha):
    # nan and inf once ran: analyze wrote them as invalid JSON, simulate rejected nothing
    out = tmp_path / "x.csv"
    flags = ["--input", dataset_path] if command == "analyze" else ["--reps", "2", "--out", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        main([command, *flags, f"--alpha={alpha}"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "alpha must be a number in (0, 1)" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_bad_seed_is_usage_error(tmp_path, capsys, seed):
    # a negative seed once escaped from numpy's SeedSequence as a ValueError
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--reps", "2", "--out", str(out), f"--seed={seed}"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"seed must be a non-negative integer, got {seed!r}" in captured.err
    assert not out.exists()


def test_simulate_bad_grid_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run(capsys, "simulate", "--grid", str(bad), "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("bias", [{"mechanism": "none"}, {"mechanism": "selection", "fraction": 0.2}])
def test_simulate_grid_with_empty_group_is_usage_error(tmp_path, capsys, bias):
    # N = 1 at prevalence 0.2 gives n1 = 0 diseased subjects
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({**GRID, "pi": [0.2], "bias": [bias], "n_min": 1, "n_max": 4}))
    code, _, err = run(
        capsys, "simulate", "--grid", str(grid_path), "--reps", "5", "--measure", "youden",
        "--test", "egger", "--correction", "never", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "leaves a group empty" in err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_grid_with_fractional_k_is_usage_error(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({**GRID, "k": [10.9]}))
    code, _, err = run(
        capsys, "simulate", "--grid", str(grid_path), "--reps", "5", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "expected an integer, got 10.9" in err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_grid_with_a_misspelt_key_is_usage_error(tmp_path, capsys):
    # "n_mn" used to be ignored, so the run went ahead at n_min 50
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({**GRID, "n_mn": 500}))
    code, out, err = run(capsys, "simulate", "--grid", str(grid_path), "--reps", "1", "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (2, "")
    assert err == "error: bad grid: unknown key 'n_mn' in the grid; accepted: mu, sigma, k, pi, bias, n_min, n_max\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("k", [10_001, 10**11, 10**19])
def test_simulate_grid_with_k_past_the_bound_is_usage_error(tmp_path, capsys, k):
    # 10**19 overflowed numpy's array dimensions, and 10**11 asked for terabytes
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({**GRID, "k": [k]}))
    code, out, err = run(capsys, "simulate", "--grid", str(grid_path), "--reps", "1", "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (2, "")
    assert err == f"error: bad grid: bad grid values: k must be in [3, 10000], got {k}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("members", [
    '"mu": [[NaN, -1]]',
    '"mu": [[1e400, -1]]',
    '"sigma": [[[Infinity, 0], [0, 1]]]',
    '"sigma": [[[1e308, 0], [0, 1e308]]]',  # finite, but its root overflows
    '"bias": [{"mechanism": "mixture", "eta": [NaN, -1]}]',
    '"mu": [[-1e400, -1]], "bias": [{"mechanism": "mixture", "eta": [1e400, -1]}]',
])
def test_simulate_grid_with_a_parameter_that_is_not_finite_is_usage_error(tmp_path, capsys, members):
    # json reads NaN, Infinity and 1e400, and numpy's binomial once raised on the nan probabilities they made
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(GRID)[:-1] + ", " + members + "}")  # a repeated key takes the last value
    code, out, err = run(capsys, "simulate", "--grid", str(grid_path), "--reps", "2", "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (2, "")
    assert err.startswith("error: bad grid: bad grid values: logit means ")
    assert err.endswith(" must be finite\n")
    assert not (tmp_path / "x.csv").exists()


def test_simulate_directory_grid_is_input_error(tmp_path, capsys):
    code, out, err = run(capsys, "simulate", "--grid", str(tmp_path), "--reps", "1", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert out == ""
    assert not (tmp_path / "x.csv").exists()


def test_simulate_non_utf8_grid_is_usage_error(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_bytes(json.dumps({**GRID, "note": "M\u00fcller"}, ensure_ascii=False).encode("latin-1"))
    code, _, err = run(capsys, "simulate", "--grid", str(grid_path), "--reps", "1", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "bad grid" in err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_out_under_a_file_is_input_error(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(GRID))
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = run(capsys, "simulate", "--grid", str(grid_path), "--reps", "1", "--out", str(blocker / "r.csv"))
    assert code == 2
    assert err.startswith("error: ")
    assert blocker.read_text() == ""


def test_simulate_parallelism_below_1_is_usage_error(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, err = run(capsys, "simulate", "--reps", "1", "--parallelism", "0", "--out", str(out))
    assert code == 2
    assert err == "error: --parallelism must be >= 1, got 0\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("failure", [RuntimeError, KeyboardInterrupt])
def test_simulate_failing_mid_run_leaves_no_temporary_and_keeps_the_old_output(tmp_path, monkeypatch, failure):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(GRID))
    out = tmp_path / "r.csv"
    out.write_bytes(b"earlier results\n")

    def failing_run_grid(*args, **kwargs):
        assert len(list(tmp_path.glob("r.csv*.tmp"))) == 1  # the output is claimed before the run
        raise failure("stopped mid-run")

    monkeypatch.setattr(cli, "run_grid", failing_run_grid)
    with pytest.raises(failure, match="stopped mid-run"):
        main(["simulate", "--grid", str(grid_path), "--reps", "1", "--out", str(out)])
    assert list(tmp_path.glob("*.tmp")) == []
    assert out.read_bytes() == b"earlier results\n"


# s1's zero cell is corrected, so its FPR is (1e15 + 0.5) / (1e15 + 1): below
# 1, but ln(y) and ln(n2) are the same double, so ln(FPR) reads 0
LNTHETA_ROUNDING = """study_id,tp,fn,fp,tn
s1,3,100000000000000000,1000000000000000,0
s2,10,5,4,11
s3,9,6,3,12
s4,20,5,6,30
"""


def assert_finite_studies(out):
    """The report's studies, or funnel points, hold no NaN or Infinity."""
    report = json.loads(out)
    studies = report["studies"] if isinstance(report, dict) else report
    assert all(math.isfinite(v) for study in studies for v in study.values() if isinstance(v, float)), out


@pytest.mark.parametrize("test", ["egger", "macaskill", "begg", "trimfill"])
def test_lntheta_study_with_sen_or_fpr_rounding_to_1_is_excluded(tmp_path, capsys, test):
    path = tmp_path / "in.csv"
    path.write_text(LNTHETA_ROUNDING)
    axis = "n" if test == "macaskill" else "se"
    code, out, err = run(capsys, "analyze", "--input", str(path), "--measure", "lntheta", "--test", test, "--axis", axis)
    assert code in (0, 3), err
    if code == 0:
        assert_finite_studies(out)
        report = json.loads(out)
        assert [study["study_id"] for study in report["studies"]] == ["s2", "s3", "s4"]
        assert "study s1: excluded: lnTheta degenerate when Sen = 1 or FPR = 1" in report["warnings"]


@pytest.mark.parametrize("test", ["egger", "macaskill", "begg", "trimfill"])
def test_simulate_lntheta_past_1e13_subjects_per_group(tmp_path, capsys, test):
    grid_path = tmp_path / "grid.json"
    grid = {**GRID, "mu": [[2.0, 34.5]], "bias": [{"mechanism": "none"}], "n_min": 10**16, "n_max": 2 * 10**16}
    grid_path.write_text(json.dumps(grid))
    axis = "n" if test == "macaskill" else "se"
    code, _, err = run(
        capsys, "simulate", "--grid", str(grid_path), "--reps", "20", "--seed", "1",
        "--measure", "lntheta", "--test", test, "--axis", axis, "--out", str(tmp_path / "r.csv"),
    )
    assert code in (0, 3), err


def test_simulate_summary_on_stdout(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(GRID))
    code, out, _ = run(
        capsys, "simulate", "--grid", str(grid_path), "--reps", "30",
        "--seed", "1", "--out", str(tmp_path / "r.csv"),
    )
    assert code == 0
    assert "selection" in out
    assert "none" in out


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats costs most of a CLI process's start-up; the package needs
    # only scipy.special
    src = str(Path(funnelbias.__file__).resolve().parents[1])
    probe = "import sys, funnelbias.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_parser_is_built_once_and_keeps_no_state(dataset_path, capsys, monkeypatch):
    calls = [
        ["analyze", "--input", dataset_path, "--test", "egger", "--sided", "two"],
        ["analyze", "--input", dataset_path],
        ["funnel", "--input", dataset_path, "--format", "json"],
        ["analyze", "--input", dataset_path, "--estimator", "l", "--alpha", "0.05"],
    ]
    bad_alpha = ["analyze", "--input", dataset_path, "--alpha", "nan"]

    def usage_error():
        with pytest.raises(SystemExit) as exit_info:
            main(bad_alpha)
        assert exit_info.value.code == 2
        return capsys.readouterr()

    cli._build_parser.cache_clear()
    first_error = usage_error()
    reused = [run(capsys, *argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    cli._build_parser.cache_clear()
    assert usage_error() == first_error
    # the usage text takes its width when printed, not when the parser is built
    monkeypatch.setenv("COLUMNS", "40")
    narrow = usage_error()
    assert narrow != first_error
    cli._build_parser.cache_clear()
    assert usage_error() == narrow


# Inputs of the golden analyze and funnel bytes. DATASET has a zero cell
# (s5); ASYMMETRIC makes trim and fill impute studies under both
# estimators; QUOTED holds ids that need CSV quoting or JSON escaping.
ASYMMETRIC = """study_id,tp,fn,fp,tn
a1,90,10,10,90
a2,80,20,15,85
a3,45,5,5,45
a4,20,2,2,20
a5,15,1,1,15
a6,12,1,2,14
a7,10,0,1,9
a8,60,15,12,63
"""
QUOTED = (
    'study_id,tp,fn,fp,tn\n"Smith, 2001",40,10,10,40\n"O""Brien",30,5,8,57\n'
    "Müller \U0001d4d0,45,15,12,38\nback\\slash\tand tab,20,4,6,30\n"
)
GOLDEN_INPUTS = {
    "ds.csv": DATASET,
    "asym.csv": ASYMMETRIC,
    "quoted.csv": QUOTED,
    "kappa.csv": "study_id,tp,fn,fp,tn\n"
    + "".join(f"s{i + 1},{x},{w},{y},{z}\n" for i, (x, w, y, z) in enumerate(NEAR_DEGENERATE_KAPPA)),
    "two.csv": "study_id,tp,fn,fp,tn\na,40,10,10,40\nb,30,5,8,57\n",
    "bad.csv": "study_id,tp,fn,fp,tn\na,40,10,10,40\nb,x,5,8,57\n",
}

# sha256 of "exit code\0stdout\0stderr" of each call, run in a directory
# holding GOLDEN_INPUTS; any change to the analyze or funnel output shows here.
GOLDEN_CALL_SHA256 = {
    "analyze --input ds.csv --test egger --axis se --weighting unweighted":
        "12b7d21e749b0d60b77ac67f1f2bf53ffaa906f20d67d33e27fcfb2ec968b1e1",
    "analyze --input ds.csv --test egger --axis n --weighting ivrandom --sided two":
        "9225b00e378d7dbbc1cca369f965dff11edfb2d7377447d00c14b2e621487af0",
    "analyze --input ds.csv --test macaskill --axis inv-n --weighting peters":
        "5b199f12d52566207c0132f4f299925c3ee877033f1c5eac318769200cdff901",
    "analyze --input ds.csv --test macaskill --axis ess --weighting ess --sided two":
        "ab2ede0e2a9b545608f66764070350c9e917918e5ff41c773a7c6147d7b72cd2",
    "analyze --input ds.csv --test begg --axis se":
        "4102cdfcc05c3cf5eb6c7d98babbd3ebe5537143e921e450ccb7459fda67b719",
    "analyze --input ds.csv --test begg --axis ess --sided two":
        "9756ea323ee003ac6a64031c809090042dc3df05f50cd39443977bfba3f7ad87",
    "analyze --input ds.csv --test trimfill --axis se --estimator r":
        "b5261d705df992b25f588da3273ddb73ab5535ce12aff7aeb69e5e7a214ab602",
    "analyze --input ds.csv --test trimfill --axis n --estimator l":
        "da5f696edc5220d7f846a146354bc586f49f514de45d4589a28dddee1a01b158",
    "analyze --input ds.csv --measure lntheta --test egger --weighting ivfixed":
        "7f263adb61a9fc8bc95677d214dc9df8097e6c617bef39e3ff8303b0dce2db02",
    "analyze --input ds.csv --measure youden --test begg --axis n":
        "287e9a2c50f37605a8316906382e87a7966b8052e338090ce4661df6ff012b84",
    "analyze --input ds.csv --measure kappa --test macaskill --axis n --weighting ivfixed":
        "3630a845424e8c24e8bca07d0e5d65c9642b5338993920e90336b430c6291e70",
    "analyze --input ds.csv --correction never":
        "35a1373b9f301e2ea6892aa44c9b01ee22481c4da3f15165ce1be218867109c5",
    "analyze --input asym.csv --estimator r":
        "fdf0aeeda3192fe07e1e5bd17c33a22b6684e8b6c0439118f1ddda5724f1a72f",
    "analyze --input asym.csv --estimator l --axis n":
        "9f433fe10541673093b190a86b6b903c1230d0b17eff19cdf965a5ef20690aa2",
    "analyze --input asym.csv --test egger --correction never --alpha 0.05":
        "202bda6ca7d92efe61afc8aaa5ce0ed752124a2e56aadac41180944beb8b4a3b",
    "analyze --input kappa.csv --measure kappa --correction never --test begg":
        "711155b829b37f94e18af16e0e893b891a1b1f20a3690e4ba491f8a4ccf9e579",
    "analyze --input quoted.csv --test begg --sided two":
        "c9726426ad57f3b61c20b4e6c45f6bc44c20a5c777e3e3732e4055e7b8180d4e",
    "analyze --input two.csv":
        "99e4ed73791f2f0e2a92df8f50e8c2f89f5ffb9145a87091901763175d54b5d3",
    "analyze --input bad.csv":
        "ab5701bc549939ab56d273fbe3b20fbbd0429f3bd77c6d972e12bcd131d2d5b0",
    "funnel --input ds.csv":
        "439d101f84e55cbc345ced135310f80ebc60b980891df68ea663b42b3f199808",
    "funnel --input ds.csv --format json --axis n":
        "949b13eb7209724a7e8d9bf0a41726635863d1615f37a0cb9d9ae38d1ae0a3a7",
    "funnel --input kappa.csv --measure kappa --axis ess --correction never":
        "b3fa42c444dd3cc49ff24d2098b858e42d406a516cbb2aaeb9ed8a47f3041b31",
    "funnel --input asym.csv --axis inv-n --correction never --format json":
        "1a73644a996a5391880792ae7b34a2b7974416013110346244222d70333c8f84",
    "funnel --input quoted.csv --format json":
        "e8122df45d978b0a123142b93f3b005a0fa74001c70a23c7432d204170641b48",
}


def golden_digest(capsys, argv: str) -> str:
    code = main(argv.split())
    captured = capsys.readouterr()
    return hashlib.sha256(f"{code}\0{captured.out}\0{captured.err}".encode()).hexdigest()


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    for name, text in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv", list(GOLDEN_CALL_SHA256))
def test_analyze_and_funnel_golden_bytes(golden_dir, capsys, argv):
    assert golden_digest(capsys, argv) == GOLDEN_CALL_SHA256[argv]


# json.dumps escapes these in strings; ids may hold any of them
AWKWARD_CHARS = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\r", "é", "\u2028", "\U0001d4d0", "%", "a"])
AWKWARD_TEXT = st.text(AWKWARD_CHARS | st.characters(), max_size=8)
UTF8_TEXT = st.text(AWKWARD_CHARS | st.characters(codec="utf-8"), max_size=8)  # a file holds no lone surrogate
AWKWARD_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e22, 0.1]) | st.floats()
JSON_SCALAR = AWKWARD_TEXT | st.integers() | AWKWARD_FLOATS | st.booleans() | st.none()


@st.composite
def record_columns(draw):
    """Keys and columns: each column of one type (the fast paths) or mixed."""
    keys = draw(st.lists(AWKWARD_TEXT, min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(0, 6))
    kinds = st.sampled_from([AWKWARD_TEXT, st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                             AWKWARD_FLOATS, JSON_SCALAR])
    columns = tuple(draw(st.lists(draw(kinds), min_size=rows, max_size=rows)) for _ in keys)
    return tuple(keys), columns


@settings(max_examples=300, deadline=None)
@given(record_columns())
def test_json_records_is_json_dumps_indent_2(keys_columns):
    keys, columns = keys_columns
    records = [dict(zip(keys, row)) for row in zip(*columns)]
    assert cli._json_records(keys, columns) == json.dumps(records, indent=2)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(
    AWKWARD_TEXT, JSON_SCALAR | st.lists(JSON_SCALAR) | st.dictionaries(AWKWARD_TEXT, JSON_SCALAR), min_size=1
))
def test_json_object_nests_members_as_json_dumps_does(obj):
    members = [(key, json.dumps(value, indent=2)) for key, value in obj.items()]
    assert cli._json_object(members) == json.dumps(obj, indent=2)


@st.composite
def study_tables(draw):
    """A dataset CSV with awkward ids and zero cells, and its ids as read back."""
    k = draw(st.integers(3, 8))
    ids = draw(st.lists(UTF8_TEXT.map(str.strip), min_size=k, max_size=k))
    cells = draw(st.lists(st.tuples(*[st.integers(0, 20)] * 4), min_size=k, max_size=k))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
    writer.writerow(["study_id", "tp", "fn", "fp", "tn"])
    writer.writerows((sid, tp + 1, fn, fp, tn + 1) for sid, (tp, fn, fp, tn) in zip(ids, cells))
    return text.getvalue(), ids


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    tables=study_tables(),
    measure=st.sampled_from(["lndor", "lntheta", "youden", "kappa"]),
    correction=st.sampled_from(["half", "never"]),
    test=st.sampled_from(["egger", "macaskill", "begg", "trimfill"]),
)
def test_reports_are_json_dumps_indent_2(tmp_path, capsys, tables, measure, correction, test):
    text, ids = tables
    path = tmp_path / "ds.csv"
    path.write_text(text, encoding="utf-8")
    axis = "n" if test == "macaskill" else "se"
    common = ["--input", str(path), "--measure", measure, "--correction", correction, "--axis", axis]
    code, out, _ = run(capsys, "analyze", *common, "--test", test)
    if code == 0:
        report = json.loads(out)
        assert out == json.dumps(report, indent=2) + "\n"
        if len(report["studies"]) == len(ids):
            assert [study["study_id"] for study in report["studies"]] == ids
    code, out, _ = run(capsys, "funnel", *common, "--format", "json")
    if code == 0:
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(JSON_SCALAR))
def test_json_array_of_scalars_is_json_dumps_indent_2(values):
    assert cli._json_array(cli._json_scalars(values)) == json.dumps(values, indent=2)


SWEEP_CELLS = st.integers(0, 40).map(str) | st.sampled_from(
    ["", " 7 ", "x", "1.5", "-1", "\x00", "\x1c3", "٣", str(2**62), str(2**63 - 1), str(2**63), "9" * 5000]
)
# past about 1e13 subjects per group, logs of counts and of totals can round together
SWEEP_COUNTS = (st.integers(0, 60) | st.integers(10**13, 2 * 10**18)).map(str)
SWEEP_ROWS = st.tuples(st.text(max_size=3), *[SWEEP_COUNTS] * 4).map(list)
SWEEP_ODD_ROWS = st.one_of(
    st.lists(SWEEP_CELLS | st.text(max_size=3), min_size=3, max_size=6),
    st.just(["total", str(2**63 - 1), str(2**63 - 1), "1", "1"]),
    st.just(["x" * (csv.field_size_limit() + 1), "1", "2", "3", "4"]),
)


@st.composite
def sweep_file(draw):
    """Dataset bytes: up to 6 rows and 2 malformed ones, now and then cut by a byte that is not UTF-8."""
    rows = draw(st.lists(SWEEP_ROWS, max_size=6))
    for row in draw(st.lists(SWEEP_ODD_ROWS, max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), row)
    text = "study_id,tp,fn,fp,tn\n" + "".join(",".join(row) + "\n" for row in rows)
    data = text.encode()
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\x00", b"\xc3"])) + data[cut:]
    return data


SWEEP_GRID_SIZES = st.integers(-1, 120) | st.sampled_from([2**63 - 1, 2**63, 10**19, 50.5])


SWEEP_FLAG_VALUES = {
    "--test": ["egger", "macaskill", "begg", "trimfill"],
    "--measure": ["lndor", "lntheta", "youden", "kappa"],
    "--axis": ["se", "n", "ess", "inv-n"],
    "--weighting": ["none", "unweighted", "ivfixed", "ivrandom", "ess", "peters"],
    "--estimator": ["r", "l"],
    "--sided": ["one", "two"],
    "--correction": ["half", "never"],
    "--format": ["csv", "json"],
}


def sweep_flags(draw, *names):
    """Valid values for some of the named flags, combined at random; the program decides which combinations it takes."""
    flags = []
    for name in names:
        if draw(st.booleans()):
            flags += [name, draw(st.sampled_from(SWEEP_FLAG_VALUES[name]))]
    return flags


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), body=sweep_file())
def test_every_cli_call_exits_0_2_or_3(tmp_path, capsys, data, body):
    # generated files and flags through analyze, funnel and simulate --grid
    path = tmp_path / "in.csv"
    path.write_bytes(body)
    grid_path = tmp_path / "grid.json"
    grid = {
        **GRID,
        "k": [data.draw(st.sampled_from([2, 3, 5, 7.5, 10**11, 10**19]))],
        "pi": [data.draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))],
        "n_min": data.draw(SWEEP_GRID_SIZES),
        "n_max": data.draw(SWEEP_GRID_SIZES),
    }
    grid_path.write_text(json.dumps(grid))
    variant = ["--test", "--measure", "--axis", "--weighting", "--estimator", "--sided", "--correction"]
    calls = [
        ["analyze", "--input", str(path), *sweep_flags(data.draw, *variant)],
        ["funnel", "--input", str(path), *sweep_flags(data.draw, "--measure", "--axis", "--correction", "--format")],
        ["simulate", "--grid", str(grid_path), "--reps", str(data.draw(st.integers(1, 3))),
         "--seed", str(data.draw(st.integers(0, 2**64))), "--out", str(tmp_path / "out.csv"),
         *sweep_flags(data.draw, *variant)],
    ]
    for argv in calls:
        code, out, err = run(capsys, *argv)
        assert code in (0, 2, 3), argv
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: "), argv
        elif argv[0] == "analyze" or "json" in argv:
            assert_finite_studies(out)
