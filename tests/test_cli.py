import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import funnelbias
from funnelbias import model
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
    assert "within int64" in err


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
    assert "axis must be one of" in err


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
