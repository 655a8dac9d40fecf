"""Mutation audit of the tier-1 tests: does each of a list of one-line faults fail them?

Run from anywhere, with the checkout's Python environment:

    python3 tools/mutation_audit.py

Each fault is an exact text replacement in one source file. The audit
copies the checkout (this script's parent directory) into a temporary
directory once per fault, applies that fault alone to the copy, and runs
tier-1 there with ``-x`` and criterion 04 deselected, since criterion 04
fails on the unmutated code. A fault is caught when that run fails.

It prints one line per fault and exits 1 if a fault survives or a run
errs, and 2, before running anything, if a fault's old text does not
occur exactly once. Tier-1 does not run this audit: it takes minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
KNOWN_FAILURE = "tests/test_acceptance.py::test_criterion_04_trim_fill_calibration_everywhere"
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")

ASYMMETRY = "src/funnelbias/asymmetry.py"
HARNESS = "src/funnelbias/harness.py"
MEASURES = "src/funnelbias/measures.py"
SAMPLER = "src/funnelbias/sampler.py"


class Fault(NamedTuple):
    name: str
    path: str
    old: str
    new: str


FAULTS = [
    Fault("ESS + 1", MEASURES, "return 4.0 * n1 * n2 / (n1 + n2)", "return 4.0 * n1 * n2 / (n1 + n2) + 1.0"),
    Fault("Kendall's continuity correction dropped", ASYMMETRY,
          "p_greater = ndtr(-((s - 1.0) / sd))", "p_greater = ndtr(-(s / sd))"),
    Fault("regression variance on k - 1 df", ASYMMETRY, "sigma2 = rss / (k - 2)", "sigma2 = rss / (k - 1)"),
    Fault("regression t-test on k - 1 df", ASYMMETRY, "df=k - 2,", "df=k - 1,"),
    Fault("trim-and-fill iteration cap of 2", ASYMMETRY, "MAX_TRIM_ITERATIONS = 50", "MAX_TRIM_ITERATIONS = 2"),
    Fault("DerSimonian-Laird on k df", ASYMMETRY, "excess = (q - (size - 1))", "excess = (q - size)"),
    Fault("kappa's C term with + p_e", MEASURES,
          "c_term = np.float_power(value - p_e * one_minus_k, 2)", "c_term = np.float_power(value + p_e * one_minus_k, 2)"),
    Fault("Wilson z at the one-sided quantile", HARNESS,
          "z = float(ndtri(0.5 + confidence / 2.0))", "z = float(ndtri(confidence))"),
    Fault("n1 rounded down", SAMPLER,
          "sizes[..., 0] = np.floor(condition.pi * totals + 0.5)", "sizes[..., 0] = np.floor(condition.pi * totals)"),
    Fault("lnTheta's SE with + 1/n1", MEASURES,
          "(1.0 / x - 1.0 / n1) / np.float_power(log_sen, 2)", "(1.0 / x + 1.0 / n1) / np.float_power(log_sen, 2)"),
    Fault("selection's ties to the larger study", SAMPLER,
          "np.lexsort((totals, _youden(tables)), axis=-1)", "np.lexsort((-totals, _youden(tables)), axis=-1)"),
    Fault("p < alpha in run_condition", HARNESS,
          "np.count_nonzero(p_values <= alpha)", "np.count_nonzero(p_values < alpha)"),
    Fault("logs through np.log", MEASURES,
          "xlogy(1.0, np.where(defined, values, 1.0))", "np.log(np.where(defined, values, 1.0))"),
]


def misplaced(faults: list[Fault]) -> list[str]:
    """One line per fault whose old text does not occur exactly once in its file."""
    lines = []
    for fault in faults:
        count = (ROOT / fault.path).read_text().count(fault.old)
        if count != 1:
            lines.append(f"{fault.name}: old text occurs {count} times in {fault.path}")
    return lines


def run_tier1(fault: Fault) -> tuple[int, str]:
    """Tier-1's exit code and first failure line on a copy of the checkout with the fault applied."""
    with tempfile.TemporaryDirectory(prefix="mutation-audit-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = copy / fault.path
        target.write_text(target.read_text().replace(fault.old, fault.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--deselect", KNOWN_FAILURE],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    first = next((line for line in run.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))), "")
    return run.returncode, first


def main() -> int:
    bad = misplaced(FAULTS)
    if bad:
        print("\n".join(bad))
        return 2
    caught = 0
    for fault in FAULTS:
        code, first = run_tier1(fault)
        if code == 1:
            caught += 1
            print(f"caught    {fault.name}: {first}", flush=True)
        elif code == 0:
            print(f"SURVIVED  {fault.name}", flush=True)
        else:
            print(f"ERROR     {fault.name}: pytest exited {code}", flush=True)
    print(f"{caught} of {len(FAULTS)} faults caught")
    return 0 if caught == len(FAULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
