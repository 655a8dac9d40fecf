"""The README's examples run as written and print what their comments state."""

import contextlib
import importlib
import io
import re
from pathlib import Path

from funnelbias.sampler import load_grid

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(language: str) -> str:
    """The README's only fenced block in ``language``."""
    (block,) = re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)
    return block


def test_library_example_prints_what_its_comments_state():
    code = _block("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    calls = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls)
    stated = [call.split("#", 1)[1].strip() for call in calls if "#" in call]
    assert stated == ["(3,) ()", "M(lndor,inv_n,peters)", "B(lndor,inv_ess)"]
    assert [line for line, call in zip(printed, calls) if "#" in call] == stated


def test_grid_example_loads_24_conditions(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(_block("json"))
    assert len(load_grid(path)) == 24


def test_stated_constants_match_the_code():
    # each `module.CONSTANT` (n) or (a^b) in the prose names the code's value
    stated = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]+)` \((\d+)(?:\^(\d+))?\)", README)
    checked = set()
    for module, name, base, power in stated:
        value = getattr(importlib.import_module(f"funnelbias.{module}"), name)
        assert value == int(base) ** int(power or 1), f"{module}.{name}"
        checked.add(f"{module}.{name}")
    assert checked == {
        "harness.BLOCK_REPS",
        "asymmetry.TRIM_FILL_TABLE_MAX_WORK",
        "asymmetry.KENDALL_MERGE_MIN_K",
        "asymmetry.EXACT_SIGNED_RANK_MAX_K",
        "model.MIN_STUDIES",
    }
