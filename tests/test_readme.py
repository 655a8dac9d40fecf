"""The README's examples run as written and print what their comments state."""

import contextlib
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
