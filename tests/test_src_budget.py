"""``tools/src_budget.py``: the CI step that holds ``src/`` under its pin.

It must count lines as CI's print step does (``wc -l``: newlines, a
last line without one not counted), pass a tree at the pin and fail a
tree one line over it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_budget.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("src_budget", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, lines: int) -> Path:
    """A package of ``lines`` counted lines over three files, one of them
    ending without a newline, beside files the count must ignore."""
    package = root / "src" / "pkg" / "sub"
    package.mkdir(parents=True)
    (root / "src" / "pkg" / "__init__.py").write_text("")
    (root / "src" / "pkg" / "a.py").write_text("x = 1\n" * (lines - 2))
    (package / "b.py").write_text("y = 2\nz = 3\nw = 4")
    (package / "notes.txt").write_text("not python\n" * 50)
    (package / "b.pyc").write_bytes(b"\n" * 50)
    return root / "src"


def test_counts_newlines_of_python_files_only(tmp_path):
    tool = _load_tool()
    assert tool.count_lines(_tree(tmp_path, 40)) == 40


def test_green_at_the_pin_red_one_line_over(tmp_path, capsys):
    tool = _load_tool()
    src = _tree(tmp_path, tool.CEILING)
    assert tool.main(src) == 0
    assert f"{tool.CEILING} lines, within" in capsys.readouterr().out
    with (src / "pkg" / "a.py").open("a") as handle:
        handle.write("x = 1\n")
    assert tool.main(src) == 1
    assert f"{tool.CEILING + 1} lines, over" in capsys.readouterr().out
