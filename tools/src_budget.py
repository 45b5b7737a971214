#!/usr/bin/env python3
"""Fail when ``src/`` grows past its pinned line count.

    python3 tools/src_budget.py        # exit 1 above CEILING

Counts the lines of every ``*.py`` file under ``src/`` the way CI's
print step does (``find src -name '*.py' | xargs wc -l``: newline
characters) and compares the total with ``CEILING``. A change that
deletes code lowers the pin in the same diff; one that must grow
``src/`` raises it and says why in CHANGES.md (ROADMAP item 15).
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
#: the most lines ``src/`` may hold
CEILING = 20399


def count_lines(root: Path) -> int:
    """Newline characters in the ``*.py`` files under ``root``."""
    return sum(path.read_bytes().count(b"\n")
               for path in root.rglob("*.py"))


def main(root: Path = SRC, ceiling: int = CEILING) -> int:
    total = count_lines(root)
    verdict = "over" if total > ceiling else "within"
    print(f"src/: {total} lines, {verdict} the ceiling of {ceiling}")
    return int(total > ceiling)


if __name__ == "__main__":
    sys.exit(main())
