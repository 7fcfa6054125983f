"""Line count of the package: the non-blank lines of each module of
`src/cwbrauer` that are not comment-only, and their total.

    python3 tools/src_lines.py [ROOT]

ROOT is the checkout to count (default: the one holding this script),
so the same script can count an older commit unpacked elsewhere.
Docstrings count as code.  A deletion prints this before and after.
"""

from __future__ import annotations

import sys
from pathlib import Path


def code_lines(path: Path) -> int:
    """Lines of path that hold something other than blanks or a comment."""
    return sum(1 for line in path.read_text().splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1])
    total = 0
    for path in sorted((root / "src" / "cwbrauer").glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
