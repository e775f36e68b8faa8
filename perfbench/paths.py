"""Where the benchmark finds the program under test and writes its output."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Span files of traced runs (ignored by git).
OUT = ROOT / ".perfbench"


def use_repo_source() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit with 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro package under {SRC}; run "
                         "from the root of a checkout of the repository\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
