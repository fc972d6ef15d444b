"""Run with ``python -m pytest bench/tests -q`` from the repo root.

The benchmark imports as the ``bench`` package from the repo root and the
program under test from ``src/``; tier-1's ``testpaths`` does not include
this directory.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
