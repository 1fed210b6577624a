"""Path set-up for the benchmark's own tests.

Run with ``python -m pytest flexbench/tests`` from the repository root;
the tier-1 lane (``testpaths = ["tests"]``) does not collect these.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
