"""Self-tests of the benchmark harness (not part of tier-1).

Run from the repository root:
``python -m pytest benchmarks/e2e/tests -q -p no:cacheprovider``
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
