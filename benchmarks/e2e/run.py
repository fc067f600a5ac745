"""The driver's contract command.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``).
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.e2e.paths import ensure_repro_importable
    ensure_repro_importable()
    from benchmarks.e2e.cli import contract_main
    sys.exit(contract_main())
