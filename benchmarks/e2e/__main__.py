"""``python -m benchmarks.e2e`` (run from the repository root)."""

import sys
import time

_T_START = time.perf_counter()  # a pass counts set-up from process entry

if __name__ == "__main__":
    from benchmarks.e2e.paths import ensure_repro_importable
    ensure_repro_importable()
    from benchmarks.e2e.cli import main
    sys.exit(main(t_start=_T_START))
