"""ionsim benchmark entry point.

    python3 bench/run.py --workload surface --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs timing
wrappers on the ionsim layers and prints the per-layer metrics. Every
metric goes on its own line with its unit and sample count; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See bench/README.md for the definitions.
"""

import os
import sys
from pathlib import Path

# Pin native thread pools before numpy loads, and leave the program's own
# sweep parallelism at its default, so the numbers measure the program.
os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
os.environ.pop("IONSIM_THREADS", None)

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_program() -> None:
    """Make ``src/ionsim`` of this checkout importable, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import ionsim
    except ImportError as exc:
        sys.exit(f"bench: cannot import ionsim from {SRC}: {exc}")
    if Path(ionsim.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: ionsim resolved to {ionsim.__file__}, not under {SRC}")


if __name__ == "__main__":
    _import_program()
    import harness

    sys.exit(harness.main())
