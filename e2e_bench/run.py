"""Run one workload: the command ``BENCHMARK.json`` names.

    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Works from any directory; the program is taken from ``src/`` beside this
package, never from an installed copy.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"e2e_bench: no program to measure at {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from e2e_bench.one import main

    sys.exit(main())
