"""``python -m e2e_bench run`` / ``python -m e2e_bench compare A B``."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    # The program is taken from src/ beside this package, as run.py does.
    sys.path.insert(0, str(ROOT / "src"))
    from e2e_bench.cli import main

    sys.exit(main())
