"""The server under test, in a process of its own.

    python3 e2e_bench/serve_child.py DATABASE COARSE_CUTOFF

Opens the database, serves it on an ephemeral port and prints
``READY <port>``; serves until its standard input closes (so it ends
with the benchmark even if the benchmark is killed).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    from repro import Database, SearchServer, ServerConfig
    from repro.instrumentation import Instruments

    with Database.open(sys.argv[1]) as db:
        server = SearchServer(
            db.engine(coarse_cutoff=int(sys.argv[2])),
            ServerConfig(default_deadline_seconds=None),
            Instruments(),
        )
        with server:
            print(f"READY {server.port}", flush=True)
            sys.stdin.read()
