"""Smoke tests: the fast example scripts run and produce their story.

The slower examples (engine comparisons, tuning sweeps) are exercised
manually / by the benchmark harness; these are the ones quick enough
for the test suite.
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExampleScripts:
    def test_quickstart(self):
        output = run_example("quickstart.py")
        assert "hbb_human" in output
        assert "identity=98.0%" in output

    def test_database_workflow(self):
        output = run_example("database_workflow.py")
        assert "98 sequences" in output
        assert "E=" in output
        assert "identity=100.0%" in output
