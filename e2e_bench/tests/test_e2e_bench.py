"""Tests of the benchmark itself, at ``--smoke`` scale.

Run with ``PYTHONPATH=src python -m pytest e2e_bench/tests`` (they are not
in the tier-1 ``testpaths``: each test starts real workload processes).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from e2e_bench.cli import compare_results, spread
from e2e_bench.spec import OUT_DIR, ROOT, WORKLOADS, load_contract

RUN = [sys.executable, str(ROOT / "e2e_bench" / "run.py")]


def run_workload(name: str, seed: int, trace: int, *extra: str):
    completed = subprocess.run(
        RUN + ["--workload", name, "--seed", str(seed), "--seconds", "0.5",
               "--trace", str(trace), "--smoke", *extra],
        capture_output=True, text=True, timeout=170,
    )
    return completed, json.loads(completed.stdout.splitlines()[-1])


def server_children() -> list[str]:
    """Process ids of every live ``serve_child.py``."""
    found = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if b"serve_child.py" in cmdline.read_bytes():
                found.append(cmdline.parent.name)
        except OSError:  # the process ended while we looked
            continue
    return found


def test_contract_file_is_well_formed():
    contract = load_contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert contract["paths"] == ["e2e_bench"]
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    names = [
        m["name"] for m in contract["end_to_end"] + contract["per_layer"]
    ] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])
    runs = 4 + 22 * len(contract["workloads"])
    assert 1 <= contract["run_seconds"] <= 60 and runs * 30 <= 3420


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_output_matches_the_contract(name):
    contract = load_contract()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        completed, result = run_workload(name, 5, trace)
        assert completed.returncode == 0, completed.stdout[-2000:]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in contract[section]}
        assert {
            n: m["unit"] for n, m in result["metrics"].items()
        } == declared
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not server_children()


def counts(result: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in ("count", "bytes")
    }


def test_counts_repeat_for_a_seed_and_differ_for_another():
    _, first = run_workload("coarse_heavy", 5, 1)
    _, again = run_workload("coarse_heavy", 5, 1)
    _, other = run_workload("coarse_heavy", 6, 1)
    assert counts(first) == counts(again)
    assert counts(first) != counts(other)
    _, first = run_workload("coarse_heavy", 5, 0)
    _, again = run_workload("coarse_heavy", 5, 0)
    for exact in ("recall_at_k", "bytes_per_base"):
        assert first["metrics"][exact] == again["metrics"][exact]


def test_live_counts_repeat():
    _, first = run_workload("live_mixed", 5, 1)
    _, again = run_workload("live_mixed", 5, 1)
    assert counts(first) == counts(again)
    # Untraced runs are time-boxed, so how many probes they reach varies;
    # recall must not.
    _, first = run_workload("live_mixed", 5, 0)
    _, longer = run_workload("live_mixed", 5, 0, "--seconds", "1.5")
    assert first["metrics"]["recall_at_k"] == longer["metrics"]["recall_at_k"]


@pytest.mark.parametrize("name", ["coarse_heavy", "serve_http"])
def test_a_failed_check_fails_the_run(name):
    completed, result = run_workload(name, 5, 0, "--inject-failure")
    assert completed.returncode != 0
    assert result["correct"] is False and result["failed"] == 1
    assert "FAILED CHECK" in completed.stdout
    assert not server_children()


def test_server_child_ends_when_its_parent_is_killed():
    before = set(OUT_DIR.iterdir())
    process = subprocess.Popen(
        RUN + ["--workload", "serve_http", "--seed", "5", "--seconds", "30",
               "--trace", "0", "--smoke"],
        stdout=subprocess.DEVNULL,
    )
    try:
        for _ in range(100):
            if server_children():
                break
            time.sleep(0.1)
        assert server_children()
    finally:
        process.kill()
        process.wait()
        # A killed run cannot remove its own scratch directory.
        for left in set(OUT_DIR.iterdir()) - before:
            shutil.rmtree(left, ignore_errors=True)
    for _ in range(100):
        if not server_children():
            break
        time.sleep(0.1)
    assert not server_children()


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark."""
    subprocess.run(
        ["cp", "-r", str(ROOT / "e2e_bench"), str(ROOT / "BENCHMARK.json"),
         str(tmp_path)], check=True,
    )
    completed = subprocess.run(
        [sys.executable, "e2e_bench/run.py", "--workload", "align_heavy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def result_file(path, p50_values, failed=0):
    path.write_text(json.dumps({
        "header": {},
        "workloads": {"align_heavy": {
            "end_to_end": {
                "query_p50_ms": {"unit": "ms", "values": p50_values},
            },
            "per_layer": {
                "search.coarse.candidates": {"value": 100, "unit": "count"},
            },
            "attempted": 10, "failed": failed,
        }},
    }))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    base = result_file(tmp_path / "a.json", [100.0, 101.0, 99.0])
    assert compare_results(base, base) == 0
    slower = result_file(tmp_path / "b.json", [130.0, 131.0, 129.0])
    assert compare_results(base, slower) == 1
    assert "regressed" in capsys.readouterr().out
    # A faster run is not a regression, whatever its size.
    assert compare_results(slower, base) == 0
    noisy = result_file(tmp_path / "c.json", [70.0, 100.0, 140.0])
    assert compare_results(base, noisy) == 1
    assert "unresolved" in capsys.readouterr().out
    failing = result_file(tmp_path / "d.json", [100.0], failed=1)
    assert compare_results(base, failing) == 1


def test_spread_is_the_interquartile_range_over_the_median():
    assert spread([5.0]) == 0.0
    assert spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)
    values = [float(v) for v in range(1, 11)]
    assert spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
