"""The whole benchmark in one command, and the comparison of two results.

``run`` executes every workload in a child process of its own (the very
command ``BENCHMARK.json`` names: an untraced run for the end-to-end
metrics, then a traced run for the per-layer ones), one after another,
and writes one result file.  ``compare`` applies each metric's declared
direction and bound to two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

import numpy

from e2e_bench.spec import OUT_DIR, ROOT, WORKLOADS, load_contract


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m e2e_bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run every workload")
    run.add_argument("--seed", type=int, default=1996)
    run.add_argument("--out", default=str(OUT_DIR / "result.json"))
    run.add_argument(
        "--repeats", type=int, default=1,
        help="untraced runs per workload; compare needs >= 2 to see spread",
    )
    run.add_argument(
        "--smoke", action="store_true",
        help="corpus / 10, 0.5 s per run: the same code in half a minute",
    )
    compare = commands.add_parser("compare", help="compare two results")
    compare.add_argument("before")
    compare.add_argument("after")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_all(args)
    return compare_results(args.before, args.after)


# -- run -----------------------------------------------------------------


def git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_one(name: str, args, seconds: float, trace: int) -> tuple[int, dict]:
    """One child process; its output passes through, its detail file
    comes back."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        detail = Path(scratch) / "detail.json"
        command = [
            sys.executable, str(ROOT / "e2e_bench" / "run.py"),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--detail", str(detail),
        ] + (["--smoke"] if args.smoke else [])
        # The last line is the driver's JSON; people read the table.
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        print("\n".join(completed.stdout.splitlines()[:-1]), flush=True)
        if not detail.exists():
            return completed.returncode or 1, {}
        return completed.returncode, json.loads(detail.read_text())


def run_all(args) -> int:
    contract = load_contract()
    seconds = 0.5 if args.smoke else contract["run_seconds"]
    result = {
        "header": {
            "git_rev": git_rev(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "seed": args.seed,
            "seconds": seconds,
            "smoke": args.smoke,
        },
        "workloads": {},
    }
    status = 0
    for name in WORKLOADS:
        row = {
            "end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0,
            "samples": {}, "notes": [],
        }
        for trace in [0] * args.repeats + [1]:
            code, detail = run_one(name, args, seconds, trace)
            status = status or code
            if not detail:
                continue
            result["header"]["kernel_tier"] = detail["kernel_tier"]
            row["attempted"] += detail["attempted"]
            row["failed"] += detail["failed"]
            row["samples"].update(detail["samples"])
            row["notes"] += [n for n in detail["notes"] if n not in row["notes"]]
            for metric, value in detail["metrics"].items():
                if metric in detail["not_measured"]:
                    continue
                if trace:
                    row["per_layer"][metric] = value
                else:
                    row["end_to_end"].setdefault(
                        metric, {"unit": value["unit"], "values": []}
                    )["values"].append(value["value"])
        row["error_rate"] = row["failed"] / max(1, row["attempted"])
        result["workloads"][name] = row
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(result, indent=1))
    print(f"header: {json.dumps(result['header'])}")
    for name, row in result["workloads"].items():
        print(f"{name}: attempted {row['attempted']}, failed {row['failed']}, "
              f"error_rate {row['error_rate']:.6f}, samples {row['samples']}")
    print(f"wrote {args.out}" + ("" if status == 0 else "  (FAILED)"))
    return status


# -- compare -------------------------------------------------------------


def spread(values: list[float]) -> float:
    """Interquartile range over the median (range, under four values)."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / median(values)
    low, _, high = quantiles(values, n=4)
    return (high - low) / median(values)


def compare_results(before_path: str, after_path: str) -> int:
    contract = load_contract()
    before = json.loads(Path(before_path).read_text())
    after = json.loads(Path(after_path).read_text())
    print(f"before: {json.dumps(before['header'])}")
    print(f"after:  {json.dumps(after['header'])}")
    bad = 0
    for name, old in before["workloads"].items():
        new = after["workloads"].get(name)
        if new is None:
            print(f"{name}: missing from {after_path}")
            bad += 1
            continue
        if new["failed"] > old["failed"]:
            print(f"{name:18s} error_rate regressed: {new['failed']} of "
                  f"{new['attempted']} failed (base {old['failed']})")
            bad += 1
        for metric in contract["end_to_end"]:
            key = metric["name"]
            if key not in old["end_to_end"] or key not in new["end_to_end"]:
                continue
            a = old["end_to_end"][key]["values"]
            b = new["end_to_end"][key]["values"]
            base, now = median(a), median(b)
            worse = (now - base) / base
            if metric["better"] == "higher":
                worse = -worse
            noise = max(spread(a), spread(b))
            if noise > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            bad += verdict != "ok"
            print(f"{name:18s} {key:16s} {verdict:10s} {now / base:8.4f} x "
                  f"base {base:.6g} {metric['unit']}  (bound "
                  f"{metric['bound']:.3f} {metric['better']}-is-better, "
                  f"spread {noise:.4f}, n={len(a)}/{len(b)})")
        for metric in contract["per_layer"]:
            key = metric["name"]
            if key not in old["per_layer"] or key not in new["per_layer"]:
                continue
            base = old["per_layer"][key]["value"]
            now = new["per_layer"][key]["value"]
            ratio = f"{now / base:8.4f} x" if base else "       - x"
            exact = ""
            if metric["unit"] in ("count", "bytes"):
                exact = "same" if now == base else "differs"
            print(f"{name:18s}   {key:42s} {ratio} base {base:.6g} "
                  f"{metric['unit']} {exact}")
    print("no regression" if not bad else f"{bad} regressed or unresolved")
    return 1 if bad else 0
