"""One workload in this process: parse the driver's arguments, run,
print every metric by name and unit, and end with the one-line JSON
result the driver reads."""

from __future__ import annotations

import argparse
import json
import shutil

from repro.compression import fastunpack

from e2e_bench.checks import Checker
from e2e_bench.harness import Run, make_scratch
from e2e_bench.live_mixed import run_live
from e2e_bench.recorder import Recorder
from e2e_bench.search_workload import run_search
from e2e_bench.serve_http import run_serve
from e2e_bench.spec import OUT_DIR, WORKLOADS, load_contract, scaled


DRIVERS = {"search": run_search, "live": run_live, "serve": run_serve}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="corpus / 10, queries / 5, one set-up: same code, seconds",
    )
    parser.add_argument(
        "--detail", help="also write the result, with its header, here"
    )
    parser.add_argument(
        "--inject-failure", action="store_true",
        help="fail the first answer check (the tests use this)",
    )
    args = parser.parse_args(argv)

    contract = load_contract()
    declared = {
        metric["name"]: metric["unit"]
        for metric in contract["per_layer" if args.trace else "end_to_end"]
    }
    workload, shape = scaled(WORKLOADS[args.workload], args.smoke)
    run = Run(
        workload=workload,
        shape=shape,
        seed=args.seed,
        seconds=args.seconds,
        checker=Checker(args.inject_failure),
        recorder=Recorder() if args.trace else None,
        scratch=make_scratch(),
    )
    try:
        measured = DRIVERS[workload.kind](run)
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)
    if run.recorder is not None:
        run.recorder.write_chrome_trace(
            OUT_DIR / f"trace-{workload.name}.json"
        )

    unknown = sorted(set(measured) - set(declared))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    # The driver wants every declared metric from every workload.  A
    # per-layer metric of a layer this workload never enters reads 0.
    skipped = sorted(set(declared) - set(measured))
    if skipped and not args.trace:
        raise SystemExit(f"end-to-end metrics not measured: {skipped}")
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
    checker = run.checker
    for name, metric in metrics.items():
        mark = "  (layer not on this workload's path)" if name in skipped else ""
        print(f"{workload.name:18s} {name:44s} "
              f"{metric['value']:16.6f} {metric['unit']}{mark}")
    for note in run.notes:
        print(f"note: {note}")
    for violation in checker.violations:
        print(f"FAILED CHECK: {violation}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(
                {
                    **result,
                    "kernel_tier": fastunpack.active_tier(),
                    "samples": run.samples,
                    "not_measured": skipped,
                    "notes": run.notes,
                },
                handle,
                indent=1,
            )
    print(json.dumps(result))
    return 0 if result["correct"] else 1
