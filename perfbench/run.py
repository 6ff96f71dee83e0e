"""Benchmark command for loblab.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of book_renewal, book_path, limit_renewal, analytic_sweep, or
``all``, which runs the four one after another, each in a fresh process.
The run prints every metric by name and unit, the correctness checks, a
``REPORT`` line with the full JSON report (manifest, work done, checks,
spans), and as its last line the result object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The exit status is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import bootstrap

bootstrap.prepare()

import bench  # noqa: E402
import workloads  # noqa: E402

REPORT_PREFIX = "REPORT "


def _print_report(report: dict) -> None:
    m = report["manifest"]
    print(f"# {m['workload']}  seed={m['seed']}  seconds={m['seconds']}  trace={int(m['trace'])}"
          f"  attempted={report['attempted']}  failed={report['failed']}")
    for name, (value, unit) in report["named"].items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    for name, (value, unit) in report["layers"].items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    for name, value in report["work"].items():
        print(f"  work.{name:<47} {value:>14.6g}")
    for check in report["checks"]:
        detail = ", ".join(f"{k}={v}" for k, v in check.items() if k not in ("name", "passed"))
        print(f"  check {check['name']}: {'PASS' if check['passed'] else 'FAIL'} ({detail})")


def _run_all(args) -> int:
    """Run every workload in its own process; print the twelve named metrics."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        reports = [json.loads(line[len(REPORT_PREFIX):]) for line in lines
                   if line.startswith(REPORT_PREFIX)]
        if not reports:
            sys.stderr.write(proc.stderr)
            print(f"perfbench: workload {name} produced no report", file=sys.stderr)
            return 1
        report = reports[0]
        print("\n".join(line for line in lines[:-1] if not line.startswith(REPORT_PREFIX)))
        correct &= report["correct"] and proc.returncode == 0
        attempted += report["attempted"]
        failed += report["failed"]
        for metric, (value, unit) in report["named"].items():
            key = metric if "." in metric else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return _run_all(args)
    report = bench.execute(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(report)
    print(REPORT_PREFIX + json.dumps(report))
    print(json.dumps(bench.contract_line(report)))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
