"""Run every workload once and print all its metrics with units and sample counts.

Usage (from the repository root):

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace] [--append FILE --label TEXT]

Without --trace the metrics are end to end; with --trace each workload runs
with spans on, and the table holds the per-layer metrics and the tracing
overhead.  --append adds the reports as one JSON line to FILE (the
trajectory kept in perfbench/trajectory.jsonl).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "cli", "census")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(argv, cwd=BENCH.parent, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} failed (exit {done.returncode}):\n{done.stderr}")
    report = json.loads(lines[-2])["report"]
    report["result"] = json.loads(lines[-1])
    report["problems"] = [line for line in done.stderr.splitlines() if line.strip()]
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    run_seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--append", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args()

    reports = [run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS]
    print(f"{'workload':<8} {'metric':<30} {'value':>14} {'unit':<6} {'n':>6}")
    for report in reports:
        for name, m in report["metrics"].items():
            if args.trace != ("." in name):
                continue
            row = f"{report['workload']:<8} {name:<30} {m['value']:>14.6g} {m['unit']:<6} {m['n']:>6}"
            print(row)
    for report in reports:
        result = report["result"]
        print(
            f"{report['workload']}: inputs sha256 {report['inputs_sha256']}, "
            f"correct={result['correct']}, {result['failed']} of {result['attempted']} operations failed"
        )
        for problem in report["problems"]:
            print(f"  {problem}")
    if args.append:
        point = {"label": args.label, "seed": args.seed, "seconds": args.seconds}
        point.update(trace=args.trace, reports=reports)
        with args.append.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(point) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
