"""cayleypst benchmark: three closed-loop, single-client workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,cli,census} --seed N --seconds S --trace {0,1}

Workloads (one operation at a time, each started after the previous ended):

* sweep  -- the research-sweep use: a library process (no CLI, no JSON)
  makes 3000 seeded decisions over every group of order <= 128.  Per-call
  overhead in `groups` and `pst` dominates; caches are hit again and again
  across a working set of hundreds of groups.  A round is one fresh library
  process running all the decisions, so every round has the same cold start.
* cli    -- a cold `python -m cayleypst` per command on big groups, which is
  what a CLI user pays: the |G|^2 character table and difference index
  (spectrum, walk, check, export), one object per vertex plus JSON
  (classes), start-up (the small check).  A reject share of six malformed
  inputs runs in every round and feeds only the failure count, so the
  share of failed operations is the same in every run, however many
  rounds fit in it.
* census -- `enumerate` on Z4xZ3xZ3, Z8xZ9 and Z32xZ3: the 2^classes
  candidate loop with a numeric scan per candidate, and large JSON.

Rounds repeat until --seconds have been measured.  An operation's time is
the median over rounds, and `wall_s` is the sum of those medians: a typical
round.  Every output is checked: sweep decisions against each other and the
dense oracle, cli and census outputs against expected.json (byte for byte,
or within 1e-9 on the floats of walk and check documents).

The last stdout line is the result.  `correct` says every valid operation's
output was right; `failed` counts every operation, valid or rejected, whose
outcome was wrong, so the known defects in the reject share show there.
With --trace 0 the metrics are end to end; with --trace 1 untraced and traced
rounds alternate, and the metrics are per layer (spans around the public
functions of each module, see tracer.py) plus the tracing overhead.  The line
before it is the full report: every metric with its unit and sample count,
and the sha256 of the generated inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import inputs
import tracer
from procs import Outcome, run_child

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected.json"
SETUP_PER_ROUND = 2
OP_TIMEOUT = 150.0
REJECT_TIMEOUT = 2.0  # a rejection is a cold start, about 0.25 s
REJECT_ADDRESS_SPACE = 1 << 30  # importing numpy takes about 150 MB of it
FLOAT_TOL = 1e-9
TRACED = "traced:"


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, broken set-up)."""


def child_env() -> dict[str, str]:
    """The program from this checkout, with one BLAS thread per process.

    Operations run one at a time; a second BLAS thread spin-waits on the
    tiny matrices of most operations, which made timings on a 2-core box
    swing by tens of percent with the load of the other core.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def seeded_ops(ops: list[dict], seed: int) -> list[dict]:
    """Fix each op's connection-set file contents in seeded order."""
    return [
        {**op, "file": inputs.shuffled_file(seed, op["name"], op["file"])} if "file" in op else op
        for op in ops
    ]


def materialize(op: dict, workdir: Path) -> dict:
    """Write the op's file, if any, and pass it as @path in place of `{file}`."""
    if "file" not in op:
        return op
    path = workdir / f"{op['name']}.json"
    path.write_text(json.dumps(op["file"]))
    argv = [f"@{path}" if a == "{file}" else a for a in op["argv"]]
    return {**op, "argv": argv}


def cli_argv(argv: list[str], trace_out: Path | None = None) -> list[str]:
    if trace_out is None:
        return [sys.executable, "-m", "cayleypst", *argv]
    return [sys.executable, str(BENCH / "traced_cli.py"), str(trace_out), *argv]


def _same(got, want, path: str) -> str | None:
    """First difference between two JSON values; floats may differ by FLOAT_TOL."""
    if isinstance(want, float):
        ok = isinstance(got, (int, float)) and not isinstance(got, bool)
        return None if ok and abs(got - want) <= FLOAT_TOL else f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict) and isinstance(got, dict):
        if list(got) != list(want):
            return f"{path}: keys {list(got)} != {list(want)}"
        pairs = [(got[k], want[k], f"{path}.{k}") for k in want]
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        pairs = [(g, w, f"{path}[{i}]") for i, (g, w) in enumerate(zip(got, want))]
    else:
        return None if type(got) is type(want) and got == want else f"{path}: {got!r} != {want!r}"
    return next((d for d in (_same(*p) for p in pairs) if d), None)


def check_valid(outcome: Outcome, record: dict) -> str | None:
    """Why a valid operation's outcome is wrong, or None when it is right."""
    if outcome.timed_out:
        return f"timed out after {outcome.wall_s:.1f} s"
    if outcome.returncode != 0 or outcome.stderr:
        tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit {outcome.returncode}: {tail}"
    if "document" in record:
        try:
            return _same(json.loads(outcome.stdout), record["document"], "$")
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
    if hashlib.sha256(outcome.stdout).hexdigest() != record["sha256"]:
        return f"stdout differs from the recorded {record['bytes']} bytes"
    return None


def check_reject(outcome: Outcome) -> str | None:
    """A malformed input must give exit 2, one stderr line and empty stdout."""
    if outcome.timed_out:
        return f"timed out after {outcome.wall_s:.1f} s"
    if outcome.returncode != 2:
        return f"exit {outcome.returncode}, {len(outcome.stdout)} bytes of stdout"
    if outcome.stdout:
        return "wrote to stdout"
    lines = outcome.stderr.decode(errors="replace").strip().splitlines()
    return None if len(lines) == 1 else f"{len(lines)} stderr lines"


class Run:
    """One benchmark run: its counters, samples and work directory."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.workdir = workdir
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []  # operations with a wrong outcome
        self.valid_wrong = 0
        self.broken_checks: list[str] = []  # benchmark self-checks that did not hold
        self.peak_rss_mb = 0.0
        self.processes = 0
        self.latencies: dict[str, list[float]] = {}  # op -> one latency per round
        self.rounds = {False: 0, True: 0}
        self.round_layers: list[dict] = []
        self.setup: list[float] = []

    def spawn(self, argv: list[str], timeout: float = OP_TIMEOUT, **kwargs) -> Outcome:
        return run_child(argv, env=self.env, workdir=self.workdir, timeout=timeout, **kwargs)

    def fail(self, what: str, valid: bool) -> None:
        self.failures.append(what)
        self.valid_wrong += valid

    def measured(self, op: str, latency: float, traced: bool) -> None:
        self.latencies.setdefault(TRACED + op if traced else op, []).append(latency)

    def count_process(self, outcome: Outcome) -> None:
        """Peak RSS comes from untraced processes that ran valid operations."""
        self.processes += 1
        self.peak_rss_mb = max(self.peak_rss_mb, outcome.rss_mb)

    def samples(self, traced: bool) -> dict[str, list[float]]:
        return {k: v for k, v in self.latencies.items() if k.startswith(TRACED) == traced}

    def typical_round(self, traced: bool) -> float:
        """A round's wall time built from each operation's median over rounds."""
        return sum(statistics.median(v) for v in self.samples(traced).values())


def measure_setup(run: Run) -> None:
    """Fresh interpreter plus `import cayleypst.cli`, sampled before every round."""
    for _ in range(SETUP_PER_ROUND):
        outcome = run.spawn([sys.executable, "-c", "import cayleypst.cli"], timeout=60)
        if outcome.returncode != 0 or outcome.timed_out:
            stderr = outcome.stderr.decode(errors="replace").strip()
            raise BenchmarkError(f"cannot import cayleypst.cli: {stderr}")
        run.setup.append(outcome.wall_s)


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def run_rounds(run: Run, one_round) -> None:
    """Closed loop over rounds until --seconds are measured; traced rounds alternate."""
    started = time.perf_counter()
    index = 0
    while True:
        traced = run.trace and index % 2 == 1
        measure_setup(run)
        one_round(index, traced)
        run.rounds[traced] += 1
        index += 1
        if time.perf_counter() - started >= run.seconds and (not run.trace or index % 2 == 0):
            return


# --- cli and census -------------------------------------------------------


def process_round(run: Run, ops: dict, order: list[str], expected: dict, traced: bool) -> None:
    snapshots = []
    trace_out = run.workdir / "trace.json" if traced else None
    for name in order:
        outcome = run.spawn(cli_argv(ops[name]["argv"], trace_out))
        run.attempted += 1
        wrong = check_valid(outcome, expected[name])
        if wrong:
            run.fail(f"{name}: {wrong}", valid=True)
        if outcome.timed_out:
            continue
        run.measured(name, outcome.wall_s, traced)
        if traced:
            snapshots.append(json.loads(trace_out.read_text()))
        else:
            run.count_process(outcome)
    if traced:
        run.round_layers.append(tracer.layer_metrics(tracer.merge(snapshots)))


def run_rejects(run: Run, rejects: list[dict]) -> None:
    for op in rejects:
        outcome = run.spawn(
            cli_argv(op["argv"]),
            timeout=REJECT_TIMEOUT,
            address_space=REJECT_ADDRESS_SPACE if op.get("limited") else None,
        )
        run.attempted += 1
        wrong = check_reject(outcome)
        if wrong:
            run.fail(f"{op['name']}: {wrong}", valid=False)


def process_workload(run: Run, ops: list[dict], rejects: list[dict]) -> str:
    """cli and census: one process per command; returns the inputs' digest.

    The rejects run after each round's valid operations, untimed.
    """
    expected = load_expected()
    ops, rejects = seeded_ops(ops, run.seed), seeded_ops(rejects, run.seed)
    plan = inputs.schedule(run.seed, run.workload, [op["name"] for op in ops])
    digest = inputs.digest({"ops": ops, "rejects": rejects, "schedule": plan})
    ready = {op["name"]: materialize(op, run.workdir) for op in ops}
    ready_rejects = [materialize(op, run.workdir) for op in rejects]

    def one_round(index: int, traced: bool) -> None:
        process_round(run, ready, plan[index % len(plan)], expected, traced)
        run_rejects(run, ready_rejects)

    run_rounds(run, one_round)
    return digest


# --- sweep ----------------------------------------------------------------


def sweep_round(run: Run, inputs_path: Path, traced: bool) -> None:
    trace_out = run.workdir / "trace.json"
    argv = [sys.executable, str(BENCH / "sweep_worker.py"), str(inputs_path)]
    outcome = run.spawn(argv + ([str(trace_out)] if traced else []))
    lines = outcome.stdout.decode(errors="replace").strip().splitlines()
    if outcome.returncode != 0 or outcome.timed_out or not lines:
        run.attempted += 1
        stderr = outcome.stderr.decode(errors="replace")[-400:]
        run.fail(f"sweep worker exit {outcome.returncode}: {stderr}", valid=True)
        return
    result = json.loads(lines[-1])
    run.attempted += len(result["latencies_s"])
    for failure in result["failures"]:
        where = f"decision {failure['index']} on {failure['group']}"
        run.fail(f"{where}: {failure['problems']}", valid=True)
    for i, latency in enumerate(result["latencies_s"]):
        run.measured(str(i), latency, traced)
    if traced:
        run.round_layers.append(tracer.layer_metrics(json.loads(trace_out.read_text())))
    else:
        run.count_process(outcome)


def sweep_workload(run: Run) -> str:
    decisions = inputs.sweep_inputs(run.seed)
    inputs_path = run.workdir / "sweep.json"
    inputs_path.write_text(json.dumps(decisions))
    run_rounds(run, lambda i, traced: sweep_round(run, inputs_path, traced))
    return inputs.digest(decisions)


# --- metrics --------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(run: Run) -> dict[str, tuple[float, str, int]]:
    """Every end-to-end metric of the workload: name -> (value, unit, samples)."""
    untraced = run.samples(False)
    if not untraced:
        raise BenchmarkError("no valid operation completed: " + "; ".join(run.failures[-3:]))
    wall = run.typical_round(False)
    metrics = {
        "setup_s": (statistics.median(run.setup), "s", len(run.setup)),
        "wall_s": (wall, "s", run.rounds[False]),
        "peak_rss_mb": (run.peak_rss_mb, "MB", run.processes),
        "error_ratio": (len(run.failures) / run.attempted, "ratio", run.attempted),
    }
    if run.workload == "sweep":
        pooled = [x for v in untraced.values() for x in v]
        metrics["decisions_per_s"] = (len(untraced) / wall, "1/s", run.rounds[False])
        metrics["decide_p50_ms"] = (1e3 * statistics.median(pooled), "ms", len(pooled))
        metrics["decide_p99_ms"] = (1e3 * percentile(pooled, 0.99), "ms", len(pooled))
    elif run.workload == "cli":
        for name, samples in sorted(untraced.items()):
            metrics[f"{name}_s"] = (statistics.median(samples), "s", len(samples))
    else:
        expected = load_expected()
        sets = sum(expected[name]["count"] * len(v) for name, v in untraced.items())
        seconds = sum(map(sum, untraced.values()))
        metrics["sets_per_s"] = (sets / seconds, "1/s", sum(map(len, untraced.values())))
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "bytes" if "bytes" in name else "count"


def per_layer(run: Run) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics: times are medians over traced rounds, counts must repeat exactly."""
    rounds = run.round_layers
    if not rounds:
        raise BenchmarkError("no traced round completed")
    metrics = {}
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        if layer_unit(name) == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                run.broken_checks.append(f"trace count {name} differs between rounds: {values}")
        metrics[name] = (value, layer_unit(name), len(rounds))
    traced, untraced = run.typical_round(True), run.typical_round(False)
    metrics["trace.wall_s"] = (traced, "s", run.rounds[True])
    metrics["trace.overhead_s"] = (traced - untraced, "s", run.rounds[True])
    return metrics


def census_self_check(run: Run, metrics: dict) -> None:
    """Exact counts: every class union is a candidate and gets one scan."""
    expected = load_expected()
    candidates = sum(2 ** len(inputs.power_classes(g)) for g in inputs.CENSUS_GROUPS)
    emitted = sum(expected[op["name"]]["count"] for op in inputs.census_operations())
    want = {
        "pst.candidates": candidates,
        "pst.scans": candidates,
        "pst.characterize_pst_calls": candidates + emitted,
        "pst.hit_ratio": emitted / candidates,
    }
    for name, value in want.items():
        if metrics[name][0] != value:
            got = metrics[name][0]
            run.broken_checks.append(f"tracer self-check: {name} = {got}, expected {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "cli", "census"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "cayleypst" / "__init__.py", EXPECTED, ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a repository checkout", file=sys.stderr)
            return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    try:
        if args.workload == "sweep":
            digest = sweep_workload(run)
        elif args.workload == "cli":
            digest = process_workload(run, inputs.cli_operations(), inputs.reject_operations())
        else:
            digest = process_workload(run, inputs.census_operations(), [])
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    try:
        report = end_to_end(run)
        if args.trace:
            report.update(per_layer(run))
            if args.workload == "census":
                census_self_check(run, report)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in run.failures:
        print(f"failed: {failure}", file=sys.stderr)
    for broken in run.broken_checks:
        print(f"self-check: {broken}", file=sys.stderr)
    metrics = {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in report.items()}
    print(json.dumps({"report": {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                                 "inputs_sha256": digest, "metrics": metrics}}))
    print(json.dumps({
        "correct": run.valid_wrong == 0 and not run.broken_checks,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": report[name][0], "unit": report[name][1]} for name in listed},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
