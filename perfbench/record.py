"""Record the outputs of every valid cli and census operation into expected.json.

Usage (from the repository root): python3 perfbench/record.py

Run it only at a commit whose outputs are known good; the benchmark then
counts any later difference as a wrong output.  Outputs that carry computed
amplitudes (walk, check) are kept whole and compared within 1e-9 on floats;
the others are kept as a sha256 and compared byte for byte.
"""

import hashlib
import json
import sys

import inputs
import run


def main() -> int:
    workdir = run.ROOT / ".perfbench_tmp" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    records = {}
    for op in inputs.cli_operations() + inputs.census_operations():
        ready = run.materialize(op, workdir)
        outcome = run.run_child(
            run.cli_argv(ready["argv"]), env=run.child_env(), workdir=workdir, timeout=run.OP_TIMEOUT
        )
        if outcome.returncode != 0 or outcome.stderr:
            stderr = outcome.stderr.decode(errors="replace")
            print(f"error: {op['name']} exited {outcome.returncode}: {stderr}", file=sys.stderr)
            return 1
        document = json.loads(outcome.stdout)
        digest = hashlib.sha256(outcome.stdout).hexdigest()
        record = {"bytes": len(outcome.stdout), "sha256": digest}
        if op.get("floats"):
            record["document"] = document
        if op["argv"][0] == "enumerate":
            record["count"] = document["count"]
        records[op["name"]] = record
        print(f"{op['name']}: {record['bytes']} bytes", file=sys.stderr)
    run.EXPECTED.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
