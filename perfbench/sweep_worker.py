"""Library process for the sweep workload: one pass over the generated decisions.

Usage: sweep_worker.py INPUTS_JSON [TRACE_OUT].  Prints one JSON line with
each decision's latency and every wrong outcome.

A decision parses the group, builds the connection set, and runs
characterize_pst and detect_pst_numeric at pi/2; on groups with a cyclic
Sylow-2-subgroup it also runs character_criterion, which must raise
NonIntegralSpectrumError exactly when the set is not power-closed.  Flagged
decisions also compare transition_matrix with dense_expm entrywise.
"""

import json
import sys
import time

DENSE_GAP = 1e-9  # the acceptance suite's tolerance


def decide(op, groups, spectra, walk, pst) -> list[str]:
    group = groups.parse_group(op["group"])
    cset = groups.ConnectionSet.from_elements(group, [group.element(c) for c in op["set"]])
    report = pst.characterize_pst(group, cset)
    detection = walk.detect_pst_numeric(group, cset, pst.TRANSFER_TIME)
    wrong = []
    if not op["in_scope"]:
        if report.verdict is not pst.Verdict.OUT_OF_SCOPE:
            wrong.append(f"verdict {report.verdict.value}, expected OutOfScope")
    else:
        claimed = report.verdict is pst.Verdict.PST
        if (detection is not None) != claimed or (
            claimed and detection.target != report.pair[1]
        ):
            wrong.append(f"verdict {report.verdict.value} but numeric scan {detection}")
        reported = report.conditions.get("power_closed", op["power_closed"])
        if reported != op["power_closed"]:
            wrong.append(f"power_closed reported {reported}")
        try:
            criterion = pst.character_criterion(group, cset)
        except spectra.NonIntegralSpectrumError:
            if op["power_closed"]:
                wrong.append("NonIntegralSpectrumError on a power-closed set")
        else:
            if not op["power_closed"]:
                wrong.append("no NonIntegralSpectrumError on a set that is not power-closed")
            elif criterion != claimed:
                wrong.append(f"character criterion {criterion}, verdict {report.verdict.value}")
    if op["dense"]:
        exact = walk.transition_matrix(group, cset, pst.TRANSFER_TIME).entries
        dense = walk.dense_expm(group, cset, pst.TRANSFER_TIME).entries
        gap = float(abs(exact - dense).max())
        if gap > DENSE_GAP:
            wrong.append(f"dense gap {gap:.3g}")
    return wrong


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        ops = json.load(fh)
    tracer = None
    if len(sys.argv) > 2:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from cayleypst import groups, pst, spectra, walk

    latencies, failures = [], []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        began = clock()
        try:
            wrong = decide(op, groups, spectra, walk, pst)
        except Exception as exc:  # a decision that raises is counted, not fatal
            wrong = [f"{type(exc).__name__}: {exc}"]
        latencies.append(clock() - began)
        if wrong:
            failures.append({"index": i, "group": op["group"], "problems": wrong})
    if tracer is not None:
        tracer.dump(sys.argv[2])
    print(json.dumps({"latencies_s": latencies, "failures": failures}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
