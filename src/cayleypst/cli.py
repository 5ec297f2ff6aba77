"""Command-line surface: check, spectrum, walk, enumerate, classes, export.

Every command is pure input to stdout (or --out file).  main parses the group
and, for a command that reads one, the connection set; the command's handler
only computes, and returns a JSON document or text pieces with its exit code,
which main writes.  Exit codes: 0 on success, 1 on domain outcomes the user
asked to treat as fatal (non-integral spectra, cross-validation mismatches,
--fail-on-no-pst), 2 on input errors and on running out of memory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections.abc import Iterable
from itertools import chain
from pathlib import Path

import numpy as np

from .groups import (
    AbelianGroup,
    ConnectionSet,
    _coordinate_rows,
    _row_index,
    _tables,
    check_order,
    parse_connection_set,
    parse_element,
    parse_group,
)
from .jsonio import dumps  # noqa: F401  (unused: perfbench/tracer.py requires the cli.dumps site)
from .jsonio import format_rows, pieces
from .pst import (
    _TIME_LABEL,
    TRANSFER_TIME,
    CrossValidationError,
    Verdict,
    characterize_pst,
    enumerate_pst_sets,
    scan_agrees,
)
from .spectra import NonIntegralSpectrumError, _indicator, integral_spectrum
from .walk import _difference_index, detect_pst_numeric, transition_amplitude

_PI_LITERAL = re.compile(r"(-)?\s*([0-9]+)?\s*\*?\s*pi\s*(?:/\s*([0-9]+))?", re.IGNORECASE)


def parse_time_literal(text: str) -> tuple[str, float]:
    """Parse 'pi/2', '3pi/4', '2*pi', '-pi/2' or a plain float; returns (label, value).

    Rational multiples of pi stay symbolic in the label and are converted to a
    float only here, at the last moment.
    """
    stripped = text.strip().lower()
    match = _PI_LITERAL.fullmatch(stripped)
    if match:
        sign, numerator, denominator = match.groups()
        numerator = int(numerator) if numerator else 1
        denominator = int(denominator) if denominator else 1
        if numerator < 1 or denominator < 1:
            raise ValueError(f"bad time literal {text!r}")
        label = (sign or "") + ("pi" if numerator == 1 else f"{numerator}pi") + (
            "" if denominator == 1 else f"/{denominator}"
        )
        try:
            value = (-numerator if sign else numerator) * math.pi / denominator
        except OverflowError:
            value = math.inf
    else:
        try:
            # float() alone also takes '1_0' and non-ASCII digits
            if not stripped.isascii() or "_" in stripped:
                raise ValueError
            value = float(stripped)
        except ValueError:
            raise ValueError(
                f"bad time literal {text!r}; use a float or a pi fraction like pi/2"
            ) from None
        label = f"{value:.17g}"
    if not math.isfinite(value):
        raise ValueError(f"bad time literal {text!r}; the time must be a finite float")
    return label, value


def _load_connection_set(group: AbelianGroup, text: str) -> ConnectionSet:
    """Inline set literal, or @file pointing at a JSON array of coordinate tuples."""
    if text.startswith("@"):
        try:
            payload = json.loads(Path(text[1:]).read_text(encoding="utf-8"))
        except RecursionError:
            raise ValueError(f"connection-set file {text[1:]} nests too deeply") from None
        if isinstance(payload, dict):
            payload = payload.get("set")
        if not isinstance(payload, list):
            raise ValueError(
                "connection-set file must hold a JSON array of coordinate tuples "
                '(or an object with a "set" key)'
            )
        rows = [entry if isinstance(entry, list) else [entry] for entry in payload]
        for entry, coords in zip(payload, rows):
            # bool is an int subclass, and int() would truncate floats silently
            if not all(type(c) is int for c in coords):
                raise ValueError(f"coordinates must be integers, got {json.dumps(entry)}")
        return ConnectionSet.from_coordinates(group, rows)
    return parse_connection_set(group, text)


def _emit(document: dict | Iterable[str], args) -> None:
    """Write a JSON document, or text given as pieces, to stdout or the --out file, piece by piece."""
    text = chain(pieces(document), ("\n",)) if isinstance(document, dict) else document
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.writelines(text)
    else:
        sys.stdout.writelines(text)


def _cmd_check(args, group: AbelianGroup, cset: ConnectionSet) -> tuple[dict, int]:
    report = characterize_pst(group, cset)
    document = {
        "group": str(group),
        "connection_set": _coordinate_rows(group, cset.indices),
        "loops_allowed": cset.loops_allowed,
        "report": report.to_json_dict(),
    }
    cross_agrees = None
    if args.cross_validate:
        detection = detect_pst_numeric(group, cset, TRANSFER_TIME)
        fired = detection is not None
        cross_agrees = scan_agrees(report, detection)
        document["cross_validation"] = {
            "time": _TIME_LABEL,
            "fired": fired,
            "target": list(detection.target.coords) if fired else None,
            "phase": [detection.phase.real, detection.phase.imag] if fired else None,
            "agrees": cross_agrees,
        }
    failed = cross_agrees is False or (args.fail_on_no_pst and report.verdict is not Verdict.PST)
    return document, int(failed)


def _cmd_spectrum(args, group: AbelianGroup, cset: ConnectionSet) -> tuple[dict, int]:
    spectrum = integral_spectrum(group, cset)
    document = {
        "group": str(group),
        "connection_set": _coordinate_rows(group, cset.indices),
        "spectrum": spectrum.to_json_dict(),
    }
    return document, 0


def _cmd_walk(args, group: AbelianGroup, cset: ConnectionSet) -> tuple[dict, int]:
    label, value = parse_time_literal(args.time)
    source = group.identity if args.source is None else parse_element(group, args.source)
    target = parse_element(group, args.target)
    amplitude = transition_amplitude(group, cset, source, target, value)
    document = {
        "group": str(group),
        "connection_set": _coordinate_rows(group, cset.indices),
        "time": label,
        "time_value": value,
        "source": list(source.coords),
        "target": list(target.coords),
        "amplitude": {
            "re": amplitude.real,
            "im": amplitude.imag,
            "modulus": abs(amplitude),
        },
    }
    return document, 0


def _cmd_enumerate(args, group: AbelianGroup) -> tuple[dict, int]:
    """The census with each set's report; it always cross-validates, so "cross_validate" is true."""
    sets = enumerate_pst_sets(group)
    # a generator: each set's coordinates and report are made as its text is written
    entries = (
        {
            "connection_set": _coordinate_rows(group, cset.indices),
            "report": characterize_pst(group, cset).to_json_dict(),
        }
        for cset in sets
    )
    return {"group": str(group), "cross_validate": True, "count": len(sets), "sets": entries}, 0


def _cmd_classes(args, group: AbelianGroup) -> tuple[dict, int]:
    tables = _tables(group)
    orders = tables.class_order.tolist()
    # members are sorted by index, which is lexicographic coordinate order
    rows = (_coordinate_rows(group, members) for members in tables.class_members)
    # a generator: each class's coordinates are made as its text is written
    classes = (
        {"key": coords[0].tolist(), "member_order": order, "size": len(coords), "elements": coords}
        for coords, order in zip(rows, orders)
    )
    return {"group": str(group), "count": len(orders), "classes": classes}, 0


def _edges(group: AbelianGroup, cset: ConnectionSet) -> np.ndarray:
    """Pairs g < h of canonical vertex indices with h - g in C, one row each, sorted; O(|G| * |C|)."""
    everything, factors = np.arange(group.order), group._radix[0][:, 0]
    neighbours = np.empty((group.order, len(cset)), dtype=np.intp)
    # per member c, the reduced coordinates of g + c for every g: no |G| x |C| x rank array
    for column, member in zip(neighbours.T, _coordinate_rows(group, cset.indices)):
        column[...] = _row_index(group, (_coordinate_rows(group, everything) + member) % factors)
    neighbours.sort(axis=1)
    sources, slots = np.nonzero(neighbours > everything[:, None])
    return np.stack((sources, neighbours[sources, slots]), axis=-1)


def _cmd_export(args, group: AbelianGroup, cset: ConnectionSet) -> tuple[dict | Iterable[str], int]:
    if args.format == "adjacency":
        # the index table, and its cap, before the int8 indicator: no float |G| x |G| matrix
        index = _difference_index(group)
        adjacency = _indicator(group, cset).astype(np.int8)[index]
        return format_rows(adjacency, " ".join(["%d"] * group.order) + "\n", ""), 0
    # the coordinates of both ends of every edge, shape (edges, 2, rank)
    ends = _coordinate_rows(group, _edges(group, cset))
    if args.format == "dot":
        label = "(" + ",".join(["%d"] * group.rank) + ")"
        line = f'  "{label}" -- "{label}";'
        return chain(("graph cayley {\n",), format_rows(ends, line + "\n", ""), ("}\n",)), 0
    return {"group": str(group), "set": _coordinate_rows(group, cset.indices), "edges": ends}, 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one `error: ...` line and exit 2."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cayleypst",
        description=(
            "Perfect state transfer on Cayley graphs of finite abelian groups: "
            "exact structural checks, character spectra, and quantum-walk numerics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, reads_set=True):
        """A subcommand taking -g, and -c when it reads a connection set."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("-g", "--group", required=True, help="group, e.g. Z4xZ3xZ3")
        if reads_set:
            p.add_argument(
                "-c",
                "--connection-set",
                required=True,
                help="set literal like '{(1,0),(3,0)}' or @file.json",
            )
        p.set_defaults(handler=handler)
        return p

    check = command("check", _cmd_check, "decide perfect state transfer")
    check.add_argument(
        "--cross-validate",
        action="store_true",
        help="also run the numeric row scan at pi/2 and report agreement",
    )
    check.add_argument(
        "--fail-on-no-pst", action="store_true", help="exit 1 unless the verdict is PST"
    )
    command("spectrum", _cmd_spectrum, "exact integer spectrum via characters")
    walk = command("walk", _cmd_walk, "one transition amplitude at a given time")
    walk.add_argument("-t", "--time", required=True, help="walk time: float or pi fraction like pi/2")
    walk.add_argument("--source", default=None, help="source vertex (default: identity)")
    walk.add_argument("--target", required=True, help="target vertex, e.g. (2,0,0)")
    command(
        "enumerate", _cmd_enumerate, "census of all transfer-positive class unions", reads_set=False
    )
    command("classes", _cmd_classes, "list the power classes of a group", reads_set=False)
    export = command("export", _cmd_export, "export the Cayley graph")
    export.add_argument(
        "--format",
        choices=("adjacency", "dot", "json"),
        default="json",
        help="output format (default: json)",
    )
    for p in sub.choices.values():
        p.add_argument("--out", help="write output to this path instead of stdout")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the inputs in order: the group, its set, then what the handler parses
        group = parse_group(args.group)
        check_order(group)
        inputs = [group]
        if "connection_set" in args:
            inputs.append(_load_connection_set(group, args.connection_set))
        document, code = args.handler(args, *inputs)
        _emit(document, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early (`| head`): end quietly, and let the
        # flush at exit write what is still buffered to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except NonIntegralSpectrumError as exc:
        print(f"error: non-integral spectrum: {exc}", file=sys.stderr)
        return 1
    except CrossValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # like a size cap: the input is too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
