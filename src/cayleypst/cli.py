"""Command-line surface: check, spectrum, walk, enumerate, classes, export.

Every command is pure input to stdout (or --out file).  Exit codes: 0 on
success, 1 on domain outcomes the user asked to treat as fatal (non-integral
spectra, cross-validation mismatches, --fail-on-no-pst), 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .groups import (
    AbelianGroup,
    ConnectionSet,
    _tables,
    check_order,
    parse_connection_set,
    parse_element,
    parse_group,
    power_class_indices,
)
from .jsonio import dumps
from .pst import (
    CROSS_VALIDATE_MAX_ORDER,
    CrossValidationError,
    Verdict,
    characterize_pst,
    enumerate_pst_sets,
    scan_agrees,
)
from .spectra import NonIntegralSpectrumError, integral_spectrum
from .walk import (
    adjacency_matrix,
    detect_pst_numeric,
    transition_amplitude,
)

_PI_LITERAL = re.compile(r"(\d+)?\s*\*?\s*pi\s*(?:/\s*(\d+))?", re.IGNORECASE)


def parse_time_literal(text: str) -> tuple[str, float]:
    """Parse 'pi/2', '3pi/4', '2*pi' or a plain float; returns (label, value).

    Rational multiples of pi stay symbolic in the label and are converted to a
    float only here, at the last moment.
    """
    stripped = text.strip().lower()
    match = _PI_LITERAL.fullmatch(stripped)
    if match:
        numerator = int(match.group(1)) if match.group(1) else 1
        denominator = int(match.group(2)) if match.group(2) else 1
        if numerator < 1 or denominator < 1:
            raise ValueError(f"bad time literal {text!r}")
        label = ("pi" if numerator == 1 else f"{numerator}pi") + (
            "" if denominator == 1 else f"/{denominator}"
        )
        try:
            value = numerator * math.pi / denominator
        except OverflowError:
            value = math.inf
    else:
        try:
            value = float(stripped)
        except ValueError:
            raise ValueError(
                f"bad time literal {text!r}; use a float or a pi fraction like pi/2"
            ) from None
        label = f"{value:.17g}"
    if not math.isfinite(value):
        raise ValueError(f"bad time literal {text!r}; the time must be a finite float")
    return label, value


def _group(args) -> AbelianGroup:
    """The -g group, rejected up front when it is above the size cap."""
    group = parse_group(args.group)
    check_order(group)
    return group


def _load_connection_set(group: AbelianGroup, text: str) -> ConnectionSet:
    """Inline set literal, or @file pointing at a JSON array of coordinate tuples."""
    if text.startswith("@"):
        payload = json.loads(Path(text[1:]).read_text(encoding="utf-8"))
        if isinstance(payload, dict):
            payload = payload.get("set", payload.get("elements"))
        if not isinstance(payload, list):
            raise ValueError(
                "connection-set file must hold a JSON array of coordinate tuples "
                '(or an object with a "set" key)'
            )
        elements = []
        for entry in payload:
            coords = entry if isinstance(entry, list) else [entry]
            # bool is an int subclass, and int() would truncate floats silently
            if not all(type(c) is int for c in coords):
                raise ValueError(f"coordinates must be integers, got {json.dumps(entry)}")
            elements.append(group.element(coords))
        return ConnectionSet.from_elements(group, elements)
    return parse_connection_set(group, text)


def _coords(group: AbelianGroup, indices: np.ndarray) -> list[list[int]]:
    """Coordinate lists of the elements with these canonical indices, in the same order."""
    return np.array(np.unravel_index(indices, group.factors)).T.tolist()


def _coords_list(connection_set: ConnectionSet) -> list[list[int]]:
    return _coords(connection_set.group, connection_set.indices)


def _emit(document, args) -> None:
    text = document if isinstance(document, str) else dumps(document) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    group = _group(args)
    cset = _load_connection_set(group, args.connection_set)
    report = characterize_pst(group, cset)
    document = {
        "group": str(group),
        "connection_set": _coords_list(cset),
        "loops_allowed": cset.loops_allowed,
        "report": report.to_json_dict(),
    }
    cross_agrees = None
    if args.cross_validate:
        detection = detect_pst_numeric(group, cset, math.pi / 2)
        fired = detection is not None
        cross_agrees = scan_agrees(report, detection)
        document["cross_validation"] = {
            "time": "pi/2",
            "fired": fired,
            "target": list(detection.target.coords) if fired else None,
            "phase": [detection.phase.real, detection.phase.imag] if fired else None,
            "agrees": cross_agrees,
        }
    _emit(document, args)
    if cross_agrees is False:
        return 1
    if args.fail_on_no_pst and report.verdict is not Verdict.PST:
        return 1
    return 0


def _cmd_spectrum(args) -> int:
    group = _group(args)
    cset = _load_connection_set(group, args.connection_set)
    spectrum = integral_spectrum(group, cset)
    document = {
        "group": str(group),
        "connection_set": _coords_list(cset),
        "spectrum": spectrum.to_json_dict(),
    }
    _emit(document, args)
    return 0


def _cmd_walk(args) -> int:
    group = _group(args)
    cset = _load_connection_set(group, args.connection_set)
    label, value = parse_time_literal(args.time)
    source = group.identity if args.source is None else parse_element(group, args.source)
    target = parse_element(group, args.target)
    amplitude = transition_amplitude(group, cset, source, target, value)
    document = {
        "group": str(group),
        "connection_set": _coords_list(cset),
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
    _emit(document, args)
    return 0


def _cmd_enumerate(args) -> int:
    group = _group(args)
    cross = args.cross_validate
    if cross is None:
        cross = group.order <= CROSS_VALIDATE_MAX_ORDER
    sets = enumerate_pst_sets(group, cross)
    entries = [
        {
            "connection_set": _coords_list(cset),
            "report": characterize_pst(group, cset).to_json_dict(),
        }
        for cset in sets
    ]
    document = {
        "group": str(group),
        "cross_validate": cross,
        "count": len(entries),
        "sets": entries,
    }
    _emit(document, args)
    return 0


def _cmd_classes(args) -> int:
    group = _group(args)
    orders = _tables(group).order
    classes = []
    for members in power_class_indices(group):
        # members are sorted by index, which is lexicographic coordinate order
        coords = _coords(group, members)
        classes.append(
            {
                "key": coords[0],
                "member_order": int(orders[members[0]]),
                "size": len(coords),
                "elements": coords,
            }
        )
    document = {"group": str(group), "count": len(classes), "classes": classes}
    _emit(document, args)
    return 0


def _edges(group: AbelianGroup, cset: ConnectionSet) -> list[tuple[int, int]]:
    """Pairs g < h of canonical vertex indices with h - g in C, sorted; O(|G| * |C|)."""
    coords = _tables(group).coords
    neighbours = np.ravel_multi_index(
        tuple(row[:, None] + row[cset.indices] for row in coords), group.factors, mode="wrap"
    )
    neighbours.sort(axis=1)
    sources, slots = np.nonzero(neighbours > np.arange(group.order)[:, None])
    return list(zip(sources.tolist(), neighbours[sources, slots].tolist()))


def _cmd_export(args) -> int:
    group = _group(args)
    cset = _load_connection_set(group, args.connection_set)
    if args.format == "adjacency":
        adjacency = adjacency_matrix(group, cset).astype(np.int64).tolist()
        rows = [" ".join(map(str, row)) for row in adjacency]
        _emit("\n".join(rows) + "\n", args)
        return 0
    vertices = _tables(group).coords.T.tolist()
    edges = _edges(group, cset)
    if args.format == "dot":
        labels = ["(" + ",".join(map(str, v)) + ")" for v in vertices]
        lines = ["graph cayley {"]
        lines.extend(f'  "{labels[g]}" -- "{labels[h]}";' for g, h in edges)
        lines.append("}")
        _emit("\n".join(lines) + "\n", args)
        return 0
    document = {
        "group": str(group),
        "set": _coords_list(cset),
        "edges": [[vertices[g], vertices[h]] for g, h in edges],
    }
    _emit(document, args)
    return 0


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

    def group_arg(p):
        p.add_argument("-g", "--group", required=True, help="group, e.g. Z4xZ3xZ3")

    def set_arg(p):
        p.add_argument(
            "-c",
            "--connection-set",
            required=True,
            help="set literal like '{(1,0),(3,0)}' or @file.json",
        )

    def out_arg(p):
        p.add_argument("--out", help="write output to this path instead of stdout")

    check = sub.add_parser("check", help="decide perfect state transfer")
    group_arg(check)
    set_arg(check)
    check.add_argument(
        "--cross-validate",
        action="store_true",
        help="also run the numeric row scan at pi/2 and report agreement",
    )
    check.add_argument(
        "--fail-on-no-pst",
        action="store_true",
        help="exit 1 unless the verdict is PST",
    )
    out_arg(check)
    check.set_defaults(handler=_cmd_check)

    spectrum = sub.add_parser("spectrum", help="exact integer spectrum via characters")
    group_arg(spectrum)
    set_arg(spectrum)
    out_arg(spectrum)
    spectrum.set_defaults(handler=_cmd_spectrum)

    walk = sub.add_parser("walk", help="one transition amplitude at a given time")
    group_arg(walk)
    set_arg(walk)
    walk.add_argument("-t", "--time", required=True, help="walk time: float or pi fraction like pi/2")
    walk.add_argument("--source", default=None, help="source vertex (default: identity)")
    walk.add_argument("--target", required=True, help="target vertex, e.g. (2,0,0)")
    out_arg(walk)
    walk.set_defaults(handler=_cmd_walk)

    enum = sub.add_parser("enumerate", help="census of all transfer-positive class unions")
    group_arg(enum)
    enum.add_argument(
        "--cross-validate",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="check every candidate against the numeric scan (default: on for order <= 128)",
    )
    out_arg(enum)
    enum.set_defaults(handler=_cmd_enumerate)

    classes = sub.add_parser("classes", help="list the power classes of a group")
    group_arg(classes)
    out_arg(classes)
    classes.set_defaults(handler=_cmd_classes)

    export = sub.add_parser("export", help="export the Cayley graph")
    group_arg(export)
    set_arg(export)
    export.add_argument(
        "--format",
        choices=("adjacency", "dot", "json"),
        default="json",
        help="output format (default: json)",
    )
    out_arg(export)
    export.set_defaults(handler=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NonIntegralSpectrumError as exc:
        print(f"error: non-integral spectrum: {exc}", file=sys.stderr)
        return 1
    except CrossValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
