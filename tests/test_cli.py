"""End-to-end command tests: output shapes, exit codes, determinism, round trips."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import cayleypst
from cayleypst import adjacency_matrix, parse_connection_set
from cayleypst.cli import _edges, main, parse_time_literal
from conftest import cset, group, z433_transfer_sets


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_time_literal():
    label, value = parse_time_literal("pi/2")
    assert label == "pi/2" and value == pytest.approx(math.pi / 2)
    assert parse_time_literal("PI")[1] == pytest.approx(math.pi)
    assert parse_time_literal("3pi/4")[1] == pytest.approx(3 * math.pi / 4)
    assert parse_time_literal("2*pi")[1] == pytest.approx(2 * math.pi)
    assert parse_time_literal("0.25") == ("0.25", 0.25)
    with pytest.raises(ValueError):
        parse_time_literal("pie")
    with pytest.raises(ValueError):
        parse_time_literal("pi/0")
    for text in ("nan", "inf", "-inf", "1e400", "1" + "0" * 400 + "pi", "pi/1" + "0" * 400):
        with pytest.raises(ValueError, match="the time must be a finite float"):
            parse_time_literal(text)


def test_parse_time_literal_takes_a_minus_sign():
    assert parse_time_literal("-pi/2") == ("-pi/2", -math.pi / 2)
    assert parse_time_literal(" -3*PI/4 ") == ("-3pi/4", -3 * math.pi / 4)
    assert parse_time_literal("-pi") == ("-pi", -math.pi)
    for text in ("--pi", "-0pi", "pi-", "-", "-1" + "0" * 400 + "pi"):
        with pytest.raises(ValueError):
            parse_time_literal(text)


@pytest.mark.parametrize("spec, literal, target", [("Z4", "{1,3}", "2"), ("Z8xZ3", "{(2,0),(6,0)}", "(4,0)")])
def test_a_negative_pi_fraction_walks_like_its_float(capsys, spec, literal, target):
    docs = []
    for time in ("-t=-pi/2", "-t=-1.5707963267948966"):
        code, out, err = run_cli(capsys, "walk", "-g", spec, "-c", literal, time, "--target", target)
        assert (code, err) == (0, "")
        docs.append(json.loads(out))
    assert [doc["time"] for doc in docs] == ["-pi/2", "-1.5707963267948966"]
    assert docs[0]["time_value"] == docs[1]["time_value"] == -math.pi / 2
    assert docs[0]["amplitude"] == docs[1]["amplitude"]


def test_check_reference_set_from_file(capsys, tmp_path):
    _, with_a, _ = z433_transfer_sets()
    path = tmp_path / "set.json"
    path.write_text(json.dumps([list(g.coords) for g in with_a]))
    code, out, _ = run_cli(
        capsys, "check", "-g", "Z4xZ3xZ3", "-c", f"@{path}", "--cross-validate"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["verdict"] == "PST"
    assert doc["report"]["pair"] == [[0, 0, 0], [2, 0, 0]]
    assert doc["report"]["time"] == "pi/2"
    assert doc["cross_validation"]["agrees"] is True
    assert doc["cross_validation"]["target"] == [2, 0, 0]


def test_check_no_pst_and_fatal_flag(capsys):
    code, out, _ = run_cli(capsys, "check", "-g", "Z5", "-c", "{1,4}")
    assert code == 0
    assert json.loads(out)["report"]["verdict"] == "NoPST"
    code, _, _ = run_cli(capsys, "check", "-g", "Z5", "-c", "{1,4}", "--fail-on-no-pst")
    assert code == 1


def test_check_out_of_scope(capsys):
    code, out, _ = run_cli(capsys, "check", "-g", "Z2xZ2", "-c", "{(0,1)}")
    assert code == 0
    assert json.loads(out)["report"]["verdict"] == "OutOfScope"


def test_check_loops_stripped_flag(capsys):
    code, out, _ = run_cli(capsys, "check", "-g", "Z6", "-c", "{0, 3}")
    assert code == 0
    doc = json.loads(out)
    assert doc["loops_allowed"] is True
    assert doc["connection_set"] == [[3]]
    assert doc["report"]["verdict"] == "PST"


def test_spectrum_command(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "-g", "Z4", "-c", "{1,3}")
    assert code == 0
    assert json.loads(out)["spectrum"]["eigenvalues"] == [[2, 1], [0, 2], [-2, 1]]
    code, out, _ = run_cli(capsys, "spectrum", "-g", "Z2", "-c", "{1}")
    assert code == 0
    assert json.loads(out)["spectrum"]["eigenvalues"] == [[1, 1], [-1, 1]]


EMPTY_SPECTRUM = """{
  "group": "%s",
  "connection_set": [],
  "spectrum": {
    "eigenvalues": [
      [0, %d]
    ]
  }
}
"""

EMPTY_CHECK = """{
  "group": "%s",
  "connection_set": [],
  "loops_allowed": false,
  "report": {
    "verdict": "NoPST",
    "pair": null,
    "time": null,
    "time_value": null,
    "conditions": {
      "power_closed": true,
      "exactly_one_of_a_b": false,
      "c0_equals_4c2": true,
      "c1_equals_2c2": true
    },
    "diagnostics": ["condition exactly_one_of_a_b failed"]
  },
  "cross_validation": {
    "time": "pi/2",
    "fired": false,
    "target": null,
    "phase": null,
    "agrees": true
  }
}
"""


@pytest.mark.parametrize("spec", ["Z12", "Z4x" + "x".join(["Z3"] * 5)])
def test_the_empty_set_commands_print_pinned_text(capsys, spec):
    # Z4xZ3^5 has 366 power classes, so its class transform is the FFT
    order = group(spec).order
    assert run_cli(capsys, "spectrum", "-g", spec, "-c", "{}") == (0, EMPTY_SPECTRUM % (spec, order), "")
    check = run_cli(capsys, "check", "-g", spec, "-c", "{}", "--cross-validate")
    assert check == (0, EMPTY_CHECK % spec, "")


# sha256 of the stdout of one command per decision route (d = 0, the matching case d = 1 hit
# and missed, out of scope, the class route, the member route) and of the class tables' commands
PINNED_STDOUT = {
    ("check", "-g", "Z9", "-c", "{3,6}"): "d614f62356db3e56fad679ce370b6d5c7d7148a86294c282d09fe060f2c49ae5",
    ("check", "-g", "Z6", "-c", "{3}"): "2c49ae45de23adbfb9074dcf8ed6f6d261e1c0bf9bd0451d71a958bd4c5015b7",
    ("check", "-g", "Z6", "-c", "{1,5}"): "ec2af18a10ba92fb6632273d7bc8dc779c2300635222aa26ecaff83e4baed327",
    ("check", "-g", "Z2xZ4", "-c", "{(1,0),(0,2)}"): (
        "66d081f3980c4049b1c9137627ccf73cd39f247ae0577f700159f6938ede59c1"
    ),
    ("check", "-g", "Z12", "-c", "{6}"): "eb2b7cca1f7ec4221ac34d5006b4a02328e0ccfe210a5043b07390f9d699c26a",
    ("check", "-g", "Z4xZ3xZ3", "-c", "{(2,0,0)}"): (
        "e50209e004d4a426a5e51a82f1e1a29b4e1d424d5dae43fb425b8d092ab5ca51"
    ),
    ("check", "-g", "Z12", "-c", "{1,11}"): "311aa4c45feb0966ac90832010493e79d2442975b18edd18bc73169bb1f41dd0",
    ("spectrum", "-g", "Z4xZ3xZ3", "-c", "{(2,0,0)}"): (
        "8c58920bbff3b4945a280d850ec15ff9ae514a93240c8da58332ab525c384242"
    ),
    ("classes", "-g", "Z4xZ3"): "af54b09b3c57ba8babb4212ef79abdfa02693898922496364f140aa9b25c92b9",
    ("enumerate", "-g", "Z4xZ3"): "fdf5b588b529a3b9e1933e10e9243b9b4055396c1494c652625ca68fdaed2f2c",
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT), ids=" ".join)
def test_each_decision_route_prints_pinned_bytes(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]


def test_the_cli_imports_only_numpy_and_the_standard_library():
    # every command pays its imports at start-up: scipy.fft alone would cost about 0.34 s
    script = (
        "import sys, numpy\n"
        "before = {name.partition('.')[0] for name in sys.modules}\n"
        "import cayleypst.cli\n"
        "print(*sorted({name.partition('.')[0] for name in sys.modules} - before))\n"
    )
    src = os.path.dirname(os.path.dirname(cayleypst.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "cayleypst" in loaded and loaded - {"cayleypst"} <= sys.stdlib_module_names, loaded


def test_spectrum_non_integral_exits_1(capsys):
    code, _, err = run_cli(capsys, "spectrum", "-g", "Z12", "-c", "{1,11}")
    assert code == 1
    assert "non-integral" in err
    assert "character" in err


def test_walk_command(capsys):
    code, out, _ = run_cli(
        capsys, "walk", "-g", "Z2", "-c", "{1}", "-t", "pi/2", "--target", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["time"] == "pi/2"
    assert doc["source"] == [0]
    assert doc["amplitude"]["re"] == pytest.approx(0, abs=1e-12)
    assert doc["amplitude"]["im"] == pytest.approx(1)
    assert doc["amplitude"]["modulus"] == pytest.approx(1)


def test_enumerate_command(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-g", "Z4")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    assert [e["connection_set"] for e in doc["sets"]] == [[[2]], [[1], [3]]]
    assert all(e["report"]["verdict"] == "PST" for e in doc["sets"])
    assert doc["cross_validate"] is True
    code, out, _ = run_cli(capsys, "enumerate", "-g", "Z3")
    assert json.loads(out)["count"] == 0


def test_enumerate_targets_all_match(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-g", "Z4xZ3")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] >= 1
    assert all(e["report"]["pair"][1] == [2, 0] for e in doc["sets"])


def test_classes_command(capsys):
    code, out, _ = run_cli(capsys, "classes", "-g", "Z12")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 6
    assert doc["classes"][0]["elements"] == [[0]]
    assert doc["classes"][-1]["elements"] == [[1], [5], [7], [11]]
    assert doc["classes"][-1]["member_order"] == 12


def test_export_adjacency(capsys):
    code, out, _ = run_cli(
        capsys, "export", "-g", "Z4", "-c", "{1,3}", "--format", "adjacency"
    )
    assert code == 0
    assert out == "0 1 0 1\n1 0 1 0\n0 1 0 1\n1 0 1 0\n"


@pytest.mark.parametrize(
    "spec, literal",
    [
        ("Z4", "{1,3}"),
        ("Z12", "{}"),
        ("Z30xZ4", "{(1,0),(29,0),(0,2),(5,1),(25,3)}"),
        ("Z2xZ2xZ2xZ3", "{(1,0,0,0),(0,1,1,1),(0,1,1,2),(1,1,1,0)}"),
    ],
)
def test_export_adjacency_matches_per_entry_formatting(capsys, spec, literal):
    g = group(spec)
    adjacency = adjacency_matrix(g, parse_connection_set(g, literal))
    expected = "".join(" ".join(str(int(x)) for x in row) + "\n" for row in adjacency)
    code, out, _ = run_cli(capsys, "export", "-g", spec, "-c", literal, "--format", "adjacency")
    assert (code, out) == (0, expected)


def test_export_dot(capsys):
    code, out, _ = run_cli(capsys, "export", "-g", "Z2", "-c", "{1}", "--format", "dot")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "graph cayley {"
    assert lines[1] == '  "(0)" -- "(1)";'
    assert lines[-1] == "}"
    assert len(lines) == 3


def test_export_json_roundtrip(capsys, tmp_path):
    _, with_a, _ = z433_transfer_sets()
    setfile = tmp_path / "set.json"
    setfile.write_text(json.dumps([list(g.coords) for g in with_a]))
    outfile = tmp_path / "graph.json"
    code, _, _ = run_cli(
        capsys,
        "export",
        "-g",
        "Z4xZ3xZ3",
        "-c",
        f"@{setfile}",
        "--format",
        "json",
        "--out",
        str(outfile),
    )
    assert code == 0
    doc = json.loads(outfile.read_text())
    assert doc["group"] == "Z4xZ3xZ3"
    assert len(doc["set"]) == 17
    # degree 17 on 36 vertices: 36 * 17 / 2 undirected edges
    assert len(doc["edges"]) == 306
    # the exported file is itself a valid @file connection-set input
    code, out, _ = run_cli(capsys, "check", "-g", doc["group"], "-c", f"@{outfile}")
    assert code == 0
    reparsed = json.loads(out)
    assert reparsed["connection_set"] == doc["set"]
    assert reparsed["report"]["verdict"] == "PST"


def test_deterministic_bytes(capsys):
    _, first, _ = run_cli(capsys, "check", "-g", "Z4xZ3", "-c", "{(2,0)}", "--cross-validate")
    _, second, _ = run_cli(capsys, "check", "-g", "Z4xZ3", "-c", "{(2,0)}", "--cross-validate")
    assert first == second


def test_seventeen_digit_floats(capsys):
    _, out, _ = run_cli(capsys, "walk", "-g", "Z2", "-c", "{1}", "-t", "pi/4", "--target", "1")
    assert "0.70710678118654746" in out or "0.70710678118654757" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "-g", "Z1", "-c", "{}"),
        ("check", "-g", "Z4", "-c", "{1}"),
        ("check", "-g", "Z4", "-c", "1,3"),
        ("walk", "-g", "Z2", "-c", "{1}", "-t", "pie", "--target", "1"),
        ("export", "-g", "Z4xZ3", "-c", "{(0,1)}"),
        # integer literals are ASCII digits with an optional sign, everywhere
        ("check", "-g", "Z1_0", "-c", "{}"),
        ("check", "-g", "Z8", "-c", "{1_0,-10}"),
        ("walk", "-g", "Z8", "-c", "{2,6}", "-t", "1_0", "--target", "4"),
        ("walk", "-g", "Z8", "-c", "{2,6}", "-t", "pi/2", "--target", "4_0"),
        ("check", "-g", "Z\u0668", "-c", "{\u0662,\u0666}"),
        ("check", "-g", "Z8", "-c", "{\u0662,\u0666}"),
        ("walk", "-g", "Z8", "-c", "{2,6}", "-t", "\u0663pi/\u0662", "--target", "4"),
        ("walk", "-g", "Z8", "-c", "{2,6}", "-t", "0.\u0665", "--target", "4"),
        # whitespace inside a token is an error, never a way to join digits
        ("check", "-g", "Z1 00", "-c", "{1,99}"),
        ("check", "-g", "Z100", "-c", "{1 7, 8 3}"),
        ("walk", "-g", "Z8", "-c", "{1,7}", "-t", "pi/2", "--target", "1 0"),
    ],
)
def test_input_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("time", ["nan", "1e400", "inf", "-inf", "1e308"])
def test_non_finite_times_exit_2_with_one_line(capsys, time):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "walk", "-g", "Z4", "-c", "{1,3}", f"--time={time}", "--target", "1"
        )
    assert (code, out) == (2, "")
    if time == "1e308":
        # a finite time whose phase t * |C| = 2e308 is not
        assert err == "error: time 1e+308 is too large: the phase t * |C| overflows for |C| = 2\n"
    else:
        assert err == f"error: bad time literal {time!r}; the time must be a finite float\n"


@pytest.mark.parametrize(
    "spec, literal, message",
    [
        ("Z0", "{bad", "cyclic factor orders must be >= 2, got Z0"),
        ("Z4", "{bad", "set literal must be brace-wrapped, got '{bad'"),
        ("Z4", "{1,3}", "bad time literal 'nan'; the time must be a finite float"),
    ],
)
def test_inputs_are_checked_group_then_set_then_time(capsys, spec, literal, message):
    argv = ("walk", "-g", spec, "-c", literal, "-t", "nan", "--target", "1")
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_missing_set_file_exits_2(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "check", "-g", "Z4", "-c", f"@{tmp_path}/absent.json")
    assert code == 2


@pytest.mark.parametrize("payload", [[[1.7], [3]], [True, 3], [[[1]]]])
def test_set_file_rejects_non_integer_coordinates(capsys, tmp_path, payload):
    setfile = tmp_path / "set.json"
    setfile.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "check", "-g", "Z4", "-c", f"@{setfile}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: coordinates must be integers")
    assert err.count("\n") == 1


def test_a_set_file_object_without_the_set_key_exits_2(capsys, tmp_path):
    setfile = tmp_path / "set.json"
    setfile.write_text(json.dumps({"elements": [[1], [7]]}))
    code, out, err = run_cli(capsys, "check", "-g", "Z8", "-c", f"@{setfile}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: connection-set file must hold a JSON array")
    assert err.count("\n") == 1


def test_a_deeply_nested_set_file_is_one_line_exit_2(capsys, tmp_path):
    setfile = tmp_path / "deep.json"
    setfile.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, "check", "-g", "Z4", "-c", f"@{setfile}")
    assert code == 2
    assert out == ""
    assert err == f"error: connection-set file {setfile} nests too deeply\n"


def _edge_cases():
    g, with_a, _ = z433_transfer_sets()
    z2048, z12 = group("Z2048"), group("Z4xZ3")
    return [(g, with_a), (z2048, cset(z2048, [(512,), (1536,)])), (z12, cset(z12, []))]


@pytest.mark.parametrize("g, c", _edge_cases(), ids=["Z4xZ3xZ3", "Z2048", "no_edges"])
def test_edges_match_dense_upper_triangle(g, c):
    assert np.array_equal(_edges(g, c), np.argwhere(np.triu(adjacency_matrix(g, c), 1)))


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "-g", "Z100000000000", "-c", "{1,99999999999}"),
        ("check", "-g", "Z2048xZ2049", "-c", "{}", "--cross-validate"),
        ("spectrum", "-g", "Z4194305", "-c", "{1,4194304}"),
        ("walk", "-g", "Z4194305", "-c", "{}", "-t", "pi/2", "--target", "1"),
        ("enumerate", "-g", "Z4194305"),
        ("classes", "-g", "Z4194305"),
        ("export", "-g", "Z4194305", "-c", "{}"),
        # |G|^2 above the cap: the |G| x |G| adjacency matrix is refused
        ("export", "-g", "Z4096", "-c", "{1,4095}", "--format", "adjacency"),
    ],
)
def test_groups_above_the_cap_exit_2_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "above the cap of 4194304" in err


def test_not_inverse_closed_names_first_offender(capsys):
    code, out, err = run_cli(capsys, "check", "-g", "Z8", "-c", "{1,2,7}")
    assert (code, out) == (2, "")
    assert err == "error: set is not inverse-closed: missing inverse of (2)@Z8\n"


def test_classes_command_matches_list_power_classes(capsys):
    from cayleypst import list_power_classes

    g = group("Z8xZ3xZ3")
    code, out, _ = run_cli(capsys, "classes", "-g", str(g))
    assert code == 0
    expected = [
        {
            "key": list(min(x.coords for x in cls)),
            "member_order": next(iter(cls)).order,
            "size": len(cls),
            "elements": sorted(list(x.coords) for x in cls),
        }
        for cls in list_power_classes(g)
    ]
    assert json.loads(out)["classes"] == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        (("spectrum", "-g", "Z4", "-c", "{1,3}", "--bogus"), "unrecognized arguments: --bogus"),
        (("spectrum", "-c", "{1,3}"), "the following arguments are required: -g/--group"),
        (("spectrum", "-g", "Z5", "-c", "{1,4}", "--tol", "0.9"), "unrecognized arguments: --tol 0.9"),
        (("check", "-g", "Z6", "-c", "{1,5}", "--tol", "1e-9"), "unrecognized arguments: --tol 1e-9"),
        (("enumerate", "-g", "Z4", "--tol", "1e-9"), "unrecognized arguments: --tol 1e-9"),
        (("enumerate", "-g", "Z4", "--cross-validate"), "unrecognized arguments: --cross-validate"),
        (
            ("enumerate", "-g", "Z4", "--no-cross-validate"),
            "unrecognized arguments: --no-cross-validate",
        ),
    ],
    ids=[
        "unknown_flag",
        "missing_group",
        "spectrum_tol",
        "check_tol",
        "enumerate_tol",
        "enumerate_cross_validate",
        "enumerate_no_cross_validate",
    ],
)
def test_usage_errors_exit_2_with_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_non_power_closed_spectrum_exits_1_naming_the_character(capsys):
    code, out, err = run_cli(capsys, "spectrum", "-g", "Z5", "-c", "{1,4}")
    assert (code, out) == (1, "")
    assert err == (
        "error: non-integral spectrum: character (1,) gives non-integral eigenvalue 0.618033989\n"
    )
    # the sum over an inverse-closed set is real: no round-off imaginary part is printed
    code, out, err = run_cli(capsys, "spectrum", "-g", "Z1024xZ3", "-c", "{(1,0),(1023,0)}")
    assert (code, out) == (1, "")
    assert err == (
        "error: non-integral spectrum: character (1, 0) gives non-integral eigenvalue 1.99996235\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("classes", "-g", "Z8xZ3xZ3"),
        ("export", "-g", "Z4xZ3xZ3", "-c", "{(2,0,0),(1,0,1),(3,0,2)}", "--format", "json"),
        ("export", "-g", "Z4xZ3xZ3", "-c", "{(2,0,0),(1,0,1),(3,0,2)}", "--format", "dot"),
        ("export", "-g", "Z4xZ3xZ3", "-c", "{(2,0,0),(1,0,1),(3,0,2)}", "--format", "adjacency"),
        ("enumerate", "-g", "Z4xZ3xZ3"),
    ],
    ids=["classes", "export-json", "export-dot", "export-adjacency", "enumerate"],
)
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    outfile = tmp_path / "out.txt"
    code, printed, _ = run_cli(capsys, *argv, "--out", str(outfile))
    assert (code, printed) == (0, "")
    assert outfile.read_bytes() == out.encode("utf-8")


class _Discard:
    """A stdout that counts the characters written to it and keeps none."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def writelines(self, texts):
        for text in texts:
            self.write(text)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv",
    [
        ("classes", "-g", "Z262144"),
        ("export", "-g", "Z65536", "-c", "{1,65535}", "--format", "json"),
    ],
    ids=["classes", "export-json"],
)
def test_output_memory_is_a_small_multiple_of_the_output_size(monkeypatch, argv):
    sink = _Discard()
    monkeypatch.setattr(sys, "stdout", sink)
    # the first run builds the group's cached tables; the second pays only for its output
    assert main(list(argv)) == 0
    sink.size = 0
    tracemalloc.start()
    try:
        assert main(list(argv)) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size > 2_000_000
    assert peak <= 2 * sink.size


@pytest.mark.parametrize(
    "argv",
    [("classes", "-g", "Z65536"), ("export", "-g", "Z16384", "-c", "{1,16383}", "--format", "dot")],
    ids=["classes", "export-dot"],
)
def test_a_reader_that_stops_early_ends_the_command_quietly(argv):
    # megabytes of output against a pipe buffer of kilobytes: writing fails once the reader is gone
    src = os.path.dirname(os.path.dirname(cayleypst.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cayleypst.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


def test_running_out_of_memory_is_one_line_and_exit_2():
    # the address-space limit is set in the child only; one BLAS thread keeps
    # numpy's own start-up far below it, so the 512 MiB of edge ends fail
    import resource

    limit = 256 << 20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    # |G| x |C| neighbour indices: 4194304 x 16 int64
    sixteen = "{" + ",".join(str(k % 4194304) for j in range(1, 9) for k in (j, -j)) + "}"
    src = os.path.dirname(os.path.dirname(cayleypst.__file__))
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "cayleypst.cli", "export", "-g", "Z4194304", "-c", sixteen],
        capture_output=True,
        env=env,
        preexec_fn=limit_memory,
        timeout=120,
    )
    lines = proc.stderr.decode().splitlines()
    assert proc.returncode == 2, proc.stderr
    assert len(lines) == 1 and lines[0].startswith("error: out of memory: "), lines
