"""End-to-end command tests: output shapes, exit codes, determinism, round trips."""

import json
import math
import warnings

import numpy as np
import pytest

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
    [("Z4", "{1,3}"), ("Z12", "{}"), ("Z30xZ4", "{(1,0),(29,0),(0,2),(5,1),(25,3)}")],
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
    ],
)
def test_input_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


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


def _edge_cases():
    g, with_a, _ = z433_transfer_sets()
    z2048, z12 = group("Z2048"), group("Z4xZ3")
    return [(g, with_a), (z2048, cset(z2048, [(512,), (1536,)])), (z12, cset(z12, []))]


@pytest.mark.parametrize("g, c", _edge_cases(), ids=["Z4xZ3xZ3", "Z2048", "no_edges"])
def test_edges_match_dense_upper_triangle(g, c):
    rows, cols = np.nonzero(np.triu(adjacency_matrix(g, c), 1))
    assert _edges(g, c) == list(zip(rows.tolist(), cols.tolist()))


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
    from cayleypst import element_order, list_power_classes, power_class_key

    g = group("Z8xZ3xZ3")
    code, out, _ = run_cli(capsys, "classes", "-g", str(g))
    assert code == 0
    expected = [
        {
            "key": list(power_class_key(cls)),
            "member_order": element_order(g, next(iter(cls))),
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
    ],
    ids=["unknown_flag", "missing_group", "spectrum_tol", "check_tol", "enumerate_tol"],
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
    assert err.startswith(
        "error: non-integral spectrum: character (1,) gives non-integral eigenvalue 0.618033989"
    )
    assert err.count("\n") == 1
