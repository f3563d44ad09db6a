"""End-to-end runs of the command-line interface through main(argv)."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import agreebox as ab
from agreebox import cli
from agreebox.cli import SWEEP_COLUMNS, _parse_grid, _sample_tuples, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# generate and classify

def test_generate_then_classify(tmp_path, capsys):
    box_path = tmp_path / "pr.json"
    code, out, err = run(capsys, "generate", "--family", "pr", "--output", str(box_path))
    assert code == 0 and err == ""
    code, out, err = run(capsys, "classify", "--input", str(box_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["conclusion"] == "POSTQUANTUM"
    assert doc["local"] is False
    assert doc["tsirelson_gap"] == "-2"


def test_generate_warns_on_degenerate_parameters(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "generate", "--family", "ccd",
        "--params", "r=0,s=0,t=0,u=0",
        "--output", str(tmp_path / "d.json"),
    )
    assert code == 0
    assert "warning: r>0 violated" in err


def test_generate_missing_params_is_a_parse_error(capsys):
    code, out, err = run(capsys, "generate", "--family", "ccd", "--params", "r=1/2")
    assert code == 2
    assert "needs parameters" in err


def test_generate_rejects_names_it_does_not_read(capsys):
    for family, params in (
        ("pr", "zzz=3"),
        ("ccd", "r=1/2,s=1/4,t=1/2,u=0,v=1"),
    ):
        code, out, err = run(capsys, "generate", "--family", family, "--params", params)
        assert code == 2
        assert "unknown parameters" in err
        assert out == ""


def test_repeated_parameter_is_a_parse_error(capsys):
    code, out, err = run(
        capsys, "generate", "--family", "ccd", "--params", "r=1/2,s=1/4,t=1/2,u=0,r=0"
    )
    assert code == 2
    assert "given twice" in err
    assert out == ""


def test_generated_params_survive_classification(tmp_path, capsys):
    box_path = tmp_path / "t1.json"
    run(
        capsys,
        "generate", "--family", "ccd",
        "--params", "r=1/2,s=1/4,t=1/2,u=0",
        "--output", str(box_path),
    )
    code, out, err = run(capsys, "classify", "--input", str(box_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["ccd_form"]["params"] == {"r": "1/2", "s": "1/4", "t": "1/2", "u": "0"}
    assert doc["ccd_form"]["constraints_ok"] is True


def test_classify_rejects_signaling_box(tmp_path, capsys):
    from fractions import Fraction as F

    rows = {
        (0, 0): [1, 0, 0, 0],
        (0, 1): [1, 0, 0, 0],
        (1, 0): [0, 1, 0, 0],
        (1, 1): [0, 1, 0, 0],
    }
    box = ab.box_from_rows({k: list(map(F, v)) for k, v in rows.items()})
    path = tmp_path / "sig.json"
    path.write_text(ab.box_to_json(box))
    code, out, err = run(capsys, "classify", "--input", str(path))
    assert code == 3
    assert "no-signaling" in err


def test_classify_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "classify", "--input", str(path))
    assert code == 2


@pytest.mark.parametrize("command", ["classify", "ontology", "reduce"])
def test_a_box_document_with_a_byte_order_mark_exits_2(tmp_path, capsys, command):
    # a UTF-8 BOM stays in the text read as utf-8, and JSON refuses it
    path = tmp_path / "bom.json"
    path.write_text(ab.box_to_json(ab.pr_box()), encoding="utf-8-sig")
    code, out, err = run(capsys, command, "--input", str(path))
    assert (code, out) == (2, "")
    assert "BOM" in err and "Traceback" not in err


def test_classify_missing_file(capsys):
    code, out, err = run(capsys, "classify", "--input", "/nonexistent/box.json")
    assert code == 2


@pytest.mark.parametrize("command", ["classify", "ontology", "reduce"])
# "01,1" names the input pair (1, 1) a second time
@pytest.mark.parametrize("rows", [[], {"0,0": 5}, {"0,0": [1, 2]},
                                  {**ab.box_doc(ab.pr_box())["p"], "01,1": [[1, 0], [0, 0]]}],
                         ids=["list", "number", "flat-row", "twin-key"])
def test_malformed_box_documents_exit_2(tmp_path, capsys, command, rows):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nA": 2, "nB": 2, "nX": 2, "nY": 2, "p": rows}))
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == 2
    assert out == "" and "Traceback" not in err


def cli_process(*argv):
    """The CLI in a child process, so that a hang fails the test at the timeout."""
    env = dict(os.environ, PYTHONPATH=str(Path(ab.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-m", "agreebox.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=10)


def box_file_with_entry(tmp_path, entry):
    doc = ab.box_doc(ab.pr_box())
    doc["p"]["0,0"][0][0] = entry
    path = tmp_path / "box.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [
    ("generate", "--family", "ccd", "--params", "r=1e99999999,s=0,t=0,u=0"),
    ("sweep", "--family", "ccd", "--grid", "r=0:1:1e-99999999,s=0,t=0,u=0"),
    ("classify", "--input", "1e99999999"),
    ("classify", "--input", "1e-5000"),
], ids=["params", "grid", "box-large", "box-small"])
def test_huge_exponents_exit_2_at_once(tmp_path, argv):
    if argv[0] == "classify":
        argv = argv[:2] + (box_file_with_entry(tmp_path, argv[2]),)
    done = cli_process(*argv)
    assert done.returncode == 2
    assert "exponent beyond 4000" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["classify", "reduce", "ontology"])
@pytest.mark.parametrize("entry", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
def test_non_finite_box_entries_exit_2(tmp_path, command, entry):
    done = cli_process(command, "--input", box_file_with_entry(tmp_path, entry))
    assert done.returncode == 2
    assert "not a rational" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("entry", ["1_0", "1_000/2", "0.2_5", "1e1_0"])
def test_underscores_in_box_entries_exit_2(tmp_path, capsys, entry):
    code, out, err = run(capsys, "classify", "--input", box_file_with_entry(tmp_path, entry))
    assert (code, out) == (2, "")
    assert f"not a rational: {entry!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("generate", "--family", "ccd", "--params", "r=1_0/20,s=0,t=0,u=0"),
    ("sweep", "--family", "ccd", "--grid", "r=0:1:1/1_0,s=0,t=0,u=0"),
], ids=["params", "grid"])
def test_underscores_in_parameters_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "not a rational" in err and "Traceback" not in err


@pytest.mark.parametrize("entry", ["\u0661/\u0662", "\u0660.\u0665", "\xa00.5", "\uff11"])
def test_box_entries_that_are_not_ascii_exit_2(tmp_path, capsys, entry):
    code, out, err = run(capsys, "classify", "--input", box_file_with_entry(tmp_path, entry))
    assert (code, out) == (2, "")
    assert f"not a rational: {entry!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("generate", "--family", "ccd", "--params", "r=\u0661/\u0662,s=1/4,t=1/2,u=0"),
    ("sweep", "--family", "ccd", "--grid", "r=\u0661/\u0662,s=1/4,t=1/2,u=0"),
    ("sweep", "--family", "sd", "--grid", "r=0:1:1/\uff14,s=0,t=0,u=0"),
    ("verify-classical", "--params", "omega=\uff12,denom=2"),
], ids=["params", "grid", "grid-range", "bounds"])
def test_parameters_that_are_not_ascii_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "not a rational" in err and "Traceback" not in err


def test_boolean_box_entries_exit_2(tmp_path):
    # true is no probability, though Python's bool is an int
    doc = ab.box_doc(ab.pr_box())
    doc["p"] = {key: [[True, 0], [0, 0]] for key in doc["p"]}
    path = tmp_path / "box.json"
    path.write_text(json.dumps(doc))
    done = cli_process("classify", "--input", str(path))
    assert done.returncode == 2
    assert "not a rational: True" in done.stderr and "Traceback" not in done.stderr


def test_derived_entries_too_long_to_print_exit_2():
    # both denominators have 3,990 digits, under the input limit, but entries
    # like t + s - r need about 7,980 over their common denominator
    zeros = "0" * 3988
    done = cli_process("generate", "--family", "ccd",
                       "--params", f"r=1/1{zeros}1,s=0,t=1/1{zeros}3,u=0")
    assert done.returncode == 2
    assert "more than 4000 digits" in done.stderr and "Traceback" not in done.stderr


# a file that cannot be read or written is a parse error, not a traceback

@pytest.mark.parametrize("command", ["classify", "reduce", "ontology"])
def test_a_directory_as_input_exits_2(tmp_path, command):
    done = cli_process(command, "--input", str(tmp_path))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["generate", "sweep"])
def test_a_directory_as_output_exits_2(tmp_path, command):
    done = cli_process(command, "--family", "pr", "--output", str(tmp_path))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


# a shell cannot pass a NUL character in an argument, but a Python caller
# of main can; open() refuses it with ValueError, which must not escape

@pytest.mark.parametrize("command", ["classify", "reduce", "ontology"])
def test_a_nul_in_the_input_path_exits_2(tmp_path, capsys, command):
    code, out, err = run(capsys, command, "--input", str(tmp_path / "a\0b.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "NUL" in err


@pytest.mark.parametrize("argv", [
    ["generate", "--family", "pr"], ["sweep", "--family", "pr"],
    ["verify-classical", "--params", "omega=2,denom=2"],
])
def test_a_nul_in_the_output_path_exits_2(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--output", str(tmp_path / "a\0b.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "NUL" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["classify", "reduce", "ontology"])
def test_non_utf8_input_exits_2(tmp_path, command):
    path = tmp_path / "box.json"
    path.write_bytes(ab.box_to_json(ab.pr_box()).encode("utf-16"))
    done = cli_process(command, "--input", str(path))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


# ---------------------------------------------------------------------------
# sweep

def test_sweep_grid_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, err = run(
        capsys,
        "sweep", "--family", "ccd",
        "--grid", "r=1/2,s=0:1/2:1/4,t=1/2,u=0",
        "--output", str(out_path),
    )
    assert code == 0
    with out_path.open() as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3
    by_s = {row["s"]: row for row in rows}
    assert by_s["0"]["ccd"] == "false"  # conditionals agree at s = u
    assert by_s["1/4"]["ccd"] == "true"
    assert by_s["1/2"]["qA"] == "1"
    for row in rows:
        if row["ccd"] == "true":
            assert row["local"] == "false"
        assert row["family"] == "ccd"
        assert row["r_dec"].startswith("0.5")


def test_sweep_sampling_is_seeded(capsys):
    code, out1, err = run(
        capsys, "sweep", "--family", "ccd", "--sample", "6", "--seed", "11"
    )
    assert code == 0
    code, out2, err = run(
        capsys, "sweep", "--family", "ccd", "--sample", "6", "--seed", "11"
    )
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header.startswith("family,r,r_dec,s,")


SWEEP_HEADER = "family,r,r_dec,s,s_dec,t,t_dec,u,u_dec,qA,qA_dec,qB,qB_dec,ccd,sd,local,gap,gap_dec"


@pytest.mark.parametrize("sample, rows", [
    ("6", []),  # all six boxes drawn are invalid
    ("60", [
        "ccd,0,0,0,0,3/8,0.375,3/8,0.375,,,,,false,false,true,0,0",
        "ccd,3/8,0.375,0,0,5/8,0.625,5/8,0.625,0,0,1,1,true,false,false,3/2,1.5",
        "ccd,3/8,0.375,3/8,0.375,3/8,0.375,1/4,0.25,1,1,2/3,0.666666666666,"
        "true,false,false,-1/2,-0.5",
        "ccd,7/8,0.875,1/8,0.125,3/4,0.75,0,0,1/7,0.142857142857,1/7,0.142857142857,"
        "false,false,true,0,0",
    ]),
])
def test_sweep_sample_csv_is_pinned(capsys, sample, rows):
    code, out, err = run(capsys, "sweep", "--family", "ccd", "--sample", sample, "--seed", "11")
    assert code == 0
    assert out.splitlines() == [SWEEP_HEADER, *rows]
    assert f"skipped {int(sample) - len(rows)} grid points" in err


def test_sampled_tuples_are_pinned():
    # each tuple holds the numerators k of the values k/8
    assert _sample_tuples(6, 11) == [
        (0, 6, 7, 2), (0, 8, 1, 0), (4, 2, 1, 8), (7, 2, 1, 7), (7, 8, 7, 7), (8, 3, 2, 8)
    ]
    assert _sample_tuples(0, 11) == []


def test_the_largest_sample_is_every_tuple():
    assert _sample_tuples(6561, 5) == list(product(range(9), repeat=4))


def test_sweep_pr_single_row(capsys):
    code, out, err = run(capsys, "sweep", "--family", "pr")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["ccd"] == "true"
    assert rows[0]["sd"] == "true"
    assert rows[0]["local"] == "false"
    assert rows[0]["gap"] == "-2"
    assert rows[0]["r"] == ""


def test_sweep_bad_grid(capsys):
    code, out, err = run(capsys, "sweep", "--family", "ccd", "--grid", "r=0:1")
    assert code == 2


def test_sweep_grid_repeated_axis_is_a_parse_error(capsys):
    grid = "r=0,r=1/2,s=1/2,t=1/2,u=0"
    code, out, err = run(capsys, "sweep", "--family", "ccd", "--grid", grid)
    assert code == 2
    assert "'r' given twice" in err
    assert out == ""


def test_sweep_grid_empty_axis_name_is_a_parse_error(capsys):
    code, out, err = run(capsys, "sweep", "--family", "ccd", "--grid", "=1,r=0,s=0,t=0,u=0")
    assert code == 2
    assert "'=1'" in err
    assert out == ""


def test_sweep_needs_grid_or_sample(capsys):
    code, out, err = run(capsys, "sweep", "--family", "ccd")
    assert code == 2


def test_sweep_sample_beyond_the_distinct_tuples_is_a_parse_error(capsys):
    # r, s, t, u range over k/8, so only 9**4 = 6561 distinct tuples exist
    code, out, err = run(capsys, "sweep", "--family", "ccd", "--sample", "6562")
    assert code == 2
    assert "6561" in err


def test_sweep_negative_sample_is_a_parse_error(capsys):
    code, out, err = run(capsys, "sweep", "--family", "ccd", "--sample", "-3")
    assert code == 2
    assert out == ""


def test_sweep_grid_unknown_axis_is_a_parse_error(capsys):
    # rejected before the points are counted: the extra axis alone would
    # take the grid past MAX_GRID_POINTS (exit 4)
    for grid in ("r=0,s=0,t=0,u=0,zzz=0:1:1/8", "r=0,s=0,t=0,u=0,zzz=0:1:1/100000000"):
        code, out, err = run(capsys, "sweep", "--family", "ccd", "--grid", grid)
        assert code == 2
        assert "unknown grid axes ['zzz']" in err
        assert out == ""


@pytest.mark.parametrize("family", ["pr", "uniform"])
@pytest.mark.parametrize("option", [["--grid", "zzz=3"], ["--sample", "5"]])
def test_sweep_fixed_family_rejects_grid_and_sample(capsys, family, option):
    code, out, err = run(capsys, "sweep", "--family", family, *option)
    assert code == 2
    assert "takes no --grid or --sample" in err
    assert out == ""


@pytest.mark.parametrize("family", ["ccd", "sd"])
def test_sweep_table_family_rejects_grid_and_sample_together(capsys, family):
    code, out, err = run(capsys, "sweep", "--family", family,
                         "--grid", "r=1/4,s=1/4,t=1/4,u=0", "--sample", "3", "--seed", "1")
    assert code == 2
    assert "takes --grid or --sample, not both" in err
    assert out == ""


def test_sweep_grid_beyond_the_point_budget_exits_at_once(capsys):
    # 10**8 + 1 points on one axis: counted, never built
    grid = "r=0:1:1/100000000,s=0,t=0,u=0"
    code, out, err = run(capsys, "sweep", "--family", "ccd", "--grid", grid)
    assert code == 4
    assert "100000001" in err
    assert out == ""


def test_sweep_grid_with_an_empty_axis_builds_no_axis(capsys):
    # r is empty, so the grid has no point; its 10**8 + 1 values of s are
    # counted, never built
    grid = "r=1:0:1,s=0:1:1/100000000,t=0,u=0"
    assert _parse_grid(grid) == (10**8, {"r": [], "s": [], "t": [], "u": []})
    code, out, err = run(capsys, "sweep", "--family", "ccd", "--grid", grid)
    assert (code, out, err) == (0, ",".join(SWEEP_COLUMNS) + "\r\n", "")


@pytest.mark.parametrize("argv", [
    ["--family", "pr", "--seed", "3"],
    ["--family", "ccd", "--grid", "r=1/4,s=1/4,t=1/4,u=0", "--seed", "5"],
])
def test_sweep_seed_without_sample_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, "sweep", *argv)
    assert code == 2
    assert "--seed applies only with --sample" in err
    assert out == ""


def test_a_failed_sweep_writes_no_output_file(tmp_path, capsys):
    # the grid's one point is too long for a Box (see below), so the sweep
    # exits 2: the file is neither created nor replaced
    zeros = "0" * 3999
    grid = f"r=2,s=1/7{zeros},t=1/3{zeros},u=0"
    path = tmp_path / "f.csv"
    code, out, err = run(capsys, "sweep", "--family", "ccd", "--grid", grid,
                         "--output", str(path))
    assert code == 2 and out == ""
    assert not path.exists()
    path.write_text("kept\n")
    code, out, err = run(capsys, "sweep", "--family", "ccd", "--grid", grid,
                         "--output", str(path))
    assert code == 2
    assert path.read_text() == "kept\n"


# sha256 of the stdout of the sweep over the full k/8 grid: every row, in
# order, byte for byte (the csv module ends lines with \r\n)
EIGHTHS_SWEEP_SHA256 = {
    "ccd": (425, "a9540b3c2b03709b501003c80840242ced141078aa0473abb0dd7e5df391cf6d"),
    "sd": (295, "9796d00c549b037a5dd07b3486649fc27d0c1ac77f319071f17959bf0b365450"),
}


@pytest.mark.parametrize("family", sorted(EIGHTHS_SWEEP_SHA256))
def test_sweep_over_the_eighths_grid_is_pinned(capsys, family):
    grid = "r=0:1:1/8,s=0:1:1/8,t=0:1:1/8,u=0:1:1/8"
    code, out, err = run(capsys, "sweep", "--family", family, "--grid", grid)
    assert code == 0
    rows, digest = EIGHTHS_SWEEP_SHA256[family]
    assert out.count("\r\n") == rows + 1  # the header and one line per valid box
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_grid_at_eighths_is_within_the_point_budget():
    D, grid = _parse_grid("r=0:1:1/8,s=0:1:1/8,t=0:1:1/8,u=0:1:1/8")
    assert D == 8
    assert all(values == list(range(9)) for values in grid.values())
    assert _parse_grid("r=1/2:1/4:1/8,s=1/3")[1]["r"] == []


@pytest.mark.parametrize("text", [
    "r=0.1:0.9:0.05,s=1/3:2/3:1/12,t=0,u=1",
    "r=-1/2:1/2:1/3,s=2/4,t=0.25:1:1/3,u=1/3:1/3:1/2",
    "r=0:1:3/10,s=1e-1:0.35:1/20,t=7,u=1/2:1/4:1/8",
    "r=0:1:3/10,s=1e-1:0.35:1/20,t=7,u=1/4:1/2:1/8",
])
def test_grid_points_are_the_exact_steps_of_each_axis(text):
    # the points are ints over D; over D they must equal start + k * step
    # in Fraction arithmetic, k = 0 .. floor((stop - start)/step); a grid
    # with an empty axis has no point, and builds no axis
    D, grid = _parse_grid(text)
    expected = {}
    for item in text.split(","):
        name, _, axis = item.partition("=")
        if ":" in axis:
            start, stop, step = (F(p) for p in axis.split(":"))
            count = (stop - start) // step + 1 if stop >= start else 0
            expected[name] = [start + k * step for k in range(count)]
        else:
            expected[name] = [F(axis)]
    if not all(expected.values()):
        expected = {name: [] for name in expected}
    assert {name: [F(v, D) for v in values] for name, values in grid.items()} == expected
    assert all(type(v) is int for values in grid.values() for v in values)


def reference_sweep(family, text):
    """The sweep CSV and stderr built point by point: each box from the
    family's public constructor, checked with validate(...).ok."""
    maker = ab.ccd_table_box if family == "ccd" else ab.sd_table_box
    D, grid = _parse_grid(text)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=SWEEP_COLUMNS)
    writer.writeheader()
    skipped = 0
    for nums in product(*(grid[name] for name in "rstu")):
        values = [F(v, D) for v in nums]
        box = maker(*values)
        if not ab.validate(box).ok:
            skipped += 1
            continue
        report = ab.detect_ccd(box)
        row = {
            "family": family,
            "ccd": str(report.ccd).lower(),
            "sd": str(report.sd).lower(),
            "local": str(ab.is_local(box).local).lower(),
        }
        cells = (*zip("rstu", values), ("qA", report.hierarchy.qA),
                 ("qB", report.hierarchy.qB), ("gap", ab.tsirelson_obstruction(box)))
        for name, value in cells:
            row[name] = ab.rat_str(value) if value is not None else ""
            row[name + "_dec"] = ab.rat_dec(value) if value is not None else ""
        writer.writerow(row)
    note = f"note: skipped {skipped} grid points with invalid boxes\n" if skipped else ""
    return out.getvalue(), note


@pytest.mark.parametrize("family", ["ccd", "sd"])
@pytest.mark.parametrize("text", [
    "r=0.1:0.9:0.05,s=1/3:2/3:1/12,t=0,u=1",
    "r=-1/2:1/2:1/3,s=2/4,t=0.25:1:1/3,u=1/3:1/3:1/2",
    "r=0:1:3/10,s=1e-1:0.35:1/20,t=7,u=1/2:1/4:1/8",
    # the grids above have no valid point; this one has 99 (ccd) and 36 (sd)
    "r=0:1:1/6,s=0:1/2:1/8,t=1/4:3/4:1/5,u=0:1/2:1/10",
])
def test_sweep_over_mixed_denominators_matches_the_point_by_point_sweep(capsys, family, text):
    # the sweep builds every box over one denominator for the whole grid,
    # which differs from most points' own
    code, out, err = run(capsys, "sweep", "--family", family, "--grid", text)
    assert code == 0
    assert (out, err) == reference_sweep(family, text)


@pytest.mark.parametrize("family", ["ccd", "sd"])
def test_a_sweep_row_needs_the_full_validity_check(monkeypatch, capsys, family):
    # a point whose entries are all in [0, 1] still gets its Box and
    # validate: with validate refusing every box, no row is written and
    # every point, in range or not, is counted as skipped
    refused = ab.ValidationResult(False, (), ("refused",))
    monkeypatch.setattr(cli, "validate", lambda box: refused)
    grid = "r=0:1:1/8,s=0:1:1/8,t=0:1:1/8,u=0:1:1/8"
    code, out, err = run(capsys, "sweep", "--family", family, "--grid", grid)
    assert code == 0
    assert out == ",".join(SWEEP_COLUMNS) + "\r\n"
    assert err == "note: skipped 6561 grid points with invalid boxes\n"


@pytest.mark.parametrize("family", ["ccd", "sd"])
def test_a_sweep_point_too_long_for_a_box_exits_2(capsys, family):
    # r = 2 is out of range, but the grid's denominator, the lcm of
    # 7 * 10**3999 and 3 * 10**3999, has 4,002 digits: the point is not
    # skipped by its range, and Box refuses it
    zeros = "0" * 3999
    grid = f"r=2,s=1/7{zeros},t=1/3{zeros},u=0"
    code, out, err = run(capsys, "sweep", "--family", family, "--grid", grid)
    assert code == 2
    assert "more than 4000 digits" in err and "skipped" not in err


# ---------------------------------------------------------------------------
# reduce and ontology

def test_reduce_split_box(tmp_path, capsys):
    path = tmp_path / "split.json"
    path.write_text(ab.box_to_json(ab.split_output(ab.pr_box())))
    code, out, err = run(capsys, "reduce", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["plan"]["mode"] == "ccd"
    assert doc["plan"]["alpha_group"] == [0, 2]
    assert doc["box"]["nA"] == 2


def test_reduce_refusal_reports(tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(ab.box_to_json(ab.uniform_box()))
    for mode, reason in (("ccd", "common certainty"), ("auto", "neither disagreement")):
        code, out, err = run(capsys, "reduce", "--input", str(path), "--mode", mode)
        assert code == 3
        assert reason in err
        assert '"ccd": false' in err


def test_ontology_flags_signed_models(tmp_path, capsys):
    path = tmp_path / "pr.json"
    path.write_text(ab.box_to_json(ab.pr_box()))
    code, out, err = run(capsys, "ontology", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["signed"] is True
    assert doc["omega"] == 16


def test_ontology_budget_exit(tmp_path, capsys):
    path = tmp_path / "u2267.json"
    path.write_text(ab.box_to_json(ab.uniform_box(2, 2, 6, 7)))  # 8192 states
    code, out, err = run(capsys, "ontology", "--input", str(path))
    assert code == 4
    assert "8192 instruction states exceed the limit 4096" in err
    assert out == ""


def test_ontology_at_the_state_limit(tmp_path, capsys):
    path = tmp_path / "u2266.json"
    path.write_text(ab.box_to_json(ab.uniform_box(2, 2, 6, 6)))  # 4096 states
    code, out, err = run(capsys, "ontology", "--input", str(path))
    assert code == 0
    assert json.loads(out)["omega"] == ab.MAX_STATES


def test_classify_beyond_the_state_limit_leaves_local_null(tmp_path, capsys):
    path = tmp_path / "u2267.json"
    path.write_text(ab.box_to_json(ab.uniform_box(2, 2, 6, 7)))
    code, out, err = run(capsys, "classify", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["local"] is None
    assert doc["conclusion"] == "NO_OBSTRUCTION_FOUND"


def test_classify_accepts_a_one_input_box(tmp_path, capsys):
    path = tmp_path / "u2212.json"
    path.write_text(ab.box_to_json(ab.uniform_box(2, 2, 1, 2)))
    code, out, err = run(capsys, "classify", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["local"] is True
    assert doc["conclusion"] == "NO_OBSTRUCTION_FOUND"


@pytest.mark.parametrize("command", ["classify", "ontology"])
def test_budget_flag_is_gone(tmp_path, capsys, command):
    path = tmp_path / "pr.json"
    path.write_text(ab.box_to_json(ab.pr_box()))
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(path), "--budget", "8"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify-classical

def test_verify_classical_tiny(capsys):
    code, out, err = run(capsys, "verify-classical", "--params", "omega=2,denom=2")
    assert code == 0
    doc = json.loads(out)
    assert doc["instances"] == 46
    assert doc["violations"] == 0
    assert doc["complete"] is True


def test_verify_classical_report_key_order(capsys):
    code, out, err = run(capsys, "verify-classical", "--params", "omega=1,denom=1")
    assert code == 0
    assert list(json.loads(out)) == [
        "bound_omega",
        "denominator_bound",
        "instances",
        "certainty_instances",
        "violations",
        "complete",
        "max_iterations",
    ]


def test_verify_classical_rejects_unknown_bounds(capsys):
    code, out, err = run(capsys, "verify-classical", "--params", "omgea=2,denom=1")
    assert code == 2
    assert "'omgea'" in err
    assert out == ""


def test_verify_classical_rejects_non_integer_bounds(capsys):
    for params in ("omega=5/2", "omega=2,denom=0.5"):
        code, out, err = run(capsys, "verify-classical", "--params", params)
        assert code == 2
        assert "not an integer" in err
        assert out == ""


@pytest.mark.parametrize("bound", ["omega", "denom"])
def test_verify_classical_rejects_bounds_below_one(capsys, bound):
    # a bound of 0 or less enumerates nothing and would pass vacuously
    for value in ("0", "-1"):
        code, out, err = run(capsys, "verify-classical", "--params", f"{bound}={value}")
        assert code == 2
        assert f"{bound}={value} is below 1" in err
        assert out == ""


def test_verify_classical_clamped_exits_budget(capsys, monkeypatch):
    import agreebox.classical as classical

    monkeypatch.setattr(classical, "HARD_OMEGA_CAP", 2)
    monkeypatch.setattr(classical, "HARD_DENOM_CAP", 2)
    code, out, err = run(capsys, "verify-classical", "--params", "omega=3,denom=3")
    assert code == 4
    assert json.loads(out)["complete"] is False


# ---------------------------------------------------------------------------
# the JSON writer and the subcommand dispatch

def test_every_json_output_is_json_dumps_with_indent_2(tmp_path, capsys):
    from dataclasses import asdict

    from agreebox.classical import model_doc
    from agreebox.classify import verdict_doc
    from agreebox.epistemic import report_doc

    def dumped(doc):
        return json.dumps(doc, indent=2) + "\n"

    box = ab.ccd_table_box(F(1, 2), F(1, 4), F(1, 2), 0)
    assert run(capsys, "generate", "--family", "ccd", "--params", "r=1/2,s=1/4,t=1/2,u=0") == (
        0, dumped(ab.box_doc(box)), "")
    path = tmp_path / "ccd.json"
    path.write_text(ab.box_to_json(box))
    assert run(capsys, "classify", "--input", str(path)) == (
        0, dumped(verdict_doc(ab.classify(box))), "")
    assert run(capsys, "ontology", "--input", str(path)) == (
        0, dumped(model_doc(ab.box_to_model(box))), "")

    split = ab.split_output(box)
    path.write_text(ab.box_to_json(split))
    reduced, plan = ab.reduce_box(split, "auto")
    assert run(capsys, "reduce", "--input", str(path)) == (
        0, dumped({"box": ab.box_doc(reduced), "plan": ab.plan_doc(plan)}), "")

    path.write_text(ab.box_to_json(ab.uniform_box()))
    with pytest.raises(ab.ReductionRefused) as refused:
        ab.reduce_box(ab.uniform_box(), "auto")
    assert run(capsys, "reduce", "--input", str(path)) == (
        3, "", f"error: {refused.value}\n" + dumped(report_doc(refused.value.report)))

    assert run(capsys, "verify-classical", "--params", "omega=3,denom=2") == (
        0, dumped(asdict(ab.verify_agreement_theorem(3, 2))), "")


@pytest.mark.parametrize("command", ["classify", "reduce", "ontology"])
@pytest.mark.parametrize("value", [True, "2"], ids=["true", "str"])
def test_a_cardinality_that_is_not_a_json_integer_exits_2(tmp_path, capsys, command, value):
    doc = ab.box_doc(ab.pr_box())
    doc["nA"] = value
    path = tmp_path / "box.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, command, "--input", str(path)) == (
        2, "", "error: box document field nA is not an integer\n")


def dispatch_argvs(box):
    """For each subcommand: a valid call, a required option missing, a bad
    choice or value, an unknown option, an extra positional, and -h."""
    return [
        ["classify", "--input", box], ["classify"], ["classify", "--input"],
        ["classify", "--input", box, "--zz"], ["classify", "--input", box, "extra"],
        ["classify", "-h"], ["classify", "--input", box, "--relabel-search"],
        ["generate", "--family", "pr"], ["generate"], ["generate", "--family", "zz"],
        ["generate", "--family", "pr", "--zz", "1"], ["generate", "--family", "pr", "extra"],
        ["generate", "--help"], ["generate", "--family=ccd", "--params", "r=1/2,s=1/4,t=1/2,u=0"],
        ["sweep", "--family", "pr"], ["sweep"], ["sweep", "--family", "zz"],
        ["sweep", "--family", "ccd", "--sample", "x"], ["sweep", "--family", "pr", "--zz"],
        ["sweep", "--family", "pr", "extra"], ["sweep", "-h"],
        ["reduce", "--input", box], ["reduce", "--mode", "sd"],
        ["reduce", "--input", box, "--mode", "zz"],
        ["reduce", "--input", box, "--zz"], ["reduce", "--input", box, "extra", "more"],
        ["reduce", "-h"], ["reduce", "--input", box, "--version"],
        ["ontology", "--input", box], ["ontology"], ["ontology", "--input", box, "--mode", "ccd"],
        ["ontology", "--input", box, "--zz"], ["ontology", "--input", box, "extra"],
        ["ontology", "-h"],
        ["verify-classical", "--params", "omega=2,denom=2"], ["verify-classical", "--params"],
        ["verify-classical", "--zz"], ["verify-classical", "extra"], ["verify-classical", "-h"],
        [], ["-h"], ["--version"], ["zz"], ["--zz", "reduce"], ["-h", "reduce"],
    ]


def dispatch_outcome(capsys, argv):
    """main's exit code, or argparse's SystemExit, with stdout and stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_subcommand_dispatch_matches_the_top_level_parse(tmp_path, capsys, monkeypatch):
    # main parses "<command> ..." with the subcommand's parser; with no
    # subcommand parsers recorded it goes through _PARSER.parse_args alone
    box = tmp_path / "split.json"
    box.write_text(ab.box_to_json(ab.split_output(ab.pr_box())))
    argvs = dispatch_argvs(str(box))
    direct = [dispatch_outcome(capsys, argv) for argv in argvs]
    monkeypatch.setattr(cli, "_COMMANDS", {})
    through_parser = [dispatch_outcome(capsys, argv) for argv in argvs]
    for argv, got, want in zip(argvs, direct, through_parser):
        assert got == want, argv
    # every case ran: valid calls, usage errors, help texts
    assert {code for code, _, _ in direct} >= {0, ("exit", 0), ("exit", 2)}


# each option, with unique and ambiguous prefixes, and the values it is given
DISPATCH_OPTIONS = {
    "--input": ["box.json", "missing.json"], "--in": ["box.json"],
    "--output": ["out.json"], "--out": ["out.json"], "--o": ["out.json"],
    "--relabel-search": [], "--rel": [],
    "--family": ["ccd", "sd", "pr", "uniform", "zz"], "--fam": ["pr"], "--f": ["uniform"],
    "--params": ["r=1/2,s=1/4,t=1/2,u=0", "r=1/2", "omega=2,denom=2", "omega=0", ""],
    "--par": ["omega=2,denom=1"], "--p": ["r=1/2"],
    "--grid": ["r=0:1:1/2,s=0,t=1/2,u=0", "r=1/2", ""], "--gr": ["r=0,s=0,t=0,u=0"],
    "--sample": ["0", "1", "-1", "x"], "--sa": ["2"], "--seed": ["0", "3", "x"], "--se": ["1"],
    "--s": ["1"], "--mode": ["auto", "ccd", "sd", "zz"], "--mo": ["sd"],
    "--zz": ["1"], "--vers": [], "--he": [],
}
dispatch_commands = sorted(cli._COMMANDS) + ["zz"]


def option_tokens(option):
    """The option alone if it takes no value, else "--option value" or "--option=value"."""
    values = DISPATCH_OPTIONS[option]
    if not values:
        return st.just([option])
    return st.sampled_from(values).flatmap(
        lambda value: st.sampled_from([[option, value], [f"{option}={value}"]]))


# an argv is an optional subcommand, then options with their values, bare
# flags, "--", and stray names and values
dispatch_items = (
    st.sampled_from(list(DISPATCH_OPTIONS)).flatmap(option_tokens)
    | st.sampled_from([*DISPATCH_OPTIONS, "--", "-h", "--help", "--version"]).map(lambda t: [t])
    | st.sampled_from([*dispatch_commands, "box.json", "extra", "1"]).map(lambda t: [t])
)
dispatch_argv = st.builds(
    lambda head, items: head + [token for item in items for token in item],
    st.sampled_from([[]] + [[command] for command in dispatch_commands]),
    st.lists(dispatch_items, max_size=5),
)


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=dispatch_argv)
def test_random_argvs_dispatch_as_the_top_level_parse(tmp_path, capsys, monkeypatch, argv):
    # each parse runs in a fresh directory that holds box.json, so that what
    # one run writes with --output cannot reach the other
    box_text = ab.box_to_json(ab.split_output(ab.pr_box()))

    def outcome():
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        (work / "box.json").write_text(box_text)
        with monkeypatch.context() as m:
            m.chdir(work)
            return dispatch_outcome(capsys, argv)

    direct = outcome()
    with monkeypatch.context() as m:
        m.setattr(cli, "_COMMANDS", {})
        assert outcome() == direct


# ---------------------------------------------------------------------------
# every argv ends in a documented exit code

def fuzz_documents():
    """The file name -> bytes of the inputs each fuzzed run finds in its
    directory: small 2222 box documents, valid or not, and files that are
    no box document."""
    ccd = ab.ccd_table_box(F(1, 2), F(1, 4), F(1, 2), F(0))
    signaling = ab.box_doc(ab.pr_box())
    signaling["p"]["0,0"] = [["1", "0"], ["0", "0"]]
    signaling["p"]["0,1"] = [["0", "0"], ["0", "1"]]
    docs = {
        "pr.json": ab.box_to_json(ab.pr_box()),
        "ccd.json": ab.box_to_json(ccd),
        "uniform.json": ab.box_to_json(ab.uniform_box()),
        "signaling.json": json.dumps(signaling),
        "list.json": "[1, 2]",
        "broken.json": '{"nA": 2,',
        "empty.json": "",
    }
    for name, entry in [("arabic", "\u0661/\u0662"), ("fullwidth", "\uff11"),
                        ("underscore", "1_0"), ("huge", "1e99999999")]:
        doc = ab.box_doc(ab.pr_box())
        doc["p"]["0,0"][0][0] = entry
        docs[f"{name}.json"] = json.dumps(doc)
    files = {name: text.encode() for name, text in docs.items()}
    files["latin1.json"] = ab.box_to_json(ab.pr_box()).replace("1/2", "\xbd").encode("latin-1")
    return files


FUZZ_FILES = fuzz_documents()
# inputs: the documents above, a missing file, two directories and a path
# with a NUL character
FUZZ_INPUTS = [*FUZZ_FILES, "missing.json", ".", "sub", "pr\0.json"]
# outputs: a new file, a directory, a path under a missing directory, one
# under a file and one with a NUL character
FUZZ_OUTPUTS = ["out.json", "-", ".", "sub", "nowhere/out.json", "pr.json/out.json", "out\0.json"]
FUZZ_FAMILIES = ["ccd", "sd", "pr", "uniform", "zz", "CCD", "\u0661"]
# family parameters and verify-classical bounds (at most omega=4, denom=3
# with the defaults, so that no run takes long)
FUZZ_PARAMS = [
    "r=1/2,s=1/4,t=1/2,u=0", "r=0.5,s=0.25,t=0.5,u=0", "r=1,s=0,t=0,u=0",
    "r=3/4,s=1/4,t=1/4,u=1/4", "r=2,s=0,t=0,u=0", "r=-1/2,s=0,t=0,u=0", "r=1/2",
    "r=1/0,s=0,t=0,u=0", "r=1_0,s=0,t=0,u=0", "r=\u0661/\u0662,s=0,t=0,u=0",
    "r=\xa01/2,s=0,t=0,u=0", "r=1e99999999,s=0,t=0,u=0", "r=x,s=0,t=0,u=0",
    "r=1/2,r=1/2", "=1", "r", "zz=1", "omega=2,denom=2", "omega=4,denom=3",
    "omega=3", "denom=1", "omega=0,denom=2", "omega=1/2", "omega=-1", "omega=\uff12",
    "omega=2.0,denom=1e0",
]
FUZZ_GRIDS = [
    "r=0:1:1/2,s=0,t=1/2,u=0", "r=0:1:1/4,s=1/4,t=1/2,u=0", "r=1/2,s=1/4,t=1/2,u=0",
    "r=0:1:1/2,s=0:1:1/2,t=0:1:1/2,u=0:1:1/2", "r=1:0:1,s=0,t=0,u=0",
    "r=0:1:0,s=0,t=0,u=0", "r=0:1:-1/2,s=0,t=0,u=0", "r=0:1,s=0,t=0,u=0",
    "r=0:1:1/1000,s=0:1:1/1000,t=0,u=0", "r=0:1:1e-99999999,s=0,t=0,u=0",
    "r=\u0660:1:1/2,s=0,t=0,u=0", "r=0:1:1/1_0,s=0,t=0,u=0", "r=0:1:1/2",
    "r=0,r=0", "zz=1", "", " ",
]
FUZZ_OPTIONS = {
    "--input": FUZZ_INPUTS, "--output": FUZZ_OUTPUTS, "--family": FUZZ_FAMILIES,
    "--params": FUZZ_PARAMS, "--grid": FUZZ_GRIDS,
    "--sample": ["0", "1", "3", "-1", "6562", "1/2", "x", "\uff13"],
    "--seed": ["0", "7", "-3", "x"], "--mode": ["auto", "ccd", "sd", "zz"],
}
# each subcommand's options, the ones it needs first
FUZZ_COMMANDS = {
    "classify": ["--input", "--output", "--relabel-search"],
    "reduce": ["--input", "--output", "--mode"],
    "ontology": ["--input", "--output"],
    "generate": ["--family", "--params", "--output"],
    "sweep": ["--family", "--grid", "--sample", "--seed", "--output"],
    "verify-classical": ["--params", "--output"],
}


def fuzz_option(option):
    """option and one of its values, as two tokens or as option=value."""
    if option not in FUZZ_OPTIONS:
        return st.just([option])
    return st.sampled_from(FUZZ_OPTIONS[option]).flatmap(
        lambda value: st.sampled_from([[option, value], [f"{option}={value}"]]))


# what does not belong: another subcommand's option, a bare option, a flag
# that exits early, "--" and a stray token
fuzz_strays = (
    st.sampled_from(sorted(FUZZ_OPTIONS)).flatmap(fuzz_option)
    | st.sampled_from(["--relabel-search", "--", "-h", "--version", "--zz", "extra",
                       "--input", "--output"]).map(lambda token: [token])
)


@st.composite
def fuzz_argvs(draw):
    """A subcommand, the option it needs (left out now and then), then up
    to three more tokens, most of them its own options."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    options = FUZZ_COMMANDS[command]
    argv = [command]
    if draw(st.integers(0, 9)):
        argv += draw(fuzz_option(options[0]))
    for _ in range(draw(st.integers(0, 3))):
        stray = not draw(st.integers(0, 4))
        argv += draw(fuzz_strays if stray else st.sampled_from(options).flatmap(fuzz_option))
    return argv


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fuzz_argvs())
def test_random_argvs_end_in_a_documented_exit_code(tmp_path, capsys, monkeypatch, argv):
    # each run gets a fresh directory holding the input files, so that what
    # one run writes cannot reach the next; argparse's usage errors and its
    # -h and --version exit through SystemExit, with 2 and 0; no run may
    # take 10 s (the slowest take under 50 ms)
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    (work / "sub").mkdir()
    for name, data in FUZZ_FILES.items():
        (work / name).write_bytes(data)
    with monkeypatch.context() as m:
        m.chdir(work)
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (argv, err)
    assert "Traceback" not in err
    assert elapsed < 10, argv
