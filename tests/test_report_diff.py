"""tools/report_diff.py: runs two trees on the shipped scenarios and prints
one line per difference of their outputs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("report_diff", ROOT / "tools" / "report_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tree_against_itself(capsys):
    tool = load_tool()
    assert tool.main([str(ROOT), str(ROOT), "closure_two_mode_quintic", "instability_part1"]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "2 scenarios, 0 differences\n"


def _write(root: Path, files: dict) -> None:
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())


def test_comparison_skips_runtimes_only(tmp_path):
    report = {"content_hash": "ab", "results": {"gap": 0.5, "rows": [1, 2]},
              "runtimes": {"total": 0.1}}
    csv_old = b"eps,runtime,status\n0.5,0.012,ok\n0.25,0.020,ok\n"
    old = {
        "codes.json": {"a": 0, "b": 0},
        "stdout.json": {"a": "x 1\ny 2\n", "b": "same\n"},
        "a/converge_report.json": report,
        "a/convergence.csv": csv_old,
        "b/gap_curve.csv": b"t,gap\n0,0\n",
        "b/edges.csv": b"x\n",
        "b/modes.csv": b"k0,generation\n1,0\n",
    }
    new = {
        "codes.json": {"a": 0, "b": 1},
        "stdout.json": {"a": "x 1\ny 3\nz\n", "b": "same\n"},
        "a/converge_report.json": {
            **report, "results": {"gap": 0.5, "rows": [1, 2.0]}, "runtimes": {"total": 9.0},
        },
        "a/convergence.csv": b"eps,runtime,status\n0.5,0.999,ok\n0.25,0.020,failed\n",
        "b/gap_curve.csv": b"t,gap\n0,1e-17\n",
        "b/modes.csv": b"k0,generation\n1,0\n2,1\n",
        "b/trajectory.csv": b"x\n",
    }
    _write(tmp_path / "old", old)
    _write(tmp_path / "new", new)
    tool = load_tool()
    lines = tool.diff_outputs(tmp_path / "old", tmp_path / "new")
    assert lines == [
        "a/converge_report.json.results.rows[1]: 2 != 2.0",
        "a/convergence.csv: row 2: ['0.25', 'ok'] != ['0.25', 'failed']",
        "b/edges.csv: only in old",
        "b/gap_curve.csv: 1 of 4 cells differ, largest relative difference 1",
        "b/modes.csv: files differ",  # a row more: no cell by cell comparison
        "b/trajectory.csv: only in new",
        "exit.b: 0 != 1",
        "stdout.a[1]: 'y 2' != 'y 3'",  # one line per differing stdout line
        "stdout.a[2]: None != 'z'",
    ]
    # the same roots on both sides differ nowhere
    assert tool.diff_outputs(tmp_path / "old", tmp_path / "old") == []


def test_differences_carry_their_size():
    tool = load_tool()
    assert tool.diff_values({"gap": 0.5, "n": 3, "ok": True}, {"gap": 0.5000000000000001,
                            "n": 4, "ok": False}, "r") == [
        "r.gap: 0.5 != 0.5000000000000001 (relative 2.22e-16)",
        "r.n: 3 != 4 (relative 0.25)",
        "r.ok: True != False",
    ]
    old = b"t,gap,note\n0,1.0,a\n0.5,2.0,b\n1,4.0,c\n"
    new = b"t,gap,note\n0,1.0,a\n0.5,2.000000000000001,b\n1,4.0000000000000036,d\n"
    assert tool.diff_file("x/gap_curve.csv", old, new) == [
        "x/gap_curve.csv: 3 of 12 cells differ, largest relative difference 8.88e-16, "
        "1 not numeric"
    ]
    assert tool.diff_file("x/gap_curve.csv", old, old) == []


def test_csv_cells_are_compared_by_column_name():
    tool = load_tool()
    old = b"eps,grid_n,dt,sup_error,rung,runtime,status\n0.5,16,0.01,1e-3,8,0.1,ok\n"
    moved = b"eps,grid_n,sup_error,rung,dt,runtime,status\n0.5,16,1e-3,8,0.01,0.2,ok\n"
    # a header that only reorders: one line naming the moved column, and the
    # cells, compared by name, are equal
    assert tool.diff_file("a/convergence.csv", old, moved) == [
        "a/convergence.csv: columns moved: dt"
    ]
    changed = b"eps,grid_n,sup_error,rung,dt,runtime,status\n0.5,16,1e-3,4,0.02,0.2,ok\n"
    assert tool.diff_file("a/convergence.csv", old, changed) == [
        "a/convergence.csv: columns moved: dt",
        "a/convergence.csv: row 1: ['0.5', '16', '0.01', '1e-3', '8', 'ok'] != "
        "['0.5', '16', '0.02', '1e-3', '4', 'ok']",
    ]
    # the other CSV files too, cell by cell; of two swapped columns, the
    # one that left the old header's first column is named
    assert tool.diff_file("b/gap_curve.csv", b"t,gap\n0,1.0\n", b"gap,t\n1.0,0\n") == [
        "b/gap_curve.csv: columns moved: gap"
    ]
    assert tool.diff_file("b/gap_curve.csv", b"t,gap\n0,1.0\n", b"gap,t\n2.0,0\n") == [
        "b/gap_curve.csv: columns moved: gap",
        "b/gap_curve.csv: 1 of 4 cells differ, largest relative difference 0.5",
    ]
    # a column added or renamed is no reordering
    assert tool.diff_file("b/gap_curve.csv", b"t,gap\n0,1\n", b"t,gap,x\n0,1,2\n") == [
        "b/gap_curve.csv: files differ"
    ]


def test_key_map_moves_old_keys_and_compares_every_value(tmp_path, capsys):
    tool = load_tool()
    key_map = tmp_path / "map.json"
    key_map.write_text(json.dumps({
        "results.rows[].l2_drift": "results.rows[].check.drift",
        "results.profile.check.rung": "results.profile.rung",
        "results.profile.rk4_steps": "results.profile.steps",
    }))
    pairs = tool.load_key_map(key_map)
    old = {"content_hash": "ab", "runtimes": {"total": 0.1}, "results": {
        "rows": [{"l2_drift": 1e-15, "check": {"rung": 8}}, {"l2_drift": None, "check": None}],
        "profile": {"check": {"rung": 16}, "rk4_steps": 99},
    }}
    new = {"content_hash": "cd", "results": {
        "rows": [{"check": {"rung": 8, "drift": 1e-15}}, {"check": None}],
        "profile": {"rung": 16, "steps": 99},
    }}
    rel = "a/converge_report.json"
    # the emptied profile.check is dropped; a failed row's null check takes
    # no key, so its old one stays in view; the hashes are not compared
    assert tool.diff_file(rel, json.dumps(old).encode(), json.dumps(new).encode(), pairs) == [
        f"{rel}.results.rows[1].l2_drift: only in old"
    ]
    new["results"]["rows"][0]["check"]["drift"] = 2e-15
    assert tool.diff_file(rel, json.dumps(old).encode(), json.dumps(new).encode(), pairs)[0] == (
        f"{rel}.results.rows[0].check.drift: 1e-15 != 2e-15 (relative 0.5)"
    )
    # without a map, the hash is compared and nothing moves
    assert f"{rel}.content_hash: 'ab' != 'cd'" in tool.diff_file(
        rel, json.dumps(old).encode(), json.dumps(new).encode()
    )
    # a [] off the common prefix names no element to move to
    key_map.write_text(json.dumps({"results.rows[].x": "results.other[].x"}))
    with pytest.raises(SystemExit, match="common prefix"):
        tool.load_key_map(key_map)
    key_map.write_text("{}")
    assert tool.main(["--key-map", str(key_map), str(ROOT), str(ROOT),
                      "closure_two_mode_quintic"]) == 0
    assert capsys.readouterr().err == "1 scenarios, 0 differences\n"
