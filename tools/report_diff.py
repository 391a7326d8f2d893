"""Compare what two source trees report on the shipped scenarios.

    python tools/report_diff.py [--key-map FILE] OLD_TREE NEW_TREE [SCENARIO ...]

Each tree's `src/` runs the scenarios through `experiments_cli`, in one
subprocess per tree (the two run side by side), each into a fresh
directory; each command's stdout is kept, its stderr dropped (warnings
name source lines, which move with any edit).  The scenarios are every
file of NEW_TREE's `scenarios/`, or the ones named, by stem
(`instability_part1`) or by path; both trees run the same files.  Compared
per scenario: the exit code, the stdout line by line, each report without
its `runtimes` (so its `content_hash` is compared), and every side file:
`convergence.csv` row by row without its `runtime` column, the other CSV
files cell by cell, the rest byte for byte.  CSV cells are compared by
column name: a header that only reorders the old one's columns gets one
line naming the moved columns, and the new file's columns are then put in
the old order.  One line is printed per difference (per stdout line that
differs, among others); two numbers that differ carry their relative
difference |a - b| / max(|a|, |b|), and a CSV file of unchanged shape gets
one line with the number of differing cells and the largest relative
difference among them.  The exit status is 1 if anything differs, else 0.

A layout change that moves report keys is shown with --key-map FILE: a
JSON object from an old dotted key path to a new one, relative to the
report root, where "key[]" stands for every element of the list under key
(`{"results.rows[].l2_drift": "results.rows[].check.drift"}`).  Both paths
of an entry walk the same lists, so each "[]" lies on their common prefix.
Each entry moves its value in the old tree's reports, creating the objects
the new path names and dropping the ones it empties, before the reports
are compared; a path that the old report lacks is skipped.  With a map
every value is compared, so `content_hash`, which the moved keys change, is
left out.
"""

from __future__ import annotations

import csv
import difflib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

# Runs in each tree's process: argv is the output root, then the scenarios.
# Each scenario's exit code goes into codes.json and its stdout into
# stdout.json; a command that raises stops the run, and its traceback is
# printed.
RUNNER = """
import contextlib, io, json, os, sys
from nlsoptics.experiments_cli import run

out, codes, stdout = sys.argv[1], {}, {}
for path in sys.argv[2:]:
    name = os.path.splitext(os.path.basename(path))[0]
    with open(path) as fh:
        command = json.load(fh)["experiment"]["type"]
    with contextlib.redirect_stdout(io.StringIO()) as log:
        codes[name] = run([command, "--scenario", path, "--out", os.path.join(out, name)])
    stdout[name] = log.getvalue()
os.makedirs(out, exist_ok=True)
for file, value in (("codes.json", codes), ("stdout.json", stdout)):
    with open(os.path.join(out, file), "w") as fh:
        json.dump(value, fh)
"""


def scenario_paths(tree: Path, names) -> list[Path]:
    """The named scenarios (stems resolve in tree's scenarios/), or all."""
    if not names:
        return sorted((tree / "scenarios").glob("*.json"))
    found = []
    for name in names:
        path = Path(name)
        if not path.is_file():
            path = tree / "scenarios" / f"{name}.json"
        if not path.is_file():
            raise SystemExit(f"report_diff: no scenario {name!r}")
        found.append(path.resolve())
    return found


def run_trees(trees, scenarios, outs) -> None:
    """Run every scenario under each tree's src/, one process per tree."""
    procs = []
    for tree, out in zip(trees, outs):
        env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}
        argv = [sys.executable, "-c", RUNNER, str(out), *map(str, scenarios)]
        procs.append((tree, subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
        )))
    for tree, proc in procs:
        _, err = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f"report_diff: {tree} failed to run:\n{err}")


def diff_values(old, new, where: str) -> list[str]:
    """One line per leaf where two JSON values differ (types included)."""
    if isinstance(old, dict) and isinstance(new, dict):
        lines = []
        for key in sorted(old.keys() | new.keys()):
            at = f"{where}.{key}"
            if key not in new:
                lines.append(f"{at}: only in old")
            elif key not in old:
                lines.append(f"{at}: only in new")
            else:
                lines += diff_values(old[key], new[key], at)
        return lines
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [
            line for i, (a, b) in enumerate(zip(old, new))
            for line in diff_values(a, b, f"{where}[{i}]")
        ]
    if type(old) is not type(new) or old != new:
        line = f"{where}: {old!r} != {new!r}"
        if _is_number(old) and _is_number(new) and old != new:
            line += f" (relative {_relative(old, new):.3g})"
        return [line]
    return []


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _relative(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|); inf when either is not finite, 0 for 0 and -0."""
    scale = max(abs(a), abs(b))
    if scale == 0:
        return 0.0
    r = abs(a - b) / scale
    return r if math.isfinite(r) else math.inf


def _cell_number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def diff_csv_cells(rel: str, a: list[list[str]], b: list[list[str]]) -> list[str]:
    """One line for two CSV tables of one shape: how many cells differ and
    the largest relative difference of the numeric ones."""
    cells = [(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb) if x != y]
    if not cells:
        return []
    numbers = [(_cell_number(x), _cell_number(y)) for x, y in cells]
    rels = [_relative(x, y) for x, y in numbers if x is not None and y is not None]
    line = f"{rel}: {len(cells)} of {sum(map(len, a))} cells differ"
    if rels:
        line += f", largest relative difference {max(rels):.3g}"
    if len(rels) < len(cells):
        line += f", {len(cells) - len(rels)} not numeric"
    return [line]


def _csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode())))


def _csv_without(data: bytes, column: str) -> list[list[str]]:
    rows = _csv_rows(data)
    drop = rows[0].index(column) if rows and column in rows[0] else None
    return [[c for i, c in enumerate(row) if i != drop] for row in rows]


def in_old_order(rel: str, a: list[list[str]], b: list[list[str]]):
    """(lines, b): when b's header only reorders a's distinct column names,
    one line naming the columns that moved (those outside the longest run of
    common order) and b's columns put in a's order; else no line and b."""
    old, new = (a or [[]])[0], (b or [[]])[0]
    if old == new or sorted(old) != sorted(new) or len(set(old)) != len(old):
        return [], b
    blocks = difflib.SequenceMatcher(None, old, new, autojunk=False).get_matching_blocks()
    kept = {name for i, _, size in blocks for name in old[i:i + size]}
    moved = [name for name in new if name not in kept]
    order = [new.index(name) for name in old]
    return [f"{rel}: columns moved: {', '.join(moved)}"], [[row[i] for i in order] for row in b]


def load_key_map(path) -> list[tuple[list[str], list[str]]]:
    """The (old, new) key paths of a --key-map file, split at the dots."""
    with open(path) as fh:
        entries = json.load(fh)
    if not isinstance(entries, dict):
        raise SystemExit(f"report_diff: {path}: a key map is a JSON object")
    pairs = []
    for old, new in entries.items():
        old, new = old.split("."), str(new).split(".")
        common = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                      min(len(old), len(new)))
        if common == len(old) or common == len(new) or any(
            key.endswith("[]") for key in old[common:] + new[common:]
        ):
            raise SystemExit(f"report_diff: {path}: cannot move {'.'.join(old)} to "
                             f"{'.'.join(new)}; each [] must lie on both paths' common prefix")
        pairs.append((old, new))
    return pairs


def move_key(tree, old: list[str], new: list[str]) -> None:
    """Move the value at the key path old to new in a JSON tree (see the
    module docs); a path that is missing or runs through a non-object leaves
    the tree as it is."""
    if old[0] == new[0]:
        key = old[0].removesuffix("[]")
        node = tree.get(key) if isinstance(tree, dict) else None
        for item in (node or []) if old[0].endswith("[]") else [node]:
            move_key(item, old[1:], new[1:])
        return
    trail = [tree]
    for key in old[:-1]:
        trail.append(trail[-1].get(key) if isinstance(trail[-1], dict) else None)
    target = tree
    for key in new[:-1]:
        target = target.get(key, {}) if isinstance(target, dict) else None
    if not (isinstance(trail[-1], dict) and old[-1] in trail[-1] and isinstance(target, dict)):
        return
    value = trail[-1].pop(old[-1])
    for depth in range(len(trail) - 1, 0, -1):  # drop the objects the move emptied
        if trail[depth]:
            break
        del trail[depth - 1][old[depth - 1]]
    for key in new[:-1]:
        tree = tree.setdefault(key, {})
    tree[new[-1]] = value


def diff_file(rel: str, old: bytes, new: bytes, key_map=None) -> list[str]:
    """Differences of one output file, compared as its kind asks; a report
    under a key map (`load_key_map`) has its old keys moved first, and no
    content_hash compared."""
    if rel.endswith("_report.json"):
        a, b = json.loads(old), json.loads(new)
        for report in (a, b):
            report.pop("runtimes", None)
            if key_map is not None:
                report.pop("content_hash", None)
        for old_path, new_path in key_map or []:
            move_key(a, old_path, new_path)
        return diff_values(a, b, rel)
    if old == new:
        return []
    if not rel.endswith(".csv"):
        return [f"{rel}: files differ"]
    if os.path.basename(rel) == "convergence.csv":
        a, b = _csv_without(old, "runtime"), _csv_without(new, "runtime")
        lines, b = in_old_order(rel, a, b)
        if len(a) != len(b):
            return lines + [f"{rel}: {len(a)} rows != {len(b)}"]
        return lines + [
            f"{rel}: row {i}: {x} != {y}" for i, (x, y) in enumerate(zip(a, b)) if x != y
        ]
    a, b = _csv_rows(old), _csv_rows(new)
    lines, b = in_old_order(rel, a, b)
    if list(map(len, a)) == list(map(len, b)):
        return lines + diff_csv_cells(rel, a, b)
    return lines + [f"{rel}: files differ"]


def diff_outputs(old_root: Path, new_root: Path, key_map=None) -> list[str]:
    """Every difference between two output roots written by RUNNER, the
    reports compared under key_map when one is given."""
    def files(root):
        return {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}

    old, new = files(old_root), files(new_root)
    lines = []
    for rel in sorted(old.keys() | new.keys()):
        if rel not in new:
            lines.append(f"{rel}: only in old")
        elif rel not in old:
            lines.append(f"{rel}: only in new")
        elif rel == "codes.json":  # exit codes: no relative difference
            a, b = json.loads(old[rel].read_bytes()), json.loads(new[rel].read_bytes())
            lines += [f"exit.{k}: {a.get(k)} != {b.get(k)}"
                      for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)]
        elif rel == "stdout.json":  # one line per differing stdout line
            a, b = json.loads(old[rel].read_bytes()), json.loads(new[rel].read_bytes())
            for k in sorted(a.keys() | b.keys()):
                pairs = zip_longest(a.get(k, "").splitlines(), b.get(k, "").splitlines())
                lines += [f"stdout.{k}[{i}]: {x!r} != {y!r}"
                          for i, (x, y) in enumerate(pairs) if x != y]
        else:
            lines += diff_file(rel, old[rel].read_bytes(), new[rel].read_bytes(), key_map)
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    key_map = None
    if argv[:1] == ["--key-map"] and len(argv) > 1:
        key_map = load_key_map(argv[1])
        argv = argv[2:]
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_tree, new_tree = Path(argv[0]), Path(argv[1])
    scenarios = scenario_paths(new_tree, argv[2:])
    with tempfile.TemporaryDirectory(prefix="report_diff-") as tmp:
        outs = [Path(tmp) / "old", Path(tmp) / "new"]
        run_trees([old_tree, new_tree], scenarios, outs)
        lines = diff_outputs(*outs, key_map)
    for line in lines:
        print(line)
    print(f"{len(scenarios)} scenarios, {len(lines)} differences", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
