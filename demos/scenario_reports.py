"""Drive the scenario CLI in-process and inspect what it writes.

Every subcommand reads a JSON scenario, runs one experiment, and emits a
report JSON (with a content hash over everything but runtimes) plus CSV
side files, so runs diff cleanly and rerun identically.
"""

import json
import tempfile
from pathlib import Path

from nlsoptics.experiments_cli import run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def show_run(argv, out_dir):
    code = run(argv)
    print(f"$ nlsoptics {' '.join(argv)}  -> exit {code}")
    for p in sorted(Path(out_dir).iterdir()):
        print(f"    {p.name}")
    return code


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "closure")
        show_run(["closure", "--scenario",
                  str(SCENARIOS / "closure_creation2d.json"), "--out", out],
                 out)
        report = json.loads((Path(out) / "closure_report.json").read_text())
        print(f"    created {report['results']['created_count']} vector(s), "
              f"saturated={report['results']['saturated']}")

        out = str(Path(tmp) / "profiles")
        show_run(["profiles", "--scenario",
                  str(SCENARIOS / "profiles_torus_1d.json"), "--out", out], out)
        report = json.loads((Path(out) / "profiles_report.json").read_text())
        print(f"    oracle deviation {report['results']['oracle_max_deviation']:.3e}")

        out = str(Path(tmp) / "smalldiv")
        show_run(["smalldiv", "--scenario",
                  str(SCENARIOS / "smalldiv_square.json"), "--out", out], out)
        report = json.loads((Path(out) / "smalldiv_report.json").read_text())
        print(f"    min |delta| = {report['results']['survey']['min_delta']}")


if __name__ == "__main__":
    main()
