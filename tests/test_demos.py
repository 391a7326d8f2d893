"""The demos that drive the closure, integrator, split-step solver,
convergence, instability, divisor survey, scenario report and Wiener norm
APIs still run."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "demo",
    [
        ["closure_walk.py"],
        ["profile_oracles.py"],
        ["spectral_accuracy.py"],
        ["convergence_study.py"],
        # the default K=512 cross-check takes about a minute
        ["instability_gap.py", "--K", "32", "--cross-check"],
        ["divisor_survey.py"],
        ["scenario_reports.py"],
        ["wiener_playground.py"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo[0]), *demo[1:]],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
