"""The benchmark tracer patches program functions by name and counts their
work from the results; each name must exist and each count must hold."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from nlsoptics import experiments_cli, profile_dynamics, wkb_pipeline
from nlsoptics.spectral_nls import GridField, SolverConfig, solve
from nlsoptics.wkb_pipeline import run_instability

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_trace_point_names_a_function():
    points = load_spans().trace_points(experiments_cli, profile_dynamics, wkb_pipeline)
    assert points
    for mod, attr, name, _ in points:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr} ({name}) is gone"


def test_solve_counts_match_a_real_solve():
    # uneven segments, so the recount walks more than one step size
    cfg = SolverConfig(eps=1 / 2, lam=1.0, sigma=1, dt=0.013, n=16, t_final=0.5)
    u0 = GridField(1, 16, [0.5 + 0.1j] * 16)
    res = solve(u0, cfg, snapshot_times=[0.07, 0.11, 0.3])
    counts = load_spans()._solve_counts(res, (u0, cfg), {})
    assert counts["steps"] == res.steps
    assert counts["snapshot_bytes"] == res.fields.nbytes
    # a stack of two data: the counter reads the shared marks, the grid of
    # one datum and the (marks, 2, 16) fields, so it counts one datum's work
    stack = GridField(1, 16, np.stack([u0.values, 2 * u0.values]))
    both = solve(stack, cfg, snapshot_times=[0.07, 0.11, 0.3])
    counts = load_spans()._solve_counts(both, (stack, cfg), {})
    assert counts["steps"] == res.steps == both[0].steps == both[1].steps
    assert counts["point_steps"] == res.steps * 16
    assert counts["snapshot_bytes"] == res.fields.nbytes == both.fields.nbytes // 2


def test_traced_crosscheck_counts():
    # the instability_gap workload's cross-check at K=16: both data walk
    # rungs 16 and 8 of the ladder together and share one grid-doubling
    # solve, each a stacked solve whose span counts one datum's steps
    spans = load_spans()
    tracer = spans.Tracer()
    points = [p for p in spans.trace_points(experiments_cli, profile_dynamics, wkb_pipeline)
              if p[0] is wkb_pipeline and p[1] == "solve"]
    with tracer.installed(points), pytest.warns(UserWarning, match="premise"):
        rec = run_instability(1.0, 0.1, -0.5, 16, cross_check=True)
    solves = [s for s in tracer.spans if s.name == "spectral_nls.solve"]
    assert len(solves) == 3
    assert [c.rung for c in rec.solver_checks] == [8, 8]
    assert [c.steps for c in rec.solver_checks] == [sum(s.counts["steps"] for s in solves)] * 2
    # both plain pairs are within budget, so neither datum is extrapolated
    # and the record's values are the ones the ladder made before
    # extrapolation existed
    assert dataclasses.asdict(rec) == K16_CROSSCHECK


# The K=16 cross-check's record as the plain Strang ladder made it, every
# value bit for bit; each datum's check is a LadderCheck's fields, health
# included, its dt the step its rung's solves took (4 per 1e-3 sample
# segment).
K16_CROSSCHECK = {
    "variant": "perturb_high", "rho": 1.0, "delta": 0.1, "s": -0.5, "K": 16,
    "sigma": 1, "lam": 1.0, "alpha0": 0.5, "alpha1": 2.0, "alpha0_tilde": 0.5,
    "alpha1_tilde": 3.7416573867739413, "theta0": 8.25, "theta0_tilde": 28.25,
    "theta_user": None, "t_star": 0.1, "gap": 0.8414709848078965,
    "hs_condition_ok": False, "eps": 0.00390625, "solver_gap": 0.8255205841273745,
    "solver_t_star": 0.1, "solver_formula_deviation": 0.015950400680522003,
    "solver_grid_n": 16,
    "solver_checks": (
        {"rung": 8, "dt": 0.00025, "extrapolated": False,
         "step_delta": 3.3889913375368854e-06, "grid_delta": 7.785228687832109e-15,
         "steps": 800, "drift": 2.7500196702755342e-15, "aliasing": 7.105548594821587e-31},
        {"rung": 8, "dt": 0.00025, "extrapolated": False,
         "step_delta": 3.673677061529359e-05, "grid_delta": 2.6151305701706514e-14,
         "steps": 800, "drift": 3.9423224289881195e-15, "aliasing": 3.0690876252372924e-29},
    ),
}
