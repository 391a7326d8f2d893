"""Layer spans recorded from outside the program.

The tracer replaces public functions of the nlsoptics modules at the
namespace where the caller looks them up (for example
``wkb_pipeline.solve``, which is what ``run_convergence`` calls) with a
wrapper that records a span, and restores the originals afterwards.  Spans
stay in memory: name, start, end, parent span and command id, plus work
counts taken from each call's arguments and result.  Nothing under ``src/``
changes, and a wrapper returns exactly what it wrapped, so reports are
byte-identical with and without tracing.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

ROOT_SPAN = "experiments_cli.run"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    command: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.command = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.command))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, i: int) -> None:
        self.spans[i].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield self.spans[i]
        finally:
            self._close(i)

    def wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count is not None:
                self.spans[i].counts = count(result, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, points):
        """Patch every (module, attribute, span name, counter) in points."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in points]
        try:
            for mod, attr, name, count in points:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), count))
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)


# ------------------------------------------------------------------ counters

def _solve_counts(res, args, kwargs) -> dict:
    """Split steps of one solve, recomputed from its config and snapshot
    times: each segment between snapshots takes ceil(seg/dt) steps."""
    u0 = args[0] if args else kwargs["u0"]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    times = [float(t) for t in res.times]
    steps = sum(
        max(1, math.ceil((right - left) / cfg.dt - 1e-9))
        for left, right in zip(times, times[1:])
        if right > left
    )
    points = cfg.n**u0.d
    return {
        "solve_calls": 1,
        "steps": steps,
        "point_steps": steps * points,
        "snapshot_bytes": len(res.fields) * points * 16,  # complex128 per grid point
        "t_final": cfg.t_final,
    }


def _convergence_counts(table, args, kwargs) -> dict:
    return {
        "t_final": float(args[4] if len(args) > 4 else kwargs["t_final"]),
        "leg_s_max": max((r.runtime for r in table.rows), default=0.0),
    }


def trace_points(experiments_cli, profile_dynamics, wkb_pipeline) -> list:
    """Where each layer is entered, named after the module that owns it."""
    cli, pd, wkb = experiments_cli, profile_dynamics, wkb_pipeline
    rk4 = lambda traj, a, k: {"rk4_steps": len(traj.times) - 1}  # noqa: E731
    return [
        (cli, "load_scenario", "experiments_cli.load", None),
        (cli, "close_under_resonances", "lattice_geometry.closure",
         lambda modes, a, k: {"modes": len(modes)}),
        (pd, "interactions_for", "lattice_geometry.enumerate",
         lambda lists, a, k: {"tuples": sum(map(len, lists))}),
        (cli, "integrate_torus", "profile_dynamics.integrate", rk4),
        (wkb, "integrate_torus", "profile_dynamics.integrate", rk4),
        (wkb, "solve", "spectral_nls.solve", _solve_counts),
        (wkb, "assemble_uapp", "wkb_pipeline.assemble", None),
        (wkb, "sup_norm_of_field", "wkb_pipeline.norms", None),
        (wkb, "w_norm_of_field", "wkb_pipeline.norms", None),
        (cli, "run_convergence", "wkb_pipeline.run_convergence", _convergence_counts),
        (cli, "run_instability", "wkb_pipeline.run_instability", None),
        (cli, "survey_divisors", "small_divisors.survey",
         lambda s, a, k: {"tuples_scanned": s.tuples_scanned}),
        (cli, "fit_generalized_bound", "small_divisors.fit", None),
        (cli, "gram_diophantine_probe", "small_divisors.probe",
         lambda p, a, k: {"probe_combos": p.combos_scanned}),
    ]


# --------------------------------------------------------------- aggregation

# Work counts that depend only on the workload's fixed structure, so they
# must repeat exactly across passes and seeds.
WORK_COUNTS = (
    "lattice_geometry.modes",
    "lattice_geometry.tuples",
    "profile_dynamics.rk4_steps",
    "spectral_nls.solve_calls",
    "spectral_nls.steps",
    "spectral_nls.point_steps",
    "small_divisors.tuples_scanned",
    "small_divisors.probe_combos",
    "experiments_cli.commands",
)


LAYER_UNITS = {
    "lattice_geometry.closure_s": "s",
    "lattice_geometry.enumerate_s": "s",
    "lattice_geometry.modes": "count",
    "lattice_geometry.tuples": "count",
    "profile_dynamics.integrate_s": "s",
    "profile_dynamics.rk4_steps": "count",
    "profile_dynamics.step_ms": "ms",
    "spectral_nls.solve_s": "s",
    "spectral_nls.solve_calls": "count",
    "spectral_nls.steps": "count",
    "spectral_nls.point_steps": "count",
    "spectral_nls.ns_per_point_step": "ns",
    "spectral_nls.snapshot_mb": "MB",
    "wkb_pipeline.dt_check_s": "s",
    "wkb_pipeline.assemble_s": "s",
    "wkb_pipeline.norms_s": "s",
    "wkb_pipeline.leg_s_max": "s",
    "wkb_pipeline.self_s": "s",
    "small_divisors.survey_s": "s",
    "small_divisors.fit_s": "s",
    "small_divisors.probe_s": "s",
    "small_divisors.tuples_scanned": "count",
    "small_divisors.probe_combos": "count",
    "experiments_cli.load_s": "s",
    "experiments_cli.self_s": "s",
    "experiments_cli.commands": "count",
}


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer self times (s) and work counts of one pass.

    A span's self time is its duration minus that of its direct children.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    for i, s in enumerate(spans):
        self_s[s.name] = self_s.get(s.name, 0.0) + s.duration - child[i]
        for key, value in s.counts.items():
            if key not in ("t_final", "leg_s_max"):
                counts[key] = counts.get(key, 0) + value

    def horizon(i: Optional[int]) -> float:
        """t_final of the enclosing convergence sweep; solves outside a
        sweep are never step checks."""
        while i is not None:
            if spans[i].name == "wkb_pipeline.run_convergence":
                return spans[i].counts.get("t_final", -math.inf)
            i = spans[i].parent
        return -math.inf

    dt_check = sum(
        s.duration
        for s in spans
        if s.name == "spectral_nls.solve"
        and s.counts.get("t_final", math.inf) < horizon(s.parent)
    )
    legs = [
        s.counts.get("leg_s_max", 0.0)
        for s in spans
        if s.name == "wkb_pipeline.run_convergence"
    ]
    integrate = self_s.get("profile_dynamics.integrate", 0.0)
    solve = self_s.get("spectral_nls.solve", 0.0)
    rk4_steps = counts.get("rk4_steps", 0)
    point_steps = counts.get("point_steps", 0)
    return {
        "lattice_geometry.closure_s": self_s.get("lattice_geometry.closure", 0.0),
        "lattice_geometry.enumerate_s": self_s.get("lattice_geometry.enumerate", 0.0),
        "lattice_geometry.modes": counts.get("modes", 0),
        "lattice_geometry.tuples": counts.get("tuples", 0),
        "profile_dynamics.integrate_s": integrate,
        "profile_dynamics.rk4_steps": rk4_steps,
        "profile_dynamics.step_ms": 1e3 * integrate / rk4_steps if rk4_steps else 0.0,
        "spectral_nls.solve_s": solve,
        "spectral_nls.solve_calls": counts.get("solve_calls", 0),
        "spectral_nls.steps": counts.get("steps", 0),
        "spectral_nls.point_steps": point_steps,
        "spectral_nls.ns_per_point_step": 1e9 * solve / point_steps if point_steps else 0.0,
        "spectral_nls.snapshot_mb": counts.get("snapshot_bytes", 0) / 1e6,
        "wkb_pipeline.dt_check_s": dt_check,
        "wkb_pipeline.assemble_s": self_s.get("wkb_pipeline.assemble", 0.0),
        "wkb_pipeline.norms_s": self_s.get("wkb_pipeline.norms", 0.0),
        "wkb_pipeline.leg_s_max": max(legs, default=0.0),
        "wkb_pipeline.self_s": self_s.get("wkb_pipeline.run_convergence", 0.0)
        + self_s.get("wkb_pipeline.run_instability", 0.0),
        "small_divisors.survey_s": self_s.get("small_divisors.survey", 0.0),
        "small_divisors.fit_s": self_s.get("small_divisors.fit", 0.0),
        "small_divisors.probe_s": self_s.get("small_divisors.probe", 0.0),
        "small_divisors.tuples_scanned": counts.get("tuples_scanned", 0),
        "small_divisors.probe_combos": counts.get("probe_combos", 0),
        "experiments_cli.load_s": self_s.get("experiments_cli.load", 0.0),
        "experiments_cli.self_s": self_s.get(ROOT_SPAN, 0.0),
        "experiments_cli.commands": sum(1 for s in spans if s.name == ROOT_SPAN),
    }
