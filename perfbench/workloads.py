"""Workload definitions: seeded scenario generation and per-command output checks.

A workload is a fixed list of CLI commands.  The seed only perturbs initial
amplitudes and phases (and the instability amplitude scale rho); wave
vectors, eps lists, grids, step sizes and horizons are fixed, so every work
count (modes, tuples, RK4 steps, solve calls, split steps) is the same for
every seed.  Each check below uses an invariant that holds for any seed.

This module imports only the standard library so the set-up probe and the
scenario generator cost the same in every process.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

SCHEMA = "nlsoptics-scenario/1"


class CheckError(Exception):
    """A command's outputs violate a workload invariant."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: nlsoptics <verb> --scenario <scenario>.json."""

    verb: str
    scenario: str
    check: Callable[[dict, dict], None]  # (report, scenario document)


def _torus(dim: int, sigma: int, lam: float, modes: list, experiment: dict, **more) -> dict:
    doc = {
        "schema": SCHEMA,
        "dimension": dim,
        "sigma": sigma,
        "lambda": lam,
        "domain": {"type": "torus"},
        "initial_modes": [
            {"kappa": list(k), "amplitude": [a.real, a.imag]} for k, a in modes
        ],
        "experiment": experiment,
    }
    doc.update(more)
    return doc


def _jitter(rng: random.Random, a: complex, rel: float, phase: float) -> complex:
    """a scaled by 1 + rel*u and rotated by phase*v, u and v uniform in [-1, 1]."""
    if a == 0:
        return 0j  # created modes start at zero for every seed
    return a * (1.0 + rel * rng.uniform(-1, 1)) * cmath.exp(1j * phase * rng.uniform(-1, 1))


# ---------------------------------------------------------------- converge_sweep

# The three shipped converge scenarios.  creation2d stops at eps=1/16 (256^2
# grid) so that one pass of the workload takes seconds, not minutes; the
# dropped legs are the same grid-bound split-step solve at larger n.
_CONVERGE = {
    "creation2d_converge": dict(
        dim=2, lam=1.0, t_final=0.5, eps=["1/8", "1/16"],
        modes=[((0, 0), 0j), ((0, 1), 0.2 + 0j), ((1, 0), 0.3 + 0j),
               ((1, 1), 0.21650635094610965 + 0.125j)],
    ),
    "th11_converge": dict(
        dim=1, lam=1.0, t_final=1.0, eps=["1/8", "1/16", "1/32", "1/64"],
        modes=[((-1,), 0.5 + 0j), ((0,), 1.0 + 0j),
               ((1,), 0.49497474683058327 + 0.49497474683058327j)],
    ),
    "lam0_converge": dict(
        dim=1, lam=0.0, t_final=0.25, eps=["1/8", "1/16"], self_check=False,
        modes=[((0,), 0.3 + 0j), ((1,), 0.4 + 0j)],
    ),
}

MIN_ORDER = 0.9  # fitted sup order on the lam=1 sweeps; the unperturbed data give 0.959 and 0.915


def _converge_docs(rng: random.Random) -> dict:
    docs = {}
    for name, spec in _CONVERGE.items():
        experiment = {"type": "converge", "t_final": spec["t_final"]}
        if spec.get("self_check") is False:
            experiment["dt_self_check"] = False
        modes = [(k, _jitter(rng, a, 0.01, 0.01)) for k, a in spec["modes"]]
        docs[name] = _torus(spec["dim"], 1, spec["lam"], modes, experiment,
                            solver={"eps_list": spec["eps"]})
    return docs


def _check_converge(report: dict, doc: dict) -> None:
    res = report["results"]
    rows = res["rows"]
    expect(len(rows) == len(doc["solver"]["eps_list"]), "one row per eps")
    bad = [r for r in rows if r["status"] != "ok"]
    expect(not bad, f"failed rows: {bad}")
    if doc["lambda"] == 0.0:
        expect(res["at_floor"] is True, "lam=0 sweep must sit at the rounding floor")
    else:
        order = res["order_sup"]
        expect(order is not None and order >= MIN_ORDER,
               f"fitted sup order {order} < {MIN_ORDER}")


# ------------------------------------------------------------------ mode_lattice

BOX_SEEDS = [(0, 0), (1, 0), (0, 1), (2, 1)]
BOX_CAP = 4
QUINTIC_RADIUS = 4
PROBE = {"generators": [[1], ["1/3"]], "beta_bound": 12, "b_prime": 2.0}
B_GRID = [0.0, 0.5, 1.0, 2.0]
PROFILE_T = 0.1
MASS_DRIFT_MAX = 1e-12

# Exact counts of the two lattice sets.  They depend only on the wave
# vectors, never on the seed.  resonant = tuples_scanned - nonresonant_count.
LATTICE_COUNTS = {
    "box": {"modes": 81, "tuples_scanned": 81**3, "resonant": 32033},
    "quintic": {"modes": 9, "tuples_scanned": 9**5, "resonant": 4203},
}


def _lattice_docs(rng: random.Random) -> dict:
    def amp() -> complex:
        return 0.1 * (1.0 + 0.1 * rng.uniform(-1, 1)) * cmath.exp(2j * math.pi * rng.random())

    box_modes = [(k, amp()) for k in BOX_SEEDS]
    quintic_modes = [((k,), amp()) for k in range(-QUINTIC_RADIUS, QUINTIC_RADIUS + 1)]
    box_limits = {"max_generations": 8, "max_sup_norm": BOX_CAP}
    quintic_limits = {"max_generations": 8, "max_sup_norm": QUINTIC_RADIUS}
    profiles = {"type": "profiles", "t_final": PROFILE_T, "dt": 1e-3, "snapshots": 4}
    smalldiv = {"type": "smalldiv", "b_grid": B_GRID}
    return {
        "box_profiles": _torus(2, 1, 1.0, box_modes, profiles, closure_limits=box_limits),
        "box_smalldiv": _torus(2, 1, 1.0, box_modes, smalldiv, closure_limits=box_limits),
        "quintic_profiles": _torus(1, 2, 1.0, quintic_modes, profiles,
                                   closure_limits=quintic_limits),
        "quintic_smalldiv": _torus(1, 2, 1.0, quintic_modes, {**smalldiv, "probe": PROBE},
                                   closure_limits=quintic_limits),
    }


def _lattice_set(doc: dict) -> dict:
    return LATTICE_COUNTS["box" if doc["dimension"] == 2 else "quintic"]


def _check_profiles(report: dict, doc: dict) -> None:
    res = report["results"]
    want = _lattice_set(doc)["modes"]
    expect(len(res["modes"]) == want, f"{len(res['modes'])} modes, expected {want}")
    drift = res["mass_relative_drift"]
    expect(drift is not None and drift <= MASS_DRIFT_MAX,
           f"mass drift {drift} > {MASS_DRIFT_MAX}")
    expect(all(a is not None and all(map(math.isfinite, a)) for a in res["final_amps"]),
           "non-finite final amplitudes")


def _check_smalldiv(report: dict, doc: dict) -> None:
    res = report["results"]
    counts = _lattice_set(doc)
    survey = res["survey"]
    expect(survey["tuples_scanned"] == counts["tuples_scanned"],
           f"surveyed {survey['tuples_scanned']} tuples, expected {counts['tuples_scanned']}")
    resonant = survey["tuples_scanned"] - survey["nonresonant_count"]
    if counts["resonant"] is not None:
        expect(resonant == counts["resonant"],
               f"{resonant} resonant tuples, expected {counts['resonant']}")
    expect(survey["min_delta"] == 2, f"min_delta {survey['min_delta']}, expected 2")
    fit = res["generalized_fit"]
    expect([b for b, _ in fit] == B_GRID, "one fit per b")
    expect(fit[0][1] == 2.0, f"c(0) = {fit[0][1]}, expected min_delta 2")
    cs = [c for _, c in fit]
    expect(all(x <= y for x, y in zip(cs, cs[1:])), "c(b) must be nondecreasing")
    if "probe" in doc["experiment"]:
        probe = res["probe"]
        expect(probe["exact_minimum"] == "1/9",
               f"probe minimum {probe['exact_minimum']}, expected 1/9")
        expect(not probe["partial"], "probe scan was cut by its budget")


# --------------------------------------------------------------- instability_gap

INSTABILITY = {"variant": "perturb_high", "delta": 0.1, "s": -0.5, "K": 16,
               "grid_points": 10_000}
# |solver gap - formula gap| at K=16 measures 1.5e-2 to 1.6e-2 for every seed
# (it decays like 0.2/K); the bound leaves room for rounding, not for a
# regression of the solver.
SOLVER_DEVIATION_MAX = 0.02


def _instability_docs(rng: random.Random) -> dict:
    rho = 1.0 + 0.02 * rng.uniform(-1, 1)
    experiment = {"type": "instability", "rho": rho, "cross_check": True, **INSTABILITY}
    return {"instability_crosscheck": _torus(1, 1, 1.0, [((0,), 0.5 * rho + 0j)], experiment)}


def closed_form_gap(exp: dict, lam: float) -> tuple[float, float]:
    """(gap, t_star) of the sigma=1 perturb_high construction, recomputed from
    the two-mode rates theta = |a0|^2 + 2|a1|^2 on the same time grid."""
    a0 = exp["rho"] / 2.0
    a1_sq = (a0 * exp["K"] ** (-exp["s"])) ** 2
    a1t_sq = a1_sq + 1.0 / exp["delta"]
    th0 = a0 * a0 + 2.0 * a1_sq
    th0t = a0 * a0 + 2.0 * a1t_sq
    n = exp["grid_points"]
    best = (-1.0, 0.0)
    for i in range(n):
        t = exp["delta"] * i / (n - 1)
        g = abs(a0 * cmath.exp(-1j * lam * th0 * t) - a0 * cmath.exp(-1j * lam * th0t * t))
        if g > best[0]:
            best = (g, t)
    return best


def _check_instability(report: dict, doc: dict) -> None:
    rec = report["results"]["record"]
    exp = doc["experiment"]
    gap, t_star = closed_form_gap(exp, doc["lambda"])
    expect(abs(rec["gap"] - gap) <= 1e-12, f"gap {rec['gap']} != closed form {gap}")
    expect(abs(rec["t_star"] - t_star) <= 1e-12, f"t* {rec['t_star']} != {t_star}")
    # for lam=1 the maximum over [0, delta] is rho sin(1), reached at t = delta
    expect(abs(gap - exp["rho"] * math.sin(doc["lambda"])) <= 1e-9, "gap != rho sin(lam)")
    expect(rec["solver_gap"] is not None, "cross-check did not run")
    dev = rec["solver_formula_deviation"]
    expect(abs(dev - abs(rec["solver_gap"] - rec["gap"])) <= 1e-15, "deviation mismatch")
    expect(dev <= SOLVER_DEVIATION_MAX, f"solver deviation {dev} > {SOLVER_DEVIATION_MAX}")


# --------------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_docs: Callable[[random.Random], dict]
    commands: tuple[Command, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "converge_sweep",
            "grid-bound split-step solves of the three converge scenarios; "
            "spectral_nls.solve dominates",
            _converge_docs,
            tuple(Command("converge", n, _check_converge) for n in _CONVERGE),
        ),
        Workload(
            "mode_lattice",
            "closure, tuple enumeration, RK4 profiles and divisor surveys on a "
            "2D sigma=1 box and a 1D sigma=2 set; no spectral solve",
            _lattice_docs,
            (
                Command("profiles", "box_profiles", _check_profiles),
                Command("smalldiv", "box_smalldiv", _check_smalldiv),
                Command("profiles", "quintic_profiles", _check_profiles),
                Command("smalldiv", "quintic_smalldiv", _check_smalldiv),
            ),
        ),
        Workload(
            "instability_gap",
            "two 1D cross-check solves with many small split steps; per-step "
            "overhead instead of large transforms",
            _instability_docs,
            (Command("instability", "instability_crosscheck", _check_instability),),
        ),
    )
}


def structure(doc: dict) -> dict:
    """The scenario with every seeded value removed: what fixes the work."""
    doc = json.loads(json.dumps(doc))
    for m in doc["initial_modes"]:
        m.pop("amplitude")
    doc["experiment"].pop("rho", None)
    return doc


def generate(workload: Workload, seed: int, directory: str) -> dict:
    """Write the workload's scenarios for `seed` into directory; return
    {scenario name: (path, document)}."""
    docs = workload.make_docs(random.Random(seed))
    out = {}
    for name, doc in docs.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
        out[name] = (path, doc)
    return out

