"""Scenario-driven command line front end.

A scenario is one JSON document with a versioned schema:

    {
      "schema": "nlsoptics-scenario/1",
      "dimension": 1,
      "sigma": 1,
      "lambda": 1.0,
      "domain": {"type": "torus"},
      "initial_modes": [
        {"kappa": [-1], "amplitude": [0.5, 0.0]},
        {"kappa": [0],  "amplitude": [1.0, 0.0]}
      ],
      "closure_limits": {"max_generations": 8, "max_sup_norm": 64},
      "solver": {"dt": null, "eps_list": ["1/8", "1/16"]},
      "experiment": {"type": "converge", "t_final": 1.0}
    }

Amplitudes are [re, im] pairs.  On a Euclidean domain ({"type": "euclid",
"length": L, "grid_n": n}) each mode instead carries a "preset", currently
{"type": "gaussian", "center": c, "width": w, "amplitude": [re, im]}.
Epsilon values are "1/N" strings (numbers are accepted when they equal a
unit fraction exactly).

Experiment blocks by type:
  closure:     {}
  profiles:    t_final, dt (positive, default 1e-3), snapshots (integer
               >= 1, default 9), oracle (explicit_torus_1d |
               explicit_two_mode | explicit_euclid_1d | null),
               quadrature_dt (euclid oracle)
  converge:    t_final, checkpoints (integer >= 0, default 8).  Each eps
               leg is solved on one 2*pi*eps period of the torus, sized by
               the grid rule at eps=1; rows report the grid the periods
               tile.  Every leg's split step and the profile RK4 step are
               chosen by a step-doubling ladder (r*eps/100 and r*1e-3,
               r = 16 down to 1) within 1e-2*eps, and each leg adds a
               grid-doubling check; solver.dt, solver.grid_n and
               experiment.profile_dt must be null.  The report and
               convergence.csv carry each row's rung, step and grid deltas,
               split steps, L2 drift and top-band fraction, and the profile
               step, rung, delta and RK4 steps; timings go to runtimes.
  instability: variant, rho, delta (in (0, 1]), s, K, theta, grid_points
               (integer >= 2, default 10^4), cross_check (default false).
               The cross-check picks each datum's step by the same ladder
               from eps/100, capped by the delta/100 sample segment, on its
               zero-mode curve, and adds a grid-doubling solve; the report
               carries each datum's rung, step and both deltas, and the
               summary flags a delta over 1e-2*eps.
  smalldiv:    b_grid (default [0.0]), probe (null or {generators,
               beta_bound, b_prime, budget})

Every command writes a JSON report embedding the scenario hash and the
fully resolved parameter set; reports are byte-identical across runs of the
same scenario and tool version except for the recorded runtimes, which are
excluded from the content hash.  All writes are atomic (temp then rename).
Exit codes: 0 success, 1 failed assertion (--assert-order, integer-lattice
divisor check), 2 scenario errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
import uuid
from dataclasses import dataclass, field, is_dataclass, asdict
from fractions import Fraction
from typing import Any, Optional

import numpy as np

from .lattice_geometry import ModeSet, WaveVector, close_under_resonances
from .profile_dynamics import (
    SimParams,
    _relative_drift,
    explicit_euclid_1d,
    explicit_torus_1d,
    explicit_two_mode,
    integrate_euclid,
    integrate_torus,
)
from .small_divisors import (
    fit_generalized_bound,
    gram_diophantine_probe,
    survey_divisors,
)
from .wkb_pipeline import LADDER_FRACTION, gap_curve, run_convergence, run_instability

SCENARIO_SCHEMA = "nlsoptics-scenario/1"
REPORT_SCHEMA = "nlsoptics-report/1"

ORACLES = ("explicit_torus_1d", "explicit_two_mode", "explicit_euclid_1d")


class ScenarioError(Exception):
    """Raised for malformed or inconsistent scenario documents."""


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ScenarioError(msg)


def _parse_eps(raw, pos: int) -> Fraction:
    where = f"solver.eps_list[{pos}]"
    if isinstance(raw, str):
        try:
            f = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"{where}: cannot parse {raw!r} ({exc})") from None
    elif isinstance(raw, (int, float)) and not isinstance(raw, bool):
        f = Fraction(raw)
    else:
        raise ScenarioError(f"{where}: expected a '1/N' string or number, got {raw!r}")
    _expect(f > 0, f"{where}: epsilon must be positive")
    _expect(
        f.numerator == 1,
        f"{where}: 1/eps must be a positive integer, got {raw!r}",
    )
    return f


def _expect_int(exp: dict, key: str, default: Optional[int], least: int) -> None:
    value = exp.get(key, default)
    _expect(
        type(value) is int and value >= least,
        f"experiment.{key}: must be an integer >= {least}",
    )


def _parse_amplitude(raw, where: str) -> complex:
    _expect(
        isinstance(raw, list)
        and len(raw) == 2
        and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in raw),
        f"{where}: amplitude must be a [re, im] pair, got {raw!r}",
    )
    return complex(raw[0], raw[1])


@dataclass
class ModeSpec:
    kappa: tuple[int, ...]
    amplitude: complex = 0j
    preset: Optional[dict] = None


@dataclass
class Scenario:
    path: str
    sha256: str
    dimension: int
    sigma: int
    lam: float
    domain: dict
    modes: list[ModeSpec]
    closure_limits: dict
    eps_list: list[Fraction]
    experiment: dict
    resolved: dict = field(default_factory=dict)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    digest = hashlib.sha256(blob).hexdigest()
    try:
        doc = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from None
    _expect(isinstance(doc, dict), "scenario root must be an object")
    _expect(
        doc.get("schema") == SCENARIO_SCHEMA,
        f"schema must be {SCENARIO_SCHEMA!r}, got {doc.get('schema')!r}",
    )

    dim = doc.get("dimension")
    _expect(isinstance(dim, int) and dim >= 1, "dimension must be an integer >= 1")
    sigma = doc.get("sigma")
    _expect(isinstance(sigma, int) and sigma >= 1, "sigma must be an integer >= 1")
    lam = doc.get("lambda", 1.0)
    _expect(
        isinstance(lam, (int, float)) and not isinstance(lam, bool),
        "lambda must be a real number",
    )

    domain = doc.get("domain", {"type": "torus"})
    _expect(isinstance(domain, dict) and "type" in domain, "domain must have a type")
    dtype = domain["type"]
    _expect(dtype in ("torus", "euclid"), f"unknown domain type {dtype!r}")
    if dtype == "euclid":
        _expect(dim == 1, "euclid domain currently supports dimension 1")
        length = domain.get("length")
        _expect(
            isinstance(length, (int, float)) and length > 0,
            "euclid domain needs a positive length",
        )
        gn = domain.get("grid_n")
        _expect(
            isinstance(gn, int) and gn >= 2 and gn & (gn - 1) == 0,
            "euclid domain needs a power-of-two grid_n",
        )

    raw_modes = doc.get("initial_modes")
    _expect(
        isinstance(raw_modes, list) and raw_modes,
        "initial_modes must be a non-empty list",
    )
    modes: list[ModeSpec] = []
    seen = set()
    for i, m in enumerate(raw_modes):
        where = f"initial_modes[{i}]"
        _expect(isinstance(m, dict), f"{where}: must be an object")
        kap = m.get("kappa")
        _expect(isinstance(kap, list), f"{where}.kappa: must be a list")
        _expect(
            len(kap) == dim,
            f"{where}.kappa: arity {len(kap)} does not match dimension {dim}",
        )
        _expect(
            all(isinstance(c, int) and not isinstance(c, bool) for c in kap),
            f"{where}.kappa: entries must be integers, got {kap!r}",
        )
        kt = tuple(kap)
        _expect(kt not in seen, f"{where}.kappa: duplicate vector {kt}")
        seen.add(kt)
        if dtype == "euclid":
            preset = m.get("preset")
            _expect(isinstance(preset, dict), f"{where}: euclid modes need a preset")
            _expect(
                preset.get("type") == "gaussian",
                f"{where}.preset: unknown type {preset.get('type')!r}",
            )
            for key in ("center", "width"):
                _expect(
                    isinstance(preset.get(key), (int, float)),
                    f"{where}.preset.{key}: must be a number",
                )
            _expect(preset["width"] > 0, f"{where}.preset.width: must be positive")
            amp = _parse_amplitude(
                preset.get("amplitude", [0.0, 0.0]), f"{where}.preset.amplitude"
            )
            modes.append(ModeSpec(kappa=kt, amplitude=amp, preset=dict(preset)))
        else:
            amp = _parse_amplitude(
                m.get("amplitude", [0.0, 0.0]), f"{where}.amplitude"
            )
            modes.append(ModeSpec(kappa=kt, amplitude=amp))

    limits = doc.get("closure_limits", {})
    _expect(isinstance(limits, dict), "closure_limits must be an object")
    max_gen = limits.get("max_generations", 8)
    max_norm = limits.get("max_sup_norm", 64)
    _expect(
        isinstance(max_gen, int) and max_gen >= 1,
        "closure_limits.max_generations must be an integer >= 1",
    )
    _expect(
        isinstance(max_norm, int) and max_norm >= 1,
        "closure_limits.max_sup_norm must be an integer >= 1",
    )

    solver = doc.get("solver", {})
    _expect(isinstance(solver, dict), "solver must be an object")
    eps_raw = solver.get("eps_list", [])
    _expect(isinstance(eps_raw, list), "solver.eps_list must be a list")
    eps_list = [_parse_eps(e, i) for i, e in enumerate(eps_raw)]

    exp = doc.get("experiment")
    _expect(
        isinstance(exp, dict) and "type" in exp,
        "exactly one experiment block with a type is required",
    )
    etype = exp["type"]
    _expect(
        etype in ("closure", "profiles", "converge", "instability", "smalldiv"),
        f"unknown experiment type {etype!r}",
    )
    for key, value in (
        ("solver.dt", solver.get("dt")),
        ("solver.grid_n", solver.get("grid_n")),
        ("experiment.profile_dt", exp.get("profile_dt")),
    ):
        _expect(
            value is None,
            f"{key}: must be null; each eps leg is solved on one 2*pi*eps period "
            "sized by the grid rule, at steps checked on the step-doubling ladder",
        )
    if etype in ("profiles", "converge"):
        tf = exp.get("t_final")
        _expect(
            isinstance(tf, (int, float)) and tf > 0,
            f"experiment.t_final must be positive for {etype}",
        )
    if etype == "profiles":
        dt = exp.get("dt", 1e-3)
        _expect(
            type(dt) in (int, float) and 0 < dt < math.inf,
            "experiment.dt: must be a positive number",
        )
        _expect_int(exp, "snapshots", 9, 1)
    if etype == "converge":
        _expect(dtype == "torus", "converge requires a torus domain")
        _expect(bool(eps_list), "converge requires a non-empty solver.eps_list")
        _expect_int(exp, "checkpoints", 8, 0)
    if etype == "instability":
        for key in ("rho", "delta", "s"):
            _expect(
                isinstance(exp.get(key), (int, float)),
                f"experiment.{key}: must be a number",
            )
        _expect_int(exp, "K", None, 1)
        _expect_int(exp, "grid_points", 10_000, 2)
        _expect(0 < exp["delta"] <= 1, "experiment.delta: must lie in (0, 1]")

    scn = Scenario(
        path=path,
        sha256=digest,
        dimension=dim,
        sigma=sigma,
        lam=float(lam),
        domain=dict(domain),
        modes=modes,
        closure_limits={"max_generations": max_gen, "max_sup_norm": max_norm},
        eps_list=eps_list,
        experiment=dict(exp),
    )
    scn.resolved = {
        "schema": SCENARIO_SCHEMA,
        "dimension": dim,
        "sigma": sigma,
        "lambda": float(lam),
        "domain": scn.domain,
        "initial_modes": [
            {
                "kappa": list(m.kappa),
                "amplitude": [m.amplitude.real, m.amplitude.imag],
                **({"preset": m.preset} if m.preset else {}),
            }
            for m in modes
        ],
        "closure_limits": scn.closure_limits,
        "solver": {
            "dt": None,
            "eps_list": [f"{f.numerator}/{f.denominator}" for f in eps_list],
        },
        "experiment": scn.experiment,
    }
    return scn


def _jsonable(obj) -> Any:
    """Recursively convert to JSON-safe values: complex to [re, im],
    Fraction to 'p/q', NaN/inf to None, numpy scalars to python."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray,)):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (np.complexfloating, complex)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _atomic_write_bytes(path: str, data: bytes) -> None:
    # mode 0o666 lets the umask set the permissions, as open() would;
    # mkstemp's 0600 would survive the replace
    tmp = os.path.join(os.path.dirname(path), f".tmp-{uuid.uuid4().hex}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    _atomic_write_bytes(path, (text + "\n").encode())


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write_bytes(path, buf.getvalue().encode())


def _write_npy(path: str, array: np.ndarray) -> None:
    buf = io.BytesIO()
    np.save(buf, array)
    _atomic_write_bytes(path, buf.getvalue())


def _emit_report(
    out_dir: str, command: str, scn: Scenario, results: dict, runtimes: dict, flags: dict
) -> str:
    envelope = {
        "schema": REPORT_SCHEMA,
        "command": command,
        "scenario_hash": scn.sha256,
        "resolved": _jsonable({**scn.resolved, "flags": flags}),
        "results": _jsonable(results),
    }
    canon = json.dumps(
        envelope, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    envelope["content_hash"] = hashlib.sha256(canon.encode()).hexdigest()
    envelope["runtimes"] = _jsonable(runtimes)
    path = os.path.join(out_dir, f"{command}_report.json")
    _write_json(path, envelope)
    return path


def _closed_modes(scn: Scenario) -> tuple[ModeSet, np.ndarray]:
    """Close the scenario vectors under resonances and align amplitudes to
    the resulting lexicographic order (created modes start at zero)."""
    vecs = [WaveVector(m.kappa) for m in scn.modes]
    modes = close_under_resonances(
        vecs,
        scn.sigma,
        max_generations=scn.closure_limits["max_generations"],
        max_sup_norm=scn.closure_limits["max_sup_norm"],
        record_edges=True,
    )
    amps = np.zeros(len(modes.vectors), dtype=complex)
    for spec in scn.modes:
        amps[modes.index(WaveVector(spec.kappa))] = spec.amplitude
    return modes, amps


def _kappa_label(coords: tuple[int, ...]) -> str:
    return "(" + ",".join(str(c) for c in coords) + ")"


def cmd_closure(scn: Scenario, out_dir: str, args, flags: dict) -> int:
    start = time.perf_counter()
    modes, _ = _closed_modes(scn)
    runtime = time.perf_counter() - start
    created = sum(1 for g in modes.generations if g > 0)
    rows = [
        list(v.coords) + [g] for v, g in zip(modes.vectors, modes.generations)
    ]
    header = [f"k{i}" for i in range(scn.dimension)] + ["generation"]
    _write_csv(os.path.join(out_dir, "modes.csv"), header, rows)
    edge_rows = [
        [" ".join(_kappa_label(p) for p in parents), _kappa_label(child), gen]
        for parents, child, gen in modes.creation_edges
    ]
    _write_csv(
        os.path.join(out_dir, "edges.csv"),
        ["parents", "created", "generation"],
        edge_rows,
    )
    results = {
        "vectors": [list(v.coords) for v in modes.vectors],
        "generations": list(modes.generations),
        "created_count": created,
        "saturated": modes.saturated,
    }
    _emit_report(out_dir, "closure", scn, results, {"total": runtime}, flags)
    if created == 0 and modes.saturated:
        print("saturated, no new vectors")
    else:
        note = "saturated" if modes.saturated else "NOT saturated (truncated)"
        print(
            f"closure: {len(scn.modes)} vectors in, {len(modes.vectors)} out "
            f"({created} created), {note}"
        )
    for parents, child, gen in modes.creation_edges:
        print(
            f"  generation {gen}: {_kappa_label(child)} from "
            + " ".join(_kappa_label(p) for p in parents)
        )
    return 0


def _profiles_torus(scn: Scenario, out_dir: str, oracle: Optional[str], flags: dict) -> int:
    exp = scn.experiment
    t_final = float(exp["t_final"])
    dt = float(exp.get("dt", 1e-3))
    snaps = int(exp.get("snapshots", 9))
    modes, amps = _closed_modes(scn)
    params = SimParams(lam=scn.lam, sigma=scn.sigma, t_final=t_final, dt=dt)
    snap_times = [t_final * k / snaps for k in range(snaps + 1)]
    start = time.perf_counter()
    traj = integrate_torus(amps, modes, params, snapshot_times=snap_times)
    runtime = time.perf_counter() - start

    # one formatting pass; numbers need no CSV quoting
    header = ",".join(
        ["t"] + [f"{part}_j{j}" for j in range(len(modes.vectors)) for part in ("re", "im")]
    )
    row = "{:.12g}" + ",{:.17g}" * (2 * len(modes.vectors)) + "\n"
    lines = (
        row.format(t, *parts)
        for t, parts in zip(traj.times.tolist(), traj.amps.view(float).tolist())
    )
    _atomic_write_bytes(
        os.path.join(out_dir, "trajectory.csv"), (header + "\n" + "".join(lines)).encode()
    )

    drift = _relative_drift(traj.mass_series())
    results = {
        "modes": [list(v.coords) for v in modes.vectors],
        "final_amps": traj.amps[-1],
        "mass_relative_drift": drift,
        "interaction_tuples": traj.interaction_tuples,
        "rk4_steps": len(traj.times) - 1,
        "oracle": oracle,
    }

    deviation = None
    if oracle == "explicit_torus_1d":
        _expect(scn.dimension == 1 and scn.sigma == 1,
                "explicit_torus_1d oracle needs d=1, sigma=1")
        deviation = max(
            float(np.max(np.abs(row - explicit_torus_1d(amps, scn.lam, float(t)))))
            for t, row in zip(traj.times, traj.amps)
        )
    elif oracle == "explicit_two_mode":
        _expect(len(modes.vectors) == 2,
                "explicit_two_mode oracle needs exactly two modes after closure")
        dev = 0.0
        for t, row in zip(traj.times, traj.amps):
            r0, r1 = explicit_two_mode(amps[0], amps[1], scn.sigma, scn.lam, float(t))
            dev = max(dev, abs(row[0] - r0), abs(row[1] - r1))
        deviation = float(dev)
    elif oracle is not None:
        raise ScenarioError(f"oracle {oracle!r} does not apply to a torus scenario")

    if deviation is not None:
        results["oracle_max_deviation"] = deviation
        print(f"oracle {oracle} max deviation {deviation:.3e}")
    print(
        f"profiles: {len(modes.vectors)} modes, {traj.interaction_tuples} tuples, "
        f"{len(traj.times) - 1} RK4 steps to t={t_final:g}, mass drift {drift:.3e}"
    )
    _emit_report(out_dir, "profiles", scn, results, {"total": runtime}, flags)
    return 0


def _profiles_euclid(scn: Scenario, out_dir: str, oracle: Optional[str], flags: dict) -> int:
    exp = scn.experiment
    t_final = float(exp["t_final"])
    dt = float(exp.get("dt", 1e-3))
    snaps = int(exp.get("snapshots", 9))
    length = float(scn.domain["length"])
    n = int(scn.domain["grid_n"])
    modes, _ = _closed_modes(scn)
    _expect(
        len(modes.vectors) == len(scn.modes),
        "euclid scenarios must list a preset for every mode of the closed set",
    )
    x = np.arange(n) * (length / n)

    def gaussian(preset):
        c, w = float(preset["center"]), float(preset["width"])
        a = complex(*preset["amplitude"])
        return lambda y: a * np.exp(-((y - c) ** 2) / (2.0 * w * w))

    funcs = [None] * len(modes.vectors)
    for spec in scn.modes:
        funcs[modes.index(WaveVector(spec.kappa))] = gaussian(spec.preset)
    fields0 = np.stack([f(x) for f in funcs]).astype(complex)

    params = SimParams(lam=scn.lam, sigma=scn.sigma, t_final=t_final, dt=dt)
    snap_times = [t_final * k / snaps for k in range(snaps + 1)]
    start = time.perf_counter()
    traj = integrate_euclid(fields0, modes, params, length, snapshot_times=snap_times)
    runtime = time.perf_counter() - start

    _write_npy(os.path.join(out_dir, "fields_initial.npy"), traj.fields[0])
    _write_npy(os.path.join(out_dir, "fields_final.npy"), traj.fields[-1])
    _write_csv(
        os.path.join(out_dir, "mass.csv"),
        ["t", "mass"],
        [[f"{t:.12g}", f"{m:.17g}"] for t, m in zip(traj.mass_times, traj.masses)],
    )
    drift = _relative_drift(traj.masses)
    results = {
        "modes": [list(v.coords) for v in modes.vectors],
        "grid_n": n,
        "length": length,
        "mass_relative_drift": drift,
        "interaction_tuples": traj.interaction_tuples,
        "rk4_steps": len(traj.mass_times) - 1,
        "oracle": oracle,
    }

    if oracle == "explicit_euclid_1d":
        _expect(scn.sigma == 1, "explicit_euclid_1d oracle needs sigma=1")
        qdt = float(exp.get("quadrature_dt", dt))
        kappas = [float(v.coords[0]) for v in modes.vectors]
        ref = explicit_euclid_1d(funcs, kappas, scn.lam, t_final, x, qdt)
        deviation = float(np.max(np.abs(traj.fields[-1] - ref)))
        results["oracle_max_deviation"] = deviation
        print(f"oracle {oracle} max deviation {deviation:.3e}")
    elif oracle is not None:
        raise ScenarioError(f"oracle {oracle!r} does not apply to a euclid scenario")

    print(
        f"profiles: {len(modes.vectors)} euclid profiles, {traj.interaction_tuples} tuples, "
        f"{len(traj.mass_times) - 1} RK4 steps to t={t_final:g}, mass drift {drift:.3e}"
    )
    _emit_report(out_dir, "profiles", scn, results, {"total": runtime}, flags)
    return 0


def cmd_profiles(scn: Scenario, out_dir: str, args, flags: dict) -> int:
    oracle = args.oracle or scn.experiment.get("oracle")
    if oracle is not None:
        _expect(oracle in ORACLES, f"unknown oracle {oracle!r}")
    if scn.domain["type"] == "euclid":
        return _profiles_euclid(scn, out_dir, oracle, flags)
    return _profiles_torus(scn, out_dir, oracle, flags)


def _rung_label(rung) -> str:
    return "n/a" if rung is None else f"{rung}x"


def _delta_label(value, eps=None) -> str:
    """A health value, or a delta in multiples of eps when eps is given."""
    if value is None:
        return "n/a"
    return f"{value:.2e}" if eps is None else f"{value / eps:.2e}*eps"


def cmd_converge(scn: Scenario, out_dir: str, args, flags: dict) -> int:
    exp = scn.experiment
    modes, amps = _closed_modes(scn)
    start = time.perf_counter()
    table = run_convergence(
        modes,
        amps,
        scn.lam,
        [float(f) for f in scn.eps_list],
        float(exp["t_final"]),
        checkpoints=exp.get("checkpoints", 8),
    )
    total = time.perf_counter() - start

    health = ("rung", "step_delta", "grid_delta", "steps", "l2_drift", "aliasing")
    _write_csv(
        os.path.join(out_dir, "convergence.csv"),
        ["eps", "grid_n", "dt", "sup_error", "w_error", *health, "runtime", "status"],
        [
            [
                f"{r.eps:.12g}",
                r.n,
                f"{r.dt:.12g}",
                f"{r.sup_error:.17g}",
                f"{r.w_error:.17g}",
                *("" if getattr(r, k) is None else getattr(r, k) for k in health),
                f"{r.runtime:.3f}",
                r.status,
            ]
            for r in table.rows
        ],
    )
    results = {
        "rows": [
            {
                "eps": r.eps,
                "grid_n": r.n,
                "dt": r.dt,
                "sup_error": r.sup_error,
                "w_error": r.w_error,
                "status": r.status,
                **{k: getattr(r, k) for k in health},
            }
            for r in table.rows
        ],
        "checkpoint_times": table.checkpoint_times,
        "order_sup": table.order_sup,
        "order_w": table.order_w,
        "at_floor": table.at_floor,
        "profile": {
            "dt": table.profile_dt,
            "rung": table.profile_rung,
            "delta": table.profile_delta,
            "rk4_steps": table.profile_steps,
        },
    }
    runtimes = {
        "total": total,
        "rows": [r.runtime for r in table.rows],
        "profile": table.profile_s,
        "stages": [r.stage_s for r in table.rows],
    }
    _emit_report(out_dir, "converge", scn, results, runtimes, flags)

    print(
        f"profile: dt={table.profile_dt:.4g} rung {_rung_label(table.profile_rung)} "
        f"delta {_delta_label(table.profile_delta)} {table.profile_steps} RK4 steps"
    )
    for r in table.rows:
        note = "" if r.ok else f"  [{r.status}]"
        print(
            f"eps={r.eps:<10.6g} n={r.n:<6d} sup={r.sup_error:.4e} "
            f"w={r.w_error:.4e}{note}"
        )
        print(
            f"  health: dt={r.dt:.4g} rung {_rung_label(r.rung)} "
            f"step {_delta_label(r.step_delta, r.eps)} "
            f"grid {_delta_label(r.grid_delta, r.eps)} "
            f"{r.steps} steps l2 drift {_delta_label(r.l2_drift)} "
            f"top band {_delta_label(r.aliasing)}"
        )
    print(
        f"fitted order: sup {table.fitted_order_label('sup')}, "
        f"w {table.fitted_order_label('w')}"
    )
    if args.assert_order is not None:
        if table.at_floor:
            return 0
        if table.order_sup is None or table.order_sup < args.assert_order:
            got = "n/a" if table.order_sup is None else f"{table.order_sup:.3f}"
            print(
                f"order assertion failed: {got} < {args.assert_order}",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_instability(scn: Scenario, out_dir: str, args, flags: dict) -> int:
    exp = scn.experiment
    grid_points = int(exp.get("grid_points", 10_000))
    start = time.perf_counter()
    record = run_instability(
        float(exp["rho"]),
        float(exp["delta"]),
        float(exp["s"]),
        int(exp["K"]),
        sigma=scn.sigma,
        lam=scn.lam,
        variant=exp.get("variant", "perturb_high"),
        theta=exp.get("theta"),
        grid_points=grid_points,
        cross_check=bool(exp.get("cross_check", False)),
    )
    total = time.perf_counter() - start

    times, curve = gap_curve(
        record.alpha0, record.theta0, record.alpha0_tilde, record.theta0_tilde,
        record.lam, record.delta, grid_points,
    )
    lines = map("{:.12g},{:.17g}\n".format, times.tolist(), curve.tolist())
    _atomic_write_bytes(
        os.path.join(out_dir, "gap_curve.csv"), ("t,gap\n" + "".join(lines)).encode()
    )
    _emit_report(out_dir, "instability", scn, {"record": record}, {"total": total}, flags)

    print(
        f"{record.variant}: gap {record.gap:.4f} at t*={record.t_star:.4f} "
        f"(theta0 {record.theta0:g} vs {record.theta0_tilde:g}); "
        f"H^s premise {'ok' if record.hs_condition_ok else 'NOT met'}"
    )
    if record.solver_gap is not None:
        print(
            f"solver cross-check: gap {record.solver_gap:.4f} at "
            f"t*={record.solver_t_star:.4f}, deviation "
            f"{record.solver_formula_deviation:.3e} "
            f"({record.solver_formula_deviation / record.eps:.2f} eps); "
            f"{record.solver_steps} steps on {record.solver_grid_n} points, "
            f"L2 drift {record.solver_l2_drift:.1e}, "
            f"top-band fraction {record.solver_aliasing:.1e}"
        )
        budget = LADDER_FRACTION * record.eps
        for i, (rung, dt, step_delta, grid_delta) in enumerate(zip(
            record.solver_rungs, record.solver_dts,
            record.solver_step_deltas, record.solver_grid_deltas,
        ), 1):
            over = [
                name for name, gap in (("step", step_delta), ("grid", grid_delta))
                if gap > budget
            ]
            note = f"  [over {LADDER_FRACTION:g}*eps: {', '.join(over)}]" if over else ""
            print(
                f"  datum {i}: dt={dt / record.eps:.4g}*eps rung {_rung_label(rung)} "
                f"step {_delta_label(step_delta, record.eps)} "
                f"grid {_delta_label(grid_delta, record.eps)}{note}"
            )
    return 0


def cmd_smalldiv(scn: Scenario, out_dir: str, args, flags: dict) -> int:
    exp = scn.experiment
    modes, _ = _closed_modes(scn)
    b_grid = exp.get("b_grid", [0.0])
    _expect(
        isinstance(b_grid, list)
        and all(isinstance(b, (int, float)) and b >= 0 for b in b_grid),
        "experiment.b_grid must be a list of nonnegative numbers",
    )
    start = time.perf_counter()
    survey = survey_divisors(modes, scn.sigma)
    fit = fit_generalized_bound(modes, scn.sigma, [float(b) for b in b_grid])
    total = time.perf_counter() - start

    _write_csv(
        os.path.join(out_dir, "generalized_fit.csv"),
        ["b", "c"],
        [[f"{b:.12g}", "" if c is None else f"{c:.17g}"] for b, c in fit],
    )
    results: dict = {"survey": survey, "generalized_fit": fit}

    probe_cfg = exp.get("probe")
    if probe_cfg is not None:
        _expect(isinstance(probe_cfg, dict), "experiment.probe must be an object")
        gens_raw = probe_cfg.get("generators")
        _expect(
            isinstance(gens_raw, list) and gens_raw,
            "probe.generators must be a non-empty list of vectors",
        )
        gens = []
        for i, g in enumerate(gens_raw):
            _expect(isinstance(g, list) and g, f"probe.generators[{i}] must be a vector")
            row = []
            for c in g:
                if isinstance(c, str):
                    try:
                        row.append(Fraction(c))
                    except (ValueError, ZeroDivisionError):
                        raise ScenarioError(
                            f"probe.generators[{i}]: cannot parse {c!r}"
                        ) from None
                elif isinstance(c, (int, float)) and not isinstance(c, bool):
                    row.append(c)
                else:
                    raise ScenarioError(f"probe.generators[{i}]: bad entry {c!r}")
            gens.append(row)
        probe = gram_diophantine_probe(
            gens,
            int(probe_cfg.get("beta_bound", 6)),
            b_prime=probe_cfg.get("b_prime"),
            budget=int(probe_cfg.get("budget", 10_000_000)),
        )
        results["probe"] = probe
        note = " (partial scan)" if probe.partial else ""
        exact = "" if probe.exact_minimum is None else f" = {probe.exact_minimum}"
        print(
            f"gram probe: min nonzero |sum beta G| = {probe.minimum:.6g}{exact} "
            f"over {probe.combos_scanned} combinations{note}"
        )
        if probe.zero_combinations:
            print(
                "gram probe: exact zero combinations exist "
                "(generators are not generic)"
            )

    if survey.all_resonant:
        print(
            f"divisor survey: all {survey.tuples_scanned} tuples resonant "
            "(no divisor to bound)"
        )
    else:
        print(
            f"divisor survey: min |delta| = {survey.min_delta} over "
            f"{survey.nonresonant_count} non-resonant tuples "
            f"(of {survey.tuples_scanned})"
        )
    _emit_report(out_dir, "smalldiv", scn, results, {"total": total}, flags)

    if modes.scale == 1 and not survey.all_resonant and survey.min_delta < 1:
        print(
            "integer-lattice divisor assertion failed: min_delta < 1",
            file=sys.stderr,
        )
        return 1
    return 0


COMMANDS = {
    "closure": cmd_closure,
    "profiles": cmd_profiles,
    "converge": cmd_converge,
    "instability": cmd_instability,
    "smalldiv": cmd_smalldiv,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlsoptics",
        description="scenario-driven experiments for multiphase semiclassical NLS",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument(
            "--out", default="reports", help="output directory (default: reports)"
        )
        if name == "converge":
            p.add_argument(
                "--assert-order",
                type=float,
                default=None,
                metavar="P",
                help="exit 1 unless the fitted sup order reaches P",
            )
        if name == "profiles":
            p.add_argument(
                "--oracle",
                choices=ORACLES,
                default=None,
                help="compare against a closed form and report the deviation",
            )
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scn = load_scenario(args.scenario)
        expected = scn.experiment["type"]
        if expected != args.command:
            raise ScenarioError(
                f"scenario declares experiment {expected!r}, "
                f"invoked command {args.command!r}"
            )
        os.makedirs(args.out, exist_ok=True)
        flags = {
            "assert_order": getattr(args, "assert_order", None),
            "oracle": getattr(args, "oracle", None),
        }
        return COMMANDS[args.command](scn, args.out, args, flags)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2


def entrypoint(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    entrypoint()
