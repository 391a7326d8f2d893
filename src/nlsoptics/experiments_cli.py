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

Every key, with its type, its bounds and its default, is one row of the
scenario table: `SCENARIO` and the sections it names, with `EXPERIMENTS`
holding the block of each experiment type.  `load_scenario` checks a
document against the table, rejects unknown keys, then applies the rules
that relate two fields (`_cross_rules`); the resolved document names every
default a run uses.  The README lists the keys.

Each command returns its results, runtimes and side files; `run` alone
writes them: the side files, then a JSON report embedding the scenario hash
and the resolved parameters, byte-identical across runs of one scenario and
tool version except for the runtimes, which the content hash excludes.  All
writes are atomic (temp then rename).  Exit codes: 0 success, 1 failed
assertion (--assert-order, integer-lattice divisor check; its report is
written) or profile blow-up (in converge, at the ladder's rung 1), 2
scenario errors or an --out that is not a directory; a blow-up or an exit 2
writes nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import time
import uuid
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Any, Optional

import numpy as np

from .lattice_geometry import ModeSet, WaveVector, close_under_resonances
from .profile_dynamics import (
    BlowUpError,
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
from . import wkb_pipeline
from .wkb_pipeline import LADDER_FRACTION, LadderCheck, run_convergence, run_instability

SCENARIO_SCHEMA = "nlsoptics-scenario/1"
REPORT_SCHEMA = "nlsoptics-report/1"

ORACLES = ("explicit_torus_1d", "explicit_two_mode", "explicit_euclid_1d")


class ScenarioError(Exception):
    """Raised for malformed or inconsistent scenario documents."""


class CommandFailed(Exception):
    """Raised for a run that ends without results, such as a profile run
    that tripped the RK4 blow-up guard; the message is its one stderr line."""


@dataclass
class ModeSpec:
    kappa: tuple[int, ...]
    amplitude: complex = 0j
    preset: Optional[dict] = None


@dataclass
class Scenario:
    sha256: str
    dimension: int
    sigma: int
    lam: float
    domain: dict
    modes: list[ModeSpec]
    closure_limits: dict
    eps_list: list[Fraction]
    experiment: dict
    resolved: dict  # the document with every default filled in, as reported


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ScenarioError(msg)


REQUIRED = object()  # the default of a key that must be given
OMIT = object()  # the default of a retired key that the resolved document drops

RETIRED = (
    "each eps leg is solved on one 2*pi*eps period sized by the grid rule, "
    "at steps checked on the step-doubling ladder"
)


@dataclass(frozen=True)
class Row:
    """One scenario key: its kind, its bounds (spec) and its default.

    int, real    spec is an interval such as "[1, 64]" or "(0, 1]"; reals
                 become floats, and both ends are finite
    pow2         an integer interval; the value is also a power of two
    rational     an interval; the value may be a "p/q" string
    eps          a "1/N" string, or a number equal to 1/N; becomes "1/N"
    bool, choice choice's spec holds the allowed values
    list         spec is the interval of lengths; `item` is each entry's row
    section      spec is {key: Row}; tagged is {type: {key: Row}}, where the
                 block's "type" picks the rows
    retired      spec holds the allowed values; resolves to the default

    A bool is never a number.  An explicit null is accepted where the
    default is None.
    """

    kind: str
    spec: Any = None
    default: Any = REQUIRED
    item: Optional["Row"] = None


AMPLITUDE = Row("list", "[2, 2]", [0.0, 0.0], item=Row("real", "[-1e3, 1e3]"))

DOMAINS = {
    "torus": {},
    "euclid": {
        "length": Row("real", "(0, 1e6]"),
        "grid_n": Row("pow2", "[2, 1048576]"),
    },
}

PRESETS = {
    "gaussian": {
        "center": Row("real", "[-1e6, 1e6]"),
        "width": Row("real", "(0, 1e6]"),
        "amplitude": AMPLITUDE,
    },
}

MODE = {
    "kappa": Row("list", "[1, 8]", item=Row("int", "[-1048576, 1048576]")),
    "amplitude": AMPLITUDE,  # on a euclid domain the preset carries it
    "preset": Row("tagged", PRESETS, None),
}

PROBE = {
    "generators": Row(
        "list", "[1, 8]",
        item=Row("list", "[1, 8]", item=Row("rational", "[-1e6, 1e6]")),
    ),
    "beta_bound": Row("int", "[1, 64]", 6),
    "b_prime": Row("real", "[0, 100]", None),
    "budget": Row("int", "[1, 1e9]", 10_000_000),
}

EXPERIMENTS = {
    "closure": {},
    "profiles": {
        "t_final": Row("real", "(0, 1e3]"),
        "dt": Row("real", "(0, 1]", 1e-3),
        "snapshots": Row("int", "[1, 10000]", 9),
        "oracle": Row("choice", (None, *ORACLES), None),
        "quadrature_dt": Row("real", "(0, 1]", None),  # null: dt, on euclid
    },
    "converge": {
        "t_final": Row("real", "(0, 1e3]"),
        "checkpoints": Row("int", "[0, 10000]", 8),
        "profile_dt": Row("retired", (None,), OMIT),
        "dt_self_check": Row("retired", (None, False), OMIT),
    },
    "instability": {
        "variant": Row(
            "choice", ("perturb_high", "perturb_zero", "weak_limit"), "perturb_high"
        ),
        "rho": Row("real", "(0, 100]"),
        "delta": Row("real", "(0, 1]"),
        "s": Row("real", "[-4, 0)"),
        "K": Row("int", "[1, 4096]"),
        "theta": Row("real", "(0, 1e6]", None),
        "grid_points": Row("int", "[2, 1000000]", 10_000),
        "cross_check": Row("bool", None, False),
    },
    "smalldiv": {
        "b_grid": Row("list", "[0, 64]", [0.0], item=Row("real", "[0, 100]")),
        "probe": Row("section", PROBE, None),
    },
}

SCENARIO = {
    "schema": Row("choice", (SCENARIO_SCHEMA,)),
    "dimension": Row("int", "[1, 8]"),
    "sigma": Row("int", "[1, 8]"),
    "lambda": Row("real", "[-1e3, 1e3]", 1.0),
    "domain": Row("tagged", DOMAINS, {"type": "torus"}),
    "initial_modes": Row("list", "[1, 4096]", item=Row("section", MODE)),
    "closure_limits": Row("section", {
        "max_generations": Row("int", "[1, 64]", 8),
        "max_sup_norm": Row("int", "[1, 4096]", 64),
    }, {}),
    "solver": Row("section", {
        "dt": Row("retired", (None,), None),
        "grid_n": Row("retired", (None,), OMIT),
        "eps_list": Row("list", "[0, 64]", [], item=Row("eps")),
    }, {}),
    "experiment": Row("tagged", EXPERIMENTS),
}


def _within(value, interval: str) -> bool:
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return (lo < value if interval[0] == "(" else lo <= value) and (
        value < hi if interval[-1] == ")" else value <= hi
    )


def _resolve(value, row: Row, path: str):
    """Check one value against its row; return it resolved."""
    kind, spec = row.kind, row.spec
    if kind == "retired":
        if any(value is v for v in spec):
            return row.default
        what = f"{' or '.join(map(json.dumps, spec))}; {RETIRED}"
    elif value is None and row.default is None:
        return None
    elif kind in ("int", "pow2"):
        pow2 = kind == "pow2"
        if type(value) is int and _within(value, spec) and not (pow2 and value & (value - 1)):
            return value
        what = f"{'a power of two' if pow2 else 'an integer'} in {spec}"
    elif kind == "real":
        if type(value) in (int, float) and _within(value, spec):
            return float(value)
        what = f"a real in {spec}"
    elif kind == "rational":
        number = value
        if isinstance(value, str):
            with contextlib.suppress(ValueError, ZeroDivisionError):
                number = Fraction(value)
        if type(number) in (int, float, Fraction) and _within(number, spec):
            return value
        what = f"a real or a 'p/q' string in {spec}"
    elif kind == "eps":
        f = Fraction(_resolve(value, Row("rational", "(0, 1]"), path))
        if f.numerator == 1:
            return f"1/{f.denominator}"
        what = "1/N for an integer N"
    elif kind == "bool":
        if type(value) is bool:
            return value
        what = "true or false"
    elif kind == "choice":
        if value in spec:
            return value
        what = f"one of {', '.join(map(json.dumps, spec))}"
    elif kind == "list":
        if isinstance(value, list) and _within(len(value), spec):
            return [_resolve(v, row.item, f"{path}[{i}]") for i, v in enumerate(value)]
        what = f"a list of length in {spec}"
    elif not isinstance(value, dict):
        what = "an object"
    elif kind == "section":
        return _resolve_keys(value, spec, path)
    else:  # tagged: the block's type picks its rows
        _expect("type" in value, f"{path}.type: required")
        tag = _resolve(value["type"], Row("choice", tuple(spec)), f"{path}.type")
        rest = {k: v for k, v in value.items() if k != "type"}
        return {"type": tag, **_resolve_keys(rest, spec[tag], path)}
    raise ScenarioError(f"{path}: must be {what}, got {value!r}")


def _resolve_keys(doc: dict, rows: dict, path: str) -> dict:
    """Resolve an object's keys against their rows, defaults included."""
    def where(key):
        return f"{path}.{key}" if path else key

    out = {}
    for key, row in rows.items():
        if key in doc:
            value = doc[key]
        else:
            if row.default is REQUIRED:
                raise ScenarioError(f"{where(key)}: required")
            if row.default is OMIT:
                continue
            value = row.default
        resolved = _resolve(value, row, where(key))
        if resolved is not OMIT:
            out[key] = resolved
    for key in doc:
        if key not in rows:
            raise ScenarioError(f"{where(key)}: unknown key; expected one of "
                                f"{', '.join(rows) or 'none'}")
    return out


def _cross_rules(doc: dict, raw: dict) -> list[ModeSpec]:
    """The rules that relate fields the table checks one by one.  Rewrites
    the resolved modes into their report form and returns them as specs."""
    dim, exp, eps_list = doc["dimension"], doc["experiment"], doc["solver"]["eps_list"]
    euclid = doc["domain"]["type"] == "euclid"
    _expect(not euclid or dim == 1,
            f"domain.type: euclid supports dimension 1 only, got dimension {dim}")
    specs, seen = [], set()
    for i, m in enumerate(doc["initial_modes"]):
        where = f"initial_modes[{i}]"
        kappa = tuple(m["kappa"])
        _expect(len(kappa) == dim,
                f"{where}.kappa: arity {len(kappa)} does not match dimension {dim}")
        _expect(kappa not in seen, f"{where}.kappa: duplicate vector {kappa}")
        seen.add(kappa)
        preset = m.pop("preset")
        _expect((preset is not None) == euclid, f"{where}.preset: "
                + ("a euclid mode needs one" if euclid else
                   "only a mode on a euclid domain takes one; domain.type is torus"))
        if euclid:
            _expect("amplitude" not in raw["initial_modes"][i],
                    f"{where}.amplitude: a euclid mode takes it from its preset")
            m["amplitude"], m["preset"] = preset["amplitude"], preset
        specs.append(ModeSpec(kappa, complex(*m["amplitude"]), preset))

    etype = exp["type"]
    if etype == "profiles":
        _expect(exp["dt"] <= exp["t_final"],
                "experiment.dt: must not exceed experiment.t_final")
        # the closed form must describe the scenario's domain and nonlinearity
        oracle, sigma = exp["oracle"], doc["sigma"]
        needs = {
            None: True,
            "explicit_torus_1d": not euclid and dim == 1 and sigma == 1,
            "explicit_two_mode": not euclid,
            "explicit_euclid_1d": euclid and sigma == 1,
        }
        _expect(needs[oracle], f"experiment.oracle: {oracle} does not apply to a "
                f"{doc['domain']['type']} domain with dimension {dim}, sigma {sigma}")
        if euclid and exp["quadrature_dt"] is None:
            exp["quadrature_dt"] = exp["dt"]
    if etype == "converge":
        _expect(not euclid, "experiment.type: converge needs domain.type torus")
        _expect(bool(eps_list), "solver.eps_list: converge needs at least one eps")
    if etype == "instability" and exp["variant"] == "weak_limit":
        _expect(exp["theta"] is not None,
                "experiment.theta: required by the weak_limit variant")
        _expect(not exp["cross_check"], "experiment.cross_check: must be false "
                "for weak_limit, whose limit datum is not a solution to solve")
    if etype == "smalldiv" and exp["probe"] is not None:
        _expect(len({len(g) for g in exp["probe"]["generators"]}) == 1,
                "experiment.probe.generators: the vectors must share one dimension")
    return specs


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    digest = hashlib.sha256(blob).hexdigest()
    try:
        raw = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from None
    _expect(isinstance(raw, dict), "scenario root must be an object")
    doc = _resolve_keys(raw, SCENARIO, "")
    modes = _cross_rules(doc, raw)
    return Scenario(
        sha256=digest, dimension=doc["dimension"], sigma=doc["sigma"],
        lam=doc["lambda"], domain=doc["domain"], modes=modes,
        closure_limits=doc["closure_limits"],
        eps_list=[Fraction(e) for e in doc["solver"]["eps_list"]],
        experiment=doc["experiment"], resolved=doc,
    )


def _jsonable(obj) -> Any:
    """Recursively convert to JSON-safe values: complex to [re, im],
    Fraction to 'p/q', NaN/inf to None, numpy scalars to python."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
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


def _csv_bytes(header: list[str], rows: list[list]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _series_bytes(header: list[str], times, values) -> bytes:
    """A numeric side file: the header, then per time the time at %.12g and
    its row of values at %.17g, through one %-format over the interleaved
    cells (the text of the .12g and .17g format specs, inf, nan and -0
    included); numbers need no CSV quoting."""
    values = np.asarray(values, dtype=float).reshape(len(times), -1)
    cells = tuple(np.column_stack([times, values]).ravel().tolist())
    row = "%.12g" + ",%.17g" * values.shape[1] + "\n"
    return (",".join(header) + "\n" + (row * len(times)) % cells).encode()


def _npy_bytes(array: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _report_bytes(args, scn: Scenario, results: dict, runtimes: dict) -> bytes:
    flags = {"assert_order": getattr(args, "assert_order", None)}
    envelope = {
        "schema": REPORT_SCHEMA,
        "command": args.command,
        "scenario_hash": scn.sha256,
        "resolved": _jsonable({**scn.resolved, "flags": flags}),
        "results": _jsonable(results),
    }
    canon = json.dumps(
        envelope, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    envelope["content_hash"] = hashlib.sha256(canon.encode()).hexdigest()
    envelope["runtimes"] = _jsonable(runtimes)
    text = json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False)
    return (text + "\n").encode()


def _closed_modes(scn: Scenario, record_edges: bool = False) -> tuple[ModeSet, np.ndarray]:
    """Close the scenario vectors under resonances and align amplitudes to
    the resulting lexicographic order (created modes start at zero).  Only
    the closure command lists creation edges; the others never read them."""
    vecs = [WaveVector(m.kappa) for m in scn.modes]
    modes = close_under_resonances(
        vecs,
        scn.sigma,
        max_generations=scn.closure_limits["max_generations"],
        max_sup_norm=scn.closure_limits["max_sup_norm"],
        record_edges=record_edges,
    )
    amps = np.zeros(len(modes.vectors), dtype=complex)
    for spec in scn.modes:
        amps[modes.index(WaveVector(spec.kappa))] = spec.amplitude
    return modes, amps


# what a command returns to `run`: its results, its runtimes, each side
# file's bytes by name, and its exit code
Outcome = tuple[dict, dict, dict[str, bytes], int]


def _kappa_label(coords: tuple[int, ...]) -> str:
    return "(" + ",".join(str(c) for c in coords) + ")"


def cmd_closure(scn: Scenario, args) -> Outcome:
    start = time.perf_counter()
    modes, _ = _closed_modes(scn, record_edges=True)
    runtime = time.perf_counter() - start
    created = sum(1 for g in modes.generations if g > 0)
    rows = [
        list(v.coords) + [g] for v, g in zip(modes.vectors, modes.generations)
    ]
    header = [f"k{i}" for i in range(scn.dimension)] + ["generation"]
    edge_rows = [
        [" ".join(_kappa_label(p) for p in parents), _kappa_label(child), gen]
        for parents, child, gen in modes.creation_edges
    ]
    files = {
        "modes.csv": _csv_bytes(header, rows),
        "edges.csv": _csv_bytes(["parents", "created", "generation"], edge_rows),
    }
    results = {
        "vectors": [list(v.coords) for v in modes.vectors],
        "generations": list(modes.generations),
        "created_count": created,
        "saturated": modes.saturated,
    }
    if created == 0 and modes.saturated:
        print("saturated, no new vectors")
    else:
        note = "saturated" if modes.saturated else "NOT saturated (truncated)"
        print(
            f"closure: {len(scn.modes)} vectors in, {len(modes.vectors)} out "
            f"({created} created), {note}"
        )
    for parents, child, gen in edge_rows:
        print(f"  generation {gen}: {child} from {parents}")
    return results, {"total": runtime}, files, 0


def _gaussian(preset: dict):
    c, w = float(preset["center"]), float(preset["width"])
    a = complex(*preset["amplitude"])
    return lambda y: a * np.exp(-((y - c) ** 2) / (2.0 * w * w))


def cmd_profiles(scn: Scenario, args) -> Outcome:
    """RK4 profiles on the torus (amplitudes) or the Euclidean box (fields);
    only the data, the integrator, the side files and the oracle differ."""
    exp = scn.experiment
    oracle = exp["oracle"]
    t_final, dt, snaps = exp["t_final"], exp["dt"], exp["snapshots"]
    euclid = scn.domain["type"] == "euclid"
    modes, data = _closed_modes(scn)
    if oracle == "explicit_two_mode":
        _expect(len(modes.vectors) == 2,
                "explicit_two_mode oracle needs exactly two modes after closure")
    if euclid:
        length, n = scn.domain["length"], scn.domain["grid_n"]
        _expect(
            len(modes.vectors) == len(scn.modes),
            "euclid scenarios must list a preset for every mode of the closed set",
        )
        x = np.arange(n) * (length / n)
        funcs = [None] * len(modes.vectors)
        for spec in scn.modes:
            funcs[modes.index(WaveVector(spec.kappa))] = _gaussian(spec.preset)
        data = np.stack([f(x) for f in funcs]).astype(complex)

    params = SimParams(lam=scn.lam, t_final=t_final, dt=dt)
    snap_times = [t_final * k / snaps for k in range(snaps + 1)]
    start = time.perf_counter()
    try:
        if euclid:
            traj = integrate_euclid(data, modes, params, length, snapshot_times=snap_times)
        else:
            traj = integrate_torus(data, modes, params, snapshot_times=snap_times)
    except BlowUpError as exc:
        # the step condition dt*|lambda|*max|a|^(2 sigma) is the nonlinear
        # phase one step turns
        cond = dt * abs(scn.lam) * float(np.max(np.abs(data))) ** (2 * scn.sigma)
        raise CommandFailed(
            f"profiles failed: {exc}; step condition dt*|lambda|*max|a|^(2 sigma) "
            f"= {cond:.3g} at dt={dt:g}"
        ) from None
    runtime = time.perf_counter() - start

    results = {
        "modes": [list(v.coords) for v in modes.vectors],
        "interaction_tuples": traj.interaction_tuples,
        "oracle": oracle,
    }
    if euclid:
        files = {
            "fields_initial.npy": _npy_bytes(traj.fields[0]),
            "fields_final.npy": _npy_bytes(traj.fields[-1]),
            "mass.csv": _series_bytes(["t", "mass"], traj.mass_times, traj.masses),
        }
        masses, steps, what = traj.masses, len(traj.mass_times) - 1, "euclid profiles"
        results.update(grid_n=n, length=length)
    else:
        header = ["t"] + [
            f"{part}_j{j}" for j in range(len(modes.vectors)) for part in ("re", "im")
        ]
        files = {"trajectory.csv": _series_bytes(header, traj.times, traj.amps.view(float))}
        masses, steps, what = traj.mass_series(), len(traj.times) - 1, "modes"
        results["final_amps"] = traj.amps[-1]
    drift = _relative_drift(masses)
    results.update(mass_relative_drift=drift, rk4_steps=steps)

    if oracle == "explicit_euclid_1d":
        kappas = [float(v.coords[0]) for v in modes.vectors]
        ref = explicit_euclid_1d(funcs, kappas, scn.lam, t_final, x, exp["quadrature_dt"])
        deviation = float(np.max(np.abs(traj.fields[-1] - ref)))
    elif oracle == "explicit_torus_1d":
        deviation = max(
            float(np.max(np.abs(row - explicit_torus_1d(data, scn.lam, float(t)))))
            for t, row in zip(traj.times, traj.amps)
        )
    elif oracle == "explicit_two_mode":
        deviation = 0.0
        for t, row in zip(traj.times, traj.amps):
            r0, r1 = explicit_two_mode(data[0], data[1], scn.sigma, scn.lam, float(t))
            deviation = max(deviation, abs(row[0] - r0), abs(row[1] - r1))
        deviation = float(deviation)
    if oracle is not None:
        results["oracle_max_deviation"] = deviation
        print(f"oracle {oracle} max deviation {deviation:.3e}")
    print(
        f"profiles: {len(modes.vectors)} {what}, {traj.interaction_tuples} tuples, "
        f"{steps} RK4 steps to t={t_final:g}, mass drift {drift:.3e}"
    )
    return results, {"total": runtime}, files, 0


def _delta_label(value, eps=None) -> str:
    """A health value, or a delta in multiples of eps when eps is given."""
    if value is None:
        return "n/a"
    return f"{value:.2e}" if eps is None else f"{value / eps:.2e}*eps"


def _check_label(check: Optional[LadderCheck], eps=None) -> str:
    """A ladder check as the summary prints it: its step, its rung, marked
    when its run is the Richardson extrapolant, its step and grid deltas
    (`_delta_label`), and its health: steps, drift and top-band fraction.  A
    check without a grid, the profile ladder's, prints its one delta and no
    top band.  A failed leg has no check."""
    if check is None:
        return "dt=n/a rung n/a step n/a grid n/a steps n/a drift n/a top band n/a"
    rung = f"{check.rung}x extrapolated" if check.extrapolated else f"{check.rung}x"
    deltas = (
        f"delta {_delta_label(check.step_delta, eps)}" if check.grid_delta is None else
        f"step {_delta_label(check.step_delta, eps)} grid {_delta_label(check.grid_delta, eps)}"
    )
    band = "" if check.aliasing is None else f" top band {_delta_label(check.aliasing)}"
    return (f"dt={check.dt:.4g} rung {rung} {deltas} steps {check.steps} "
            f"drift {_delta_label(check.drift)}{band}")


def _row_cells(row: wkb_pipeline.ConvergenceRow) -> dict:
    """A converge row's `convergence.csv` cells by column: every field but
    the timings, runtime and stage_s, with the fields of its check in place
    of check (all None on a failed leg)."""
    cells = {}
    for f in fields(row):
        if f.name == "check":
            cells.update((g.name, getattr(row.check, g.name, None)) for g in fields(LadderCheck))
        elif f.name not in ("runtime", "stage_s"):
            cells[f.name] = getattr(row, f.name)
    return cells


def cmd_converge(scn: Scenario, args) -> Outcome:
    exp = scn.experiment
    modes, amps = _closed_modes(scn)
    start = time.perf_counter()
    try:
        table = run_convergence(modes, amps, scn.lam, [float(f) for f in scn.eps_list],
                                exp["t_final"], checkpoints=exp["checkpoints"])
    except BlowUpError as exc:  # at rung 1: the ladder walks past coarser blow-ups
        raise CommandFailed(
            f"converge failed: {exc} (profile ladder rung 1, its finest step)"
        ) from None
    total = time.perf_counter() - start

    # convergence.csv: each cell in its format here or else as str, and None
    # as an empty cell
    formats = {"eps": ".12g", "dt": ".12g", "sup_error": ".17g", "w_error": ".17g"}
    cells = [_row_cells(r) for r in table.rows]
    csv_bytes = _csv_bytes(list(cells[0]), [
        ["" if v is None else format(v, formats.get(k, "")) for k, v in row.items()]
        for row in cells
    ])
    results = _jsonable(table)  # the timings move to runtimes
    runtimes = {
        "total": total,
        "rows": [row.pop("runtime") for row in results["rows"]],
        "profile": results.pop("profile_s"),
        "stages": [row.pop("stage_s") for row in results["rows"]],
    }
    print(f"profile: {_check_label(table.profile)}")
    for r in table.rows:
        note = "" if r.ok else f"  [{r.status}]"
        print(
            f"eps={r.eps:<10.6g} n={r.grid_n:<6d} sup={r.sup_error:.4e} "
            f"w={r.w_error:.4e}{note}"
        )
        print(f"  health: {_check_label(r.check, r.eps)}")
    print(
        f"fitted order: sup {table.fitted_order_label('sup')}, "
        f"w {table.fitted_order_label('w')}"
    )
    failed = args.assert_order is not None and not table.at_floor and (
        table.order_sup is None or table.order_sup < args.assert_order
    )
    if failed:
        got = "n/a" if table.order_sup is None else f"{table.order_sup:.3f}"
        print(
            f"order assertion failed: {got} < {args.assert_order}",
            file=sys.stderr,
        )
    return results, runtimes, {"convergence.csv": csv_bytes}, int(failed)


def cmd_instability(scn: Scenario, args) -> Outcome:
    exp = scn.experiment
    start = time.perf_counter()
    try:
        record = run_instability(
            exp["rho"], exp["delta"], exp["s"], exp["K"], sigma=scn.sigma, lam=scn.lam,
            variant=exp["variant"], theta=exp["theta"], cross_check=exp["cross_check"],
        )
    except OverflowError as exc:
        raise ScenarioError(f"experiment.delta: too small; {exc}") from None
    except FloatingPointError as exc:
        raise ScenarioError(f"experiment.delta: {exc}") from None
    total = time.perf_counter() - start

    times, curve = wkb_pipeline.gap_curve(record, exp["grid_points"])
    files = {"gap_curve.csv": _series_bytes(["t", "gap"], times, curve)}

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
            f"({record.solver_formula_deviation / record.eps:.2f} eps) "
            f"on {record.solver_grid_n} points"
        )
        for i, check in enumerate(record.solver_checks, 1):
            over = check.over(LADDER_FRACTION * record.eps)
            note = f"  [over {LADDER_FRACTION:g}*eps: {', '.join(over)}]" if over else ""
            print(f"  datum {i}: {_check_label(check, record.eps)}{note}")
    return {"record": record}, {"total": total}, files, 0


def cmd_smalldiv(scn: Scenario, args) -> Outcome:
    exp = scn.experiment
    modes, _ = _closed_modes(scn)
    start = time.perf_counter()
    survey = survey_divisors(modes)
    try:
        fit = fit_generalized_bound(modes, b_grid=exp["b_grid"])
    except OverflowError as exc:
        raise ScenarioError(f"experiment.b_grid: {exc}") from None
    total = time.perf_counter() - start

    csv_bytes = _csv_bytes(
        ["b", "c"],
        [[f"{b:.12g}", "" if c is None else f"{c:.17g}"] for b, c in fit],
    )
    results: dict = {"survey": survey, "generalized_fit": fit}

    probe_cfg = exp["probe"]
    if probe_cfg is not None:
        try:
            probe = gram_diophantine_probe(
                probe_cfg["generators"], probe_cfg["beta_bound"],
                b_prime=probe_cfg["b_prime"], budget=probe_cfg["budget"],
            )
        except OverflowError as exc:
            raise ScenarioError(f"experiment.probe.generators: {exc}") from None
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
    failed = not survey.all_resonant and survey.min_delta < 1
    if failed:
        print(
            "integer-lattice divisor assertion failed: min_delta < 1",
            file=sys.stderr,
        )
    return results, {"total": total}, {"generalized_fit.csv": csv_bytes}, int(failed)


COMMANDS = {
    "closure": cmd_closure,
    "profiles": cmd_profiles,
    "converge": cmd_converge,
    "instability": cmd_instability,
    "smalldiv": cmd_smalldiv,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args leaves it as it is."""
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
    return parser


def _not_a_directory(out: str) -> Optional[str]:
    """The nearest existing path among out and its ancestors, when it is not
    a directory (then out cannot be created or written to), else None."""
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    return None if os.path.isdir(path) else path


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    blocker = _not_a_directory(args.out)
    if blocker is not None:
        print(f"output error: --out {args.out}: {blocker} is not a directory",
              file=sys.stderr)
        return 2
    try:
        scn = load_scenario(args.scenario)
        expected = scn.experiment["type"]
        if expected != args.command:
            raise ScenarioError(
                f"scenario declares experiment {expected!r}, "
                f"invoked command {args.command!r}"
            )
        results, runtimes, files, code = COMMANDS[args.command](scn, args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except CommandFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    files[f"{args.command}_report.json"] = _report_bytes(args, scn, results, runtimes)
    # the report goes last: a report on disk means its side files are complete
    os.makedirs(args.out, exist_ok=True)
    for name, data in files.items():
        _atomic_write_bytes(os.path.join(args.out, name), data)
    return code


def entrypoint(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    entrypoint()
