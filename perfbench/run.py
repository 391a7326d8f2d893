#!/usr/bin/env python3
"""nlsoptics benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload converge_sweep --seed 1 --seconds 32 --trace 0

One client in one process issues the workload's commands through
``nlsoptics.experiments_cli.run``, each after the previous one returns, and
repeats the whole list (a pass) while the time budget lasts.  Every
command's report is checked against invariants that hold for any seed.

--trace 0 prints the end-to-end metrics: median pass wall time divided by
the median time of a fixed reference kernel sampled over the same run,
set-up time (median of fresh processes that import the program and generate
and load the scenarios) and peak resident set; the raw median pass wall
time is printed above the result line.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (see perfbench/README.md).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Spans, environment and per-pass figures are
written to .perfbench/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from spans import LAYER_UNITS, WORK_COUNTS, ROOT_SPAN, Tracer, layer_metrics, trace_points  # noqa: E402
from workloads import WORKLOADS, CheckError, generate, structure  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 7
REF_REPEATS = 15
MIN_PASSES = 3


def limit_threads() -> None:
    """One client and no extra threads: native thread pools default to one
    thread and are never allowed above the number of usable CPUs."""
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        raw = os.environ.get(var, "")
        n = int(raw) if raw.isdigit() else 0
        os.environ[var] = str(min(n, ncpu) if n >= 1 else 1)


def import_program():
    """Import nlsoptics from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from nlsoptics import experiments_cli, profile_dynamics, wkb_pipeline
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import nlsoptics from {src}: {exc}") from None
    if not Path(experiments_cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: nlsoptics was imported from outside {src}")
    return experiments_cli, profile_dynamics, wkb_pipeline


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup_probe(workload, seed: int) -> None:
    """Everything a run does before its first command, in a fresh process;
    prints the system-wide monotonic clock when set-up is complete."""
    cli = import_program()[0]
    WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="setup-", dir=WORK)
    try:
        for path, _ in generate(workload, seed, tmp).values():
            cli.load_scenario(path)
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def time_setup(workload_name: str, seed: int) -> float:
    """Process start to the end of set-up in a fresh process.  The end is
    stamped by the child, so interpreter teardown and the parent's wake-up
    latency stay out of the figure."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload_name, "--seed", str(seed)]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=120)
    return float(done.stdout.split()[-1]) - start


def reference_seconds() -> float:
    """Time of a fixed kernel that shares no code with nlsoptics, mixing the
    kinds of work the workloads do: 4096-point transform pairs, a bytecode
    loop and tuple and dict churn.  It holds about 2 MB, so it never sets
    the peak resident set.  The host's speed drifts by tens of percent over
    minutes; dividing by this time cancels much of that drift."""
    import itertools

    import numpy as np
    import scipy.fft as sfft

    y = np.exp(6j * np.pi * np.arange(4096) / 4096)
    start = time.perf_counter()
    for _ in range(700):
        y = sfft.ifft(sfft.fft(y))
    acc = 0
    for i in range(450_000):
        acc += i * i
    for _ in range(12):
        seen = {k: [k[0] + k[1], k[2]] for k in itertools.product(range(16), repeat=3)}
    return time.perf_counter() - start


@dataclass
class Pass:
    """One closed-loop pass over the workload's commands."""

    wall: float
    hashes: list  # report content_hash per command, None where it failed
    errors: list[str]
    report_bytes: int


def run_pass(cli, workload, scenarios: dict, out_root: Path, tracer=None) -> Pass:
    outs = [out_root / f"{i}-{c.scenario}" for i, c in enumerate(workload.commands)]
    for out in outs:
        shutil.rmtree(out, ignore_errors=True)
    codes = []
    start = time.perf_counter()
    for i, (cmd, out) in enumerate(zip(workload.commands, outs)):
        argv = [cmd.verb, "--scenario", scenarios[cmd.scenario][0], "--out", str(out)]
        log = io.StringIO()
        span = contextlib.nullcontext()
        if tracer is not None:
            tracer.command = i
            span = tracer.span(ROOT_SPAN)
        try:
            with span, contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                codes.append(cli.run(argv))
        except Exception:  # a crashing command is a failed command; keep measuring
            codes.append(traceback.format_exc(limit=3))
    result = Pass(time.perf_counter() - start, [], [], 0)
    for cmd, out, code in zip(workload.commands, outs, codes):
        result.hashes.append(check_command(cmd, out, code, scenarios[cmd.scenario][1], result.errors))
        result.report_bytes += sum(f.stat().st_size for f in out.glob("*") if f.is_file())
    return result


def check_command(cmd, out: Path, code, doc: dict, errors: list[str]):
    """The report's content hash, or None after recording why the command failed."""
    where = f"{cmd.verb} {cmd.scenario}"
    if code != 0:
        errors.append(f"{where}: exit {code}")
        return None
    try:
        report = json.loads((out / f"{cmd.verb}_report.json").read_text())
        cmd.check(report, doc)
    except (OSError, ValueError, KeyError, TypeError, CheckError) as exc:
        errors.append(f"{where}: {type(exc).__name__}: {exc}")
        return None
    return report["content_hash"]


def median(xs):
    return statistics.median(xs) if xs else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    limit_threads()
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed)
        return 0

    cli, pd, wkb = import_program()
    env = environment()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    problems: list[str] = []
    try:
        scenarios = generate(workload, args.seed, str(tmp))
        (tmp / "alt").mkdir()
        alt = generate(workload, args.seed + 1, str(tmp / "alt"))
        for name in scenarios:
            if structure(scenarios[name][1]) != structure(alt[name][1]):
                problems.append(f"{name}: seed changes more than amplitudes")
        setup: list[float] = []
        refs: list[float] = []
        untraced: list[Pass] = []
        traced: list[tuple[Pass, dict]] = []
        alt_pass, alt_counts = None, None
        points = trace_points(cli, pd, wkb)
        start = time.perf_counter()
        while True:
            done = untraced + [p for p, _ in traced]
            elapsed = time.perf_counter() - start
            time_up = (len(done) >= MIN_PASSES
                       and elapsed + median([p.wall for p in done]) > args.seconds)
            setup_due = not args.trace and len(setup) < SETUP_REPEATS
            ref_due = not args.trace and len(refs) < REF_REPEATS
            if time_up and not (setup_due or ref_due):
                break
            # set-up and reference samples are spread evenly over the run,
            # between passes, so that they see the same host as the passes
            if setup_due and (time_up or elapsed >= len(setup) * args.seconds / SETUP_REPEATS):
                setup.append(time_setup(workload.name, args.seed))
            elif ref_due and (time_up or elapsed >= len(refs) * args.seconds / REF_REPEATS):
                refs.append(reference_seconds())
            elif args.trace and alt_counts is None and traced:
                tracer = Tracer()  # same work on the next seed: counts must not move
                with tracer.installed(points):
                    alt_pass = run_pass(cli, workload, alt, tmp / "out-alt", tracer)
                alt_counts = layer_metrics(tracer.spans)
            elif args.trace and len(traced) < len(untraced):
                tracer = Tracer()
                with tracer.installed(points):
                    p = run_pass(cli, workload, scenarios, tmp / "out", tracer)
                traced.append((p, {"spans": tracer.spans, **layer_metrics(tracer.spans)}))
            else:
                untraced.append(run_pass(cli, workload, scenarios, tmp / "out"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = untraced + [p for p, _ in traced]
    checked = passes + ([alt_pass] if alt_pass else [])
    attempted = len(checked) * len(workload.commands)
    failed = sum(len(p.errors) for p in checked)
    problems += sorted({e for p in checked for e in p.errors})
    if len({tuple(p.hashes) for p in passes}) > 1:
        problems.append("report content hashes differ between passes (traced or not)")
    for p, layers in traced:
        for key in WORK_COUNTS:
            if layers[key] != traced[0][1][key] or (alt_counts and layers[key] != alt_counts[key]):
                problems.append(f"work count {key} differs between passes or seeds")
                break

    wall = median([p.wall for p in untraced])
    if args.trace:
        metrics = {
            key: (median([layers[key] for _, layers in traced]), unit)
            for key, unit in LAYER_UNITS.items()
        }
        metrics["experiments_cli.report_bytes"] = (
            median([p.report_bytes for p, _ in traced]), "bytes")
        metrics["wall_s"] = (wall, "s")
        metrics["trace_overhead_s"] = (median([p.wall for p, _ in traced]) - wall, "s")
        metrics["fail_frac"] = (failed / attempted, "ratio")
    else:
        metrics = {
            "wall_ref": (wall / median(refs), "ratio"),
            "setup_s": (median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    result_path = WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_s": setup, "reference_s": refs,
        "untraced_wall_s": [p.wall for p in untraced],
        "traced_wall_s": [p.wall for p, _ in traced],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
        "spans": [
            [vars(s) for s in layers["spans"]] for _, layers in traced
        ],
    }
    result_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"environment {json.dumps(env)}")
    print(f"workload {workload.name} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, {attempted} commands, {failed} failed "
          f"(fail_frac {failed / attempted:g} ratio)")
    if not args.trace:
        print(f"  {'wall_s':34s} {wall:14.6g} s (median of {len(untraced)} passes)")
        print(f"  {'reference_s':34s} {median(refs):14.6g} s (median of {len(refs)} samples)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
