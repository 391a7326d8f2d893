import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsoptics import experiments_cli, wkb_pipeline
from nlsoptics.spectral_nls import AliasingWarning
from nlsoptics.wkb_pipeline import ConvergenceRow, LadderCheck
from nlsoptics.experiments_cli import (
    REPORT_SCHEMA,
    SCENARIO_SCHEMA,
    load_scenario,
    run,
)

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def write_scenario(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def torus_doc(**extra):
    doc = {
        "schema": SCENARIO_SCHEMA,
        "dimension": 1,
        "sigma": 1,
        "lambda": 1.0,
        "domain": {"type": "torus"},
        "initial_modes": [
            {"kappa": [0], "amplitude": [0.7, 0.0]},
            {"kappa": [1], "amplitude": [0.4, 0.1]},
        ],
    }
    doc.update(extra)
    return doc


def record_calls(monkeypatch, name, module=experiments_cli):
    """Wrap module.<name> so each return value is kept in a list."""
    returned = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        returned.append(real(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(module, name, recording)
    return returned


def read_csv_rows(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""  # every row, the last included, ends in a newline
    return lines[0], [line.split(",") for line in lines[1:-1]]


def load_report(tmp_path, name):
    with open(tmp_path / "out" / name) as fh:
        return json.load(fh)


class TestClosureCommand:
    def test_square_creates_zero_mode(self, tmp_path, capsys):
        doc = {
            "schema": SCENARIO_SCHEMA,
            "dimension": 2,
            "sigma": 1,
            "domain": {"type": "torus"},
            "initial_modes": [
                {"kappa": [0, 1], "amplitude": [0.2, 0.0]},
                {"kappa": [1, 0], "amplitude": [0.3, 0.0]},
                {"kappa": [1, 1], "amplitude": [0.1, 0.0]},
            ],
            "experiment": {"type": "closure"},
        }
        scn = write_scenario(tmp_path, doc)
        rc = run(["closure", "--scenario", scn, "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 created" in out and "saturated" in out
        rep = load_report(tmp_path, "closure_report.json")
        assert rep["schema"] == REPORT_SCHEMA
        assert rep["command"] == "closure"
        assert [0, 0] in rep["results"]["vectors"]
        assert rep["results"]["saturated"] is True
        assert rep["results"]["created_count"] == 1
        assert (tmp_path / "out" / "modes.csv").exists()
        assert (tmp_path / "out" / "edges.csv").exists()

    def test_already_closed_set(self, tmp_path, capsys):
        doc = torus_doc(
            sigma=3,
            initial_modes=[
                {"kappa": [0], "amplitude": [0.5, 0.0]},
                {"kappa": [2], "amplitude": [0.5, 0.0]},
            ],
            experiment={"type": "closure"},
        )
        scn = write_scenario(tmp_path, doc)
        rc = run(["closure", "--scenario", scn, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "saturated, no new vectors" in capsys.readouterr().out


class TestProfilesCommand:
    def test_torus_oracle_deviation(self, tmp_path, capsys, monkeypatch):
        trajs = record_calls(monkeypatch, "integrate_torus")
        doc = torus_doc(
            initial_modes=[
                {"kappa": [-1], "amplitude": [0.5, 0.0]},
                {"kappa": [0], "amplitude": [1.0, 0.0]},
                {"kappa": [1], "amplitude": [0.5, 0.5]},
            ],
            experiment={"type": "profiles", "t_final": 0.2, "dt": 1e-3,
                        "oracle": "explicit_torus_1d"},
        )
        scn = write_scenario(tmp_path, doc)
        rc = run(["profiles", "--scenario", scn, "--out", str(tmp_path / "out")])
        assert rc == 0
        rep = load_report(tmp_path, "profiles_report.json")
        assert rep["results"]["oracle"] == "explicit_torus_1d"
        assert rep["results"]["oracle_max_deviation"] < 1e-8
        assert rep["results"]["mass_relative_drift"] < 1e-10
        header, rows = read_csv_rows(tmp_path / "out" / "trajectory.csv")
        assert header == "t,re_j0,im_j0,re_j1,im_j1,re_j2,im_j2"
        (traj,) = trajs
        for cells, t, amps in zip(rows, traj.times, traj.amps, strict=True):
            assert cells[0] == f"{t:.12g}"
            # .17g round-trips every double exactly
            assert np.array_equal(np.array([float(c) for c in cells[1:]]).view(complex), amps)
        out = capsys.readouterr().out
        assert "max deviation" in out
        # in d=1 only the degenerate tuples (j, l, l) and (l, l, j) resonate:
        # 2*3 - 1 per target; one recorded row per step after t=0
        res = rep["results"]
        assert res["interaction_tuples"] == 15
        assert res["rk4_steps"] == len(rows) - 1
        assert f"15 tuples, {res['rk4_steps']} RK4 steps" in out

    def test_two_mode_oracle_any_sigma(self, tmp_path):
        doc = torus_doc(
            sigma=2,
            initial_modes=[
                {"kappa": [0], "amplitude": [0.8, 0.0]},
                {"kappa": [2], "amplitude": [0.0, 0.5]},
            ],
            experiment={
                "type": "profiles", "t_final": 0.3, "dt": 1e-3,
                "oracle": "explicit_two_mode",
            },
        )
        scn = write_scenario(tmp_path, doc)
        rc = run(["profiles", "--scenario", scn, "--out", str(tmp_path / "out")])
        assert rc == 0
        rep = load_report(tmp_path, "profiles_report.json")
        assert rep["results"]["oracle_max_deviation"] < 1e-8

    def test_euclid_gaussians(self, tmp_path):
        doc = {
            "schema": SCENARIO_SCHEMA,
            "dimension": 1,
            "sigma": 1,
            "lambda": 1.0,
            "domain": {"type": "euclid", "length": 40.0, "grid_n": 256},
            "initial_modes": [
                {
                    "kappa": [-1],
                    "preset": {
                        "type": "gaussian", "center": 17.0, "width": 1.5,
                        "amplitude": [0.9, 0.0],
                    },
                },
                {
                    "kappa": [1],
                    "preset": {
                        "type": "gaussian", "center": 23.0, "width": 2.0,
                        "amplitude": [0.0, 0.7],
                    },
                },
            ],
            "experiment": {
                "type": "profiles", "t_final": 0.2, "dt": 1e-3,
                "quadrature_dt": 1e-3, "oracle": "explicit_euclid_1d",
            },
        }
        scn = write_scenario(tmp_path, doc)
        rc = run(["profiles", "--scenario", scn, "--out", str(tmp_path / "out")])
        assert rc == 0
        rep = load_report(tmp_path, "profiles_report.json")
        assert rep["results"]["oracle_max_deviation"] < 1e-6
        fields = np.load(tmp_path / "out" / "fields_final.npy")
        assert fields.shape == (2, 256)
        assert (tmp_path / "out" / "mass.csv").exists()

    @pytest.mark.parametrize("domain", ["torus", "euclid"])
    def test_profile_side_file_bytes_are_the_per_row_format(self, tmp_path, monkeypatch,
                                                           domain):
        # trajectory.csv and mass.csv go through the same %-format as
        # gap_curve.csv: the bytes of "{:.12g}" and ",{:.17g}" per cell
        euclid = domain == "euclid"
        trajs = record_calls(monkeypatch, f"integrate_{domain}")
        experiment = {"type": "profiles", "t_final": 0.05, "dt": 1e-3}
        if euclid:
            doc = torus_doc(
                domain={"type": "euclid", "length": 40.0, "grid_n": 64},
                initial_modes=[{"kappa": [k], "preset": {
                    "type": "gaussian", "center": c, "width": 1.5, "amplitude": [0.9, -0.3],
                }} for k, c in ((-1, 17.0), (1, 23.0))],
                experiment=experiment,
            )
        else:
            doc = torus_doc(experiment=experiment)
        scn = write_scenario(tmp_path, doc)
        assert run(["profiles", "--scenario", scn, "--out", str(tmp_path / "out")]) == 0
        (traj,) = trajs
        if euclid:
            name, header = "mass.csv", "t,mass"
            rows = [[t, m] for t, m in zip(traj.mass_times.tolist(), traj.masses.tolist())]
        else:
            name, header = "trajectory.csv", "t,re_j0,im_j0,re_j1,im_j1"
            rows = [[t, *parts] for t, parts in
                    zip(traj.times.tolist(), traj.amps.view(float).tolist())]
        text = "".join(
            f"{row[0]:.12g}" + "".join(f",{x:.17g}" for x in row[1:]) + "\n" for row in rows
        )
        written = (tmp_path / "out" / name).read_bytes()
        assert written == (header + "\n" + text).encode()
        assert written.count(b"\n") == len(rows) + 1 > 2

    def test_blow_up_is_a_failed_run(self, tmp_path, capsys):
        # valid key by key, but the RK4 step is too long for these amplitudes
        doc = torus_doc(
            initial_modes=[{"kappa": [k], "amplitude": [20.0, 0.0]} for k in (-1, 0, 1)],
            experiment={"type": "profiles", "t_final": 0.1},
        )
        scn = write_scenario(tmp_path, doc)
        rc = run(["profiles", "--scenario", scn, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        t = float(err.split("tripped at t=")[1].split(";")[0])
        assert 0 < t < 0.01
        assert "dt*|lambda|*max|a|^(2 sigma) = 0.4 at dt=0.001" in err
        assert not (tmp_path / "out").exists()  # no report and no side file


class TestConvergeCommand:
    def _doc(self, lam):
        return torus_doc(
            **{"lambda": lam},
            solver={"dt": None, "grid_n": None, "eps_list": ["1/2", "1/4"]},
            experiment={"type": "converge", "t_final": 0.1, "checkpoints": 1},
        )

    def _blow_up_doc(self, lam, amps):
        return torus_doc(
            **{"lambda": lam},
            initial_modes=[
                {"kappa": [k], "amplitude": [a, 0.0]} for k, a in enumerate(amps)
            ],
            solver={"eps_list": ["1/8", "1/16"]},
            experiment={"type": "converge", "t_final": 0.5},
        )

    def test_profile_blow_up_above_rung_1_walks_down(self, tmp_path, monkeypatch):
        # the top rung's coarse partner (two steps of 0.028 per 0.056
        # segment) turns the phase by about 5 rad a step and trips the guard;
        # the ladder counts it over budget; both legs' rung-1 solves put
        # 1.6e-2 and 4.2e-3 of their mass in the top band, and say so
        tripped = []
        real = wkb_pipeline.integrate_torus

        def integrate(alpha, modes, params, **kw):
            try:
                return real(alpha, modes, params, **kw)
            except experiments_cli.BlowUpError:
                tripped.append(params.dt)
                raise

        monkeypatch.setattr(wkb_pipeline, "integrate_torus", integrate)
        scn = write_scenario(tmp_path, self._blow_up_doc(1.0, (12.0, 5.0)))
        with pytest.warns(AliasingWarning) as caught:
            rc = run(["converge", "--scenario", scn, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert [str(w.message).split(" (")[0] for w in caught] == [
            "top-band spectral mass fraction reached 1.599e-02",
            "top-band spectral mass fraction reached 4.202e-03",
        ]
        assert tripped and tripped[0] == pytest.approx(0.5 / 9 / 2)
        res = load_report(tmp_path, "converge_report.json")["results"]
        assert res["profile"]["rung"] == 1
        assert [r["check"]["rung"] for r in res["rows"]] == [1, 1]
        assert all(r["status"].startswith("check over 0.01*eps") for r in res["rows"])

    def test_profile_blow_up_at_rung_1_fails_the_sweep(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, self._blow_up_doc(1000.0, (1000.0, 500.0)))
        rc = run(["converge", "--scenario", scn, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("converge failed: amplitude blow-up guard tripped at t=")
        assert "rung 1" in err
        assert not (tmp_path / "out").exists()  # no report and no side file

    def test_sweep_report_and_csv(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, self._doc(1.0))
        rc = run(["converge", "--scenario", scn, "--out", str(tmp_path / "out")])
        assert rc == 0
        rep = load_report(tmp_path, "converge_report.json")
        rows = rep["results"]["rows"]
        assert [r["eps"] for r in rows] == [0.5, 0.25]
        assert all(r["status"] == "ok" for r in rows)
        assert rep["results"]["order_sup"] is not None
        lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
        assert lines[0].startswith("eps,grid_n,sup_error,w_error,rung,dt,")
        assert len(lines) == 3
        assert "fitted order" in capsys.readouterr().out

    def test_health_in_report_csv_and_summary(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, self._doc(1.0))
        assert run(["converge", "--scenario", scn, "--out", str(tmp_path / "out")]) == 0
        rep = load_report(tmp_path, "converge_report.json")
        res = rep["results"]
        for r in res["rows"]:
            check = r["check"]
            assert r["status"] == "ok" and check["rung"] >= 1 and check["steps"] > 0
            assert 0 <= check["step_delta"] <= 1e-2 * r["eps"]
            assert 0 <= check["grid_delta"] <= 1e-2 * r["eps"]
            assert check["drift"] < 1e-12 and check["aliasing"] < 1e-8
        profile = res["profile"]
        assert profile["rung"] >= 1 and profile["steps"] > 0
        # the step its RK4 run took: a whole count on each 0.05 segment, of
        # at most rung times the 1e-3 unit
        count = round(0.05 / profile["dt"])
        assert count * profile["dt"] == pytest.approx(0.05, rel=1e-12)
        assert profile["dt"] <= profile["rung"] * 1e-3
        # the profile ladder has no grid, is never extrapolated and has no top band
        assert profile["grid_delta"] is None and profile["extrapolated"] is False
        assert profile["aliasing"] is None
        assert set(rep["runtimes"]) == {"total", "rows", "profile", "stages"}
        assert set(rep["runtimes"]["stages"][0]) == {"checks", "solve", "assembly_norms"}
        header = (tmp_path / "out" / "convergence.csv").read_text().splitlines()[0]
        assert header == (
            "eps,grid_n,sup_error,w_error,rung,dt,extrapolated,step_delta,grid_delta,"
            "steps,drift,aliasing,status"
        )
        out = capsys.readouterr().out
        assert out.count("  health: ") == 2 and out.startswith("profile: ")
        # the profile system conserves sum |a_j|^2: its drift is RK4's error
        assert 0 <= profile["drift"] < 1e-6
        assert out.splitlines()[0].endswith(
            f"steps {profile['steps']} drift {profile['drift']:.2e}"
        )
        # every check prints its health: a row's top band too
        health = [line for line in out.splitlines() if line.startswith("  health: ")]
        for line, r in zip(health, res["rows"]):
            check = r["check"]
            assert line.endswith(f"steps {check['steps']} drift {check['drift']:.2e} "
                                 f"top band {check['aliasing']:.2e}")

    def test_csv_columns_and_report_rows_are_the_row_fields(self, tmp_path):
        # ConvergenceRow alone says what a leg reports: the CSV and a report
        # row have every field but the timings, the CSV with the fields of
        # its LadderCheck in place of check; a report's
        # checks, a row's and each cross-check datum's, are LadderChecks
        scn = write_scenario(tmp_path, self._doc(1.0))
        assert run(["converge", "--scenario", scn, "--out", str(tmp_path / "out")]) == 0
        names = [f.name for f in dataclasses.fields(ConvergenceRow)]
        check_names = {f.name for f in dataclasses.fields(LadderCheck)}
        at = names.index("check")
        columns = names[:at] + [f.name for f in dataclasses.fields(LadderCheck)] + names[at + 1:]
        header, cells = read_csv_rows(tmp_path / "out" / "convergence.csv")
        assert header.split(",") == [k for k in columns if k not in ("runtime", "stage_s")]
        assert all(len(row) == len(columns) - 2 for row in cells)
        rows = load_report(tmp_path, "converge_report.json")["results"]["rows"]
        assert len(rows) == 2
        for row in rows:
            assert set(row) == set(names) - {"runtime", "stage_s"}
            assert set(row["check"]) == check_names
        doc = torus_doc(
            initial_modes=[{"kappa": [0], "amplitude": [0.5, 0.0]}],
            experiment={"type": "instability", "rho": 1.0, "delta": 0.1, "s": -0.5,
                        "K": 16, "grid_points": 2, "cross_check": True},
        )
        scn = write_scenario(tmp_path, doc)
        with pytest.warns(UserWarning, match="premise"):
            assert run(["instability", "--scenario", scn, "--out", str(tmp_path / "out")]) == 0
        record = load_report(tmp_path, "instability_report.json")["results"]["record"]
        assert len(record["solver_checks"]) == 2
        assert all(set(check) == check_names for check in record["solver_checks"])

    def test_failed_leg_summary_has_no_rung(self, tmp_path, capsys, monkeypatch):
        # the eps = 1/4 leg's cell has coupling lam*eps = 1/4 and overflows
        real_solve = wkb_pipeline.solve

        def solve_or_overflow(u0, cfg, snapshot_times=None):
            if cfg.lam == 1 / 4:
                raise FloatingPointError("overflow in the split step")
            return real_solve(u0, cfg, snapshot_times=snapshot_times)

        monkeypatch.setattr(wkb_pipeline, "solve", solve_or_overflow)
        scn = write_scenario(tmp_path, self._doc(1.0))
        assert run(["converge", "--scenario", scn, "--out", str(tmp_path / "out")]) == 0
        health = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("  health: ")
        ]
        assert health[1].endswith(
            "dt=n/a rung n/a step n/a grid n/a steps n/a drift n/a top band n/a")
        assert "n/a" not in health[0]
        rows = load_report(tmp_path, "converge_report.json")["results"]["rows"]
        assert rows[1]["status"] == "FloatingPointError: overflow in the split step"
        assert rows[1]["check"] is None and rows[0]["check"] is not None
        # a failed leg's check cells are empty, dt among them
        header, cells = read_csv_rows(tmp_path / "out" / "convergence.csv")
        columns = header.split(",")
        for name in (f.name for f in dataclasses.fields(LadderCheck)):
            assert cells[1][columns.index(name)] == ""
            assert cells[0][columns.index(name)] != ""

    def test_floor_passes_any_order_assertion(self, tmp_path):
        scn = write_scenario(tmp_path, self._doc(0.0))
        rc = run(
            [
                "converge", "--scenario", scn, "--out", str(tmp_path / "out"),
                "--assert-order", "0.9",
            ]
        )
        assert rc == 0
        rep = load_report(tmp_path, "converge_report.json")
        assert rep["results"]["at_floor"] is True
        assert rep["results"]["order_sup"] is None

    def test_unmet_order_assertion_exits_one(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, self._doc(1.0))
        rc = run(
            [
                "converge", "--scenario", scn, "--out", str(tmp_path / "out"),
                "--assert-order", "5.0",
            ]
        )
        assert rc == 1
        assert "order assertion failed" in capsys.readouterr().err
        # a failed assertion still writes its report, after its side file
        assert sorted(os.listdir(tmp_path / "out")) == [
            "converge_report.json", "convergence.csv",
        ]

    def test_determinism_modulo_runtimes(self, tmp_path):
        scn = write_scenario(tmp_path, self._doc(1.0))
        assert run(["converge", "--scenario", scn, "--out", str(tmp_path / "a")]) == 0
        assert run(["converge", "--scenario", scn, "--out", str(tmp_path / "b")]) == 0
        with open(tmp_path / "a" / "converge_report.json") as fh:
            one = json.load(fh)
        with open(tmp_path / "b" / "converge_report.json") as fh:
            two = json.load(fh)
        assert one["content_hash"] == two["content_hash"]
        one.pop("runtimes"), two.pop("runtimes")
        assert one == two
        # no side-file column is a timing
        csv = [(tmp_path / out / "convergence.csv").read_bytes() for out in ("a", "b")]
        assert csv[0] == csv[1]

    def test_scenario_hash_matches_file(self, tmp_path):
        scn = write_scenario(tmp_path, self._doc(1.0))
        run(["converge", "--scenario", scn, "--out", str(tmp_path / "out")])
        rep = load_report(tmp_path, "converge_report.json")
        with open(scn, "rb") as fh:
            assert rep["scenario_hash"] == hashlib.sha256(fh.read()).hexdigest()


class TestInstabilityCommand:
    def test_record_and_curve(self, tmp_path, capsys, monkeypatch):
        # one formula curve per command: the record's, also behind the CSV
        curves = record_calls(monkeypatch, "gap_curve", wkb_pipeline)
        doc = torus_doc(
            initial_modes=[{"kappa": [0], "amplitude": [0.5, 0.0]}],
            experiment={
                "type": "instability", "rho": 1.0, "delta": 0.1, "s": -2.0,
                "K": 32, "grid_points": 500,
            },
        )
        scn = write_scenario(tmp_path, doc)
        rc = run(["instability", "--scenario", scn, "--out", str(tmp_path / "out")])
        assert rc == 0
        rep = load_report(tmp_path, "instability_report.json")
        record = rep["results"]["record"]
        assert record["variant"] == "perturb_high"
        assert record["gap"] > 0.8
        assert record["hs_condition_ok"] is True
        assert record["solver_gap"] is None
        header, rows = read_csv_rows(tmp_path / "out" / "gap_curve.csv")
        assert header == "t,gap"
        assert len(rows) == 500
        (times, curve), = curves
        for (t_cell, gap_cell), t, g in zip(rows, times, curve, strict=True):
            assert t_cell == f"{t:.12g}"
            assert float(gap_cell) == g  # .17g round-trips exactly
        assert "gap" in capsys.readouterr().out
        assert record["solver_checks"] is None

    @pytest.mark.parametrize("experiment", [
        {"rho": 1.0, "delta": 0.1, "s": -2.0, "K": 32, "grid_points": 10_000},
        {"rho": 100.0, "delta": 1.0, "s": -2.0, "K": 4096, "grid_points": 777,
         "variant": "perturb_zero"},
        {"rho": 3e-5, "delta": 1e-3, "s": -0.5, "K": 7, "grid_points": 2},
    ], ids=["shipped-size", "perturb_zero", "two-points"])
    def test_gap_curve_bytes_are_the_per_row_format(self, tmp_path, monkeypatch, experiment):
        # the one %-format over interleaved cells writes the bytes of
        # "{:.12g},{:.17g}" row by row
        curves = record_calls(monkeypatch, "gap_curve", wkb_pipeline)
        doc = torus_doc(
            initial_modes=[{"kappa": [0], "amplitude": [0.5, 0.0]}],
            experiment={"type": "instability", **experiment},
        )
        scn = write_scenario(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the H^s premise of a small K
            assert run(["instability", "--scenario", scn, "--out", str(tmp_path / "out")]) == 0
        (times, curve), = curves
        rows = "".join(map("{:.12g},{:.17g}\n".format, times.tolist(), curve.tolist()))
        written = (tmp_path / "out" / "gap_curve.csv").read_bytes()
        assert written == ("t,gap\n" + rows).encode()
        assert written.count(b"\n") == experiment["grid_points"] + 1

    @pytest.mark.parametrize("K,delta,s,rungs,extrapolated,over", [
        (16, 0.1, -0.5, [8, 8], False, ""),
        (4, 0.8, -2.5, [1, 1], False, "step"),
        # the extrapolated rung's grid check, at its coarse step, reads a
        # split-step instability of the doubled cell (ROADMAP item 9)
        (4, 1.0, -2.0, [2, 2], True, "grid"),
    ], ids=["16-0.1--0.5-False", "4-0.8--2.5-True", "4-1.0--2.0-grid"])
    def test_cross_check_ladder_in_report_and_summary(
        self, tmp_path, capsys, K, delta, s, rungs, extrapolated, over
    ):
        doc = torus_doc(
            initial_modes=[{"kappa": [0], "amplitude": [0.5, 0.0]}],
            experiment={
                "type": "instability", "rho": 1.0, "delta": delta, "s": s,
                "K": K, "grid_points": 500, "cross_check": True,
            },
        )
        scn = write_scenario(tmp_path, doc)
        premise_met = K > delta ** (1 / s)  # not at K=16, where delta^(1/s) = 100
        with contextlib.nullcontext() if premise_met else pytest.warns(UserWarning, match="premise"):
            rc = run(["instability", "--scenario", scn, "--out", str(tmp_path / "out")])
        assert rc == 0  # an over-budget delta is reported, not raised
        record = load_report(tmp_path, "instability_report.json")["results"]["record"]
        eps = record["eps"]
        budget = 1e-2 * eps
        checks = record["solver_checks"]
        assert [c["rung"] for c in checks] == rungs
        assert [c["extrapolated"] for c in checks] == [extrapolated] * 2
        for c in checks:
            # the step its rung's solves took: a whole count on each delta/100
            # sample segment, of at most rung times the unit
            count = round(delta / 100 / c["dt"])
            assert count * c["dt"] == pytest.approx(delta / 100, rel=1e-12)
            assert c["dt"] <= c["rung"] * min(eps / 100, delta / 200) * (1 + 1e-12)
        assert (max(c["step_delta"] for c in checks) > budget) == (over == "step")
        assert (max(c["grid_delta"] for c in checks) > budget) == (over == "grid")
        if over == "grid":
            # as measured when the case was added: E at rung 2 for both data
            assert [c["steps"] for c in checks] == [1900, 1900]
            assert [c["step_delta"] / eps for c in checks] == pytest.approx(
                [7.254e-3, 7.766e-3], rel=1e-3
            )
            assert [c["grid_delta"] / eps for c in checks] == pytest.approx(
                [43.77, 63.55], rel=1e-3
            )
        out = capsys.readouterr().out.splitlines()
        for i, c in enumerate(checks):
            line = next(x for x in out if x.startswith(f"  datum {i + 1}: "))
            rung = f"{c['rung']}x extrapolated" if extrapolated else f"{c['rung']}x"
            assert f"dt={c['dt']:.4g} rung {rung} " in line
            assert f"step {c['step_delta'] / eps:.2e}*eps" in line
            assert f"grid {c['grid_delta'] / eps:.2e}*eps" in line
            assert (f"steps {c['steps']} drift {c['drift']:.2e} "
                    f"top band {c['aliasing']:.2e}") in line
            if over:
                assert line.endswith(f"[over 0.01*eps: {over}]")
            else:
                assert "[over" not in line

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"s": -3.0}, "lost to rounding"),  # alpha1^2 + 1/delta is alpha1^2
            ({"variant": "perturb_zero", "rho": 100.0, "delta": 1e-15},
             "lost to rounding"),  # alpha0 + delta is alpha0
            ({"rho": 100.0, "delta": 1e-307, "s": -4.0, "cross_check": True},
             "overflows when squared"),
            ({"rho": 100.0, "delta": 1e-40, "s": -4.0, "cross_check": True},
             "hides its zero mode"),
        ],
        ids=["perturb_high-rounding", "perturb_zero-rounding", "cross_check-overflow",
             "cross_check-zero-mode-rounding"],
    )
    def test_unrepresentable_data_refused(self, tmp_path, capsys, changes, message):
        # in bounds key by key; the perturbation is lost to rounding, the
        # cross-check's fields overflow when squared, or its zero mode is
        # read below the rounding of the datum; the cross-check cases, at
        # K <= delta^(1/s), say first that the H^s premise is unmet
        doc = torus_doc(experiment={
            "type": "instability", "rho": 1.0, "delta": 0.1, "s": -2.0, "K": 4096,
            **changes,
        })
        scn = write_scenario(tmp_path, doc)
        premise = pytest.warns(UserWarning, match="premise") if changes.get("cross_check") \
            else contextlib.nullcontext()
        with premise:
            rc = run(["instability", "--scenario", scn, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: experiment.delta: ") and message in err
        assert not (tmp_path / "out" / "instability_report.json").exists()


class TestSmalldivCommand:
    def test_survey_fit_and_probe(self, tmp_path, capsys):
        doc = {
            "schema": SCENARIO_SCHEMA,
            "dimension": 2,
            "sigma": 1,
            "domain": {"type": "torus"},
            "initial_modes": [
                {"kappa": [0, 0], "amplitude": [0.0, 0.0]},
                {"kappa": [0, 1], "amplitude": [0.0, 0.0]},
                {"kappa": [1, 0], "amplitude": [0.0, 0.0]},
                {"kappa": [1, 1], "amplitude": [0.0, 0.0]},
            ],
            "experiment": {
                "type": "smalldiv",
                "b_grid": [0.0, 1.0],
                "probe": {
                    "generators": [[1, 0], [0, "1/3"]],
                    "beta_bound": 6,
                    "b_prime": 2.0,
                },
            },
        }
        scn = write_scenario(tmp_path, doc)
        rc = run(["smalldiv", "--scenario", scn, "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "min |delta| = 2" in out
        assert "min nonzero |sum beta G|" in out
        assert "not generic" in out
        rep = load_report(tmp_path, "smalldiv_report.json")
        assert rep["results"]["survey"]["min_delta"] == 2
        assert set(rep["results"]["survey"]) == {
            "sigma", "tuples_scanned", "nonresonant_count", "min_delta", "argmin",
        }
        assert rep["results"]["probe"]["exact_minimum"] == "1/9"
        fit_lines = (tmp_path / "out" / "generalized_fit.csv").read_text().splitlines()
        assert fit_lines[0] == "b,c"
        assert len(fit_lines) == 3
        b0 = float(fit_lines[1].split(",")[1])
        assert b0 == 2.0

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_outputs_follow_umask(self, tmp_path, umask, mode):
        doc = torus_doc(experiment={"type": "smalldiv", "b_grid": [0.0, 1.0]})
        scn = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        old = os.umask(umask)
        try:
            rc = run(["smalldiv", "--scenario", scn, "--out", str(out)])
        finally:
            os.umask(old)
        assert rc == 0
        names = sorted(os.listdir(out))  # no temporary file left behind
        assert names == ["generalized_fit.csv", "smalldiv_report.json"]
        for name in names:
            assert stat.S_IMODE(os.stat(out / name).st_mode) == mode


class TestParser:
    def test_two_runs_build_one_parser(self, tmp_path):
        experiments_cli.build_parser.cache_clear()
        scn = str(SCENARIOS / "closure_creation2d.json")
        for out in ("a", "b"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(["closure", "--scenario", scn, "--out", str(tmp_path / out)]) == 0
        info = experiments_cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestErrorPaths:
    def test_missing_file(self, tmp_path, capsys):
        rc = run(
            [
                "closure", "--scenario", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "scenario error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{не json")
        rc = run(["closure", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_wrong_schema(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, {"schema": "other/9"})
        rc = run(["closure", "--scenario", scn, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "schema" in capsys.readouterr().err

    def test_bad_eps_reports_field(self, tmp_path, capsys):
        doc = torus_doc(
            solver={"eps_list": [0.3]},
            experiment={"type": "converge", "t_final": 0.1},
        )
        scn = write_scenario(tmp_path, doc)
        rc = run(["converge", "--scenario", scn, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "solver.eps_list[0]" in capsys.readouterr().err

    def test_solver_grid_n_rejected_null_accepted(self, tmp_path, capsys):
        # each leg is solved on one period sized by the grid rule, and its
        # steps are chosen by the ladder: a grid size or a step in the
        # scenario is an error, not a silently ignored value
        for section, key, value in (
            ("solver", "grid_n", 256), ("solver", "dt", 0.01),
            ("experiment", "profile_dt", 0.002),
        ):
            doc = torus_doc(
                solver={"dt": None, "grid_n": None, "eps_list": ["1/2"]},
                experiment={"type": "converge", "t_final": 0.1, "checkpoints": 1},
            )
            doc[section][key] = value
            scn = write_scenario(tmp_path, doc)
            rc = run(["converge", "--scenario", scn, "--out", str(tmp_path / "o")])
            assert rc == 2
            assert f"{section}.{key}: must be null" in capsys.readouterr().err
        doc["experiment"]["profile_dt"] = None
        scn = write_scenario(tmp_path, doc)
        assert load_scenario(scn).resolved["solver"] == {
            "dt": None, "eps_list": ["1/2"],
        }

    INSTABILITY = {"type": "instability", "rho": 1.0, "delta": 0.1, "s": -0.5, "K": 16}
    PROBE = {"generators": [[1, 0], [0, "1/3"]]}

    @pytest.mark.parametrize(
        "changes, path",
        [
            ({"experiment": {"type": "profiles", "t_final": 0.1, "dt": "fast"}},
             "experiment.dt"),
            ({"experiment": {"type": "profiles", "t_final": 0.1, "dt": -1}}, "experiment.dt"),
            ({"experiment": {"type": "profiles", "t_final": 0.1, "snapshots": 0}},
             "experiment.snapshots"),
            ({"experiment": {"type": "converge", "t_final": 0.1, "checkpoints": -1}},
             "experiment.checkpoints"),
            ({"experiment": {**INSTABILITY, "grid_points": 0}}, "experiment.grid_points"),
            ({"experiment": {**INSTABILITY, "delta": 2.0}}, "experiment.delta"),
            ({"experiment": {**INSTABILITY, "cross_check": "no"}}, "experiment.cross_check"),
            ({"experiment": {**INSTABILITY, "rho": math.nan}}, "experiment.rho"),
            ({"experiment": {**INSTABILITY, "rho": True}}, "experiment.rho"),
            ({"experiment": {"type": "converge", "t_final": True}}, "experiment.t_final"),
            ({"sigma": True, "experiment": {"type": "closure"}}, "sigma"),
            ({"closure_limits": {"max_generations": True}, "experiment": {"type": "closure"}},
             "closure_limits.max_generations"),
            ({"domain": {"type": "euclid", "length": True, "grid_n": 256},
              "experiment": {"type": "profiles", "t_final": 0.1}}, "domain.length"),
            ({"experiment": {"type": "converge", "t_final": 0.1, "checkpont": 1}},
             "experiment.checkpont"),
            ({"comment": "two modes", "experiment": {"type": "closure"}}, "comment"),
            ({"experiment": {"type": "smalldiv", "probe": {**PROBE, "budget": -5}}},
             "experiment.probe.budget"),
            ({"experiment": {**INSTABILITY, "rho": -1.0}}, "experiment.rho"),
            ({"experiment": {**INSTABILITY, "s": 0.5}}, "experiment.s"),
            ({"experiment": {**INSTABILITY, "variant": "bogus"}}, "experiment.variant"),
            ({"experiment": {**INSTABILITY, "variant": "weak_limit"}}, "experiment.theta"),
            ({"lambda": math.inf, "experiment": {"type": "closure"}}, "lambda"),
            ({"experiment": {"type": "profiles", "t_final": 1e308}}, "experiment.t_final"),
            ({"initial_modes": [{"kappa": [0], "amplitude": [1e308, 1e308]}],
              "experiment": {"type": "closure"}}, "initial_modes[0].amplitude"),
            ({"experiment": {"type": "smalldiv", "probe": {**PROBE, "beta_bound": "six"}}},
             "experiment.probe.beta_bound"),
            # in bounds key by key, but 1/delta^sigma overflows a float
            ({"sigma": 8, "experiment": {**INSTABILITY, "delta": 1e-300, "K": 4}},
             "experiment.delta"),
            # in bounds key by key, but too large for the exact integer scan
            ({"experiment": {"type": "smalldiv", "probe": {
                "generators": [["1/999999937"], ["1/999999929"]], "beta_bound": 64}}},
             "experiment.probe.generators"),
            # in bounds key by key, but c(100) of {60, 61} overflows a float
            ({"initial_modes": [{"kappa": [k], "amplitude": [0.5, 0.0]} for k in (60, 61)],
              "experiment": {"type": "smalldiv", "b_grid": [0, 1, 100]}},
             "experiment.b_grid: c(b) overflows a float at b=100"),
            # the two-mode closed form on a set that closes to three modes
            ({"initial_modes": [{"kappa": [k], "amplitude": [0.5, 0.0]} for k in (-1, 0, 1)],
              "experiment": {"type": "profiles", "t_final": 0.1,
                             "oracle": "explicit_two_mode"}},
             "explicit_two_mode oracle needs exactly two modes"),
        ],
        ids=["dt-string", "dt-negative", "snapshots-0", "checkpoints-negative",
             "grid_points-0", "delta-2", "cross_check-string", "rho-nan", "rho-true",
             "t_final-true", "sigma-true", "max_generations-true", "length-true",
             "misspelt-key", "extra-top-level-key", "budget-negative", "rho-negative",
             "s-positive", "variant-bogus", "weak_limit-without-theta", "lambda-inf",
             "t_final-1e308", "amplitude-1e308", "beta_bound-string", "delta-overflow",
             "generators-overflow", "b_grid-overflow", "two-mode-oracle-on-three-modes"],
    )
    def test_malformed_experiment_number_is_a_scenario_error(
        self, tmp_path, capsys, changes, path
    ):
        # each of these used to reach the experiment and die there with a
        # traceback, or to run with the value ignored or misread
        doc = torus_doc(solver={"eps_list": ["1/2"]}, **changes)
        scn = write_scenario(tmp_path, doc)
        command = doc["experiment"]["type"]
        rc = run([command, "--scenario", scn, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"scenario error: {path}" in capsys.readouterr().err
        assert not list((tmp_path / "o").rglob("*"))  # a refused run writes nothing

    def test_kappa_arity_reported(self, tmp_path, capsys):
        # a complete document: the table's checks run before this cross-field one
        doc = torus_doc(dimension=2, experiment={"type": "closure"})
        scn = write_scenario(tmp_path, doc)
        rc = run(["closure", "--scenario", scn, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "initial_modes[0].kappa" in capsys.readouterr().err

    def test_command_scenario_mismatch(self, tmp_path, capsys):
        doc = torus_doc(experiment={"type": "closure"})
        scn = write_scenario(tmp_path, doc)
        rc = run(["smalldiv", "--scenario", scn, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "declares experiment" in capsys.readouterr().err

    def test_duplicate_kappa_rejected(self, tmp_path, capsys):
        doc = torus_doc(
            initial_modes=[
                {"kappa": [1], "amplitude": [0.1, 0.0]},
                {"kappa": [1], "amplitude": [0.2, 0.0]},
            ],
            experiment={"type": "closure"},
        )
        scn = write_scenario(tmp_path, doc)
        rc = run(["closure", "--scenario", scn, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_unusable_out_refused_before_computing(self, tmp_path, capsys, monkeypatch,
                                                   out):
        # --out an existing file, or a path under one: refused up front, not
        # after the command has run
        closures = record_calls(monkeypatch, "close_under_resonances")
        scn = write_scenario(tmp_path, torus_doc(experiment={"type": "closure"}))
        (tmp_path / "afile").write_text("kept")
        rc = run(["closure", "--scenario", scn, "--out", str(tmp_path / out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"output error: --out {tmp_path / out}: ")
        assert err.endswith(f"{tmp_path / 'afile'} is not a directory\n")
        assert closures == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "scn.json"]
        assert (tmp_path / "afile").read_text() == "kept"

    def test_nested_out_dir_created(self, tmp_path):
        doc = torus_doc(experiment={"type": "closure"})
        scn = write_scenario(tmp_path, doc)
        out = tmp_path / "deep" / "nested" / "dir"
        rc = run(["closure", "--scenario", scn, "--out", str(out)])
        assert rc == 0
        assert (out / "closure_report.json").exists()


class TestShippedScenarios:
    def test_closure_creation2d_edges(self):
        import os

        from nlsoptics.experiments_cli import _closed_modes, load_scenario

        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        scn = load_scenario(os.path.join(here, "scenarios", "closure_creation2d.json"))
        modes, _ = _closed_modes(scn, record_edges=True)  # as cmd_closure calls it
        # the list the per-triple rectangle scan produced, order included
        assert modes.creation_edges == (
            (((0, 1), (1, 1), (1, 0)), (0, 0), 1),
            (((1, 0), (1, 1), (0, 1)), (0, 0), 1),
        )

    def test_only_closure_builds_edges(self, tmp_path, monkeypatch):
        # profiles never reads creation edges, so its closure builds none;
        # the closure command lists them in edges.csv as before
        doc = json.loads((SCENARIOS / "closure_creation2d.json").read_text())
        closure_scn = write_scenario(tmp_path, doc, "closure.json")
        doc["experiment"] = {"type": "profiles", "t_final": 0.01, "dt": 0.001}
        profiles_scn = write_scenario(tmp_path, doc, "profiles.json")
        closed = record_calls(monkeypatch, "close_under_resonances")
        assert run(["profiles", "--scenario", profiles_scn, "--out", str(tmp_path / "p")]) == 0
        assert run(["closure", "--scenario", closure_scn, "--out", str(tmp_path / "c")]) == 0
        assert [len(m) for m in closed] == [4, 4]
        assert closed[0].creation_edges == () and len(closed[1].creation_edges) == 2
        assert (tmp_path / "c" / "edges.csv").read_text() == (
            "parents,created,generation\n"
            '"(0,1) (1,1) (1,0)","(0,0)",1\n'
            '"(1,0) (1,1) (0,1)","(0,0)",1\n'
        )

    def test_lam0_converge_is_checked_at_the_floor(self, tmp_path):
        # the linear sweep's steps go through the ladder like every other
        # sweep's, and its errors stay at the rounding floor
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        scn = os.path.join(here, "scenarios", "lam0_converge.json")
        rc = run(["converge", "--scenario", scn, "--out", str(tmp_path / "out"),
                  "--assert-order", "0.9"])
        assert rc == 0
        res = load_report(tmp_path, "converge_report.json")["results"]
        assert len(res["rows"]) == 2
        for r in res["rows"]:
            assert r["status"] == "ok" and r["check"]["rung"] is not None
            assert r["check"]["step_delta"] <= 1e-2 * r["eps"]
            assert r["check"]["grid_delta"] <= 1e-2 * r["eps"]
        assert res["profile"]["rung"] is not None
        assert res["at_floor"] is True

    def test_instability_crosscheck_counts_each_datums_steps(self, tmp_path, capsys):
        # the shipped K=32 cross-check: both data take the extrapolant of
        # rung 16, walked together in stacked solves; each datum's check
        # counts the split steps of its own solves
        scn = str(SCENARIOS / "instability_crosscheck.json")
        with pytest.warns(UserWarning, match="premise"):
            assert run(["instability", "--scenario", scn, "--out", str(tmp_path / "out")]) == 0
        record = load_report(tmp_path, "instability_report.json")["results"]["record"]
        checks = record["solver_checks"]
        assert [(c["rung"], c["extrapolated"]) for c in checks] == [(16, True)] * 2
        assert [c["steps"] for c in checks] == [1800, 1800]
        datum = [x for x in capsys.readouterr().out.splitlines() if x.startswith("  datum ")]
        assert len(datum) == 2 and all(" steps 1800 drift " in x for x in datum)

    # the defaults a run uses when its document leaves the key out
    DEFAULTS = {
        "closure": {},
        "profiles": {"dt": 1e-3, "snapshots": 9, "oracle": None, "quadrature_dt": None},
        "converge": {"checkpoints": 8},
        "instability": {
            "variant": "perturb_high", "theta": None, "grid_points": 10_000,
            "cross_check": False,
        },
        "smalldiv": {"b_grid": [0.0], "probe": None},
    }

    def test_scenario_corpus_loads(self):
        paths = sorted(SCENARIOS.glob("*.json"))
        assert len(paths) >= 10
        for etype, rows in experiments_cli.EXPERIMENTS.items():
            defaults = {k: row.default for k, row in rows.items()
                        if row.default is not experiments_cli.REQUIRED
                        and row.default is not experiments_cli.OMIT}
            assert defaults == self.DEFAULTS[etype], etype
        for p in paths:
            given = json.loads(p.read_text())["experiment"]
            exp = load_scenario(str(p)).resolved["experiment"]
            assert exp["type"] in self.DEFAULTS
            for key, default in self.DEFAULTS[exp["type"]].items():
                assert key in exp, (p.name, key)
                if key not in given:
                    assert exp[key] == default, (p.name, key)
            if exp.get("probe") is not None:
                assert exp["probe"]["budget"] == 10_000_000

    def test_benchmark_documents_load(self, tmp_path):
        # the benchmark generates its own documents; a schema change that
        # rejects one of them would break the benchmark's parent runs
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # dataclasses look their module up
        try:
            spec.loader.exec_module(workloads)
        finally:
            del sys.modules[spec.name]
        assert workloads.WORKLOADS
        for workload in workloads.WORKLOADS.values():
            for seed in (0, 1, 7, 11001):
                out = tmp_path / f"{workload.name}-{seed}"
                out.mkdir()
                for path, doc in workloads.generate(workload, seed, str(out)).values():
                    scn = load_scenario(path)
                    assert scn.experiment["type"] == doc["experiment"]["type"]


FOOTPRINT = """
import json, sys
from nlsoptics import experiments_cli
def heavy():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
seen = {"import": heavy()}
for command, name in json.loads(sys.argv[1]):
    rc = experiments_cli.run([command, "--scenario", name, "--out", sys.argv[2]])
    seen[name] = heavy() if rc == 0 else f"exit {rc}"
print(json.dumps(seen))
"""


class TestImportFootprint:
    def test_no_command_loads_scipy(self, tmp_path):
        # every command kind, the transforming ones (converge, instability,
        # Euclidean profiles) included, runs on numpy alone
        runs = [["closure", "closure_creation2d"], ["closure", "closure_two_mode_quintic"],
                ["smalldiv", "smalldiv_square"], ["profiles", "profiles_torus_1d"],
                ["converge", "th11_converge"], ["converge", "creation2d_converge"],
                ["instability", "instability_crosscheck"],
                ["profiles", "profiles_euclid_gaussians"]]
        runs = [[command, str(SCENARIOS / f"{name}.json")] for command, name in runs]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, "-c", FOOTPRINT, json.dumps(runs), str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen == {"import": [], **{path: [] for _, path in runs}}


HOSTILE = (True, math.nan, math.inf, -1, "hostile", 1e308, "<delete>", "<extra key>")
# documents run end to end; the others stop at load_scenario
FULL_RUN = ("closure_creation2d", "closure_two_mode_quintic", "smalldiv_square",
            "profiles_torus_1d", "instability_part1")


def _fields(node, path=""):
    """(path of the object, object, key) for every key of every object."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path, node, key
            yield from _fields(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _fields(value, f"{path}[{i}]")


@st.composite
def hostile_documents(draw):
    """A shipped scenario with one field set to a hostile value, deleted, or
    joined by an unknown key; returns (name, document, path of the field)."""
    name = draw(st.sampled_from(sorted(p.stem for p in SCENARIOS.glob("*.json"))))
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    where, obj, key = draw(st.sampled_from(list(_fields(doc))))
    value = draw(st.sampled_from(HOSTILE))
    if value == "<delete>":
        del obj[key]
    elif value == "<extra key>":
        key = "hostile_key"
        obj[key] = 0
    else:
        obj[key] = value
    return name, doc, f"{where}.{key}" if where else key


class TestHostileFields:
    @given(hostile_documents())
    @settings(max_examples=150, deadline=None)
    def test_runs_or_names_the_key(self, case):
        name, doc, path = case
        command = json.loads((SCENARIOS / f"{name}.json").read_text())["experiment"]["type"]
        with tempfile.TemporaryDirectory() as tmp:
            scn = os.path.join(tmp, "scn.json")
            with open(scn, "w") as fh:
                json.dump(doc, fh)
            if name not in FULL_RUN:
                try:
                    load_scenario(scn)
                except experiments_cli.ScenarioError as exc:
                    assert path in str(exc)
                return
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = run([command, "--scenario", scn, "--out", os.path.join(tmp, "out")])
            if rc == 0:
                assert os.path.exists(os.path.join(tmp, "out", f"{command}_report.json"))
            else:
                assert rc == 2 and path in err.getvalue(), (rc, err.getvalue())
