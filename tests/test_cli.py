"""End-to-end tests for the command-line runner.

Each test drives ``bousslab.cli.main`` in-process with a small JSON config
written to a temp directory, then inspects exit codes and the artifact set
(report.json / series.csv / rates.csv / SVG plots).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import bousslab
from bousslab import (ModelParams, NonlinearitySpec, PhysicalField, RadialData,
                      linear_norm_radial, make_grid, reference_solve)
from bousslab.cli import EXIT_BAD_CONFIG, EXIT_BLOWUP, EXIT_OK, EXIT_VERDICT_FAILED, OUT_ENV_VAR, main

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_PATH = ROOT / "src" / "bousslab" / "schema" / "report_schema.json"

EXPERIMENT_IDS = (
    "linear_rates",
    "profile_gap",
    "nonlinear_rates",
    "nl_vs_linear_gap",
    "lemma_certify",
    "oracle_crosscheck",
)


def small_linear_config(**overrides) -> dict:
    """A cheap linear-rates config (runs in well under a second)."""
    cfg = {
        "experiment": "linear_rates",
        "seed": 0,
        "model": {"alpha": -1.0, "beta": 1.0},
        "discretization": {"n": 1, "L": 200.0, "N": 256, "dt": 0.05, "T": 10.0},
        "data": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0},
        "analysis": {
            "k_list": [0, 1],
            "fit_window": [100.0, 10000.0],
            "n_times": 12,
            "slope_tol": 0.05,
        },
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg[key] = {**cfg[key], **value}
        else:
            cfg[key] = value
    return cfg


def write_config(tmp_path: Path, cfg: dict, name: str = "cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestList:
    def test_lists_every_experiment_with_description(self, capsys):
        assert main(["list"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in EXPERIMENT_IDS:
            assert name in out
        # every line is "<id> -> <what it verifies>"
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == len(EXPERIMENT_IDS)
        assert all(" -> " in ln for ln in lines)


class TestRunArtifacts:
    def test_passing_run_writes_full_artifact_set(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_linear_config())
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == EXIT_OK

        assert (out_dir / "report.json").is_file()
        assert (out_dir / "series.csv").is_file()
        assert (out_dir / "rates.csv").is_file()
        svgs = sorted(p.name for p in out_dir.glob("*.svg"))
        assert svgs == ["linear_k0.svg", "linear_k1.svg"]

        header = (out_dir / "series.csv").read_text().splitlines()[0]
        assert header == "experiment_id,t,k,norm_kind,value"

        stdout = capsys.readouterr().out
        assert "PASS linear_rates" in stdout
        assert f"-> {out_dir}" in stdout

    def test_report_json_matches_bundled_schema(self, tmp_path):
        cfg = write_config(tmp_path, small_linear_config())
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(report, schema)
        assert report["experiment"] == "linear_rates"
        assert report["passed"] is True
        assert all(v["status"] == "pass" for v in report["verdicts"])

    def test_verdict_lines_name_the_criterion(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_linear_config())
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[pass]" in out
        assert "AC4" in out

    def test_out_dir_defaults_to_env_var(self, tmp_path, monkeypatch):
        base = tmp_path / "artifact-base"
        monkeypatch.setenv(OUT_ENV_VAR, str(base))
        cfg = write_config(tmp_path, small_linear_config())
        assert main(["run", str(cfg)]) == EXIT_OK
        assert (base / "linear_rates" / "report.json").is_file()


class TestExitCodes:
    def test_verdict_failure_returns_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, small_linear_config(analysis={"slope_tol": 1e-6}))
        rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_VERDICT_FAILED
        out = capsys.readouterr().out
        assert "FAIL linear_rates" in out
        assert "[fail]" in out

    def test_unknown_config_key_returns_two(self, tmp_path, capsys):
        bad = small_linear_config()
        bad["model"]["alpa"] = -1.0
        cfg = write_config(tmp_path, bad)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "unknown key" in err
        assert "alpa" in err

    def test_malformed_json_returns_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "experiment": "linear_rates",\n  nope\n}')
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_BAD_CONFIG
        assert "line 3" in capsys.readouterr().err

    def test_missing_config_file_returns_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == EXIT_BAD_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_blow_up_returns_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "experiment": "nonlinear_rates",
            "seed": 0,
            "model": {"alpha": -1.0, "beta": 1.0,
                      "f_kind": "quadratic", "g_kind": "quadratic"},
            "discretization": {"n": 1, "L": 30.0, "N": 64, "dt": 0.1,
                               "T": 1.0, "out_every": 1},
            "data": {"kind": "gaussian", "amplitude": 1e100, "width": 0.5},
            "analysis": {"k_list": [0], "fit_window": [0.2, 0.9],
                         "slope_tol": 0.1},
        })
        rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_BLOWUP
        assert "blow-up" in capsys.readouterr().err

    def test_oracle_on_stiff_512_mode_grid_passes(self, tmp_path):
        # |xi|^4 damping on 512 modes: an explicit oracle overflows here, the
        # implicit one is not limited by it
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {
            "experiment": "oracle_crosscheck",
            "seed": 12345,
            "model": {"alpha": -1.0, "beta": 1.0,
                      "f_kind": "quadratic", "g_kind": "quadratic"},
            "discretization": {"n": 1, "L": 30.0, "N": 512, "dt": 0.005, "T": 5.0},
            "data": {"kind": "gaussian", "amplitude": 0.01, "width": 1.0},
        })
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        [ac9] = [v for v in report["verdicts"]
                 if v["name"] == "integrator_vs_reference"]
        assert ac9["status"] == "pass" and ac9["value"] <= 2e-8

    def test_non_finite_oracle_source_returns_three_and_names_it(
            self, tmp_path, capsys, monkeypatch):
        def run_experiment(cfg):
            g = make_grid(1, 30.0, 64)
            huge = PhysicalField.from_function(g, lambda x: 1e200 * np.exp(-0.5 * x**2))
            reference_solve(huge, PhysicalField.zero(g), T=1.0,
                            spec=NonlinearitySpec(), params=ModelParams())

        monkeypatch.setattr("bousslab.cli.run_experiment", run_experiment)
        cfg = write_config(tmp_path, small_linear_config())
        rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_BLOWUP
        err = capsys.readouterr().err
        assert "reference integration failed: non-finite source at t=0" in err
        assert "stiffness" not in err
        assert not (tmp_path / "o").exists()

    def test_quadrature_failure_returns_three_and_names_it(self, tmp_path, capsys,
                                                           monkeypatch):
        def run_experiment(cfg):
            # a flat spectral profile never passes the cutoff tail check
            flat = RadialData(u0_hat=np.ones_like, u1_hat=np.zeros_like, cutoff_hint=1.0)
            linear_norm_radial(flat, 0.0, [("linear", 0)], 1, ModelParams())

        monkeypatch.setattr("bousslab.cli.run_experiment", run_experiment)
        cfg = write_config(tmp_path, small_linear_config())
        rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_BLOWUP
        assert "radial quadrature did not converge" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_finite_radial_integrand_returns_three(self, tmp_path, capsys,
                                                        monkeypatch):
        # the real linear_rates path, with a profile that is NaN beyond r = 1
        nan_data = RadialData(u0_hat=lambda r: np.where(r > 1.0, np.nan, 1.0),
                              u1_hat=np.zeros_like)
        monkeypatch.setattr("bousslab.experiments._radial_data",
                            lambda data, n: nan_data)
        cfg = write_config(tmp_path, small_linear_config())
        rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_BLOWUP
        err = capsys.readouterr().err
        assert "radial quadrature did not converge: non-finite" in err
        assert not (tmp_path / "o").exists()

    def test_reference_integration_failure_returns_three_and_names_it(
            self, tmp_path, capsys, monkeypatch):
        def never_converges(fun, t, y, h, Z0, *args):
            return False, 1, Z0, None

        def run_experiment(cfg):
            g = make_grid(1, 10.0, 16)
            reference_solve(PhysicalField.zero(g), PhysicalField.zero(g), T=1.0,
                            spec=NonlinearitySpec(), params=ModelParams())

        # every Newton iteration fails, so the integrator halves its step
        # until it falls below the floor and gives up
        monkeypatch.setattr("bousslab.radau._collocation", never_converges)
        monkeypatch.setattr("bousslab.cli.run_experiment", run_experiment)
        cfg = write_config(tmp_path, small_linear_config())
        rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_BLOWUP
        err = capsys.readouterr().err
        assert "reference integration failed" in err
        assert "step size" in err and "fell below the floor" in err and "at t=0" in err
        assert not (tmp_path / "o").exists()

    def test_mean_carrying_velocity_file_returns_two(self, tmp_path, capsys):
        x = -32.0 + np.arange(64)
        bump = 1e-3 * np.exp(-0.5 * x**2)
        np.savez(tmp_path / "data.npz", u0=bump, u1=bump)
        cfg = write_config(tmp_path, {
            "experiment": "nonlinear_rates",
            "seed": 0,
            "model": {"alpha": -1.0, "beta": 1.0},
            "discretization": {"n": 1, "L": 64.0, "N": 64, "dt": 0.1,
                               "T": 2.0, "out_every": 2},
            "data": {"kind": "custom_file", "path": str(tmp_path / "data.npz")},
            "analysis": {"k_list": [0], "fit_window": [0.5, 2.0],
                         "slope_tol": 0.1},
        })
        rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "data.path" in err and "u1" in err

    @pytest.mark.parametrize("content", [
        b"u0 = 1\n", b"", b"PK\x03\x04 not a zip", "corrupt member",
    ], ids=["text", "empty", "corrupt_zip", "corrupt_member"])
    def test_unreadable_data_file_returns_two(self, tmp_path, capsys, content):
        # np.load raises ValueError, EOFError and zipfile.BadZipFile for the
        # first three; reading a member whose bytes fail their CRC raises
        # BadZipFile too
        if content == "corrupt member":
            np.savez(tmp_path / "data.npz", u0=np.ones(64), u1=np.zeros(64))
            content = bytearray((tmp_path / "data.npz").read_bytes())
            content[200:210] = b"\xff" * 10
        (tmp_path / "data.npz").write_bytes(content)
        cfg = write_config(tmp_path, {
            "experiment": "nonlinear_rates",
            "seed": 0,
            "model": {"alpha": -1.0, "beta": 1.0},
            "discretization": {"n": 1, "L": 64.0, "N": 64, "dt": 0.1,
                               "T": 2.0, "out_every": 2},
            "data": {"kind": "custom_file", "path": str(tmp_path / "data.npz")},
            "analysis": {"k_list": [0], "fit_window": [0.5, 2.0],
                         "slope_tol": 0.1},
        })
        rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "error: data.path: cannot read" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("discretization", "dt", 0.07, "dt=0.07 does not divide T"),
        ("analysis", "fit_window", [1000, 2000], "need at least 6 points"),
        ("discretization", "out_every", 100000, "2 output times, need >= 8"),
    ], ids=["dt_not_dividing_T", "fit_window_past_T", "too_few_output_times"])
    def test_cross_field_defect_returns_two_and_names_the_field(
            self, tmp_path, section, key, value, message):
        cfg = json.loads((ROOT / "configs" / "nonlinear_rates_1d.json").read_text())
        cfg[section][key] = value
        path = write_config(tmp_path, cfg)
        env = dict(os.environ)
        src = str(Path(bousslab.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-m", "bousslab.cli", "run", str(path),
             "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_BAD_CONFIG, done.stderr
        assert "Traceback" not in done.stderr
        assert f"error: {section}.{key}: " in done.stderr
        assert message in done.stderr
        assert not (tmp_path / "o").exists()

    def test_unwritable_out_returns_two(self, tmp_path, capsys):
        # --out below a regular file: the run completes, its writes cannot
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = write_config(tmp_path, small_linear_config())
        rc = main(["run", str(cfg), "--out", str(blocker / "x")])
        assert rc == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert f"error: --out: cannot write {blocker / 'x'}" in err
        assert blocker.read_text() == ""

    def test_threads_option_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_linear_config())
        with pytest.raises(SystemExit) as info:
            main(["run", str(cfg), "--threads", "2"])
        assert info.value.code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "usage" in err and "--threads" in err

    def test_no_arguments_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestDeterminism:
    def test_series_csv_identical_across_repeat_runs(self, tmp_path):
        cfg = write_config(tmp_path, small_linear_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--out", str(a)]) == EXIT_OK
        assert main(["run", str(cfg), "--out", str(b)]) == EXIT_OK
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
        assert (a / "rates.csv").read_bytes() == (b / "rates.csv").read_bytes()

    def test_box_run_csvs_identical_across_blas_thread_counts(self, tmp_path):
        # a reduced 2-D nonlinear_rates run: its half spectra hold more
        # elements than OpenBLAS sums on one thread, so a BLAS reduction in
        # the norms or the guard would follow the thread count
        cfg = json.loads((ROOT / "configs" / "nonlinear_rates_1d.json").read_text())
        cfg["discretization"] = {"n": 2, "L": 40.0, "N": 256, "dt": 0.05, "T": 2.0,
                                 "out_every": 5}
        cfg["analysis"]["fit_window"] = [0.5, 2.0]
        path = write_config(tmp_path, cfg)
        src = str(Path(bousslab.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            out = tmp_path / f"blas{threads}"
            done = subprocess.run(
                [sys.executable, "-m", "bousslab.cli", "run", str(path), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode in (EXIT_OK, EXIT_VERDICT_FAILED), done.stderr
            outputs.append(out)
        for name in ("series.csv", "rates.csv"):
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()


class TestReplot:
    def test_replot_recreates_the_svg_set(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_linear_config())
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == EXIT_OK
        originals = sorted(p.name for p in out_dir.glob("*.svg"))
        byte_sizes = {p.name: p.stat().st_size for p in out_dir.glob("*.svg")}
        for p in out_dir.glob("*.svg"):
            p.unlink()
        capsys.readouterr()

        assert main(["replot", str(out_dir / "series.csv")]) == EXIT_OK
        regenerated = sorted(p.name for p in out_dir.glob("*.svg"))
        assert regenerated == originals
        # theory-slope guides come back from the sibling report.json, so the
        # regenerated plots carry the same content as the originals
        for p in out_dir.glob("*.svg"):
            assert p.stat().st_size == byte_sizes[p.name]
        stdout = capsys.readouterr().out
        for name in originals:
            assert name in stdout

    def test_replot_missing_series_returns_two(self, tmp_path, capsys):
        rc = main(["replot", str(tmp_path / "missing.csv")])
        assert rc == EXIT_BAD_CONFIG
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("tag, kind", [
        ("x/../../evil", "sobolev2"),
        ("x/a&b<c>", "sobolev2"),
        ("x/linear", "a/../b"),
    ], ids=["source_leaves_the_directory", "source_is_markup", "kind_is_a_path"])
    def test_replot_rejects_names_unfit_for_a_file_or_svg(self, tmp_path, capsys,
                                                          tag, kind):
        # the source and the norm kind name the plot files and are written
        # into the SVG text, so replot refuses anything but [A-Za-z0-9_]+
        run_dir = tmp_path / "a" / "b" / "run"
        run_dir.mkdir(parents=True)
        path = run_dir / "series.csv"
        rows = [f"{tag},{t},0,{kind},{(1.0 + t) ** -0.5}" for t in range(1, 9)]
        path.write_text("experiment_id,t,k,norm_kind,value\n" + "\n".join(rows) + "\n")
        assert main(["replot", str(path)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert f"error: {path}:2: " in err and "[A-Za-z0-9_]+" in err
        assert list(tmp_path.rglob("*.svg")) == []


class TestZeroAmplitude:
    def test_zero_data_skips_fits_and_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, small_linear_config(data={"amplitude": 0.0}))
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == EXIT_OK

        report = json.loads((out_dir / "report.json").read_text())
        assert report["passed"] is True
        assert all(f.get("skipped") == "zero series" for f in report["fits"])
        assert all(v["status"] == "skip" for v in report["verdicts"])

        rates = (out_dir / "rates.csv").read_text()
        assert "skip" in rates
        # all-zero series cannot be drawn on a log scale, so no plots appear
        assert list(out_dir.glob("*.svg")) == []
        assert "PASS linear_rates" in capsys.readouterr().out
