"""End-to-end tests for the geodesy command line interface."""

import json
import os

import numpy as np
import pytest

from geodesy import Method, get_problem, integrate, sample_trajectory
from geodesy.cli import main


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        data = np.loadtxt(fh, delimiter=",")
    return header, np.atleast_2d(data)


class TestRun:
    def test_writes_trajectory_and_invariants(self, tmp_path):
        out = str(tmp_path)
        code = run_cli(
            "run", "--problem", "harmonic", "--method", "euler",
            "--dt", "0.1", "--tfinal", "1", "--out", out,
        )
        assert code == 0
        header, rows = read_csv(os.path.join(out, "trajectory.csv"))
        assert header == "t,y_1,y_2"
        assert rows.shape == (11, 3)
        np.testing.assert_array_equal(rows[0], [0.0, 1.0, 0.0])
        header, inv = read_csv(os.path.join(out, "invariants.csv"))
        assert header == "t,I_error"
        # explicit Euler on the oscillator grows the invariant by (1 + dt^2)
        # each step, so the final drift is (1 + dt^2)^10 - 1
        want = (1.0 + 0.01) ** 10 - 1.0
        assert abs(inv[-1, 1] - want) <= 1e-13

    def test_output_is_deterministic(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        for out in (a, b):
            code = run_cli(
                "run", "--problem", "pendulum", "--method", "mgi",
                "--pt", "2", "--dt", "0.4", "--tfinal", "4", "--out", out,
            )
            assert code == 0
        for name in ("trajectory.csv", "invariants.csv"):
            with open(os.path.join(a, name), "rb") as fh:
                blob_a = fh.read()
            with open(os.path.join(b, name), "rb") as fh:
                blob_b = fh.read()
            assert blob_a == blob_b

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"problem": "harmonic", "method": "euler", "dt": 0.1, "tfinal": 1.0}
        ))
        out = str(tmp_path / "out")
        code = run_cli("run", "--config", str(cfg), "--method", "rk4", "--out", out)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "harmonic via rk4" in stdout

    def test_dense_sampling(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"samples_per_element": 5}))
        out = str(tmp_path / "out")
        code = run_cli(
            "run", "--config", str(cfg), "--problem", "circle", "--method", "mci",
            "--pt", "2", "--dt", "0.5", "--tfinal", "2", "--out", out,
        )
        assert code == 0
        _, rows = read_csv(os.path.join(out, "trajectory.csv"))
        assert rows.shape[0] == 4 * 5 + 1
        t = rows[:, 0]
        assert np.all(np.diff(t) > 0)
        assert t[0] == 0.0 and t[-1] == 2.0
        # conservation holds at the grid points; between them the
        # reconstruction is only O(dt^(p+1)) accurate (measured 1.7e-3)
        r2 = rows[:, 1] ** 2 + rows[:, 2] ** 2
        assert np.max(np.abs(r2 - 4.0)) <= 5e-3
        assert abs(r2[0] - 4.0) <= 1e-12 and abs(r2[-1] - 4.0) <= 1e-12

    @pytest.mark.parametrize(
        "problem,method,pt,samples", [("circle", "mci", "2", 32), ("kepler", "mgi", "3", 7)]
    )
    def test_dense_csv_round_trips_sampled_states(self, tmp_path, problem, method, pt, samples):
        # 17 significant digits read back to the same doubles
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"samples_per_element": samples}))
        out = str(tmp_path / "out")
        code = run_cli(
            "run", "--config", str(cfg), "--problem", problem, "--method", method,
            "--pt", pt, "--dt", "0.1", "--tfinal", "1", "--out", out,
        )
        assert code == 0
        _, rows = read_csv(os.path.join(out, "trajectory.csv"))
        spec = get_problem(problem)
        traj = integrate(spec.system, Method(method), spec.y0, 0.0, 1.0, 0.1, p=int(pt))
        np.testing.assert_array_equal(rows[:, 1:].T, sample_trajectory(traj, rows[:, 0]))
        assert rows.shape[0] == traj.steps * samples + 1

    def test_domain_violation_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"y0": [5.0, 0.5]}))
        code = run_cli(
            "run", "--config", str(cfg), "--problem", "lotka-volterra",
            "--method", "euler", "--dt", "0.3", "--tfinal", "3",
            "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "failed:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["mci", "rk4"])
    def test_non_finite_step_count_exits_one(self, tmp_path, capsys, method):
        # (tf - t0) / dt overflows: a failed run naming the times, not a traceback
        out = tmp_path / "out"
        code = run_cli(
            "run", "--problem", "pendulum", "--method", method, "--dt", "1e-300",
            "--tfinal", "1e300", "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("failed: ") and "t0=0.0, tf=1e+300, dt=1e-300" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["mci", "rk4"])
    def test_step_count_past_what_numpy_can_address_exits_one(self, tmp_path, capsys, method):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--problem", "pendulum", "--method", method, "--dt", "1e-200",
            "--tfinal", "1e100", "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("failed: too many steps: t0=0.0, tf=1e+100, dt=1e-200 give ")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["mci", "rk4"])
    def test_step_count_past_memory_exits_one(self, tmp_path, capsys, monkeypatch, method):
        # 1e9 steps fit numpy's limit but not this machine's memory; the
        # allocation is patched to fail as it would, without asking for it
        empty = np.empty

        def out_of_memory(shape, *args, **kwargs):
            if np.prod(shape, dtype=float) > 1e8:
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", out_of_memory)
        out = tmp_path / "out"
        code = run_cli(
            "run", "--problem", "pendulum", "--method", method, "--dt", "1e-9",
            "--tfinal", "1", "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("failed: Unable to allocate an array")
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_problem(self, capsys):
        assert run_cli("run", "--problem", "brusselator") == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_method(self, capsys):
        assert run_cli("run", "--method", "leapfrog") == 2
        err = capsys.readouterr().err
        assert "known methods" in err

    def test_order_out_of_range(self):
        assert run_cli("run", "--pt", "0") == 2
        assert run_cli("run", "--pt", "17") == 2

    def test_negative_dt(self):
        assert run_cli("run", "--dt", "-0.1") == 2

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--tfinal", "inf"], "tfinal"),
            (["--tfinal", "nan"], "tfinal"),
            (["--dt", "inf"], "dt"),
            (["--dt", "nan"], "dt"),
            (["--dt", "inf", "--tfinal", "1"], "dt"),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "converge"])
    def test_non_finite_times(self, tmp_path, capsys, flags, key, command):
        out = tmp_path / "out"
        assert run_cli(command, "--problem", "circle", *flags, "--out", str(out)) == 2
        assert f"error: --{key} must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dts", ["0.1,abc,0.05", "0.1,,0.05", "0.1,0.05,", ""])
    def test_step_sizes_that_are_not_numbers(self, tmp_path, capsys, dts):
        out = tmp_path / "out"
        code = run_cli("converge", "--problem", "circle", "--dts", dts, "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: --dts must be comma-separated numbers, got {dts!r}\n"
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"problm": "circle"}))
        assert run_cli("run", "--config", str(cfg)) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_config_file_missing(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "none.json")) == 2

    def test_config_not_an_object(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("[1, 2, 3]")
        assert run_cli("run", "--config", str(cfg)) == 2

    @pytest.mark.parametrize(
        "settings",
        [
            {"pt": 2.5},
            {"pt": True},
            {"pt": None},
            {"qrhs": 14.9},
            {"dt": "0.1"},
            {"dt": False},
            {"tfinal": [1]},
            {"tfinal": float("inf")},
            {"y0": ["a", 1]},
            {"y0": [1.0, True]},
            {"samples_per_element": 2.5},
            {"problem": 3},
            {"dts": "0.5,0.25,0.125"},
            {"levels": 3.0},
        ],
    )
    @pytest.mark.parametrize("command", ["run", "converge"])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, settings, command):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(settings))
        code = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"config key {next(iter(settings))!r} must be" in err
        assert not (tmp_path / "out").exists()

    def test_config_numbers_may_be_json_integers(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"dts": [1, 0.5, 0.25], "tfinal": 2, "y0": [1, 0]}))
        code = run_cli(
            "converge", "--config", str(cfg), "--problem", "harmonic", "--method", "mci",
            "--out", str(tmp_path),
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "convergence.csv")
        np.testing.assert_array_equal(rows[:, 0], [1.0, 0.5, 0.25])

    def test_y0_wrong_length(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"y0": [1.0, 2.0, 3.0]}))
        assert run_cli("run", "--config", str(cfg), "--problem", "circle") == 2

    def test_symplectic_euler_without_partition(self, capsys):
        assert run_cli("run", "--problem", "lotka-volterra", "--method", "seuler") == 2
        assert "partition" in capsys.readouterr().err
        assert run_cli(
            "converge", "--problem", "lotka-volterra", "--method", "seuler"
        ) == 2

    @pytest.mark.parametrize("qrhs", ["0", "65"])
    def test_quadrature_size_out_of_range(self, qrhs, capsys):
        assert run_cli("run", "--method", "mgi", "--qrhs", qrhs) == 2
        assert "--qrhs must lie in [1, 64]" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["mci", "rk4"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["run", "converge"])
    def test_quadrature_size_is_for_mgi_only(self, tmp_path, capsys, command, source, method):
        if source == "flag":
            given = ["--qrhs", "14"]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"qrhs": 14}))
            given = ["--config", str(cfg)]
        out = tmp_path / "out"
        code = run_cli(
            command, "--problem", "circle", "--method", method, *given, "--out", str(out)
        )
        assert code == 2
        assert "error: --qrhs applies to --method mgi only" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_quadrature_size_runs(self, tmp_path):
        code = run_cli(
            "run", "--problem", "pendulum", "--method", "mgi", "--qrhs", "64",
            "--tfinal", "0.8", "--out", str(tmp_path),
        )
        assert code == 0

    @pytest.mark.parametrize(
        "settings",
        [
            {"newton_abs_tol": float("nan")},
            {"newton_abs_tol": -1.0},
            {"newton_abs_tol": "1e-12"},
            {"newton_max_iter": 0},
            {"newton_max_iter": 2.5},
        ],
    )
    @pytest.mark.parametrize("command", ["run", "converge"])
    def test_bad_newton_settings(self, tmp_path, capsys, settings, command):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(settings))
        code = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert next(iter(settings)).removeprefix("newton_") in err
        assert not (tmp_path / "out").exists()

    def test_newton_settings_from_config_are_used(self, tmp_path, capsys):
        # one update per element cannot reach the tolerance on the pendulum
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"newton_abs_tol": 0, "newton_max_iter": 1}))
        code = run_cli(
            "run", "--config", str(cfg), "--problem", "pendulum", "--method", "mci",
            "--tfinal", "0.2", "--out", str(tmp_path),
        )
        assert code == 1
        assert "in 1 iterations" in capsys.readouterr().err

    def test_converge_needs_three_sizes(self):
        assert run_cli("converge", "--problem", "circle", "--dts", "0.5,0.25") == 2

    def test_converge_rejects_a_non_finite_step_size(self, tmp_path, capsys):
        code = run_cli(
            "converge", "--problem", "circle", "--dts", "nan,0.2,0.1", "--tfinal", "2",
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert "step sizes must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_converge_rejects_a_repeated_step_size(self, tmp_path, capsys, monkeypatch, source):
        # before any integration: a repeat would divide by log(1) = 0 in its observed order
        monkeypatch.setattr("geodesy.cli.integrate", None)  # never reached
        args = ["converge", "--problem", "circle", "--tfinal", "2"]
        if source == "flag":
            args += ["--dts", "0.1,0.1,0.05"]
        else:
            cfg = tmp_path / "conv.json"
            cfg.write_text(json.dumps({"dts": [0.1, 0.05, 0.1]}))
            args += ["--config", str(cfg)]
        out = tmp_path / "out"
        assert run_cli(*args, "--out", str(out)) == 2
        assert "error: step sizes must be distinct, got 0.1, " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("levels", [0, -2])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_converge_rejects_levels_below_one(self, tmp_path, capsys, levels, source):
        args = ["converge", "--problem", "circle", "--dt", "0.4", "--tfinal", "2"]
        if source == "flag":
            args += ["--levels", str(levels)]
        else:
            cfg = tmp_path / "conv.json"
            cfg.write_text(json.dumps({"levels": levels}))
            args += ["--config", str(cfg)]
        out = tmp_path / "out"
        assert run_cli(*args, "--out", str(out)) == 2
        assert f"error: --levels must be positive and finite, got {levels}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("levels", [1100, 2000])
    def test_converge_rejects_levels_whose_smallest_step_is_zero(
        self, tmp_path, capsys, monkeypatch, levels
    ):
        # 2**k has no float past 1023 halvings; the sweep's last step underflows to 0 first
        monkeypatch.setattr("geodesy.cli.integrate", None)  # never reached
        out = tmp_path / "out"
        args = ["converge", "--problem", "circle", "--levels", str(levels), "--out", str(out)]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --levels {levels} halves --dt ")
        assert "Traceback" not in err
        assert not out.exists()


def fitted_order(stdout):
    for line in stdout.splitlines():
        if "fitted endpoint order" in line:
            return float(line.rsplit(None, 1)[1])
    raise AssertionError(f"no order line in output:\n{stdout}")


class TestConverge:
    def test_element_method_order(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "converge", "--problem", "circle", "--method", "mci", "--pt", "2",
            "--dts", "1,0.5,0.25,0.125", "--tfinal", "5",
        )
        assert code == 0
        slope = fitted_order(capsys.readouterr().out)
        assert abs(slope - 4.0) <= 0.25
        header, rows = read_csv(tmp_path / "convergence.csv")
        assert header == "dt,endpoint_error,invariant_error,observed_order"
        assert rows.shape == (4, 4)
        assert np.isnan(rows[0, 3])
        assert np.all(np.diff(rows[:, 0]) < 0)
        with open(tmp_path / "convergence.csv") as fh:
            assert fh.readlines()[1].endswith(",nan\n")

    def test_nonlinear_problem_under_default_newton(self, tmp_path, capsys, monkeypatch):
        # the fine reference run takes steps of dt/64, where Newton stalls at
        # its rounding floor above the default abs_tol
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "converge", "--problem", "kepler", "--method", "mci", "--tfinal", "0.1",
            "--dts", "0.05,0.025,0.0125",
        )
        assert code == 0
        assert fitted_order(capsys.readouterr().out) >= 3.7

    def test_euler_first_order(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "converge", "--problem", "circle", "--method", "euler",
            "--dts", "0.1,0.05,0.025,0.0125", "--tfinal", "2",
        )
        assert code == 0
        slope = fitted_order(capsys.readouterr().out)
        assert abs(slope - 1.0) <= 0.2

    def test_rk4_fourth_order(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "converge", "--problem", "circle", "--method", "rk4",
            "--dts", "0.2,0.1,0.05,0.025", "--tfinal", "2",
        )
        assert code == 0
        slope = fitted_order(capsys.readouterr().out)
        assert slope >= 3.5

    @pytest.mark.filterwarnings("error")
    def test_exact_solution_has_nan_orders(self, tmp_path, capsys, monkeypatch):
        # the circle's rest state is solved exactly, so every endpoint error is
        # 0: no observed order and no fitted slope, but the sweep still writes
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "rest.json"
        cfg.write_text(json.dumps({"y0": [0, 0]}))
        code = run_cli("converge", "--problem", "circle", "--config", str(cfg), "--levels", "3")
        assert code == 0
        stdout = capsys.readouterr().out
        assert np.isnan(fitted_order(stdout))
        assert stdout.count("order=nan") == 3
        _, rows = read_csv(tmp_path / "convergence.csv")
        assert rows.shape == (3, 4)
        assert (rows[:, 1] == 0.0).all()
        assert np.isnan(rows[:, 3]).all()

    def test_levels_default_sweep(self, tmp_path, capsys, monkeypatch):
        # --levels n halves --dt n-1 times
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "converge", "--problem", "harmonic", "--method", "mci", "--pt", "1",
            "--dt", "0.4", "--levels", "3", "--tfinal", "2",
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "convergence.csv")
        np.testing.assert_allclose(rows[:, 0], [0.4, 0.2, 0.1], rtol=0.0, atol=1e-15)

    def test_levels_sweep_writes_the_bytes_of_dt_over_powers_of_two(self, tmp_path, monkeypatch):
        # the halvings are dt / 2**k bit for bit: the same file as that --dts list
        monkeypatch.chdir(tmp_path)
        args = ["converge", "--problem", "circle", "--dt", "0.3", "--tfinal", "1.2"]
        assert run_cli(*args, "--levels", "4", "--out", "levels") == 0
        dts = ",".join(repr(0.3 / 2**k) for k in range(4))
        assert run_cli(*args, "--dts", dts, "--out", "dts") == 0
        written = (tmp_path / "levels" / "convergence.csv").read_bytes()
        assert written == (tmp_path / "dts" / "convergence.csv").read_bytes()


class TestTableau:
    def test_midpoint_for_order_one(self, capsys):
        assert run_cli("tableau", "--pt", "1") == 0
        out = capsys.readouterr().out
        assert "stages: 1" in out
        assert "c: 0.5" in out
        assert "b: 1" in out
        assert "max deviation from Gauss collocation: 0.000e+00" in out

    def test_deviation_stays_tiny(self, capsys):
        assert run_cli("tableau", "--pt", "5") == 0
        out = capsys.readouterr().out
        dev = float(out.rsplit(":", 1)[1])
        assert dev <= 1e-13

    def test_rejects_bad_order(self):
        assert run_cli("tableau", "--pt", "0") == 2

    def test_builds_the_oracle_at_order_sixteen(self, capsys):
        assert run_cli("tableau", "--pt", "16") == 0
        out = capsys.readouterr().out
        assert "stages: 16" in out
        assert float(out.rsplit(":", 1)[1]) <= 1e-13


class TestPlot:
    def test_requires_existing_csv(self, tmp_path, capsys):
        assert run_cli("plot", "--out", str(tmp_path)) == 1
        assert "failed:" in capsys.readouterr().err

    def test_writes_gnuplot_script(self, tmp_path):
        out = str(tmp_path)
        assert run_cli(
            "run", "--problem", "circle", "--method", "mci",
            "--dt", "0.5", "--tfinal", "5", "--out", out,
        ) == 0
        assert run_cli("plot", "--out", out) == 0
        with open(os.path.join(out, "plot.gp")) as fh:
            script = fh.read()
        assert "multiplot" in script
        assert "trajectory.csv" in script
        assert "invariants.csv" in script


class TestList:
    def test_lists_problems_and_methods(self, capsys):
        assert run_cli("list") == 0
        out = capsys.readouterr().out
        for name in ("circle", "harmonic", "kepler", "lotka-volterra", "pendulum"):
            assert name in out
        for method in ("mci", "mgi", "euler", "seuler", "rk4"):
            assert method in out


class TestParser:
    def test_main_builds_one_parser_per_process(self, monkeypatch, capsys):
        import geodesy.cli as cli

        built = []
        original = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
        cli._parser.cache_clear()
        try:
            assert run_cli("list") == 0
            with pytest.raises(SystemExit) as info:  # argparse's own usage error
                run_cli("tableau", "--pt", "two")
            assert info.value.code == 2
            assert run_cli("tableau", "--pt", "1") == 0
            assert run_cli("run", "--problem", "nowhere") == 2
            assert len(built) == 1
        finally:
            cli._parser.cache_clear()

    def test_build_parser_stays_public_and_fresh(self):
        import geodesy.cli as cli

        parser = cli.build_parser()
        assert parser is not cli.build_parser()
        assert parser.format_help() == cli._parser().format_help()
