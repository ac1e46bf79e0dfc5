"""Command-line dispatch: exit codes, CSV output, reproducibility."""

from __future__ import annotations

import numpy as np
import pytest

from gif_lab.bounds import RegularityProfile, lipschitz_flow_map, theta_profile
from gif_lab.cli import _EXPERIMENTS, dispatch
from gif_lab.schedules import LinearSchedule, ShiftedLinearSchedule


@pytest.fixture
def gauss_cfg(tmp_path):
    p = tmp_path / "gauss.cfg"
    p.write_text(
        "target = gaussian\n"
        "mean = (0.0, 0.0)\n"
        "var = 0.25\n"
        "schedule = linear\n"
    )
    return str(p)


@pytest.fixture
def gmm_cfg(tmp_path):
    p = tmp_path / "gmm.cfg"
    p.write_text(
        "target = moderate-gmm4\n"
        "schedule = linear\n"
        "n = 128\n"
        "steps = 32\n"
    )
    return str(p)


def _csv_body(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


class TestDispatchBasics:
    def test_unknown_subcommand(self, capsys):
        assert dispatch(["definitely-not-a-command"]) == 1
        assert capsys.readouterr().out == ""

    def test_no_subcommand(self):
        assert dispatch([]) == 1

    def test_bad_flag_type(self):
        assert dispatch(["flow", "--steps", "abc"]) == 1


class TestValidateSchedule:
    def test_ok_schedule(self, capsys):
        assert dispatch(["validate-schedule", "--schedule", "follmer"]) == 0
        out = capsys.readouterr().out
        assert "status: ok" in out
        assert "follmer" in out

    def test_family_params(self, capsys):
        code = dispatch(["validate-schedule", "--schedule", "vp",
                         "--alpha0", "0.02", "--p", "2.0"])
        assert code == 0

    def test_unknown_family(self, capsys):
        assert dispatch(["validate-schedule", "--schedule", "nope"]) == 1
        assert capsys.readouterr().out == ""

    def test_sigma_max_is_read(self, capsys):
        assert dispatch(["validate-schedule", "--schedule", "ve", "--sigma-max", "2.5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "family: ve" in out and "status: ok" in out
        assert dispatch(["validate-schedule", "--schedule", "ve", "--sigma-max", "0"]) == 1
        assert "sigma_max" in capsys.readouterr().err


def _bounds_rows(args, capsys):
    assert dispatch(["bounds", "--grid", "9", "--no-timestamp"] + args) == 0
    lines = _csv_body(capsys.readouterr().out)
    assert lines[0] == "t,theta_t,piece_id,cumulative_integral,lipschitz_bound"
    return [ln.split(",") for ln in lines[1:]]


def _assert_library_rows(rows, envelope):
    """Each row's theta, piece and Lipschitz bound are the library's, bit for bit."""
    assert len(rows) == 9
    for t, theta, piece, _, lip in rows:
        assert float(theta) == envelope.theta(float(t))
        assert piece == envelope.piece_at(float(t)).piece_id
        assert float(lip) == lipschitz_flow_map(envelope, envelope.lo, float(t))


class TestBounds:
    def test_follmer_gaussian_flat_theta(self, capsys):
        code = dispatch(["bounds", "--schedule", "follmer", "--case", "gaussian",
                         "--kappa", "1", "--grid", "11"])
        assert code == 0
        lines = _csv_body(capsys.readouterr().out)
        assert lines[0] == "t,theta_t,piece_id,cumulative_integral,lipschitz_bound"
        assert len(lines) == 12
        for ln in lines[1:]:
            t, theta, piece, cum, lip = ln.split(",")
            assert abs(float(theta)) < 1e-12
            assert piece == "gaussian"
            assert abs(float(lip) - 1.0) < 1e-12

    def test_missing_profile_field(self, capsys):
        assert dispatch(["bounds", "--schedule", "linear",
                         "--case", "gaussian"]) == 1

    def test_file_output_and_timestamp(self, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["bounds", "--schedule", "linear", "--case", "mixture",
                "--sigma", "0.5", "--r", "2.0", "--grid", "9",
                "--out", str(out)]
        assert dispatch(args) == 0
        text = (out / "bounds.csv").read_text()
        assert text.startswith("# generated: ")
        assert capsys.readouterr().out == ""

    def test_zeta_is_read(self, capsys):
        rows = _bounds_rows(["--schedule", "shifted-linear", "--zeta", "0.2", "--case",
                             "mixture", "--sigma", "0.5", "--r", "2"], capsys)
        envelope = theta_profile(RegularityProfile(sigma=0.5, R=2.0),
                                 ShiftedLinearSchedule(zeta=0.2), "mixture")
        _assert_library_rows(rows, envelope)
        linear = theta_profile(RegularityProfile(sigma=0.5, R=2.0), LinearSchedule(),
                               "mixture")
        assert float(rows[0][1]) != linear.theta(0.0)

    def test_log_lip_reads_l_and_t2(self, capsys):
        rows = _bounds_rows(["--schedule", "linear", "--case", "log-lip", "--l", "0.5",
                             "--kappa", "-0.5", "--t2", "0.6"], capsys)
        envelope = theta_profile(RegularityProfile(kappa=-0.5, L=0.5), LinearSchedule(),
                                 "log-lip", t2=0.6)
        _assert_library_rows(rows, envelope)
        # the grid steps by 1/8: rows up to t = 0.5 are log-lip, from 0.625 gaussian
        assert [piece for _, _, piece, _, _ in rows] == ["log-lip"] * 5 + ["gaussian"] * 4

    def test_unbounded_d_is_never_nan(self, capsys):
        rows = _bounds_rows(["--schedule", "linear", "--case", "bounded-d", "--d", "inf"],
                            capsys)
        assert rows[0] == ["0.0", "-1.0", "bounded-d", "0.0", "1.0"]
        assert all(row[1:] == ["inf", "bounded-d", "inf", "inf"] for row in rows[1:])

    def test_no_timestamp_reruns_identical(self, tmp_path):
        o1, o2 = tmp_path / "a", tmp_path / "b"
        base = ["bounds", "--schedule", "linear", "--case", "bounded-d",
                "--kappa", "-1.0", "--d", "0.8", "--grid", "17", "--no-timestamp"]
        assert dispatch(base + ["--out", str(o1)]) == 0
        assert dispatch(base + ["--out", str(o2)]) == 0
        b1 = (o1 / "bounds.csv").read_bytes()
        assert b1 == (o2 / "bounds.csv").read_bytes()
        assert not b1.startswith(b"# generated")


class TestSample:
    def test_stdout_cloud(self, gauss_cfg, capsys):
        code = dispatch(["sample", "--config", gauss_cfg, "--n", "8",
                         "--seed", "3", "--no-timestamp"])
        assert code == 0
        lines = _csv_body(capsys.readouterr().out)
        assert lines[0] == "x1,x2"
        assert len(lines) == 9

    def test_deterministic(self, gauss_cfg, capsys):
        args = ["sample", "--config", gauss_cfg, "--n", "5", "--seed", "1",
                "--no-timestamp"]
        assert dispatch(args) == 0
        first = capsys.readouterr().out
        assert dispatch(args) == 0
        assert capsys.readouterr().out == first

    def test_out_is_unwritable_path(self, gauss_cfg):
        code = dispatch(["sample", "--config", gauss_cfg, "--n", "4",
                         "--out", "/dev/null/sub"])
        assert code == 2

    def test_seed_beyond_64_bits_is_validation_error(self, gauss_cfg, capsys):
        code = dispatch(["sample", "--config", gauss_cfg, "--n", "4",
                         "--seed", str(2 ** 64), "--no-timestamp"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed" in captured.err


class TestFlow:
    def test_trajectory_csv(self, gauss_cfg, capsys):
        code = dispatch(["flow", "--config", gauss_cfg, "--x", "1.0,0.5",
                         "--from", "0", "--to", "0.5", "--steps", "16",
                         "--no-timestamp"])
        assert code == 0
        lines = _csv_body(capsys.readouterr().out)
        assert lines[0] == "t,x_1,x_2"
        assert len(lines) == 18

    @pytest.mark.parametrize("flags, header", [
        ([], "t,x_1,x_2"),
        (["--logdensity"], "t,x_1,x_2,logdens"),
        (["--jacobian"], "t,x_1,x_2,jac_11,jac_12,jac_21,jac_22"),
        (["--jacobian", "--logdensity"], "t,x_1,x_2,logdens,jac_11,jac_12,jac_21,jac_22"),
    ], ids=["plain", "logdensity", "jacobian", "both"])
    def test_jacobian_columns(self, gauss_cfg, capsys, flags, header):
        """Only --jacobian writes the jac_* columns, only --logdensity logdens."""
        code = dispatch(["flow", "--config", gauss_cfg, "--x", "0.3,0.0",
                         "--from", "0", "--to", "1", "--steps", "8",
                         "--no-timestamp"] + flags)
        assert code == 0
        lines = _csv_body(capsys.readouterr().out)
        assert lines[0] == header
        assert len(lines) == 10 and all(ln.count(",") == header.count(",") for ln in lines)

    @pytest.mark.parametrize("x_text", ["1.0,abc", "nan,0", "inf,0", "1e400,0"],
                             ids=["not-a-number", "nan", "inf", "overflow"])
    def test_bad_point(self, gauss_cfg, x_text, capsys):
        assert dispatch(["flow", "--config", gauss_cfg, "--x", x_text]) == 1
        assert "--x" in capsys.readouterr().err

    def test_bad_span(self, gauss_cfg):
        assert dispatch(["flow", "--config", gauss_cfg, "--x", "0.0,0.0",
                         "--from", "0.9", "--to", "0.1"]) == 1

    @pytest.mark.parametrize("direction, first, last", [
        ("forward", "0.0", "0.9"), ("reverse", "0.9", "0.0")])
    def test_default_span_is_the_early_stop_horizon(self, tmp_path, capsys,
                                                    direction, first, last):
        cfg = tmp_path / "early.cfg"
        cfg.write_text("target = moderate-gmm4\nschedule = linear\nearly_stop = 0.1\n")
        code = dispatch(["flow", "--config", str(cfg), "--x", "0.3,-0.2", "--steps", "4",
                         "--direction", direction, "--jacobian", "--logdensity",
                         "--no-timestamp"])
        assert code == 0
        rows = _csv_body(capsys.readouterr().out)[1:]
        assert [rows[0].split(",")[0], rows[-1].split(",")[0]] == [first, last]


class TestExperimentCommands:
    def test_stability_source_files(self, tmp_path, capsys):
        cfg = tmp_path / "src.cfg"
        cfg.write_text(
            "target = gaussian\nmean = (0.0, 0.0)\nvar = 0.25\n"
            "n = 128\nsteps = 32\nzeta_grid = (0.0, 0.15, 0.3)\n"
        )
        out = tmp_path / "res"
        code = dispatch(["stability-source", "--config", str(cfg),
                         "--out", str(out), "--no-timestamp"])
        assert code == 0
        assert (out / "stability-source.csv").exists()
        assert (out / "stability-source.fit.csv").exists()

    def test_stability_velocity_stdout(self, tmp_path, capsys):
        cfg = tmp_path / "vel.cfg"
        cfg.write_text(
            "target = moderate-gmm4\nschedule = linear\n"
            "n = 100\nsteps = 16\neps_grid = (0.5, 1.5)\n"
        )
        code = dispatch(["stability-velocity", "--config", str(cfg),
                         "--no-timestamp"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "eps,delta_v,w2_sq,bound_rhs"

    def test_autoencode_runs(self, gmm_cfg, capsys):
        assert dispatch(["autoencode", "--config", gmm_cfg, "--steps", "64",
                         "--no-timestamp"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "steps,median_err,p90_err,max_err"

    def test_cycle_missing_second_target(self, gmm_cfg):
        assert dispatch(["cycle", "--config", gmm_cfg]) == 1

    def test_jacobian_envelope_runs(self, tmp_path, capsys):
        cfg = tmp_path / "env.cfg"
        cfg.write_text(
            "target = moderate-gmm4\nschedule = linear\n"
            "n = 32\nt_grid = (0.0, 0.5, 1.0)\n"
        )
        assert dispatch(["jacobian-envelope", "--config", str(cfg),
                         "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("t,lam_min,lam_max")

    def test_ag_check_runs(self, tmp_path, capsys):
        cfg = tmp_path / "ag.cfg"
        cfg.write_text(
            "target = gaussian\nmean = (0.0, 0.0)\nvar = 1.0\n"
            "schedule = linear\nn = 2\nsteps = 64\ndelta = (0.1, 0.0)\n"
        )
        assert dispatch(["ag-check", "--config", str(cfg), "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "steps,max_residual,rel_residual"

    def test_ag_check_overflow_is_runtime_error(self, tmp_path, capsys):
        """A delta whose quadrature overflows exits 2 with the residual's own
        message, not numpy's overflow warning, under warnings-as-errors."""
        cfg = tmp_path / "ag.cfg"
        cfg.write_text(
            "target = gaussian\nmean = (3.0, 1.0)\nvar = 0.25\nschedule = trig\n"
            "n = 4\nsteps_grid = (8, 16)\ndelta = (1.4e159, 0.0)\n"
        )
        assert dispatch(["ag-check", "--config", str(cfg), "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: flow-difference residual is not finite at steps=16")
        assert "RuntimeWarning" not in captured.err

    def test_svg_requires_out(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "target = gaussian\nmean = (0.0, 0.0)\nvar = 0.25\n"
            "n = 128\nsteps = 16\nzeta_grid = (0.0, 0.2)\n"
        )
        assert dispatch(["stability-source", "--config", str(cfg), "--svg"]) == 1

    def test_svg_written(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "target = gaussian\nmean = (0.0, 0.0)\nvar = 0.25\n"
            "n = 128\nsteps = 16\nzeta_grid = (0.0, 0.2)\n"
        )
        out = tmp_path / "res"
        code = dispatch(["stability-source", "--config", str(cfg),
                         "--out", str(out), "--svg", "--no-timestamp"])
        assert code == 0
        svg = (out / "stability-source.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_seed_override_changes_output(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "target = gaussian\nmean = (0.0, 0.0)\nvar = 0.25\n"
            "n = 128\nsteps = 16\nzeta_grid = (0.0, 0.2)\nseed = 1\n"
        )
        args = ["stability-source", "--config", str(cfg), "--no-timestamp"]
        assert dispatch(args) == 0
        base = capsys.readouterr().out
        assert dispatch(args + ["--seed", "2"]) == 0
        assert capsys.readouterr().out != base
        assert dispatch(args + ["--seed", "1"]) == 0
        assert capsys.readouterr().out == base


_GAUSS_SWEEP = ("target = gaussian\nmean = (0.0, 0.0)\nvar = 0.25\n"
                "n = 128\nsteps = 16\nzeta_grid = (0.0, 0.2)\n")


class TestConfigValues:
    @pytest.mark.parametrize("command, key, text", [
        ("stability-source", "mean", _GAUSS_SWEEP + "mean = (abc, 0.0)\n"),
        ("stability-source", "var", _GAUSS_SWEEP + "var = abc\n"),
        ("stability-source", "means",
         "target = gmm\nmeans = [(0.0, 0.0), (1.0, x)]\nsigma = 0.5\n"
         "n = 128\nsteps = 16\nzeta_grid = (0.0, 0.2)\n"),
        ("stability-source", "n", _GAUSS_SWEEP + "n = abc\n"),
        ("stability-source", "zeta_grid", _GAUSS_SWEEP + "zeta_grid = abc\n"),
        ("stability-source", "delta", _GAUSS_SWEEP + "delta = 0.1\n"),
        ("stability-source", "steps", _GAUSS_SWEEP + "steps = 2.5\n"),
        ("sample", "n", _GAUSS_SWEEP + "n = 2.5\n"),
        ("sample", "mean", _GAUSS_SWEEP + "mean = (1e999, 0.0)\n"),
        ("flow", "early_stop", _GAUSS_SWEEP + "early_stop = abc\n"),
        ("autoencode", "steps_grid", _GAUSS_SWEEP + "steps_grid = (8.0, 16.0)\n"),
    ], ids=["mean", "var", "means", "n", "zeta_grid", "delta",
            "steps", "sample-n", "sample-inf-mean", "flow-early_stop", "steps_grid"])
    def test_wrong_kind_is_validation_error(self, tmp_path, capsys, command, key, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        extra = ["--x", "0.0,0.0"] if command == "flow" else []
        assert dispatch([command, "--config", str(cfg), "--no-timestamp"] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config key '{key}'" in captured.err

    @pytest.mark.parametrize("command, key, text", [
        ("sample", "means", "target = gmm\nmeans = [(0.0,), (1.0, 1.0)]\nsigma = 0.5\n"),
        ("flow", "means", "target = gmm\nmeans = [(), ()]\nsigma = 0.5\n"),
        ("sample", "mean", "target = gaussian\nmean = ()\nvar = 1.0\n"),
        ("stability-source", "means", "target = gmm\nmeans = []\nsigma = 0.5\n"),
    ], ids=["ragged-means", "zero-dim-means", "zero-dim-mean", "no-means"])
    def test_malformed_array_is_validation_error(self, tmp_path, capsys, command, key, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        extra = ["--x", "0.0,0.0"] if command == "flow" else []
        assert dispatch([command, "--config", str(cfg), "--no-timestamp"] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {key}" in captured.err

    @pytest.mark.parametrize("command", ["sample", "flow", "stability-source"])
    def test_unknown_key_is_validation_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(_GAUSS_SWEEP + "stpes = 8\n")
        extra = ["--x", "0.0,0.0"] if command == "flow" else []
        assert dispatch([command, "--config", str(cfg), "--no-timestamp"] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown config keys: stpes" in captured.err

    def test_threads_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "threads.cfg"
        cfg.write_text(_GAUSS_SWEEP + "threads = 2\n")
        assert dispatch(["stability-source", "--config", str(cfg), "--no-timestamp"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown config keys: threads" in captured.err


class TestOptions:
    @pytest.mark.parametrize("command, option", [
        ("bounds", "--seed"), ("bounds", "--steps"), ("bounds", "--threads"),
        ("bounds", "--beta"),
        ("sample", "--steps"), ("sample", "--threads"),
        ("flow", "--seed"), ("flow", "--threads"),
    ] + [(command, "--threads") for command in sorted(_EXPERIMENTS)])
    def test_unread_option_is_usage_error(self, gauss_cfg, capsys, command, option):
        args = {"bounds": ["--schedule", "linear", "--case", "gaussian", "--kappa", "1"],
                "flow": ["--config", gauss_cfg, "--x", "0.0,0.0"]}.get(
                    command, ["--config", gauss_cfg])
        assert dispatch([command] + args + [option, "2", "--no-timestamp"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert option in captured.err


_EXPERIMENT_CFGS = {
    "stability-source": _GAUSS_SWEEP,
    "stability-velocity": ("target = moderate-gmm4\nschedule = linear\n"
                           "n = 100\nsteps = 16\neps_grid = (0.5, 1.5)\n"),
    "autoencode": ("target = moderate-gmm4\nschedule = linear\n"
                   "n = 64\nsteps = 16\nsteps_grid = (8, 16)\n"),
    "cycle": ("target = moderate-gmm4\nschedule = linear\nn = 64\nsteps = 16\n"
              "steps_grid = (8, 16)\ntarget2 = gaussian\nmean2 = (0.0, 0.0)\nvar2 = 1.0\n"),
    "jacobian-envelope": ("target = moderate-gmm4\nschedule = linear\n"
                          "n = 32\nt_grid = (0.0, 0.5, 1.0)\n"),
    "ag-check": ("target = gaussian\nmean = (0.0, 0.0)\nvar = 1.0\n"
                 "schedule = linear\nn = 2\nsteps = 64\ndelta = (0.1, 0.0)\n"),
}


@pytest.mark.parametrize("name", sorted(_EXPERIMENT_CFGS))
def test_stdout_is_out_csv_plus_fit_line(tmp_path, capsys, name):
    cfg = tmp_path / "e.cfg"
    cfg.write_text(_EXPERIMENT_CFGS[name])
    args = [name, "--config", str(cfg), "--no-timestamp"]
    assert dispatch(args) == 0
    stdout = capsys.readouterr().out.encode()
    out = tmp_path / "res"
    assert dispatch(args + ["--out", str(out)]) == 0
    csv = (out / f"{name}.csv").read_bytes()
    assert stdout.startswith(csv)
    fit_line = stdout[len(csv):]
    fit_path = out / f"{name}.fit.csv"
    if not fit_path.exists():
        assert fit_line == b""
        return
    header, values = fit_path.read_text().splitlines()
    assert header == "slope,intercept,r_squared,n"
    slope, intercept, r_squared, _ = values.split(",")
    assert fit_line.decode() == (f"# fit: slope={slope} intercept={intercept} "
                                 f"r_squared={r_squared}\n")
