"""Command-line dispatch: exit codes, CSV output, reproducibility."""

from __future__ import annotations

import numpy as np
import pytest

from gif_lab.cli import dispatch


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

    def test_jacobian_columns(self, gauss_cfg, capsys):
        code = dispatch(["flow", "--config", gauss_cfg, "--x", "0.3,0.0",
                         "--from", "0", "--to", "1", "--steps", "8",
                         "--jacobian", "--logdensity", "--no-timestamp"])
        assert code == 0
        header = _csv_body(capsys.readouterr().out)[0]
        assert header == "t,x_1,x_2,logdens,jac_11,jac_12,jac_21,jac_22"

    @pytest.mark.parametrize("x_text", ["1.0,abc", "nan,0", "inf,0", "1e400,0"],
                             ids=["not-a-number", "nan", "inf", "overflow"])
    def test_bad_point(self, gauss_cfg, x_text, capsys):
        assert dispatch(["flow", "--config", gauss_cfg, "--x", x_text]) == 1
        assert "--x" in capsys.readouterr().err

    def test_bad_span(self, gauss_cfg):
        assert dispatch(["flow", "--config", gauss_cfg, "--x", "0.0,0.0",
                         "--from", "0.9", "--to", "0.1"]) == 1


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
        assert out.splitlines()[0] == "eps,delta_v,w2_sq,c3,bound_rhs"

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
