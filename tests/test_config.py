"""Flat key=value config parsing and object construction from configs."""

from __future__ import annotations

import numpy as np
import pytest

from gif_lab.config import (
    experiment_from_config,
    load_config,
    parse_config_text,
    schedule_from_config,
    target_from_config,
)
from gif_lab.errors import InvalidParamError, MissingFieldError
from gif_lab.schedules import FollmerSchedule, LinearSchedule, VPSchedule


class TestParse:
    def test_typed_values(self):
        cfg = parse_config_text(
            "n = 2048\n"
            "sigma = 0.5\n"
            "name = demo\n"
            "quoted = 'a b'\n"
            "flag = True\n"
            "mean = (1.0, -2.0)\n"
            "means = [(0.0, 1.0), (1.0, 0.0)]\n"
        )
        assert cfg["n"] == 2048
        assert cfg["sigma"] == 0.5
        assert cfg["name"] == "demo"
        assert cfg["quoted"] == "a b"
        assert cfg["flag"] is True
        assert cfg["mean"] == (1.0, -2.0)
        assert cfg["means"] == [(0.0, 1.0), (1.0, 0.0)]

    def test_comments_and_blanks(self):
        cfg = parse_config_text(
            "# full line comment\n"
            "\n"
            "steps = 64  # trailing comment\n"
        )
        assert cfg == {"steps": 64}

    def test_last_duplicate_wins(self):
        cfg = parse_config_text("a = 1\na = 2\n")
        assert cfg["a"] == 2

    @pytest.mark.parametrize("text, match", [
        ("a = 1\nbroken line\n", "line 2"),
        (" = 3", r"^config line 1 has an empty key$"),
    ], ids=["missing-equals", "empty-key"])
    def test_missing_equals_rejected(self, text, match):
        with pytest.raises(InvalidParamError, match=match):
            parse_config_text(text)

    def test_equals_in_value_kept(self):
        cfg = parse_config_text("expr = a=b\n")
        assert cfg["expr"] == "a=b"

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("target = gaussian\nmean = (0.0, 0.0)\nvar = 1.0\n")
        cfg = load_config(p)
        assert cfg["target"] == "gaussian"


class TestTargetFromConfig:
    def test_gaussian(self):
        t = target_from_config({"target": "gaussian", "mean": (1.0, 2.0), "var": 0.25})
        assert t.is_gaussian
        assert t.means[0] == pytest.approx([1.0, 2.0])
        assert t.sigma == 0.5

    def test_gmm_uniform_weights_default(self):
        t = target_from_config({
            "target": "gmm",
            "means": [(0.0, 1.0), (1.0, 0.0)],
            "sigma": 0.3,
        })
        assert t.weights == pytest.approx([0.5, 0.5])

    def test_gmm_explicit_weights(self):
        t = target_from_config({
            "target": "gmm",
            "means": [(0.0, 1.0), (1.0, 0.0)],
            "weights": (0.25, 0.75),
            "sigma": 0.3,
        })
        assert t.weights == pytest.approx([0.25, 0.75])

    def test_named_fixtures(self):
        assert target_from_config({"target": "paper-gmm8"}).n_components == 8
        assert target_from_config({"target": "moderate-gmm4"}).n_components == 4

    def test_suffix_selects_second_target(self):
        cfg = {
            "target": "gaussian", "mean": (0.0, 0.0), "var": 1.0,
            "target2": "gmm", "means2": [(1.0, 0.0), (-1.0, 0.0)], "sigma2": 0.4,
        }
        t2 = target_from_config(cfg, suffix="2")
        assert t2.n_components == 2
        assert t2.sigma == 0.4

    def test_missing_kind(self):
        with pytest.raises(MissingFieldError):
            target_from_config({})

    def test_unknown_kind(self):
        with pytest.raises(InvalidParamError):
            target_from_config({"target": "cauchy"})

    def test_gmm_missing_means(self):
        with pytest.raises(MissingFieldError):
            target_from_config({"target": "gmm", "sigma": 0.5})


class TestScheduleFromConfig:
    def test_families(self):
        assert isinstance(schedule_from_config({"schedule": "linear"}), LinearSchedule)
        assert isinstance(schedule_from_config({"schedule": "follmer"}), FollmerSchedule)
        vp = schedule_from_config({"schedule": "vp", "alpha0": 0.01, "p": 2.0})
        assert isinstance(vp, VPSchedule)
        assert vp.alpha0 == 0.01 and vp.p == 2.0

    def test_shifted_linear_zeta(self):
        s = schedule_from_config({"schedule": "shifted-linear", "zeta": 0.2})
        assert s.b0 == pytest.approx(0.2 / 1.2)

    def test_default_when_absent(self):
        assert isinstance(schedule_from_config({}, default="linear"), LinearSchedule)
        with pytest.raises(MissingFieldError):
            schedule_from_config({})

    def test_bad_family(self):
        with pytest.raises(InvalidParamError):
            schedule_from_config({"schedule": "cosine-squared"})


class TestExperimentFromConfig:
    def test_full_build(self):
        cfg = parse_config_text(
            "target = moderate-gmm4\n"
            "schedule = linear\n"
            "n = 256\n"
            "steps = 64\n"
            "seed = 9\n"
            "zeta_grid = (0.0, 0.1, 0.2)\n"
        )
        ec = experiment_from_config(cfg)
        assert ec.n == 256 and ec.steps == 64 and ec.seed == 9
        assert ec.zeta_grid == (0.0, 0.1, 0.2)
        assert ec.target.n_components == 4
        assert isinstance(ec.sched, LinearSchedule)

    def test_overrides_beat_config(self):
        cfg = {"target": "moderate-gmm4", "schedule": "linear", "n": 256, "seed": 1}
        ec = experiment_from_config(cfg, n=128, seed=5)
        assert ec.n == 128 and ec.seed == 5

    def test_second_target_and_delta(self):
        cfg = {
            "target": "gaussian", "mean": (0.0, 0.0), "var": 1.0,
            "target2": "moderate-gmm4",
            "schedule": "follmer",
            "delta": (0.1, 0.0),
        }
        ec = experiment_from_config(cfg)
        assert ec.target2 is not None and ec.target2.n_components == 4
        assert ec.delta == (0.1, 0.0)

    def test_unknown_key_rejected(self):
        cfg = {"target": "moderate-gmm4", "schedule": "linear", "stepz": 10}
        with pytest.raises(InvalidParamError, match="stepz"):
            experiment_from_config(cfg)

    def test_schedule_defaults_to_linear(self):
        ec = experiment_from_config({"target": "moderate-gmm4"})
        assert isinstance(ec.sched, LinearSchedule)
