"""The one CSV writer: every emitter's timestamp line and header go
through ``artifacts.write_table``."""

from __future__ import annotations

import io
import re

import numpy as np
import pytest

from gif_lab import artifacts
from gif_lab.artifacts import repr_lines, write_table
from gif_lab.cli import dispatch
from gif_lab.errors import DegenerateInputError
from gif_lab.experiments import ExperimentResult
from gif_lab.flow import Trajectory
from gif_lab.metrics import ParticleCloud, linear_fit

T = "2026-02-02T10:00:00"


def _cloud(tmp_path, timestamp):
    path = tmp_path / "cloud.csv"
    ParticleCloud(np.array([[0.1, -2.5], [3e-300, 1.0]])).write_csv(path, timestamp)
    return path.read_bytes()


def _trajectory(tmp_path, timestamp):
    traj = Trajectory(times=np.array([0.0, 0.5]), states=np.ones((2, 1, 2)),
                      direction="reverse", single=True,
                      jac=np.ones((2, 1, 2, 2)), logdens=np.zeros((2, 1)))
    buf = io.StringIO()
    traj.write_csv(buf, timestamp=timestamp)
    return buf.getvalue().encode()


def _result(tmp_path, timestamp, suffix):
    xs, ys = [0.0, 1.0, 2.0], [0.5, 1.5, 2.0]
    res = ExperimentResult(name="r", columns=("x", "y"),
                           rows=np.column_stack([xs, ys]), fit=linear_fit(xs, ys))
    out = tmp_path / "res"
    res.write_csv(out, timestamp=timestamp)
    return (out / f"r{suffix}").read_bytes()


def _cli(argv):
    def emit(tmp_path, timestamp, capsys):
        extra = [] if timestamp is not None else ["--no-timestamp"]
        assert dispatch(argv(tmp_path) + extra) == 0
        return capsys.readouterr().out.encode()
    return emit


def _sweep_cfg(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("target = gaussian\nmean = (0.0, 0.0)\nvar = 0.25\n"
                   "n = 128\nsteps = 16\nzeta_grid = (0.0, 0.2)\n")
    return ["stability-source", "--config", str(cfg)]


_EMITTERS = {
    "cloud": _cloud,
    "trajectory": _trajectory,
    "result": lambda tmp_path, timestamp: _result(tmp_path, timestamp, ".csv"),
    "result-fit": lambda tmp_path, timestamp: _result(tmp_path, timestamp, ".fit.csv"),
    "bounds": _cli(lambda tmp_path: ["bounds", "--schedule", "linear", "--case",
                                     "mixture", "--sigma", "0.5", "--r", "2.0",
                                     "--grid", "9"]),
    "experiment-stdout": _cli(_sweep_cfg),
}
_CLI_EMITTERS = ("bounds", "experiment-stdout")


@pytest.mark.parametrize("emitter", sorted(_EMITTERS))
def test_timestamp_line_prefixes_the_stable_bytes(tmp_path, capsys, emitter):
    emit = _EMITTERS[emitter]
    if emitter in _CLI_EMITTERS:
        plain, stamped = emit(tmp_path, None, capsys), emit(tmp_path, T, capsys)
        stamp = stamped.split(b"\n", 1)[0].decode()
        assert re.fullmatch(r"# generated: \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d", stamp)
    else:
        plain, stamped = emit(tmp_path, None), emit(tmp_path, T)
        stamp = f"# generated: {T}"
    assert not plain.startswith(b"#")
    assert stamped == stamp.encode() + b"\n" + plain


def test_write_table_uses_only_write():
    class Sink:
        def __init__(self):
            self.parts = []

        def write(self, text):
            self.parts.append(text)

    sink = Sink()
    write_table(sink, ("a", "b"), repr_lines(np.array([[1.0, -0.0], [0.1, 2e-308]])))
    assert "".join(sink.parts) == "a,b\n1.0,-0.0\n0.1,2e-308\n"


# signed zero, the least subnormal, the shortest reprs that switch to an
# exponent, and the non-finite values (bound_rhs rows carry inf)
_EDGE_VALUES = [-0.0, 5e-324, 1e-5, 1e16, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("m", [artifacts._CHUNK - 1, artifacts._CHUNK, artifacts._CHUNK + 1])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_repr_lines_writes_each_rows_reprs(d, m):
    rng = np.random.default_rng(10 * d + m)
    rows = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-20, 20, size=(m, d))
    rows.flat[rng.choice(m * d, size=10 * len(_EDGE_VALUES), replace=False)] = (
        _EDGE_VALUES * 10)
    chunks = list(repr_lines(rows))
    assert len(chunks) == -(-m // artifacts._CHUNK)
    assert "".join(chunks) == "".join(",".join(map(repr, row)) + "\n"
                                      for row in rows.tolist())


@pytest.mark.parametrize("xs, ys, match", [
    ([0.0, 1.0], [2.0], r"^plot needs equally sized, nonempty xs and ys$"),
    ([], [], r"^plot needs equally sized, nonempty xs and ys$"),
    ([0.0, np.nan], [1.0, 2.0], r"^plot data must be finite$"),
    ([0.0, 1.0], [1.0, np.inf], r"^plot data must be finite$"),
], ids=["unequal", "empty", "nan-x", "inf-y"])
def test_xy_plot_rejects_data_it_cannot_draw(tmp_path, xs, ys, match):
    path = tmp_path / "plot.svg"
    with pytest.raises(DegenerateInputError, match=match):
        artifacts.xy_plot(path, xs, ys, "title", "x", "y")
    assert not path.exists()
