"""The package namespace: what `from gif_lab import *` provides."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import types

import gif_lab


def test_all_lists_every_public_name():
    public = {name for name, value in vars(gif_lab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(gif_lab.__all__) == sorted(public)


def test_import_leaves_scipy_optimize_unloaded():
    # exact W2 loads only scipy's compiled assignment kernel, and that
    # without scipy.optimize's package import, whose time and memory no
    # command then pays (tests/test_metrics.py::TestExactW2Kernel)
    src = pathlib.Path(gif_lab.__file__).resolve().parents[1]
    code = "import sys, gif_lab; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False"]
