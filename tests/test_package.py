"""The package namespace: what `from gif_lab import *` provides."""

from __future__ import annotations

import types

import gif_lab


def test_all_lists_every_public_name():
    public = {name for name, value in vars(gif_lab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(gif_lab.__all__) == sorted(public)
