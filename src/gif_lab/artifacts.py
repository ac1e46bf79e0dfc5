"""The files the package writes: CSV tables and standalone SVG plots.

Every CSV goes through ``write_table``: an optional ``# generated:
<timestamp>`` comment, the comma-joined header, then the body.  Floats are
written with ``repr``, their shortest round-trip form, so a table reads
back to the same numbers and a rerun without a timestamp gives the same
bytes.  ``repr_lines`` formats the body ``_CHUNK`` rows at a time, each
chunk by one ``%`` call over a ``%r`` field per value.  ``_read_rows``
reads a cloud table back.
"""

from __future__ import annotations

from html import escape
from typing import IO, Iterable, NoReturn

import numpy as np

from .errors import DegenerateInputError, InvalidParamError, SizeMismatchError

# Rows per chunk of formatted text; bounds the text held at once.
_CHUNK = 4096
# Text per chunk of the reader.
_READ_BYTES = 1 << 16


def write_table(dst, header: Iterable[str], body: Iterable[str],
                timestamp: str | None = None) -> None:
    """Write one CSV table to ``dst``, a path or any object with ``.write``.

    ``body`` yields text chunks, each ending in a newline.  When
    ``timestamp`` is given it is emitted as a leading comment line; omit it
    for byte-identical reruns.
    """
    if not hasattr(dst, "write"):
        with open(dst, "w", encoding="utf-8", newline="") as fh:
            write_table(fh, header, body, timestamp)
        return
    if timestamp is not None:
        dst.write(f"# generated: {timestamp}\n")
    dst.write(",".join(header) + "\n")
    for chunk in body:
        dst.write(chunk)


def repr_lines(rows: np.ndarray) -> Iterable[str]:
    """CSV text of the 2-D array ``rows``, ``_CHUNK`` rows per chunk, each
    chunk formatted by one ``%`` call whose ``%r`` is each value's ``repr``."""
    line = ",".join(["%r"] * rows.shape[1]) + "\n"
    for lo in range(0, len(rows), _CHUNK):
        chunk = rows[lo:lo + _CHUNK]
        yield line * len(chunk) % tuple(chunk.ravel().tolist())


def _read_rows(fh: IO[str]) -> np.ndarray:
    """Data rows of a cloud CSV, parsed in chunks of about _READ_BYTES of
    text straight into arrays."""
    blocks, width, header, line_no = [], None, True, 0
    while lines := fh.readlines(_READ_BYTES):
        rows = [ln for ln in lines if ln.strip() and not ln.startswith("#")]
        skip = header and bool(rows)
        header = header and not skip
        if len(rows) > skip:
            try:
                block = np.loadtxt(rows[skip:], delimiter=",", ndmin=2, comments=None)
            except ValueError as exc:
                _raise_bad_row(lines, line_no, width, skip, exc)
            if width is not None and block.shape[1] != width:
                _raise_bad_row(lines, line_no, width, skip, None)
            width = block.shape[1]
            blocks.append(block)
        line_no += len(lines)
    if not blocks:
        raise DegenerateInputError("cloud file has no data rows")
    return np.concatenate(blocks)


def _raise_bad_row(lines, line_no: int, width, skip: bool, exc) -> NoReturn:
    """Raise for the first row of a rejected chunk that is not numeric or
    not `width` fields wide, naming its line."""
    for i, ln in enumerate(lines, line_no + 1):
        if not ln.strip() or ln.startswith("#"):
            continue
        if skip:
            skip = False
            continue
        fields = ln.rstrip("\r\n").split(",")
        try:
            [float(v) for v in fields]
        except ValueError:
            raise InvalidParamError(
                f"cloud file line {i}: non-numeric field in {ln.strip()!r}") from None
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise SizeMismatchError(
                f"cloud file line {i}: {len(fields)} fields, expected {width}")
    raise InvalidParamError(f"cloud file lines {line_no + 1}-{line_no + len(lines)}: {exc}")


_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 36, 48


def _axis_range(vals: np.ndarray) -> tuple[float, float]:
    lo, hi = float(np.min(vals)), float(np.max(vals))
    if hi <= lo:
        pad = 0.5 if lo == 0.0 else 0.1 * abs(lo)
        return lo - pad, hi + pad
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def xy_plot(path, xs, ys, title: str, x_label: str, y_label: str) -> None:
    """Write one (x, y) series as a standalone SVG file: a polyline through
    circle markers."""
    xa = np.asarray(xs, dtype=float).ravel()
    ya = np.asarray(ys, dtype=float).ravel()
    if xa.size != ya.size or xa.size < 1:
        raise DegenerateInputError("plot needs equally sized, nonempty xs and ys")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise DegenerateInputError("plot data must be finite")

    x0, x1 = _axis_range(xa)
    y0, y1 = _axis_range(ya)
    pw = _WIDTH - _MARGIN_L - _MARGIN_R
    ph = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v: float) -> float:
        return _MARGIN_L + pw * (v - x0) / (x1 - x0)

    def py(v: float) -> float:
        return _MARGIN_T + ph * (1.0 - (v - y0) / (y1 - y0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    cx, cy = 18, _MARGIN_T + ph / 2
    parts += [
        f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(title, quote=False)}</text>',
        f'<text x="{_MARGIN_L + pw / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{escape(x_label, quote=False)}</text>',
        f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 {cx} {cy:.1f})">{escape(y_label, quote=False)}</text>',
    ]
    for v, anchor, xpix, ypix in (
        (x0, "middle", px(x0), _MARGIN_T + ph + 16),
        (x1, "middle", px(x1), _MARGIN_T + ph + 16),
        (y0, "end", _MARGIN_L - 6, py(y0) + 4),
        (y1, "end", _MARGIN_L - 6, py(y1) + 4),
    ):
        parts.append(
            f'<text x="{xpix:.1f}" y="{ypix:.1f}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="11">{v:.4g}</text>')
    if xa.size > 1:
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xa, ya))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>')
    for x, y in zip(xa, ya):
        parts.append(
            f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="#1f6fb2"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
