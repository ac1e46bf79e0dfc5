"""Span recorder for the traced benchmark run.

Spans come from wrappers that replace public gif_lab names in the
namespace of the module that calls them (for example
``experiments.integrate`` or ``Schedule.eval``).  Nothing under ``src/`` is
edited and no ``_private`` helper is wrapped, so a refactor that stops
calling a wrapped name shows up as a changed span count, not a crash.

A span is the tuple ``(name, start, end, parent, rep, work)``: ``parent``
is the index of the enclosing span (-1 for none), ``rep`` the repetition id
and ``work`` a per-call count tuple or ``None``.  Spans stay in memory and
are written once, when the run ends.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """Records nested spans of wrapped calls; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list = []
        self.rep = -1
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name, fn, work=None):
        """Return ``fn`` wrapped so that each call records one span.

        ``name`` is a string or a callable ``(args, kwargs) -> str``;
        ``work`` is an optional callable ``(args, kwargs) -> tuple``.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, tracer.rep,
                              work(args, kwargs) if work is not None else None)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def patch(self, owner, attr: str, name, work=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until ``restore``."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(name, original.__func__, work))
            else:
                replacement = self.wrap(name, original, work)
        else:
            original = getattr(owner, attr)
            replacement = self.wrap(name, original, work)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span as one CSV row (gzip-compressed)."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("index,name,start,end,parent,rep,work\n")
            for i, (label, start, end, parent, rep, work) in enumerate(self.spans):
                w = "" if work is None else " ".join(str(v) for v in work)
                fh.write(f"{i},{label},{start!r},{end!r},{parent},{rep},{w}\n")


def _arg(args, kwargs, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _rows(x) -> int:
    shape = np.shape(x)
    return int(shape[0]) if len(shape) == 2 else 1


def _integrate_work(args, kwargs):
    steps = int(_arg(args, kwargs, 4, "steps"))
    return steps, steps * _rows(_arg(args, kwargs, 1, "x0"))


def _w2_name(args, kwargs) -> str:
    method = _arg(args, kwargs, 2, "method", "exact")
    return "metrics.w2_sliced" if method == "sliced" else "metrics.w2_exact"


def install(tracer: Tracer, gif_lab_modules) -> None:
    """Wrap the public names each gif_lab module calls across a layer boundary."""
    cli, experiments, metrics, schedules = (
        gif_lab_modules[k] for k in ("cli", "experiments", "metrics", "schedules"))
    sample_work = {
        "sample_gaussian": lambda a, k: (int(_arg(a, k, 1, "n")),),
        "sample_target": lambda a, k: (int(_arg(a, k, 1, "n")),),
    }

    for owner in (experiments, metrics):
        for attr in ("sample_gaussian", "sample_target", "sample_source",
                     "sample_interpolant"):
            tracer.patch(owner, attr, f"metrics.{attr}", sample_work.get(attr))
        tracer.patch(owner, "keyed_generator", "metrics.keyed_generator")
        tracer.patch(owner, "w2", _w2_name)
    for attr in ("run_source_perturbation", "run_ag_check"):
        tracer.patch(experiments, attr, f"experiments.{attr}")
    tracer.patch(experiments, "integrate", "flow.integrate", _integrate_work)
    tracer.patch(experiments, "velocity", "flow.velocity")
    tracer.patch(experiments, "velocity_jacobian", "flow.velocity_jacobian")

    tracer.patch(cli, "dispatch", "cli.dispatch")
    tracer.patch(cli, "integrate", "flow.integrate", _integrate_work)
    tracer.patch(cli, "sample_target", "metrics.sample_target",
                 sample_work["sample_target"])
    tracer.patch(cli, "load_config", "config.load_config")
    tracer.patch(cli, "target_from_config", "config.target_from_config")

    for attr in ("eval", "da_a", "db_b"):
        tracer.patch(schedules.Schedule, attr, f"schedules.{attr}")
    tracer.patch(metrics.ParticleCloud, "write_csv", "metrics.csv_write")
    tracer.patch(metrics.ParticleCloud, "read_csv", "metrics.csv_read")


def _matches(label: str, prefix: str) -> bool:
    """A prefix ending in '.' or '_' matches a family; others match exactly."""
    return label == prefix or (prefix[-1] in "._" and label.startswith(prefix))


def rep_table(spans: list, rep: int, prefixes) -> dict:
    """Per-layer figures for the spans of one repetition.

    ``incl[prefix]`` sums the spans whose name matches ``prefix`` and
    that have no ancestor matching the same prefix, so nesting such as
    ``sample_source`` calling ``sample_gaussian`` is never counted twice.
    A layer's self time is its spans' durations minus the time their
    direct children cover; the layer is the name's first dotted part.
    """
    idx = [i for i, s in enumerate(spans) if s is not None and s[4] == rep]
    child_time: dict = defaultdict(float)
    for i in idx:
        _, start, end, parent, _, _ = spans[i]
        if parent >= 0:
            child_time[parent] += end - start

    def outermost(i: int, prefix: str) -> bool:
        p = spans[i][3]
        while p >= 0:
            if _matches(spans[p][0], prefix):
                return False
            p = spans[p][3]
        return True

    counts: Counter = Counter()
    incl: dict = dict.fromkeys(prefixes, 0.0)
    self_by_layer: dict = defaultdict(float)
    work: dict = defaultdict(lambda: [0, 0])
    for i in idx:
        label, start, end, _, _, w = spans[i]
        dur = end - start
        counts[label] += 1
        self_by_layer[label.split(".")[0]] += dur - child_time[i]
        for prefix in prefixes:
            if _matches(label, prefix) and outermost(i, prefix):
                incl[prefix] += dur
        if w is not None:
            acc = work[label]
            for j, v in enumerate(w):
                acc[j] += v
    return {"counts": dict(counts), "incl": incl, "self": dict(self_by_layer),
            "work": {k: list(v) for k, v in work.items()}}
