"""Spans recorded around fofr's public functions, patched in from outside.

A traced run replaces each listed function everywhere a fofr module refers
to it.  Setting the defining module's attribute alone would miss most calls,
because ``fofr.pipeline`` and ``fofr.cli`` import ``smooth_covariance``,
``load_dataset``, ``predict_pipeline`` and others by name.  Spans (name,
start, end, parent) stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # each [name, start, end, parent index or None, info]
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        try:
            yield span
        finally:
            span[2] = self.clock()
            self._open.pop()

    def wrap(self, name: str, fn, info=None):
        """``fn`` recording a span per call; ``info(args, kwargs, result)``,
        if given, is stored on the span after its end time is taken."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
                       for s in self.spans], fh)
            fh.write("\n")


def patch_everywhere(tracer: Tracer, targets, package: str = "fofr"):
    """Replace each (span name, module, attribute, info) target in every loaded
    module of ``package`` that holds the same function object.

    Returns a callable that restores the originals.
    """
    modules = [m for name, m in list(sys.modules.items())
               if name == package or name.startswith(package + ".")]
    undo = []
    for name, module, attr, info in targets:
        original = getattr(module, attr)
        traced = tracer.wrap(name, original, info)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)
                    undo.append((m, key, original))

    def restore():
        for m, key, original in reversed(undo):
            setattr(m, key, original)

    return restore


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(end - start - covered)
    return out


def roots(spans) -> list:
    """Index of each span's top-level ancestor (parents precede children)."""
    out = []
    for i, span in enumerate(spans):
        out.append(i if span[3] is None else out[span[3]])
    return out
