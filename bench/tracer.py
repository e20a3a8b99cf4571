"""Span tracer that wraps the library's public functions from outside.

Every public function of the traced modules is replaced, at every module
attribute that is bound to it (``quantize`` lives in ``quant`` but is also
imported into ``bussgang`` and ``mcsim``), by a wrapper that records a span:
name, start, end, parent and per-call counts.  ``Tracer.installed`` restores
the original bindings on exit.  Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "quantmimo"
TRACED_MODULES = ("quant", "airlink", "bussgang", "rates", "syspower", "mcsim", "sweep")

# the closed-form and moment-based SINDRs are one layer
_LAYER_ALIASES = {
    "rates.sindr_ul_mrc": "rates.sindr",
    "rates.sindr_dl_mrt": "rates.sindr",
    "rates.sindr_from_moments": "rates.sindr",
}


@dataclass
class Span:
    id: int
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self):
        return self.end - self.start


def _ancestor(span, name):
    span = span.parent
    while span is not None and span.name != name:
        span = span.parent
    return span


def _consumer_directions(span):
    """Directions whose results the nearest run_point/validator ancestor uses."""
    span = span.parent
    while span is not None:
        if span.name in ("sweep.run_point", "mcsim.validate_closed_form"):
            direction = span.attrs["direction"]
            return {"ul", "dl"} if direction == "both" else {direction}
        span = span.parent
    return {"ul", "dl"}


def _distortion_trace_counts(span, a):
    counts = {"samples": a["trials"] * a["dim"], "useful": 1}
    stats_span = _ancestor(span, "bussgang.assemble_stats")
    if stats_span is not None:
        var = float(a["complex_variance"])
        direction = {stats_span.attrs["y_var"]: "ul", stats_span.attrs["w_var"]: "dl"}.get(var)
        counts["useful"] = int(direction in _consumer_directions(span))
    return counts


def _write_csv_counts(span, a):
    paths = [a["path"]] + ([str(a["path"]) + ".meta"] if a.get("config") is not None else [])
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


# per-layer hooks: attrs(args) is stored on the span before the call (so
# descendants can read it); counts(span, args) after it returns
_ATTRS = {
    "sweep.run_point": lambda a: {"direction": a["direction"]},
    "mcsim.validate_closed_form": lambda a: {"direction": a["direction"]},
    "bussgang.assemble_stats": lambda a: {"y_var": a["config"].y_var_ul, "w_var": a["config"].w_var_dl},
}
_COUNTS = {
    "quant.quantize": lambda s, a: {"entries": int(np.size(a["value"]))},
    "airlink.complex_gaussian": lambda s, a: {"entries": int(np.prod(a["shape"]))},
    "bussgang.distortion_trace": _distortion_trace_counts,
    "bussgang.ce_distortion_projections": lambda s, a: {"samples": a["trials"] * a["pilots"].tau},
    "mcsim.validate_closed_form": lambda s, a: {"trials": a["trials"]},
    "sweep.write_csv": _write_csv_counts,
}


def public_functions():
    """(layer name, function) for every public function of the traced modules."""
    out = []
    for short in TRACED_MODULES:
        module = sys.modules[f"{PACKAGE}.{short}"]
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            layer = f"{short}.{name}"
            out.append((_LAYER_ALIASES.get(layer, layer), fn))
    return out


class Tracer:
    """Collects spans from wrapped functions; single-threaded use only."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Record a span around the body; wrapped functions open one per call."""
        span = Span(self._next_id, name, self._stack[-1] if self._stack else None, 0.0, attrs=attrs)
        self._next_id += 1
        self._stack.append(span)
        span.start = self.clock()
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = self.clock()
            self._stack.pop()
            self.spans.append(span)

    def wrap(self, name, fn):
        signature = inspect.signature(fn)
        attrs_of = _ATTRS.get(name)
        counts_of = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if attrs_of or counts_of:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            with self.span(name, **(attrs_of(bound) if attrs_of else {})) as span:
                result = fn(*args, **kwargs)
            if counts_of:
                span.counts = counts_of(span, bound)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every public function; restore on exit."""
        wrappers = {id(fn): (fn, self.wrap(name, fn)) for name, fn in public_functions()}
        patched = []
        try:
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers and wrappers[id(value)][0] is value:
                        setattr(module, attr, wrappers[id(value)][1])
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def self_times(self):
        """span id -> duration minus the durations of its direct children."""
        child_time = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent.id] = child_time.get(span.parent.id, 0.0) + span.duration
        return {span.id: span.duration - child_time.get(span.id, 0.0) for span in self.spans}

    def summary(self):
        """layer -> calls, self_s, total_s, errors and the sum of each count."""
        self_times = self.self_times()
        out = {}
        for span in self.spans:
            agg = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0})
            agg["calls"] += 1
            agg["self_s"] += self_times[span.id]
            agg["total_s"] += span.duration
            agg["errors"] += span.error is not None
            for key, value in span.counts.items():
                agg[key] = agg.get(key, 0) + value
        return out

    def write_jsonl(self, fh, **extra):
        """One JSON object per span, in the order spans were opened."""
        for span in sorted(self.spans, key=lambda s: s.id):
            record = {
                "id": span.id,
                "name": span.name,
                "parent": None if span.parent is None else span.parent.id,
                "start": span.start,
                "end": span.end,
                "counts": span.counts,
                "error": span.error,
            }
            fh.write(json.dumps({**extra, **record}) + "\n")
