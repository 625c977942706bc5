"""Per-layer tracing of hilb2 from outside the library.

:func:`install` wraps the public functions listed in ``TARGETS`` and rebinds
every ``hilb2`` module attribute that refers to the same function object, so
``from .lattice import quotient`` copies are traced too.  Each call opens a
span (name, parent span, start, end, busy time) kept in memory in compact
columns and written out by :meth:`Tracer.write_spans` after the run.

Self time is a span's busy time minus the busy time of its child spans, kept
on a stack of open frames.  Generators (``enumerate_form_le``) are timed
across every resumption, not only their creation: busy time is the sum of the
resumptions, and the consumer's loop body between resumptions is charged to
the consumer.  Per-element helpers such as ``exactlin.dot`` are not wrapped;
their millions of calls would swamp the measurement.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# (module, attribute, kind) -- kind "call", "gen" (generator) or "method"
TARGETS = (
    ("asymptotics", "count_Nst", "call"),
    ("asymptotics", "le_count_detailed", "call"),
    ("asymptotics", "constant_c", "call"),
    ("hilb", "canonical_forms", "call"),
    ("hilb", "fiber_point_count", "call"),
    ("hilb", "max_covol2_I2", "call"),
    ("hilb", "HilbPoint.q_lift", "method"),
    ("lattice", "quotient", "call"),
    ("lattice", "min_form_value", "call"),
    ("lattice", "reduce_gram", "call"),
    ("lattice", "successive_minima", "call"),
    ("lattice", "count_primitive_form", "call"),
    ("lattice", "count_form_le", "call"),
    ("lattice", "enumerate_form_le", "gen"),
    ("heights", "discriminant", "call"),
    ("heights", "le_height2", "call"),
    ("heights", "nonsplit_params", "call"),
    ("exactlin", "complement_basis", "call"),
    ("exactlin", "det_bareiss", "call"),
    ("exactlin", "smith_minor_gcd", "call"),
)
# lru_caches whose hit ratio is read from cache_info() deltas
CACHES = (
    ("lattice.quotient", "lattice", "_quotient_cached"),
    ("heights.restrict_to_line", "heights", "restrict_to_line"),
)
# Bytes per term of the constant_c kernel, computed from array shapes, not
# measured: per (a, b, c) it reads the four full-grid int64 arrays b^2, c^2,
# gcd(|b|, |c|) and max(|b|, |c|) and writes g, u, sl, shell (int64), terms
# (float64) and mask (bool).  Temporaries inside the polynomial are excluded.
CONSTANT_BYTES_PER_TERM = 4 * 8 + 5 * 8 + 1


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for module, attr, _ in TARGETS:
        base = f"{module}.{attr}"
        names += [f"{base}.calls", f"{base}.self_s"]
        names += [f"{base}.{extra}" for extra in _EXTRAS.get(base, ())]
    names += [f"{name}.cache_hit_ratio" for name, _, _ in CACHES]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "B"
    return "count"


class Tracer:
    """Call counts, self times and spans of the wrapped hilb2 functions."""

    def __init__(self) -> None:
        self.names = [f"{m}.{a}" for m, a, _ in TARGETS]
        self.calls = [0] * len(TARGETS)
        self.self_ns = [0] * len(TARGETS)
        self.extra = {f"{base}.{e}": 0 for base, ext in _EXTRAS.items() for e in ext}
        # one row per span; its index is the span id, -1 is the root
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_busy = array("q")
        self._stack = [[-1, 0]]  # open frames: [span id, busy ns of children]
        self._cache_before: dict[str, tuple[int, int]] = {}

    # -- spans ------------------------------------------------------------

    def _open(self, nid: int, start: int) -> int:
        sid = len(self.span_name)
        self.span_parent.append(self._stack[-1][0])
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(0)
        self.span_busy.append(0)
        self.calls[nid] += 1
        return sid

    def _wrap_call(self, fn, nid: int, hook):
        stack, clock, open_span = self._stack, time.perf_counter_ns, self._open
        self_ns, span_end, span_busy = self.self_ns, self.span_end, self.span_busy

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            frame = [open_span(nid, t0), 0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                busy = t1 - t0
                stack[-1][1] += busy
                self_ns[nid] += busy - frame[1]
                span_end[frame[0]] = t1
                span_busy[frame[0]] = busy
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return traced

    def _wrap_gen(self, fn, nid: int):
        stack, clock, open_span = self._stack, time.perf_counter_ns, self._open
        self_ns, span_end, span_busy = self.self_ns, self.span_end, self.span_busy
        yielded_key = f"{self.names[nid]}.yielded"
        extra = self.extra

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            frame = [open_span(nid, clock()), 0]
            busy = 0
            try:
                while True:
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        d = clock() - t0
                        stack.pop()
                        stack[-1][1] += d
                        busy += d
                    extra[yielded_key] += 1
                    yield item
            finally:
                gen.close()
                self_ns[nid] += busy - frame[1]
                span_end[frame[0]] = clock()
                span_busy[frame[0]] = busy

        return traced

    # -- installation and results ----------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "hilb2" or n.startswith("hilb2.")]
        for nid, (module, attr, kind) in enumerate(TARGETS):
            mod = sys.modules[f"hilb2.{module}"]
            if kind == "method":
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap_call(cls.__dict__[meth], nid, None))
                continue
            orig = getattr(mod, attr)
            if kind == "gen":
                traced = self._wrap_gen(orig, nid)
            else:
                traced = self._wrap_call(orig, nid, _HOOKS.get(self.names[nid]))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, traced)
        self._cache_before = {name: self._cache_counts(mod, fn) for name, mod, fn in CACHES}

    def _cache_counts(self, module: str, fn: str) -> tuple[int, int]:
        info = getattr(sys.modules[f"hilb2.{module}"], fn).cache_info()
        return info.hits, info.misses

    def metrics(self) -> dict[str, float]:
        fpc = "hilb.fiber_point_count"
        calls = self.calls[self.names.index(fpc)]
        self.extra[f"{fpc}.nonempty_ratio"] = self.extra[f"{fpc}.nonempty"] / calls if calls else 0.0
        out: dict[str, float] = {}
        for nid, base in enumerate(self.names):
            out[f"{base}.calls"] = self.calls[nid]
            out[f"{base}.self_s"] = self.self_ns[nid] / 1e9
            for extra in _EXTRAS.get(base, ()):
                out[f"{base}.{extra}"] = self.extra[f"{base}.{extra}"]
        for name, module, fn in CACHES:
            hits0, misses0 = self._cache_before[name]
            hits, misses = self._cache_counts(module, fn)
            looked_up = (hits - hits0) + (misses - misses0)
            out[f"{name}.cache_hit_ratio"] = (hits - hits0) / looked_up if looked_up else 0.0
        return out

    def span_count(self) -> int:
        return len(self.span_name)

    def write_spans(self, path: str) -> None:
        doc = {
            "clock": "time.perf_counter_ns",
            "names": self.names,
            "columns": ["parent", "name", "start_ns", "end_ns", "busy_ns"],
            "rows": list(
                zip(self.span_parent, self.span_name, self.span_start, self.span_end, self.span_busy)
            ),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _count_nonempty(tracer: Tracer, _args, _kwargs, out) -> None:
    tracer.extra["hilb.fiber_point_count.nonempty"] += out > 0


def _count_forms(tracer: Tracer, _args, _kwargs, out) -> None:
    tracer.extra["hilb.canonical_forms.forms"] += len(out)


def _count_terms(tracer: Tracer, args, kwargs, _out) -> None:
    m_max = args[1] if len(args) > 1 else kwargs["m_max"]
    terms = (2 * m_max + 1) ** 3
    tracer.extra["asymptotics.constant_c.terms"] += terms
    tracer.extra["asymptotics.constant_c.bytes_computed"] += terms * CONSTANT_BYTES_PER_TERM


_HOOKS = {
    "hilb.fiber_point_count": _count_nonempty,
    "hilb.canonical_forms": _count_forms,
    "asymptotics.constant_c": _count_terms,
}
# extra per-layer metrics beyond calls and self_s, in report order
_EXTRAS = {
    "asymptotics.constant_c": ("terms", "bytes_computed"),
    "hilb.canonical_forms": ("forms",),
    "hilb.fiber_point_count": ("nonempty", "nonempty_ratio"),
    "lattice.enumerate_form_le": ("yielded",),
}
