"""In-memory span tracing by wrapping package functions from outside `src/`.

A target names a function as a module path and an attribute path, e.g.
``("stbclab.simharness", "sample_link")``.  The wrapper replaces that
attribute, so it sees exactly the calls the owning module makes through
that name.  Spans live in memory and are written out once, at the end of
a run; the wrapped attributes are always restored, even on error.
"""

import functools
import importlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    frame: int  # id shared by the spans of one frame, -1 outside frames
    count: object = None  # per-call counters from the target's count hook

    @property
    def duration(self):
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # dotted, e.g. "_SimContext.run_frame"
    name: str  # span name, "<layer>.<operation>"
    frame: bool = False  # a span of this target opens a new frame id
    count: object = None  # callable(args, result) -> counters kept on the span


class Tracer:
    """Records nested spans for calls made through installed wrappers."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._frame = -1
        self._frames = 0

    def wrap(self, fn, target):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            previous_frame = self._frame
            if target.frame:
                self._frame = self._frames
                self._frames += 1
            span = Span(target.name, 0.0, 0.0, stack[-1] if stack else -1, self._frame)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                self._frame = previous_frame
            if target.count is not None:
                span.count = target.count(args, result)
            return result

        return traced

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span of the benchmark's own, e.g. one pass."""
        return self.wrap(fn, Target("", "", name))(*args)

    @contextmanager
    def installed(self, targets):
        """Wrap every target that exists; yield the names of those that do not."""
        saved, missing = [], []
        try:
            for target in targets:
                owner, leaf = _resolve_owner(target)
                if owner is None or leaf not in vars(owner):
                    missing.append(f"{target.module}:{target.attr}")
                    continue
                original = vars(owner)[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(original, target))
            yield missing
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def write(self, path):
        """Write the spans as JSON: a name table plus one row per span."""
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s.name], s.start, s.end, s.parent, s.frame, s.count]
                for s in self.spans]
        with open(path, "w") as f:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "frame",
                                   "count"],
                       "names": names, "spans": rows}, f)
            f.write("\n")


def _resolve_owner(target):
    """The object holding the target's last attribute, or None if absent."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None, None
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, leaf


def self_times(spans, frame_name):
    """Per frame: (frame duration, duration minus its direct children's)."""
    child_time = {}
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return [(s.duration, s.duration - child_time.get(i, 0.0))
            for i, s in enumerate(spans) if s.name == frame_name]


def per_frame_totals(spans, name):
    """Total duration of spans called `name` within each frame, by frame id."""
    totals = {}
    for s in spans:
        if s.name == name and s.frame >= 0:
            totals[s.frame] = totals.get(s.frame, 0.0) + s.duration
    return totals
