"""In-memory spans around eegcl's public functions, for the traced run.

A span records its name, start, end, parent span and run id. Wrappers are
installed by rebinding the module and class attributes that eegcl's own
callers look up, in the benchmark process only; `Instrumentation.uninstall`
puts the originals back, so untraced rounds pay nothing.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run: int


class Tracer:
    """Keeps every span in memory; `dump` writes them out at the end."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self.run = 0
        self._stack: list = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent, self.run))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def next_run(self) -> int:
        self.run += 1
        return self.run

    def dump(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.run] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"], "spans": rows}, fh)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = union_length(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children.get(i, ())
            if spans[c].end > s.start and spans[c].start < s.end
        )
        out.append((s.end - s.start) - covered)
    return out


def summarize(spans, include=lambda span: True) -> dict:
    """name -> {"calls", "s" (inclusive), "self_s"} over the spans that
    `include` accepts; self times are taken against all of `spans`, since
    parent links index that list."""
    table: dict = {}
    for s, own in zip(spans, self_times(spans)):
        if not include(s):
            continue
        row = table.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += own
    return table


def traced(tracer: Tracer, fn, name: str, before=None, after=None):
    """fn wrapped in a span; `after(args, kwargs, result, state)` runs once
    the span is closed, with `state = before(args, kwargs)`."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before is not None else None
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(args, kwargs, result, state)
        return result

    return wrapper


class Instrumentation:
    """A set of (owner, attribute) rebinding sites sharing one tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._sites: list = []  # (owner, attribute, original, wrapper)

    def add(self, owners, attribute: str, name: str, before=None, after=None):
        """Wrap `attribute` on every owner; owners that share one function
        object (a re-exported name) share one wrapper."""
        wrappers: dict = {}
        for owner in owners:
            original = owner.__dict__[attribute]
            if id(original) not in wrappers:
                wrappers[id(original)] = traced(self.tracer, original, name, before, after)
            self._sites.append((owner, attribute, original, wrappers[id(original)]))

    def install(self) -> None:
        for owner, attribute, _, wrapper in self._sites:
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original, _ in self._sites:
            setattr(owner, attribute, original)
