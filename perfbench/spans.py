"""Spans and counters for the traced benchmark run.

The recorder wraps the package's public functions at the names their callers
look them up under (for example ``weldmap.pipeline.dncp_flatten``), so nothing
in the package changes. Wrappers exist only inside ``Recorder.installed()``
and the original attributes are put back when it exits.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float | None
    parent: int | None  # index into Recorder.spans
    failed: bool = False

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


def union_length(intervals):
    """Total length covered by (start, end) intervals; overlaps count once."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Per span: its duration minus the union of its children's intervals.

    Children from pool threads overlap each other; the union counts the time
    they cover once, so a parent blocked on two workers is not charged
    negative time.
    """
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return [sp.duration - union_length(children[i]) for i, sp in enumerate(spans)]


class Recorder:
    """Spans and counters of one traced pass.

    A span opened on a thread with no open span of its own (a pool worker)
    gets the innermost open span of the thread that created the recorder as
    its parent: that thread is blocked inside the pipeline call that
    submitted the work.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.kept = []  # objects whose identity a counter tracks
        self._lock = threading.Lock()
        self._stacks = defaultdict(list)
        self._home = threading.get_ident()

    def add(self, name, value=1):
        with self._lock:
            self.counts[name] += value

    def _open(self, name):
        stack = self._stacks[threading.get_ident()]
        home = self._stacks[self._home]
        parent = stack[-1] if stack else (home[-1] if home else None)
        with self._lock:
            self.spans.append(Span(name, time.perf_counter(), None, parent))
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def _close(self, idx, failed):
        self.spans[idx].end = time.perf_counter()
        self.spans[idx].failed = failed
        self._stacks[threading.get_ident()].pop()

    def wrap(self, name, fn, before=None, after=None):
        """fn recorded as span `name`; before(rec, args) runs ahead of the
        call, after(rec, args, result) after a successful return."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx, False)
            if after is not None:
                after(self, args, out)
            return out

        return traced

    @contextmanager
    def installed(self, patches):
        """Install wrappers for (owner, attribute, replacement-factory) triples
        for the duration of the block; the factory gets the original."""
        saved = []
        try:
            for owner, attr, make in patches:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, make(orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
