"""In-memory spans around calls into tamedspde, recorded from outside it.

A span is (name, start, end, id, parent, pid).  Times come from
``time.perf_counter``, which reads the system-wide monotonic clock on
Linux, so spans from forked pool workers share one time axis with the
process that forked them.  The package source is never edited: the
benchmark replaces module attributes with :class:`Timed` wrappers before
the experiment starts.

Pool workers inherit the tracer at fork time.  The first block a worker
runs resets the copied spans and counters, keeps the inherited stack (so
the block's parent is the study span of the forking process) and appends
what the worker records to ``spans-<pid>.jsonl`` in the trace directory
after every block.  ``merge_worker_files`` folds those files back in.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    """Spans and counters of one process for one run."""

    def __init__(self, run_id: str, trace_dir: str):
        self.run_id = run_id
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.is_worker = False
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self._next_id = 0

    def open(self, name: str):
        self._next_id += 1
        span_id = f"{self.pid}.{self._next_id}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        return [name, time.perf_counter(), 0.0, span_id, parent, self.pid]

    def close(self, span) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)

    def adopt_if_forked(self) -> None:
        """Start a worker's own record after a fork (inherited stack kept)."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.is_worker = True
            self.spans = []
            self.counters = Counter()

    def flush_worker(self) -> None:
        """Append this worker's spans and counters to its file, then reset."""
        path = self.trace_dir / f"spans-{self.pid}.jsonl"
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": self.spans,
                                 "counters": dict(self.counters)}) + "\n")
        self.spans = []
        self.counters = Counter()

    def merge_worker_files(self) -> None:
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                self.spans.extend(record["spans"])
                self.counters.update(record["counters"])

    def records(self) -> list[dict]:
        return [{"name": s[0], "start": s[1], "end": s[2], "id": s[3],
                 "parent": s[4], "pid": s[5], "run": self.run_id}
                for s in self.spans]


class Timed:
    """Callable wrapper that records a span and optional counts per call.

    ``count(args, result)`` returns a mapping of counter increments.  A
    class instead of a closure, so a wrapped callable stays picklable.
    """

    def __init__(self, tracer: Tracer, name: str, fn, count=None,
                 worker_boundary: bool = False):
        self.tracer = tracer
        self.name = name
        self.fn = fn
        self.count = count
        self.worker_boundary = worker_boundary

    def __call__(self, *args, **kwargs):
        tracer = self.tracer
        if self.worker_boundary:
            tracer.adopt_if_forked()
        span = tracer.open(self.name)
        try:
            result = self.fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if self.count is not None:
            tracer.counters.update(self.count(args, result))
        if self.worker_boundary and tracer.is_worker:
            tracer.flush_worker()
        return result


def self_times(spans) -> dict:
    """Map span id to its duration minus the time its children cover.

    Children may overlap one another (parallel blocks under one study
    span); their union, clipped to the parent's interval, is what gets
    subtracted.  ``spans`` holds records with name, start, end, id, parent.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def totals_by_name(spans) -> dict:
    """Per span name: call count, summed duration and summed self time."""
    own = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = out[s["name"]]
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own[s["id"]]
    return dict(out)
