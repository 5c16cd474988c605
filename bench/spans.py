"""The benchmark's own span recorder.

Spans are taken from outside the program, around the calls the
benchmark makes into each layer (``adapters.py``); spans *inside* the
program are a later change.  A span is ``(name, start, end, parent,
op_id)``: ``parent`` is the index of the enclosing span of the same
thread (-1 at the root) and every span of one op shares its ``op_id``.
They stay in one in-memory list and are written out once, when the run
ends.

Whether an op records is decided per op and per thread (``begin_op``),
so a traced run can interleave recorded and unrecorded ops and report
the difference as its own overhead.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._lock = threading.Lock()  # client threads share the list
        self._tl = threading.local()

    def begin_op(self, op_id: int, record: bool) -> None:
        """Bind the calling thread's following spans to ``op_id``."""
        self._tl.op_id = op_id
        self._tl.record = record
        self._tl.parent = -1

    @contextmanager
    def span(self, name: str):
        tl = self._tl
        if not getattr(tl, "record", False):
            yield
            return
        parent, op_id = tl.parent, tl.op_id
        with self._lock:
            # reserve the slot now so children can name it as parent
            me = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, op_id))
        tl.parent = me
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[me] = (name, start, time.perf_counter(), parent, op_id)
            tl.parent = parent

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus what child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), sub in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - sub
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op_id"],
                       "spans": self.spans}, fh)


#: the process's recorder: one workload runs per process.
RECORDER = SpanRecorder()
span = RECORDER.span
