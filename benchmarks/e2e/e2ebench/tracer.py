"""In-memory span recorder for the traced run.

Spans are opened from the benchmark's own files around calls into a
layer's public functions; nothing inside ``src/repro`` is instrumented.
Each span has a name, start, end, the span that encloses it and the rep
it belongs to.  They stay in memory and are written to one JSON file
when the run ends.

Self time is a span's duration minus what its children cover.  A stage
that the program only ever runs *inside* another public function
(``tokenize`` inside ``parse``, ``analyze`` inside ``build_graph``,
``annotate_lcds`` inside ``partition``) cannot be bracketed from outside, so it is timed in a
call of its own immediately before the enclosing one and passed to the
enclosing span as its ``twin``: the twin's duration is subtracted like a
child's.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.samples: list[tuple[str, object, float]] = []
        self.rep: object = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, twin: dict | None = None):
        record = {"id": len(self.spans), "name": name, "rep": self.rep,
                  "parent": self._stack[-1] if self._stack else None,
                  "twin": None if twin is None else twin["id"],
                  "start": 0.0, "end": 0.0}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, twin: dict | None = None, **kwargs):
        """``fn(*args, **kwargs)`` inside a span; returns (result, span)."""
        with self.span(name, twin=twin) as record:
            result = fn(*args, **kwargs)
        return result, record

    def sample(self, name: str, value: float) -> None:
        """A count or a derived number observed in the current rep."""
        self.samples.append((name, self.rep, value))

    # -- queries ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        out = dict(own)
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= own[s["id"]]
            if s["twin"] is not None:
                out[s["id"]] -= own[s["twin"]]
        return out

    def per_rep(self, name: str, self_time: bool = False) -> list[float]:
        """Per rep, the summed (self) duration of the spans called
        ``name``; reps in recording order."""
        selfs = self.self_times() if self_time else None
        totals: dict[object, float] = {}
        for s in self.spans:
            if s["name"] == name:
                d = selfs[s["id"]] if self_time else s["end"] - s["start"]
                totals[s["rep"]] = totals.get(s["rep"], 0.0) + d
        return list(totals.values())

    def sampled(self, name: str) -> list[float]:
        return [v for n, _, v in self.samples if n == name]

    def dump(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans,
                       "samples": [list(s) for s in self.samples]}, fh)
