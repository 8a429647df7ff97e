"""In-memory spans and counters for the traced benchmark pass.

A span records (name, start, end, parent, request). Spans are opened by
the benchmark around its own calls into dubkit, never inside the
library, and are written out once the pass ends.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self.request = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, value) -> None:
        self.counts[name] += value

    def busy(self) -> dict:
        """Summed span duration per name, in seconds."""
        total = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            total[name] += end - start
        return total

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def span_cost(n: int = 20000) -> float:
    """Seconds one empty span costs, measured on a scratch tracer."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(n):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - start) / n
