"""In-memory span recorder for one traced repetition, and self-time arithmetic.

A span is (name, parent span, start ns, end ns). Spans are opened and
closed in stack order by one thread, so a span's children never overlap
each other and lie inside it; a span's self time is then its duration
minus the summed durations of its direct children, and the self times of
a tree add up to the duration of its root exactly.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter_ns


class Tracer:
    """Records spans in flat arrays; counts ride along in ``counts``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> None:
        index = len(self.start)
        self.name_id.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())

    def finish(self) -> None:
        self.end[self._stack.pop()] = perf_counter_ns()

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording a span per call; ``count(counts, args, result)`` runs after."""
        # begin()/finish() inlined: this runs once per layer call, 1.4M times
        # in one filter-compare-m6 repetition.
        name_id = self._name_id(name)
        stack, name_ids, parents, starts, ends = (
            self._stack, self.name_id, self.parent, self.start, self.end
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )


def self_times(parent, start, end):
    """Per-span self time: duration minus the summed durations of direct children."""
    import numpy as np

    parent = np.asarray(parent)
    duration = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - children


def layer_totals(names, name_id, parent, start, end) -> dict[str, dict[str, float]]:
    """Per span name: number of calls and summed self time in seconds."""
    import numpy as np

    own = self_times(parent, start, end)
    name_id = np.asarray(name_id)
    calls = np.bincount(name_id, minlength=len(names))
    self_ns = np.bincount(name_id, weights=own, minlength=len(names))
    return {
        str(name): {"calls": int(calls[i]), "self_s": float(self_ns[i]) / 1e9}
        for i, name in enumerate(names)
    }
