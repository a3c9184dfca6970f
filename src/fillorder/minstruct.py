"""Small min-structures used by the dynamic sketches.

Both structures are heap-based with lazy deletion: a deletion of a
non-minimum value is deferred until that value surfaces at the top.
All operations are amortized O(log n) with low constants.
"""

from __future__ import annotations

import heapq


class LazyMinHeap:
    """Multiset of orderable values with add / discard / min."""

    __slots__ = ("_heap", "_dead", "_len")

    def __init__(self, items=()):
        self._heap = list(items)
        heapq.heapify(self._heap)
        self._dead: dict = {}
        self._len = len(self._heap)

    def __len__(self) -> int:
        return self._len

    def add(self, value) -> None:
        dead = self._dead
        c = dead.get(value)
        if c:
            if c == 1:
                del dead[value]
            else:
                dead[value] = c - 1
        else:
            heapq.heappush(self._heap, value)
        self._len += 1

    def discard(self, value) -> None:
        """Remove one occurrence; the value must be present."""
        self._len -= 1
        heap = self._heap
        if heap and heap[0] == value:
            heapq.heappop(heap)
            self._skim()
        else:
            self._dead[value] = self._dead.get(value, 0) + 1

    def _skim(self) -> None:
        heap, dead = self._heap, self._dead
        while heap:
            top = heap[0]
            c = dead.get(top)
            if not c:
                return
            heapq.heappop(heap)
            if c == 1:
                del dead[top]
            else:
                dead[top] = c - 1

    def min(self):
        """Smallest live value, or None when empty."""
        if self._len == 0:
            return None
        return self._heap[0]


class SourceMinMap:
    """Map from contributor id to a value, with an aggregate minimum.

    Backs the per-vertex neighborhood-minimum bookkeeping: each neighbor
    (or merged component) holds exactly one slot, and the minimum over all
    slots is queried constantly.
    """

    __slots__ = ("_src", "_vals")

    def __init__(self, entries: dict | None = None):
        self._src = dict(entries) if entries else {}
        self._vals = LazyMinHeap(self._src.values())

    def __len__(self) -> int:
        return len(self._src)

    def __contains__(self, source) -> bool:
        return source in self._src

    def min(self):
        return self._vals.min()

    def set(self, source, value) -> None:
        old = self._src.get(source)
        if old is not None:
            self._vals.discard(old)
        self._src[source] = value
        self._vals.add(value)

    def pop(self, source):
        value = self._src.pop(source)
        self._vals.discard(value)
        return value
