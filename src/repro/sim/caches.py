"""Cache models.

Caches are modelled as capacity-bounded LRU maps over line addresses —
a fully-associative approximation of the 8-way set-associative caches of
Table V.  What the sampling experiments depend on is *warm-up* (the
reason intra-launch sampling has a warming period) and *capacity*
behaviour, both of which survive the associativity approximation.

Storage choice (measured, see DESIGN.md §8): the LRU set lives in an
``OrderedDict``.  The tempting "plain dict" alternative — CPython dicts
preserve insertion order, so a hit could refresh recency by delete +
reinsert and eviction could remove ``next(iter(...))`` — is *exactly*
LRU-equivalent but catastrophically slower under eviction pressure:
deleting from the front of a plain dict leaves tombstones in the dense
entry array that ``iter()`` must skip until the next resize compacts
them, so eviction cost grows with the deletions since the last resize
(~5.9 µs/eviction at L2 size, 6144 lines, vs ~150 ns for
``OrderedDict.popitem`` — the linked list exists precisely to make
both ends O(1)).  Hits are also slower (~79 ns for del+reinsert vs
~50 ns for a prebound ``move_to_end``).

The memory fast path (:class:`~repro.sim.memory.MemoryHierarchy`) does
not call :meth:`LRUCache.access` at all — it works directly on
``_lines`` with prebound ``move_to_end``/``popitem`` and accumulates
hit/miss counts in locals — so the per-transaction method-call overhead
this module's ``access`` carries is paid only by the reference front
end (the equivalence oracle).
"""

from __future__ import annotations

from collections import OrderedDict


class LRUCache:
    """Capacity-bounded LRU cache over line addresses.

    Parameters
    ----------
    capacity_bytes:
        Total capacity; ``capacity_bytes // line_size`` lines are kept.
    line_size:
        Line size in bytes (power of two).
    """

    __slots__ = ("num_lines", "line_shift", "hits", "misses", "_lines")

    def __init__(self, capacity_bytes: int, line_size: int):
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError("line_size must be a positive power of two")
        if capacity_bytes < line_size:
            raise ValueError("capacity smaller than one line")
        self.num_lines = capacity_bytes // line_size
        self.line_shift = line_size.bit_length() - 1
        self.hits = 0
        self.misses = 0
        self._lines: OrderedDict[int, None] = OrderedDict()

    def access(self, addr: int) -> bool:
        """Access one byte address; return True on hit.  Misses allocate
        (and evict LRU if full)."""
        line = addr >> self.line_shift
        lines = self._lines
        if line in lines:
            lines.move_to_end(line)
            self.hits += 1
            return True
        lines[line] = None
        if len(lines) > self.num_lines:
            lines.popitem(last=False)
        self.misses += 1
        return False

    def contains(self, addr: int) -> bool:
        """Non-mutating lookup (no LRU update, no fill, no stats)."""
        return (addr >> self.line_shift) in self._lines

    def lru_lines(self) -> list[int]:
        """Resident lines in LRU-to-MRU order (the observable recency
        state the equivalence tests compare)."""
        return list(self._lines)

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return len(self._lines)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def reset(self, keep_stats: bool = False) -> None:
        """Invalidate all lines (and by default zero the counters)."""
        self._lines.clear()
        if not keep_stats:
            self.hits = 0
            self.misses = 0


__all__ = ["LRUCache"]
