"""Tests for the LRU cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.caches import LRUCache


#: Line sizes in bytes.  The L1 and L2 of a configuration may use
#: different line sizes, so the cache contract must hold at any power
#: of two, not just the 128-byte default: every address in
#: :class:`TestLRUCache` is written in units of ``line``.
LINE_SIZES = [32, 128, 1024]


def _model_access(model: list, line_addr: int, num_lines: int) -> bool:
    """An independent list-backed LRU (LRU first, MRU last): the
    oracle the OrderedDict cache is held to."""
    if line_addr in model:
        model.remove(line_addr)
        model.append(line_addr)
        return True
    model.append(line_addr)
    if len(model) > num_lines:
        model.pop(0)
    return False


@pytest.mark.parametrize("line", LINE_SIZES, ids=lambda n: f"line{n}")
class TestLRUCache:
    def test_first_access_misses_second_hits(self, line):
        c = LRUCache(8 * line, line)
        assert not c.access(0)
        assert c.access(0)
        assert c.access(line // 2)  # same line
        assert c.access(line - 1)   # last byte of the same line
        assert c.hits == 3 and c.misses == 1

    def test_distinct_lines(self, line):
        c = LRUCache(8 * line, line)
        c.access(0)
        assert not c.access(line)

    def test_capacity_eviction_lru_order(self, line):
        c = LRUCache(4 * line, line)  # 4 lines
        for i in range(4):
            c.access(i * line)
        c.access(0)  # touch line 0 -> MRU
        c.access(4 * line)  # evicts line 1 (LRU)
        assert c.access(0)  # still resident
        assert not c.access(1 * line)  # evicted

    def test_occupancy_bounded(self, line):
        c = LRUCache(8 * line, line)
        for i in range(100):
            c.access(i * line)
        assert c.occupancy == 8

    def test_contains_does_not_mutate(self, line):
        c = LRUCache(8 * line, line)
        assert not c.contains(0)
        assert c.misses == 0
        c.access(0)
        assert c.contains(0)
        assert c.hits == 0 and c.misses == 1

    def test_reset(self, line):
        c = LRUCache(8 * line, line)
        c.access(0)
        c.reset()
        assert c.occupancy == 0
        assert c.hits == 0 and c.misses == 0
        assert not c.access(0)

    def test_reset_keep_stats(self, line):
        c = LRUCache(8 * line, line)
        c.access(0)
        c.access(0)
        c.reset(keep_stats=True)
        assert c.hits == 1 and c.misses == 1
        assert not c.access(0)  # line gone

    def test_hit_rate(self, line):
        c = LRUCache(8 * line, line)
        assert c.hit_rate == 0.0
        c.access(0)
        c.access(0)
        assert c.hit_rate == pytest.approx(0.5)

    def test_rejects_bad_line_size(self, line):
        with pytest.raises(ValueError):
            LRUCache(8 * line, line + line // 2)  # not a power of two
        with pytest.raises(ValueError):
            LRUCache(line // 2, line)  # capacity below one line

    @settings(max_examples=25, deadline=None)
    @given(
        addrs=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=300),
        lines=st.integers(1, 16),
    )
    def test_occupancy_never_exceeds_capacity(self, line, addrs, lines):
        c = LRUCache(lines * line, line)
        for a in addrs:
            c.access(a)
        assert c.occupancy <= lines
        assert c.hits + c.misses == len(addrs)

    @settings(max_examples=25, deadline=None)
    @given(addrs=st.lists(st.integers(0, 1 << 14), min_size=1, max_size=100))
    def test_infinite_capacity_only_compulsory_misses(self, line, addrs):
        c = LRUCache(1 << 22, line)  # larger than the address space used
        for a in addrs:
            c.access(a)
        shift = line.bit_length() - 1
        distinct_lines = len({a >> shift for a in addrs})
        assert c.misses == distinct_lines

    @settings(max_examples=40, deadline=None)
    @given(
        addrs=st.lists(st.integers(0, 1 << 14), min_size=1, max_size=400),
        lines=st.integers(1, 12),
    )
    def test_matches_list_model_on_random_streams(self, line, addrs, lines):
        # Hit/miss outcome, eviction order and statistics against an
        # independent list-backed LRU on arbitrary streams.
        c = LRUCache(lines * line, line)
        model: list = []
        shift = line.bit_length() - 1
        model_hits = 0
        for addr in addrs:
            hit = _model_access(model, addr >> shift, lines)
            assert c.access(addr) == hit
            model_hits += hit
        assert c.lru_lines() == model
        assert (c.hits, c.misses) == (model_hits, len(addrs) - model_hits)

    def test_hit_streak_keeps_lru_order(self, line):
        # A long streak of hits alternating between two resident lines
        # only ever swaps their recency; nothing is evicted or refilled.
        c = LRUCache(2 * line, line)
        for i in range(2000):
            hit = c.access((i % 2) * line)
            assert hit == (i >= 2)
        assert c.lru_lines() == [0, 1]
        assert (c.hits, c.misses) == (1998, 2)

    def test_refreshed_line_survives_eviction(self, line):
        c = LRUCache(2 * line, line)
        c.access(0)         # line 0
        c.access(line)      # line 1
        c.access(0)         # line 0 refreshed: line 1 is now LRU
        c.access(2 * line)  # full: must evict line 1, not line 0
        assert c.contains(0)
        assert not c.contains(line)
        assert c.contains(2 * line)
        assert c.lru_lines() == [0, 2]

    def test_contains_does_not_refresh_recency(self, line):
        c = LRUCache(2 * line, line)
        c.access(0)
        c.access(line)
        assert c.contains(0)  # a probe, not a use
        c.access(2 * line)    # so line 0 is still the one evicted
        assert not c.contains(0)
        assert c.lru_lines() == [1, 2]

    def test_lru_lines_are_line_indices_oldest_first(self, line):
        c = LRUCache(4 * line, line)
        for addr in (3 * line + 1, line, 5 * line + line - 1, line // 2):
            c.access(addr)
        assert c.lru_lines() == [3, 1, 5, 0]


def test_reset_clears_lines_in_place():
    # The fast memory front end holds direct references to ``_lines``
    # and its bound methods (MemoryHierarchy._flatten); reset must
    # clear the dict, never rebind it.
    c = LRUCache(4 * 128, 128)
    lines = c._lines
    for addr in range(0, 1024, 128):
        c.access(addr)
    c.reset()
    assert c._lines is lines
    assert not lines
    assert not c.access(0)  # miss again after reset
    assert c._lines is lines
