"""Memory-subsystem edge cases, run against every front end.

The property battery in ``test_sim_memory_fastpath.py`` explores the
bulk of the state space randomly; this module pins the degenerate
geometries and instruction shapes where the batched fast path is
most likely to diverge from the oracle: capacity-1 caches, an L2
smaller than a single transaction batch, self-eviction inside one
instruction, non-power-of-two strides that alias into one bank,
zero-transaction instructions, long hit streaks, shared L2s of a few
lines, eviction storms and L1/L2 line sizes that differ.  Every case
is a differential test — each front end against a fresh reference
oracle — so the expected behaviour is defined by the oracle, never
hand-computed.
"""

from __future__ import annotations

import pytest

from repro.config import GPUConfig
from repro.sim.memory import (
    MEMORY_FRONT_ENDS,
    ReferenceMemoryHierarchy,
    make_memory,
)
from tests.test_sim_memory_fastpath import hierarchy_state

FRONT_ENDS = ["fast", "reference"]


def _assert_differential(cfg: GPUConfig, front_end: str, seq) -> None:
    """Drive ``seq`` through ``front_end`` and a fresh oracle; compare
    every completion time and the final hierarchy state."""
    mem = make_memory(cfg, front_end)
    ref = ReferenceMemoryHierarchy(cfg)
    for sm_id, addr, spread, num_req, now in seq:
        got = mem.load(sm_id, addr, spread, num_req, now)
        want = ref.load(sm_id, addr, spread, num_req, now)
        assert got == want, (sm_id, addr, spread, num_req, now)
    assert hierarchy_state(mem) == hierarchy_state(ref)


def test_front_end_list_matches_registry():
    # The parametrization below must cover every registered front end.
    assert set(FRONT_ENDS) == set(MEMORY_FRONT_ENDS)


@pytest.mark.parametrize("front_end", FRONT_ENDS)
class TestSingleLineCaches:
    """Capacity-1 L1 and L2: every distinct-line access evicts the
    previous resident, so the LRU 'order' is a single slot and the
    eviction machinery runs on almost every transaction."""

    def _cfg(self) -> GPUConfig:
        # 1 KiB capacity with 1 KiB lines: exactly one line per cache.
        return GPUConfig(
            num_sms=2, l1_kib=1, l1_line=1024, l2_kib=1, l2_line=1024,
            dram_channels=2, dram_banks=2,
        )

    def test_alternating_lines_thrash(self, front_end):
        seq = [
            (0, addr, 0, 1, now * 10)
            for now, addr in enumerate([0, 2048, 0, 2048, 4096, 0] * 4)
        ]
        _assert_differential(self._cfg(), front_end, seq)

    def test_batch_through_single_line_cache(self, front_end):
        # A 16-transaction batch through a one-line hierarchy: every
        # transaction past the first misses both levels.
        seq = [(0, 0, 1024, 16, 0), (1, 512, 2048, 8, 50), (0, 0, 0, 4, 90)]
        _assert_differential(self._cfg(), front_end, seq)


@pytest.mark.parametrize("front_end", FRONT_ENDS)
class TestL2SmallerThanBatch:
    """L2 with 8 lines fed 32-transaction batches: the shared level
    wraps around within one instruction, so batch-local L2 state must
    still follow strict per-transaction order."""

    def _cfg(self) -> GPUConfig:
        return GPUConfig(
            num_sms=2, l1_kib=1, l1_line=128,   # 8 L1 lines
            l2_kib=1, l2_line=128,              # 8 L2 lines < 32 txns
            dram_channels=3, dram_banks=4,
        )

    def test_batch_wraps_l2(self, front_end):
        seq = [
            (0, 0, 128, 32, 0),        # 32 distinct lines through 8-line L2
            (1, 0, 128, 32, 10),       # same window from the other SM
            (0, 4096, 256, 32, 20),    # strided, still wider than L2
        ]
        _assert_differential(self._cfg(), front_end, seq)

    def test_revisit_after_wrap_misses(self, front_end):
        # After wrapping, the batch's own first lines are gone again —
        # revisiting them must miss in both levels (no stale hits from
        # batch-local caching of probe results).
        seq = [(0, 0, 128, 32, 0), (0, 0, 128, 8, 100)]
        _assert_differential(self._cfg(), front_end, seq)


@pytest.mark.parametrize("front_end", FRONT_ENDS)
class TestSelfEvictionWithinOneInstruction:
    """One instruction larger than the L1's line capacity: the batch
    evicts its own earlier lines before it finishes."""

    def _cfg(self) -> GPUConfig:
        return GPUConfig(
            num_sms=1, l1_kib=1, l1_line=128,   # 8 lines < 32 txns
            l2_kib=64, l2_line=128,             # roomy L2 isolates L1 churn
            dram_channels=2, dram_banks=2,
        )

    def test_batch_evicts_own_head(self, front_end):
        seq = [
            (0, 0, 128, 32, 0),
            # Immediately revisit the head of the previous batch: its
            # lines were self-evicted from L1 but still sit in L2.
            (0, 0, 128, 4, 50),
        ]
        _assert_differential(self._cfg(), front_end, seq)

    def test_interleaved_self_evicting_batches(self, front_end):
        seq = [
            (0, i * 64, 128, 32, i * 7) for i in range(12)
        ]
        _assert_differential(self._cfg(), front_end, seq)


@pytest.mark.parametrize("front_end", FRONT_ENDS)
class TestNonPowerOfTwoStrides:
    """Strides that are not multiples of the line size (and not powers
    of two) alias irregularly across lines and DRAM banks — both the
    modulo bank path (12 banks) and the mask path (8 banks)."""

    STRIDES = [77, 129, 384, 1000, 3 * 128 + 1]

    def test_modulo_bank_path(self, front_end):
        cfg = GPUConfig(
            num_sms=2, l1_kib=1, l2_kib=4,
            dram_channels=3, dram_banks=4,   # 12 banks: modulo
        )
        seq = [
            (sm, 13 * i, stride, 24, 5 * i)
            for i, stride in enumerate(self.STRIDES)
            for sm in (0, 1)
        ]
        _assert_differential(cfg, front_end, seq)

    def test_mask_bank_path(self, front_end):
        cfg = GPUConfig(
            num_sms=2, l1_kib=1, l2_kib=4,
            dram_channels=2, dram_banks=4,   # 8 banks: mask
        )
        seq = [
            (sm, 13 * i, stride, 24, 5 * i)
            for i, stride in enumerate(self.STRIDES)
            for sm in (0, 1)
        ]
        _assert_differential(cfg, front_end, seq)

    def test_same_bank_aliasing_stride(self, front_end):
        # Stride = num_banks * line bytes: every transaction of every
        # batch lands in bank 0, maximizing queueing interaction.
        cfg = GPUConfig(
            num_sms=1, l1_kib=1, l2_kib=2,
            dram_channels=2, dram_banks=4,
        )
        stride = 8 * 128
        seq = [(0, k * stride, stride, 16, k) for k in range(8)]
        _assert_differential(cfg, front_end, seq)


@pytest.mark.parametrize("front_end", FRONT_ENDS)
class TestZeroTransactionInstructions:
    """``num_req == 0``: a degenerate instruction performs no
    transactions, touches no state, and completes at the L1 floor."""

    def test_returns_l1_floor_and_touches_nothing(self, front_end):
        cfg = GPUConfig(num_sms=1, l1_kib=1, l2_kib=2)
        mem = make_memory(cfg, front_end)
        ref = ReferenceMemoryHierarchy(cfg)
        before = hierarchy_state(mem)
        for now in (0, 17, 1000):
            got = mem.load(0, 4096, 128, 0, now)
            assert got == ref.load(0, 4096, 128, 0, now)
            assert got == now + cfg.l1_latency
        # No cache, DRAM or statistics state may have moved.
        assert hierarchy_state(mem) == before

    def test_zero_txn_between_real_traffic(self, front_end):
        cfg = GPUConfig(num_sms=1, l1_kib=1, l2_kib=2)
        seq = [
            (0, 0, 128, 8, 0),
            (0, 512, 256, 0, 10),   # zero-transaction in the middle
            (0, 0, 128, 8, 20),
        ]
        _assert_differential(cfg, front_end, seq)


@pytest.mark.parametrize("front_end", FRONT_ENDS)
class TestLongHitStreaks:
    """Long runs of hits only ever reorder recency: thousands of them
    in a row, alone or as whole hit batches, then a switch to
    single-transaction hits, an all-miss eviction storm and a
    sub-line-spread batch, all on one hierarchy."""

    def test_l1_hit_streak_in_tiny_cache(self, front_end):
        cfg = GPUConfig(num_sms=1, l1_kib=1, l1_line=512, l2_kib=2)
        seq = [(0, (i % 2) * 512, 0, 1, i) for i in range(4000)]
        _assert_differential(cfg, front_end, seq)

    def test_l1_hit_batches_then_singles_then_storm(self, front_end):
        # 16-line L1: one warming miss batch, then whole-cache hit
        # batches, single-transaction hits cycling the working set, an
        # eviction storm over fresh lines and a careful same-line batch.
        cfg = GPUConfig(
            num_sms=1, l1_kib=2, l1_line=128, l2_kib=4, l2_line=128,
        )
        width = 16
        seq = [(0, 0, 128, width, 10 * i) for i in range(32)]
        seq += [
            (0, (i % width) * 128, 0, 1, 400 + 10 * i) for i in range(512)
        ]
        seq += [(0, width * 128, 128, width, 6000), (0, 0, 64, 32, 6010)]
        _assert_differential(cfg, front_end, seq)

    def test_l2_hit_batches_behind_thrashing_l1(self, front_end):
        # A 16-line working set is wider than the 8-line L1 and inside
        # the 32-line L2: every transaction reaches the L2 and hits.
        cfg = GPUConfig(
            num_sms=1, l1_kib=1, l1_line=128, l2_kib=4, l2_line=128,
        )
        width = 16
        seq = [(0, 0, 128, width, 10 * i) for i in range(16)]
        seq += [
            (0, (i % width) * 128, 0, 1, 200 + 10 * i) for i in range(256)
        ]
        seq += [(0, width * 128, 128, 32, 3000)]
        _assert_differential(cfg, front_end, seq)

    def test_wide_batches_through_one_line_caches(self, front_end):
        cfg = GPUConfig(
            num_sms=1, l1_kib=1, l1_line=1024, l2_kib=1, l2_line=1024,
            dram_channels=2, dram_banks=2,
        )
        seq = [(0, k * 128, 1024, 16, k * 3) for k in range(6)]
        _assert_differential(cfg, front_end, seq)


@pytest.mark.parametrize("front_end", FRONT_ENDS)
class TestTinySharedL2:
    """A shared L2 of only a few lines under traffic from several SMs:
    almost every miss evicts, and one SM's fills evict the other's."""

    def test_two_line_l2_thrash_across_sms(self, front_end):
        cfg = GPUConfig(
            num_sms=2, l1_kib=1, l1_line=1024, l2_kib=1, l2_line=512,
            dram_channels=2, dram_banks=2,
        )
        seq = [
            (sm, addr, 0, 1, now * 10)
            for now, (sm, addr) in enumerate(
                [(0, 0), (0, 512), (1, 1024), (0, 1536), (1, 0),
                 (0, 2048), (1, 512), (0, 0)] * 6
            )
        ]
        _assert_differential(cfg, front_end, seq)

    def test_even_lines_overflow_l2(self, front_end):
        # 24 distinct even-indexed lines cycle through a 16-line L2:
        # strict LRU order means every revisit has just been evicted.
        cfg = GPUConfig(
            num_sms=1, l1_kib=1, l1_line=128, l2_kib=2, l2_line=128,
            dram_channels=2, dram_banks=2,
        )
        seq = [(0, (2 * (i % 24)) * 128, 0, 1, i * 5) for i in range(120)]
        _assert_differential(cfg, front_end, seq)

    def test_interleaved_sm_batches_share_l2(self, front_end):
        # Two SMs alternate 8-transaction batches over overlapping
        # windows of an 8-line L2: each batch partly hits lines the
        # other SM filled and partly evicts them.
        cfg = GPUConfig(
            num_sms=2, l1_kib=1, l1_line=128, l2_kib=1, l2_line=128,
            dram_channels=3, dram_banks=4,
        )
        seq = [
            (i % 2, (i % 5) * 512, 128, 8, 7 * i) for i in range(40)
        ]
        _assert_differential(cfg, front_end, seq)


@pytest.mark.parametrize("front_end", FRONT_ENDS)
class TestEvictionStorms:
    """Sustained single-transaction traffic through the L2 with the L1
    always missing: a pure L2-hit streak, and a strided stream twice
    the L2's size that turns it over continually."""

    def test_l2_hit_streak_behind_thrashing_l1(self, front_end):
        cfg = GPUConfig(
            num_sms=1, l1_kib=1, l1_line=128, l2_kib=4, l2_line=128,
            dram_channels=2, dram_banks=2,
        )
        seq = [(0, (2 * (i % 16)) * 128, 0, 1, 3 * i) for i in range(192)]
        _assert_differential(cfg, front_end, seq)

    def test_strided_stream_turns_over_l2(self, front_end):
        cfg = GPUConfig(
            num_sms=1, l1_kib=1, l1_line=128, l2_kib=2, l2_line=128,
            dram_channels=2, dram_banks=2,
        )
        seq = [(0, ((i * 7) % 64) * 128, 0, 1, 2 * i) for i in range(256)]
        _assert_differential(cfg, front_end, seq)


@pytest.mark.parametrize("front_end", FRONT_ENDS)
class TestMixedLineSizes:
    """L1 and L2 with different line sizes: one L2 line backs several
    L1 lines (or the reverse), so an L1 miss may hit an L2 line another
    L1 line filled, and same-L1-line deduplication spans L2 lines."""

    def test_l2_line_wider_than_l1_line(self, front_end):
        cfg = GPUConfig(
            num_sms=2, l1_kib=1, l1_line=128, l2_kib=4, l2_line=512,
            dram_channels=3, dram_banks=4,
        )
        seq = [
            (i % 2, (i * 3 % 11) * 128, spread, 16, 4 * i)
            for i, spread in enumerate([128, 64, 512, 0, 384] * 6)
        ]
        _assert_differential(cfg, front_end, seq)

    def test_l1_line_wider_than_l2_line(self, front_end):
        cfg = GPUConfig(
            num_sms=2, l1_kib=2, l1_line=512, l2_kib=2, l2_line=128,
            dram_channels=2, dram_banks=4,
        )
        seq = [
            (i % 2, (i * 5 % 13) * 128, spread, 16, 4 * i)
            for i, spread in enumerate([128, 64, 512, 0, 384] * 6)
        ]
        _assert_differential(cfg, front_end, seq)
