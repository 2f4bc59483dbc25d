"""Tests for the DRAM model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GPUConfig
from repro.sim.dram import DRAMModel

#: Channel counts selecting each line-to-bank mapping: 2 x 2 = 4 banks
#: takes the bit-mask path, 3 x 2 = 6 banks the modulo path.
BANK_PATHS = {"mask": 2, "modulo": 3}


def make_dram(channels=2, **over):
    cfg = GPUConfig(
        dram_channels=channels, dram_banks=2, dram_latency=100,
        dram_row_miss_penalty=50, dram_service=10, dram_jitter=0,
    ).with_(**over)
    return DRAMModel(cfg)


def dram_state(d: DRAMModel) -> tuple:
    """Every observable of a DRAM model: bank state, statistics and the
    position in the jitter stream."""
    return (
        list(d.free_at), list(d.open_row), d.requests, d.row_hits,
        d.total_queue_cycles, d._jitter_state,
    )


@pytest.mark.parametrize("bank_path", list(BANK_PATHS))
class TestDRAM:
    def test_bank_path_selected(self, bank_path):
        d = make_dram(BANK_PATHS[bank_path])
        assert bool(d.bank_mask) == (bank_path == "mask")

    def test_first_access_is_row_miss(self, bank_path):
        d = make_dram(BANK_PATHS[bank_path])
        done = d.access(0, now=0)
        assert done == 150  # base + row-miss penalty
        assert d.row_hits == 0

    def test_same_row_hit(self, bank_path):
        d = make_dram(BANK_PATHS[bank_path])
        d.access(0, now=0)
        # Same bank (line + num_banks) and same 2 KiB row: a row hit.
        done = d.access(d.num_banks * 128, now=1000)
        assert done == 1000 + 100
        assert d.row_hits == 1

    def test_adjacent_lines_interleave_across_banks(self, bank_path):
        d = make_dram(BANK_PATHS[bank_path])
        d.access(0, now=0)
        d.access(128, now=0)  # next line -> next bank -> closed row
        assert d.row_hits == 0

    def test_row_conflict_pays_penalty(self, bank_path):
        d = make_dram(BANK_PATHS[bank_path])
        d.access(0, now=0)
        nb = d.num_banks
        done = d.access(2048 * nb, now=1000)  # same bank, different row
        assert done == 1000 + 150

    def test_bank_queueing_delay(self, bank_path):
        d = make_dram(BANK_PATHS[bank_path])
        d.access(0, now=0)  # occupies bank until t=10
        done = d.access(0, now=2)  # same bank: waits until 10
        assert done == 10 + 100
        assert d.total_queue_cycles == 8

    def test_different_banks_no_queueing(self, bank_path):
        d = make_dram(BANK_PATHS[bank_path])
        d.access(0, now=0)
        done = d.access(128, now=0)  # adjacent line -> next bank
        assert done == 150
        assert d.total_queue_cycles == 0

    def test_bank_mapping_spreads_lines(self, bank_path):
        d = make_dram(BANK_PATHS[bank_path])
        banks = {(a >> d.line_shift) % d.num_banks for a in range(0, 512, 128)}
        assert len(banks) == 4

    def test_stats(self, bank_path):
        d = make_dram(BANK_PATHS[bank_path])
        d.access(0, 0)
        d.access(128, 0)
        assert d.requests == 2
        assert 0 <= d.row_hit_rate <= 1
        assert d.mean_queue_delay >= 0

    def test_reset(self, bank_path):
        d = make_dram(BANK_PATHS[bank_path])
        d.access(0, 0)
        d.reset()
        assert d.requests == 0
        assert list(d.free_at) == [0] * d.num_banks
        # row closed: pays the miss penalty again
        assert d.access(0, 0) == 150

    def test_jitter_bounded_and_deterministic(self, bank_path):
        d = make_dram(BANK_PATHS[bank_path], dram_jitter=9)
        lats = [d.access(0, now=10_000 * (i + 1)) - 10_000 * (i + 1) for i in range(50)]
        base = [l - 150 if i == 0 else l - 100 for i, l in enumerate(lats)]
        # Jitter stays within [0, 9) on top of the deterministic latency.
        d2 = make_dram(BANK_PATHS[bank_path], dram_jitter=9)
        lats2 = [d2.access(0, now=10_000 * (i + 1)) - 10_000 * (i + 1) for i in range(50)]
        assert lats == lats2  # deterministic
        assert max(lats) - min(lats[1:]) < 60  # bounded variation

    def test_bank_serializes_under_load(self, bank_path):
        d = make_dram(BANK_PATHS[bank_path])
        for i in range(50):
            d.access(0, now=0)  # hammer one bank
        # Each request occupies the bank for `service` cycles.
        assert d.free_at[(0 >> d.line_shift) % d.num_banks] == 50 * 10
        assert d.total_queue_cycles == sum(10 * i for i in range(50))


class TestBatchDrain:
    """``access_n`` drains a batch of DRAM misses with the per-request
    bookkeeping hoisted into locals; it must be bit-identical to the
    same addresses issued through ``access`` one by one — bank state,
    statistics, jitter stream and completion time — for any batch, any
    ``now`` and either bank mapping."""

    @settings(max_examples=60, deadline=None)
    @given(
        addrs=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=80),
        now=st.integers(0, 10_000),
        jitter=st.sampled_from([0, 9]),
        channels=st.sampled_from([2, 3]),   # mask and modulo bank paths
    )
    def test_access_n_matches_scalar(self, addrs, now, jitter, channels):
        scalar = make_dram(channels, dram_banks=4, dram_jitter=jitter)
        batch = make_dram(channels, dram_banks=4, dram_jitter=jitter)
        worst = max(scalar.access(a, now) for a in addrs)
        assert batch.access_n(addrs, now) == worst
        assert dram_state(batch) == dram_state(scalar)

    @settings(max_examples=30, deadline=None)
    @given(
        batches=st.lists(
            st.tuples(
                st.lists(st.integers(0, 1 << 18), min_size=1, max_size=20),
                st.integers(0, 200),
            ),
            min_size=1, max_size=10,
        )
    )
    def test_interleaved_batches_keep_jitter_stream(self, batches):
        # Alternating scalar access() and batched access_n() calls on
        # one model must walk the same LCG stream and bank state as a
        # purely scalar model.
        cfg = GPUConfig(dram_channels=2, dram_banks=2)
        scalar = DRAMModel(cfg)
        mixed = DRAMModel(cfg)
        now = 0
        for addrs, dt in batches:
            now += dt
            assert mixed.access(addrs[0], now) == scalar.access(addrs[0], now)
            worst = max(scalar.access(a, now) for a in addrs)
            assert mixed.access_n(addrs, now) == worst
        assert dram_state(mixed) == dram_state(scalar)

    def test_same_bank_runs_flush_between_banks(self):
        # Runs of consecutive same-bank requests keep that bank's state
        # in locals; switching banks (and coming back) must write it
        # back so the later run sees the earlier run's queueing.
        scalar = make_dram()
        batch = make_dram()
        nb = scalar.num_banks
        addrs = [0, 0, 0, 128, 128, 0, 2048 * nb, 128, 0]
        worst = max(scalar.access(a, 5) for a in addrs)
        assert batch.access_n(addrs, 5) == worst
        assert dram_state(batch) == dram_state(scalar)

    def test_empty_batch_is_a_no_op(self):
        d = make_dram(dram_jitter=9)
        d.access(0, 0)
        before = dram_state(d)
        assert d.access_n([], 100) == 0
        assert dram_state(d) == before

    def test_long_batch_matches_scalar(self):
        cfg = GPUConfig(dram_channels=2, dram_banks=2)
        scalar = DRAMModel(cfg)
        batch = DRAMModel(cfg)
        addrs = list(range(0, 300 * 128, 128))
        worst = max(scalar.access(a, 5) for a in addrs)
        assert batch.access_n(addrs, 5) == worst
        assert dram_state(batch) == dram_state(scalar)

    def test_reset_mutates_buffers_in_place(self):
        # The fast memory front end holds direct references to
        # ``free_at`` / ``open_row``; reset must clear them in place.
        d = DRAMModel(GPUConfig(dram_channels=2, dram_banks=2))
        free, rows = d.free_at, d.open_row
        d.access_n(list(range(0, 64 * 128, 128)), 0)
        d.reset()
        assert d.free_at is free and d.open_row is rows
        assert list(free) == [0] * d.num_banks
        assert list(rows) == [-1] * d.num_banks
        assert d._jitter_state == 1
