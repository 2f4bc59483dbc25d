"""DRAM model: channels x banks, open-row policy, bank queueing.

This is where the *variable* stall latency of the paper's model comes
from: a request's completion time depends on whether it hits the bank's
open row and on how backed up the bank is (queueing delay), so the same
static instruction sees a distribution of latencies — the random
variable ``M`` of Section IV-A.  Row-buffer locality plus
oldest-first service per bank approximates FR-FCFS (Table V) at the
fidelity the sampling study needs.
"""

from __future__ import annotations

from repro.config import GPUConfig


class DRAMModel:
    """Banked DRAM with open-row tracking and per-bank service queues.

    Each (channel, bank) pair keeps the currently open row and the time
    the bank is next free.  A request at time ``now``:

    * waits until the bank is free (queueing delay),
    * pays the base access latency, plus the row-miss penalty if it does
      not hit the open row,
    * occupies the bank for ``dram_service`` cycles (burst transfer),
      which is what creates queueing under load.

    ``bank_mask`` is precomputed at construction: when the bank count is
    a power of two the line-to-bank map is a single AND instead of a
    modulo (the Table V geometry, 6 channels x 16 banks = 96, takes the
    modulo path; power-of-two configs take the mask).
    """

    __slots__ = (
        "num_banks",
        "bank_mask",
        "base_latency",
        "row_miss_penalty",
        "service",
        "line_shift",
        "row_shift",
        "open_row",
        "free_at",
        "requests",
        "row_hits",
        "total_queue_cycles",
        "jitter",
        "_jitter_state",
    )

    def __init__(self, config: GPUConfig):
        self.num_banks = config.dram_channels * config.dram_banks
        # 0 marks "not a power of two: use modulo"; the truthiness test
        # is unambiguous because a real mask is never 0 (num_banks == 1
        # maps every line to bank 0 via modulo just as correctly).
        self.bank_mask = (
            self.num_banks - 1
            if self.num_banks & (self.num_banks - 1) == 0 and self.num_banks > 1
            else 0
        )
        self.base_latency = config.dram_latency
        self.row_miss_penalty = config.dram_row_miss_penalty
        self.service = config.dram_service
        self.line_shift = config.l2_line.bit_length() - 1
        self.row_shift = config.dram_row_bytes.bit_length() - 1
        # Per-access latency jitter (0..jitter-1 cycles) from a
        # deterministic LCG.  Real DRAM timing varies by a few cycles
        # per access (refresh, command scheduling); without it, launches
        # of perfectly uniform thread blocks stay phase-locked in waves
        # for thousands of cycles, which no real machine does.
        self.jitter = config.dram_jitter
        self.open_row = [-1] * self.num_banks
        self.free_at = [0] * self.num_banks
        self.requests = 0
        self.row_hits = 0
        self.total_queue_cycles = 0
        self._jitter_state = 1

    def access(self, addr: int, now: int) -> int:
        """Issue one line-sized request; return its completion time."""
        line = addr >> self.line_shift
        mask = self.bank_mask
        bank = line & mask if mask else line % self.num_banks
        row = addr >> self.row_shift
        free = self.free_at[bank]
        start = free if free > now else now
        queue = start - now

        latency = self.base_latency
        if self.jitter:
            self._jitter_state = (
                self._jitter_state * 1103515245 + 12345
            ) & 0x7FFFFFFF
            latency += (self._jitter_state >> 16) % self.jitter
        if self.open_row[bank] == row:
            self.row_hits += 1
        else:
            latency += self.row_miss_penalty
            self.open_row[bank] = row

        self.free_at[bank] = start + self.service
        self.requests += 1
        self.total_queue_cycles += queue
        return start + latency

    def access_n(self, addrs, now: int) -> int:
        """Issue the byte addresses in order; return the completion time
        of the slowest request.

        Bit-identical in bank state, statistics and jitter stream to
        issuing the same addresses through :meth:`access` one by one,
        with the per-request bookkeeping amortized: all model parameters
        are hoisted into locals once per batch, statistics accumulate in
        locals flushed once, and runs of consecutive requests to the
        *same* bank keep that bank's ``free_at``/``open_row`` in locals,
        writing the lists only when the batch moves to another bank.
        """
        free_at = self.free_at
        open_row = self.open_row
        mask = self.bank_mask
        num_banks = self.num_banks
        line_shift = self.line_shift
        row_shift = self.row_shift
        base_latency = self.base_latency
        row_miss_penalty = self.row_miss_penalty
        service = self.service
        jitter = self.jitter
        state = self._jitter_state
        row_hits = 0
        queue = 0
        worst = 0
        last_bank = -1
        last_free = 0
        last_row = -1
        for addr in addrs:
            line = addr >> line_shift
            bank = line & mask if mask else line % num_banks
            if bank != last_bank:
                if last_bank >= 0:
                    free_at[last_bank] = last_free
                    open_row[last_bank] = last_row
                last_free = free_at[bank]
                last_row = open_row[bank]
                last_bank = bank
            row = addr >> row_shift
            start = last_free if last_free > now else now
            queue += start - now
            latency = base_latency
            if jitter:
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                latency += (state >> 16) % jitter
            if last_row == row:
                row_hits += 1
            else:
                latency += row_miss_penalty
                last_row = row
            last_free = start + service
            done = start + latency
            if done > worst:
                worst = done
        if last_bank >= 0:
            free_at[last_bank] = last_free
            open_row[last_bank] = last_row
        self.requests += len(addrs)
        self.row_hits += row_hits
        self.total_queue_cycles += queue
        self._jitter_state = state
        return worst

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.requests if self.requests else 0.0

    @property
    def mean_queue_delay(self) -> float:
        return self.total_queue_cycles / self.requests if self.requests else 0.0

    def reset(self, keep_stats: bool = False) -> None:
        """Close all rows and clear bank timing (between launches).

        Mutates the bank lists in place rather than rebinding them:
        the fast memory front end keeps direct references to these
        lists, which must survive a reset."""
        self.open_row[:] = [-1] * self.num_banks
        self.free_at[:] = [0] * self.num_banks
        self._jitter_state = 1
        if not keep_stats:
            self.requests = 0
            self.row_hits = 0
            self.total_queue_cycles = 0


__all__ = ["DRAMModel"]
