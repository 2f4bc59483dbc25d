"""Event-driven multi-SM timing simulator.

The engine keeps one global event heap of (cycle, sm) issue slots.
Popping an event issues at least one warp instruction on that SM — from
its earliest-ready resident warp — then reschedules the SM for
``max(cycle + 1, next warp ready)``.  Cost is therefore
O(instructions x log) with idle cycles skipped by construction, per the
HPC guideline of spending time only where work happens.

Two engines share the same dispatch/retire/sampling machinery and are
bit-identical by construction:

* ``"reference"`` — the original per-instruction loop: one heap event,
  one warp instruction.  Warp state is materialized as plain Python
  lists, converted per thread block from the numpy trace.
* ``"compact"`` (default) — the interned, segment-compacted hot path:

  - **trace interning**: each unique warp trace (keyed by the identity
    of its shared ``op``/``bb`` arrays) is converted to list form once
    per simulator lifetime — relaunches reuse the tables — and the
    immutable :class:`_TraceTable` is shared across every warp
    executing that trace; only ``pc`` and the memory-operand slices
    stay per-warp;
  - **segment compaction**: per unique trace, run lengths of
    consecutive non-memory instructions carry a prefix-sum of
    issue-to-issue stall deltas, so one heap event can retire a whole
    segment wherever that is provably timing-equivalent (bounded by the
    SM's next-ready warp and — whenever shared state could observe the
    difference — the next global event);
  - **windowed issue**: one global event per SM *window*; the SM's
    warp pool (a per-SM binary heap in the specialized no-hooks loop)
    is simulated in a tight local loop that defers back to the global
    heap only at *barrier* instructions (memory ops, block-retiring
    final instructions, hook-observed issues);
  - **observability**: :class:`SimCounters` tallies events, heap
    pushes, segment/interning hits and memory-batching engagement and
    is attached to the :class:`LaunchResult`.

The timing-equivalence argument lives in DESIGN.md ("Simulator hot
path"); ``tests/test_sim_compaction.py`` property-checks the two
engines against each other.

Sampling support (Section IV-B2):

* an optional :class:`~repro.sim.sampler_hooks.DispatchSampler` decides
  at dispatch time whether each thread block is simulated or skipped
  (fast-forward), and observes retirements;
* *sampling units* are tracked as the paper defines them — the interval
  between the dispatch and retirement of a *specified* thread block
  (first dispatched block at start; a new one is specified after each
  retirement) — and reported to the sampler;
* an optional :class:`FixedUnitRecorder` slices the run into
  fixed-instruction-count units with per-unit IPC and basic-block
  vectors, which is what the Random and Ideal-SimPoint baselines consume.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from heapq import heapify, heappop, heappush, heapreplace

import numpy as np

from repro.config import GPUConfig
from repro.sim.memory import MEMORY_FRONT_ENDS, make_memory
from repro.sim.sampler_hooks import DispatchSampler
from repro.trace import STALL_CYCLES, LaunchTrace, is_dram_op
from repro.trace.blocktrace import BlockTrace

_INF = float("inf")

#: Upper bound on distinct interned traces kept per launch; launches in
#: this reproduction have a handful of unique skeletons, so the cap only
#: guards against pathological synthetic inputs.
_INTERN_CACHE_MAX = 1024

#: Below this many instructions a Python loop beats ``np.bincount`` for
#: accumulating a segment's basic-block counts.
_BINCOUNT_MIN = 24


@dataclass
class SimCounters:
    """Hot-loop statistics of one ``run_launch`` call (compact engine).

    Attached to :class:`LaunchResult.counters`; useful for verifying
    that the fast paths actually engage on a given workload before
    reading anything into a benchmark number.
    """

    events_popped: int = 0
    heap_pushes: int = 0
    segment_hits: int = 0
    segment_insts: int = 0
    interning_hits: int = 0
    interning_misses: int = 0
    rounds_sorted: int = 0
    #: Warp memory instructions issued and the line transactions they
    #: expanded to (``mem_txns / mem_insts`` = transactions per memory
    #: instruction, the batching exposure of the launch).
    mem_insts: int = 0
    mem_txns: int = 0
    #: Memory-front-end fast-path engagement, snapshotted from the
    #: hierarchy's own counters across this run: multi-transaction
    #: batched ``load`` calls, same-line transactions resolved without
    #: cache operations, and per-level hits inside batched calls.  All
    #: zero under the reference front end (no fast path exists there).
    mem_batches: int = 0
    mem_dedup_txns: int = 0
    mem_batch_l1_hits: int = 0
    mem_batch_l2_hits: int = 0
    #: Thread blocks re-synthesized because the launch's block-memo
    #: window (``LaunchTrace.block_memo``) had already evicted them —
    #: the per-run re-synthesis thrash of >window-block launches.  Zero
    #: when the window covers the launch (e.g. the resident traces a
    #: long-lived ``repro serve`` process keeps warm).
    block_regenerations: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class _TraceTable:
    """Immutable per-unique-trace data, shared by every warp running it.

    ``cum[k]`` is the prefix sum of issue-to-issue deltas
    ``max(stall, 1)``: within a run of non-memory instructions starting
    at ``pc`` whose first issue happens at cycle ``t``, instruction
    ``k`` issues at ``t + cum[k] - cum[pc]`` (the event-driven
    recurrence ``T_k = max(T_{k-1} + 1, done_{k-1})`` collapses to it).
    The deltas are only ever differenced between two indices of the
    same non-memory run, so the values stored at memory positions are
    irrelevant.

    ``batchable`` is False when any non-memory instruction has a static
    stall of 0 (possible only for degenerate unvalidated traces where a
    DRAM op carries ``mem_req == 0``); such tables always take the
    per-instruction path because the prefix sum would over-charge the
    zero-stall instructions.
    """

    __slots__ = (
        "n", "stall", "cum", "bb", "bb_np", "pos", "pos_np", "m",
        "batchable", "_refs",
    )

    def __init__(self, op: np.ndarray, bb: np.ndarray, pos_np: np.ndarray):
        stall_np = STALL_CYCLES[op]
        n = len(op)
        self.n = n
        self.stall = stall_np.tolist()
        self.pos_np = pos_np
        self.pos = pos_np.tolist()
        self.m = len(self.pos)
        self.bb_np = bb
        self.bb = bb.tolist()
        cum = np.empty(n + 1, dtype=np.int64)
        cum[0] = 0
        np.cumsum(np.maximum(stall_np, 1), out=cum[1:])
        self.cum = cum.tolist()
        nonmem = np.ones(n, dtype=bool)
        nonmem[pos_np] = False
        self.batchable = bool((stall_np[nonmem] >= 1).all()) if n else True
        # Keep the keyed arrays alive: the interning cache keys on
        # id(op)/id(bb), which is only sound while those objects exist.
        self._refs = (op, bb)


class _WarpState:
    """Cold per-warp state of the compact engine.

    The hot loop works on mutable *pool entries* — plain lists
    ``[ready, seq, warp, pc, stall, next_mem_pc, n, mi]`` that sort by
    ``(ready, seq)`` and are reused across re-queues (no per-issue tuple
    allocation).  This object carries everything the entry does not:
    shared :class:`_TraceTable` fields aliased by pointer copy, the
    per-warp memory operands gathered at the trace's memory positions
    (O(m) instead of O(5n) list conversion per dispatch), and the
    owning thread block.
    """

    __slots__ = (
        "n", "m", "stall", "cum", "pos", "bb", "bb_np",
        "batchable", "mreq", "maddr", "mspread", "tb",
    )

    def __init__(self, tbl: _TraceTable, mreq, maddr, mspread, tb: "_TBState"):
        self.n = tbl.n
        self.m = tbl.m
        self.stall = tbl.stall
        self.cum = tbl.cum
        self.pos = tbl.pos
        self.bb = tbl.bb
        self.bb_np = tbl.bb_np
        self.batchable = tbl.batchable
        self.mreq = mreq
        self.maddr = maddr
        self.mspread = mspread
        self.tb = tb


class _LegacyWarpState:
    """Per-warp state of the reference engine: full per-warp lists."""

    __slots__ = ("pc", "n", "stall", "memreq", "addr", "spread", "bb", "tb")

    def __init__(self, trace, tb: "_TBState"):
        op = trace.op
        # Static scoreboard stall per instruction; 0 marks DRAM-bound
        # memory ops whose latency the hierarchy computes dynamically.
        self.stall = STALL_CYCLES[op].tolist()
        self.memreq = trace.mem_req.tolist()
        self.addr = trace.addr.tolist()
        self.spread = trace.spread.tolist()
        self.bb = trace.bb.tolist()
        self.pc = 0
        self.n = len(op)
        self.tb = tb


class _TBState:
    """Mutable per-thread-block state."""

    __slots__ = ("tb_id", "live")

    def __init__(self, tb_id: int, num_warps: int):
        self.tb_id = tb_id
        self.live = num_warps


@dataclass
class UnitRecord:
    """One fixed-size sampling unit of a full simulation run."""

    start_cycle: int
    end_cycle: int
    insts: int
    bbv: np.ndarray | None = None

    @property
    def cycles(self) -> int:
        return max(1, self.end_cycle - self.start_cycle)

    @property
    def ipc(self) -> float:
        """Machine-wide IPC of the unit."""
        return self.insts / self.cycles

    @property
    def cpi(self) -> float:
        return self.cycles / self.insts


class FixedUnitRecorder:
    """Slices a run into units of ``unit_insts`` machine-wide warp
    instructions, recording per-unit IPC and (optionally) the BBV.

    This reproduces the measurement the paper's baselines need: "we
    collect IPC for every sampling unit with one million instructions"
    (Random) and "we collect the BBV and IPC for every sampling unit"
    (Ideal-SimPoint).
    """

    def __init__(self, unit_insts: int, num_bbs: int, record_bbv: bool = True):
        if unit_insts < 1:
            raise ValueError("unit_insts must be positive")
        if num_bbs < 1:
            raise ValueError("num_bbs must be positive")
        self.unit_insts = unit_insts
        self.num_bbs = num_bbs
        self.record_bbv = record_bbv
        self.units: list[UnitRecord] = []
        self._start = 0
        self.cur_bbv = np.zeros(num_bbs, dtype=np.int64)

    def flush(self, now: int, insts: int) -> np.ndarray:
        """Close the current unit at cycle ``now`` with ``insts``
        instructions and open the next one.  Returns the fresh (zeroed)
        accumulator so hot loops can rebind their local BBV view from
        the return value instead of re-reading ``cur_bbv``."""
        bbv = None
        if self.record_bbv:
            bbv = self.cur_bbv
            self.cur_bbv = np.zeros(self.num_bbs, dtype=np.int64)
        self.units.append(
            UnitRecord(start_cycle=self._start, end_cycle=now, insts=insts, bbv=bbv)
        )
        self._start = now
        return self.cur_bbv

    def finalize(self, now: int, leftover: int) -> None:
        """Close a trailing partial unit, if any instructions remain."""
        if leftover > 0:
            self.flush(now, leftover)

    @property
    def ipcs(self) -> np.ndarray:
        return np.array([u.ipc for u in self.units])

    @property
    def cpis(self) -> np.ndarray:
        return np.array([u.cpi for u in self.units])

    @property
    def inst_counts(self) -> np.ndarray:
        return np.array([u.insts for u in self.units], dtype=np.int64)

    def bbv_matrix(self, normalize: bool = True) -> np.ndarray:
        """(num_units, num_bbs) matrix of basic-block vectors; rows are
        normalized by the unit's instruction count (Eq. 1's BBV)."""
        if not self.record_bbv:
            raise ValueError("recorder was created with record_bbv=False")
        mat = np.stack([u.bbv for u in self.units]).astype(np.float64)
        if normalize:
            totals = mat.sum(axis=1, keepdims=True)
            totals[totals == 0] = 1.0
            mat /= totals
        return mat


@dataclass
class LaunchResult:
    """Timing result of one (possibly sampled) launch simulation."""

    launch_id: int
    issued_warp_insts: int
    wall_cycles: int
    per_sm_issued: list[int]
    per_sm_busy_cycles: list[int]
    skipped_warp_insts: int = 0
    extra_cycles: float = 0.0
    mem_stats: dict = field(default_factory=dict)
    counters: SimCounters | None = None

    @property
    def machine_ipc(self) -> float:
        """Measured machine-wide IPC (issued instructions / wall cycles),
        counting only simulated work."""
        return self.issued_warp_insts / max(1, self.wall_cycles)

    @property
    def per_sm_ipc_sum(self) -> float:
        """The paper's Fig. 9 overall-IPC definition:
        sum over SMs of warp_insts_k / cycles_k."""
        return sum(
            i / c for i, c in zip(self.per_sm_issued, self.per_sm_busy_cycles) if c > 0
        )

    @property
    def total_warp_insts(self) -> int:
        """Simulated plus fast-forwarded warp instructions — equals the
        launch's functional instruction count."""
        return self.issued_warp_insts + self.skipped_warp_insts

    @property
    def est_cycles(self) -> float:
        """Estimated cycles for the whole launch: measured wall cycles
        plus the predicted time of fast-forwarded regions (Table IV)."""
        return self.wall_cycles + self.extra_cycles

    @property
    def est_ipc(self) -> float:
        """Estimated machine IPC for the whole launch."""
        return self.total_warp_insts / max(1.0, self.est_cycles)

    @property
    def sampled_fraction(self) -> float:
        """Fraction of the launch's warp instructions actually simulated
        (the Fig. 10 sample-size numerator for this launch)."""
        total = self.total_warp_insts
        return self.issued_warp_insts / total if total else 0.0


class GPUSimulator:
    """Trace-driven, event-driven multi-SM GPU timing simulator.

    ``engine`` selects the hot-loop implementation: ``"compact"`` (the
    default interned/segment-compacted path) or ``"reference"`` (the
    original per-instruction loop).  ``mem_front_end`` independently
    selects the memory hierarchy implementation: ``"fast"`` (the
    default batched front end) or ``"reference"`` (the pre-fast-path
    oracle).  All engine x front-end combinations produce bit-identical
    :class:`LaunchResult`\\ s; the reference engine sets ``counters``
    to ``None``.
    """

    ENGINES = ("compact", "reference")
    MEM_FRONT_ENDS = tuple(MEMORY_FRONT_ENDS)

    def __init__(
        self,
        config: GPUConfig | None = None,
        engine: str = "compact",
        mem_front_end: str = "fast",
    ):
        if engine not in self.ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {self.ENGINES}")
        self.config = config or GPUConfig()
        self.engine = engine
        self.mem_front_end = mem_front_end
        self.mem = make_memory(self.config, mem_front_end)
        # Simulator-lifetime trace interning (compact engine): tables
        # survive across run_launch calls, so re-simulating a launch —
        # or simulating the near-identical relaunches TBPoint's
        # inter-launch homogeneity premise expects — skips conversion
        # entirely.  Keyed by (id(op), id(bb)); each entry holds the op
        # array itself (bb is held by the table), so a live entry pins
        # its arrays and the ids cannot be recycled into stale hits.
        self._intern_cache: OrderedDict = OrderedDict()

    def run_launch(
        self,
        launch: LaunchTrace,
        sampler: DispatchSampler | None = None,
        recorder: FixedUnitRecorder | None = None,
        reset_memory: bool = True,
        engine: str | None = None,
    ) -> LaunchResult:
        """Simulate one kernel launch.

        Parameters
        ----------
        launch:
            The launch trace; thread blocks are dispatched greedily in
            ID order, round-robin across SMs.
        sampler:
            Optional intra-launch sampler (TBPoint's homogeneous-region
            sampling).  ``None`` simulates everything at full speed.
        recorder:
            Optional fixed-size-unit recorder (baseline measurement).
        reset_memory:
            Invalidate caches and DRAM bank state first, making every
            launch's timing independent of simulation order (required
            for representative-launch sampling to be meaningful).
        engine:
            Per-call engine override (``"compact"`` / ``"reference"``).
        """
        engine = engine or self.engine
        if engine == "reference":
            return self._run_launch_reference(launch, sampler, recorder, reset_memory)
        if engine != "compact":
            raise ValueError(f"unknown engine {engine!r}; choose from {self.ENGINES}")
        return self._run_launch_compact(launch, sampler, recorder, reset_memory)

    # ------------------------------------------------------------------
    # Compact engine: interned traces + segment-compacted issue loop.
    # ------------------------------------------------------------------

    def _run_launch_compact(
        self,
        launch: LaunchTrace,
        sampler: DispatchSampler | None,
        recorder: FixedUnitRecorder | None,
        reset_memory: bool,
    ) -> LaunchResult:
        cfg = self.config
        if reset_memory:
            self.mem.reset()
        num_sms = cfg.num_sms
        occ = cfg.sm_occupancy(launch.warps_per_block)
        num_blocks = launch.num_blocks

        # Per-SM warp pool.  Entries are mutable lists
        # ``[ready, seq, warp, pc, stall, stop_pc, n, mi]`` reused
        # across re-queues; ``seq`` is globally unique, so comparisons
        # never reach the warp object.  ``stop_pc`` is the next pc that
        # needs special handling — the warp's next memory instruction or
        # its final instruction, whichever comes first — so the hot loop
        # pays one comparison for both cases.
        #
        # Dispatch stages fresh entries in ``nxts[si]`` (min ready time
        # in ``nxtmins[si]``).  The specialized no-hooks loop converts
        # the staged entries into per-SM binary heaps and keeps them
        # there; the general loop (sampler / recorder / lrr) consumes a
        # *round* structure instead: ``rnds[si]`` is a sorted list read
        # through cursor ``ris[si]``, re-queues collect unsorted in
        # ``nxts[si]``, and the two merge whenever a re-queued entry
        # ties or beats the sorted head (``nxtmin <= head.ready``) — so
        # extraction order equals heap order in both cases.
        rnds: list[list] = [[] for _ in range(num_sms)]
        ris = [0] * num_sms
        nxts: list[list] = [[] for _ in range(num_sms)]
        nxtmins = [_INF] * num_sms
        resident = [0] * num_sms
        per_sm_issued = [0] * num_sms
        per_sm_last = [-1] * num_sms

        # Dispatch bookkeeping (mutated by closures below).
        next_tb = 0
        dispatch_free = 0  # the global scheduler issues one block at a time
        seq_counter = 0
        specified_tb = -1
        unit_t0 = 0
        unit_i0 = 0
        issued = 0

        get_block = launch.block
        regen0 = launch.regenerations
        has_sampler = sampler is not None

        # Trace interning: unique warp traces are keyed by the identity
        # of their (op, bb) arrays — shared across blocks by the
        # workload generator's skeleton cache — and converted to table
        # form exactly once per *simulator* (the cache lives on the
        # instance, so relaunches of the same trace skip conversion).
        # Entries are (op, table) pairs: the op reference (plus the
        # bb the table holds) pins the arrays, keeping their ids valid
        # for the cache's whole lifetime.
        intern_cache = self._intern_cache
        intern_hits = 0
        intern_misses = 0

        def make_warp(wt, tbst: _TBState) -> _WarpState:
            nonlocal intern_hits, intern_misses
            op = wt.op
            bb = wt.bb
            key = (id(op), id(bb))
            ent = intern_cache.get(key)
            if ent is None:
                intern_misses += 1
                tbl = _TraceTable(op, bb, np.flatnonzero(is_dram_op(op)))
                intern_cache[key] = (op, tbl)
                if len(intern_cache) > _INTERN_CACHE_MAX:
                    intern_cache.popitem(last=False)
            else:
                intern_hits += 1
                tbl = ent[1]
                intern_cache.move_to_end(key)
            mem_req = wt.mem_req
            # The table's memory positions assume every DRAM op carries
            # transactions.  Unvalidated traces may violate that (a
            # DRAM op with mem_req == 0 stalls statically for 0 cycles);
            # give such warps a private table keyed on actual requests.
            actual = np.flatnonzero(mem_req)
            if not np.array_equal(actual, tbl.pos_np):
                tbl = _TraceTable(op, bb, actual)
            if tbl.m:
                pos_np = tbl.pos_np
                mreq = mem_req[pos_np].tolist()
                maddr = wt.addr[pos_np].tolist()
                mspread = wt.spread[pos_np].tolist()
            else:
                mreq = maddr = mspread = ()
            return _WarpState(tbl, mreq, maddr, mspread, tbst)

        def make_block(block: BlockTrace, tbst: _TBState) -> list[_WarpState]:
            """Build all warp states of one thread block at once.

            The block's warps share one skeleton (identical ``op``/``bb``
            arrays) in every generated workload, so the memory operands
            of all warps can be gathered with three block-level fancy
            indexes instead of three per warp, and the degenerate-trace
            check collapses to two reductions.  Blocks that violate the
            shared-skeleton assumption (or carry degenerate traces) fall
            back to the per-warp path.
            """
            nonlocal intern_hits, intern_misses
            warps = block.warps
            wt0 = warps[0]
            op = wt0.op
            bb = wt0.bb
            for wt in warps:
                if wt.op is not op or wt.bb is not bb:
                    return [make_warp(wt, tbst) for wt in warps]
            nw = len(warps)
            key = (id(op), id(bb))
            ent = intern_cache.get(key)
            fresh = ent is None
            if fresh:
                tbl = _TraceTable(op, bb, np.flatnonzero(is_dram_op(op)))
                intern_cache[key] = (op, tbl)
                if len(intern_cache) > _INTERN_CACHE_MAX:
                    intern_cache.popitem(last=False)
            else:
                tbl = ent[1]
                intern_cache.move_to_end(key)
            m = tbl.m
            if m:
                mr = np.array([wt.mem_req for wt in warps])
                sub = mr[:, tbl.pos_np]
                # Exact equivalent of the per-warp flatnonzero check:
                # every tabled position carries requests and no requests
                # exist elsewhere <=> nonzero(row) == pos for every row.
                if not (sub.all() and np.count_nonzero(mr) == nw * m):
                    return [make_warp(wt, tbst) for wt in warps]
                mreqs = sub.tolist()
                pos_np = tbl.pos_np
                maddrs = np.array([wt.addr for wt in warps])[:, pos_np].tolist()
                mspreads = np.array(
                    [wt.spread for wt in warps]
                )[:, pos_np].tolist()
                out = [
                    _WarpState(tbl, mreqs[i], maddrs[i], mspreads[i], tbst)
                    for i in range(nw)
                ]
            else:
                if np.array([wt.mem_req for wt in warps]).any():
                    return [make_warp(wt, tbst) for wt in warps]
                out = [_WarpState(tbl, (), (), (), tbst) for _ in range(nw)]
            if fresh:
                intern_misses += 1
                intern_hits += nw - 1
            else:
                intern_hits += nw
            return out

        def dispatch_to(si: int, now: int) -> bool:
            """Dispatch the next non-skipped thread block to SM ``si``;
            return False when the launch is exhausted."""
            nonlocal next_tb, dispatch_free, seq_counter
            nonlocal specified_tb, unit_t0, unit_i0
            while next_tb < num_blocks:
                tb_id = next_tb
                next_tb += 1
                if has_sampler and not sampler.on_dispatch(tb_id, now, issued):
                    continue  # fast-forwarded; sampler did the accounting
                # The global scheduler issues one block every few cycles,
                # and each block's warps launch back to back: dispatch is
                # serialized, which also keeps warps from running
                # phase-locked (as they would if everything started at
                # cycle 0 of the initial fill).
                start = dispatch_free if dispatch_free > now else now
                dispatch_free = start + 4
                block: BlockTrace = get_block(tb_id)
                tbst = _TBState(tb_id, len(block.warps))
                nxt = nxts[si]
                nm = nxtmins[si]
                r0 = start
                for w in make_block(block, tbst):
                    nxt.append([
                        r0, seq_counter, w, 0, w.stall,
                        w.pos[0] if w.m else w.n - 1, w.n, 0,
                    ])
                    seq_counter += 1
                    if r0 < nm:
                        nm = r0
                    r0 += 2
                nxtmins[si] = nm
                resident[si] += 1
                if has_sampler and specified_tb < 0:
                    specified_tb = tb_id
                    unit_t0 = now
                    unit_i0 = issued
                    sampler.on_unit_start(now)
                return True
            return False

        def retire_tb(tb: _TBState, si: int, now: int) -> None:
            nonlocal specified_tb
            resident[si] -= 1
            if has_sampler:
                if tb.tb_id == specified_tb:
                    specified_tb = -1
                    sampler.on_unit_complete(
                        issued - unit_i0, max(1, now - unit_t0), now, issued
                    )
                sampler.on_retire(tb.tb_id, now, issued)
            while resident[si] < occ:
                if not dispatch_to(si, now):
                    break

        # Initial greedy fill: thread blocks go to SMs round-robin.
        for _slot in range(occ):
            for si in range(num_sms):
                if not dispatch_to(si, 0):
                    break

        event_heap: list = [(0, si) for si in range(num_sms) if nxts[si]]

        # Hot-loop local bindings.
        mem = self.mem
        mem_load = mem.load
        pop, push = heappop, heappush
        replace = heapreplace
        bisect = bisect_left
        lrr = cfg.scheduler == "lrr"
        rec = recorder
        rec_on = rec is not None
        if rec_on:
            rec_bbv = rec.cur_bbv
            rec_nbb = rec.num_bbs
            rec_unit = rec.unit_insts
            rec_left = rec_unit
            rec_flush = rec.flush
        # Without hooks, non-memory instructions of the SM's sole
        # ready warp touch only private state, so segments may run past
        # the next *global* event; with a sampler or recorder observing
        # the global instruction order, every batch must stay strictly
        # before it.  Memory ops and trace-ending retires always must
        # (shared caches / DRAM / dispatch bookkeeping).
        no_hooks = not has_sampler and not rec_on
        wall = 0

        # Counter locals (folded into SimCounters at the end).
        n_events = 0
        n_pushes = 0
        n_seg_hits = 0
        n_seg_insts = 0
        n_mem = 0
        n_txn = 0
        n_rounds = 0

        # Fast-path engagement snapshot: the hierarchy's counters are
        # cumulative over the simulator's lifetime (reset() zeroes them
        # only when reset_memory is set), so deltas are taken per run.
        mb0 = mem.batches
        md0 = mem.dedup_txns
        m1h0 = mem.batch_l1_hits
        m2h0 = mem.batch_l2_hits

        # One global event per SM *window*, not per instruction.  Warps
        # on one SM interact with the rest of the machine only through
        # (a) memory instructions (shared L2/DRAM state and its
        # access-order-dependent timing), (b) thread-block retirement
        # (global dispatch bookkeeping), and (c) sampler/recorder hooks
        # (which observe the global instruction order).  Everything else
        # is private to the SM, so a window simulates the SM's own warp
        # pool in a tight local loop and only defers back to the global
        # heap when one of those *barrier* instructions would run at or
        # past the next global event.
        barrier_all = not no_hooks

        # ---- specialized window loop: no hooks, default scheduler ----
        # The common experiment configuration (no sampler, no recorder,
        # "oldest" scheduling) gets a copy of the window loop with every
        # per-instruction conditional that is constant in that mode
        # removed: no hook accounting, no lrr sequence renumbering, and
        # the issued/busy-cycle tallies accumulate in window-local
        # variables flushed at window end instead of per instruction.
        # The window-entry exemption ("first") collapses to a constant
        # per-window defer threshold (the global heap only changes at
        # defers).  It drains the event heap completely, so the general
        # loop below is skipped; results are bit-identical to both the
        # general loop and the reference engine.
        #
        # Pool structure: each SM's warp pool is a binary heap of the
        # mutable entries — one C-level heapreplace per requeue.  Any
        # pool structure that extracts strictly in (ready, seq) order
        # yields identical results, so the choice is invisible in the
        # output; it is a pure performance decision.  The round
        # structure the general loop below uses (sorted list consumed
        # through a cursor, plus an unsorted spill) was measured
        # against the heap on all twelve registry kernels: DRAM
        # completion jitter preempts the round head on nearly every
        # memory return, degenerating rounds into per-issue
        # insorts/re-sorts, and the heap won everywhere — 0.65-0.99x
        # of the round time, worst exactly on the memory-bound kernels
        # this PR targets (DESIGN.md §8).
        if no_hooks and not lrr:
            whs = []
            for si in range(num_sms):
                wh = nxts[si]
                nxts[si] = []
                nxtmins[si] = _INF
                heapify(wh)
                whs.append(wh)
            # lint: hot
            while event_heap:
                n_events += 1
                t, si = pop(event_heap)
                wh = whs[si]
                if not wh:
                    continue
                # Barrier threshold: constant per window (the global
                # heap only changes at defers).  A barrier at t >= hbar
                # would run at/past the next global event, so it defers
                # and lets (cycle, sm) order decide, exactly as the
                # reference heap does.
                if event_heap:
                    h = event_heap[0]
                    hbar = h[0] if h[1] < si else h[0] + 1
                else:
                    hbar = _INF
                wi = 0
                wlast = -1
                while True:  # issue slots within this SM's window
                    e = wh[0]
                    r = e[0]
                    if r > t:
                        # Idle skip: flush the contiguous issue streak.
                        if wi:
                            issued += wi
                            per_sm_issued[si] += wi
                            wlast = t - 1
                            wi = 0
                        t = r
                    pc = e[3]
                    if pc == e[5]:
                        # ---- stop: next memory op or trace end -------
                        w = e[2]
                        mi = e[7]
                        if mi < w.m and w.pos[mi] == pc:
                            # Memory instruction (always a barrier).
                            if t >= hbar:
                                push(event_heap, (t, si))
                                n_pushes += 1
                                break
                            mr = w.mreq[mi]
                            done = mem_load(
                                si, w.maddr[mi], w.mspread[mi], mr, t
                            )
                            n_mem += 1
                            n_txn += mr
                            mi += 1
                            e[7] = mi
                            wi += 1
                            pc += 1
                            if pc < e[6]:
                                e[3] = pc
                                e[5] = w.pos[mi] if mi < w.m else e[6] - 1
                                e[0] = done
                                # In-place root update: if the new key
                                # stays strictly below both children
                                # (seq ties are impossible — seqs are
                                # unique), heapreplace would sift the
                                # entry straight back to the root and
                                # leave the array untouched, so skip
                                # it.  With sibling warps stalled on
                                # DRAM this is the common case.
                                n2 = len(wh)
                                if n2 > 1:
                                    bound = wh[1][0]
                                    if n2 > 2:
                                        b2 = wh[2][0]
                                        if b2 < bound:
                                            bound = b2
                                    if done >= bound:
                                        replace(wh, e)
                                t += 1
                                continue
                            pop(wh)
                            tb = w.tb
                            tb.live -= 1
                            if tb.live == 0:
                                retire_tb(tb, si, t + 1)
                                nxt = nxts[si]
                                if nxt:
                                    for x in nxt:
                                        push(wh, x)
                                    nxt.clear()
                                    nxtmins[si] = _INF
                            t += 1
                            if not wh:
                                break
                            continue
                        # Final (non-memory) instruction; a barrier only
                        # when it retires the block's last live warp.
                        tb = w.tb
                        if tb.live == 1 and t >= hbar:
                            push(event_heap, (t, si))
                            n_pushes += 1
                            break
                        pop(wh)
                        wi += 1
                        tb.live -= 1
                        if tb.live == 0:
                            retire_tb(tb, si, t + 1)
                            nxt = nxts[si]
                            if nxt:
                                for x in nxt:
                                    push(wh, x)
                                nxt.clear()
                                nxtmins[si] = _INF
                        t += 1
                        if not wh:
                            break
                        continue
                    # ---- non-memory, non-final instruction -----------
                    done = t + e[4][pc]
                    pc1 = pc + 1
                    # Segment bound: the pool's next-ready entry after e
                    # is the smaller of the root's children (e is still
                    # at the root).  The same bound doubles as the
                    # in-place-root test: while the updated key stays
                    # strictly below both children (seq ties impossible,
                    # seqs are unique), heapreplace would return the
                    # entry to the root without moving anything else,
                    # so the heap is left untouched.
                    n2 = len(wh)
                    if n2 > 1:
                        bound = wh[1][0]
                        if n2 > 2:
                            b2 = wh[2][0]
                            if b2 < bound:
                                bound = b2
                    else:
                        bound = _INF
                    if done < bound:
                        w = e[2]
                        if w.batchable:
                            cum = w.cum
                            limit = e[5]
                            base = cum[pc]
                            idx = pc1
                            if idx < limit:
                                idx = bisect(
                                    cum, base + bound - t, idx + 1, limit
                                )
                            u = idx - pc
                            if u >= 2:
                                n_seg_hits += 1
                                n_seg_insts += u
                                done = t + cum[idx] - base
                                e[3] = idx
                                e[0] = done
                                if done >= bound:
                                    replace(wh, e)
                                wi += u
                                t = t + cum[idx - 1] - base + 1
                                continue
                        e[3] = pc1
                        e[0] = done
                        wi += 1
                        t += 1
                        continue
                    e[3] = pc1
                    e[0] = done
                    replace(wh, e)
                    wi += 1
                    t += 1

                if wi:
                    issued += wi
                    per_sm_issued[si] += wi
                    wlast = t - 1
                if wlast >= 0:
                    per_sm_last[si] = wlast
                    if wlast > wall:
                        wall = wlast

        # lint: hot
        while event_heap:
            n_events += 1
            t, si = pop(event_heap)
            rnd = rnds[si]
            ri = ris[si]
            rlen = len(rnd)
            nxt = nxts[si]
            # The spill list's identity never changes within a window
            # (only cleared and refilled), so its bound methods are
            # looked up once per window, not once per issue slot.
            nxt_append = nxt.append
            nxt_clear = nxt.clear
            nxtmin = nxtmins[si]
            first = True
            last_t = -1
            while True:  # issue slots within this SM's window
                # ---- extract the pool minimum ------------------------
                if ri == rlen:
                    if not nxt:
                        break  # SM drained; nothing left to schedule
                    # Round rebuild: one allocation per *round*, not
                    # per issue slot — the amortized cost the round
                    # structure is built on.
                    rnd = sorted(nxt)  # lint: disable=HOT002
                    nxt_clear()
                    rnds[si] = rnd
                    ri = 0
                    rlen = len(rnd)
                    nxtmin = _INF
                    n_rounds += 1
                e = rnd[ri]
                if nxt and nxtmin <= e[0]:
                    # A re-queued entry ties or beats the sorted head:
                    # merge so (ready, seq) order is preserved exactly.
                    # Same once-per-round amortization as above.
                    rnd = sorted(rnd[ri:] + nxt)  # lint: disable=HOT002
                    nxt_clear()
                    rnds[si] = rnd
                    ri = 0
                    rlen = len(rnd)
                    nxtmin = _INF
                    n_rounds += 1
                    e = rnd[0]
                r = e[0]
                if r > t:
                    # Idle skip within the SM: the next slot time moved;
                    # it no longer holds the priority the popped event
                    # had, so barriers must be re-validated.
                    t = r
                    first = False
                pc = e[3]
                if pc == e[5]:
                    # ---- stop instruction: next memory op or trace end
                    w = e[2]
                    mi = e[7]
                    if mi < w.m and w.pos[mi] == pc:
                        # Memory instruction (always a barrier).
                        if not first:
                            eh = event_heap
                            if eh and eh[0][0] <= t:
                                # Would run at/past the next global
                                # event: leave the entry unconsumed and
                                # let global order decide (ties break on
                                # SM id, as the reference heap does).
                                push(eh, (t, si))
                                n_pushes += 1
                                break
                        first = False
                        ri += 1
                        mr = w.mreq[mi]
                        done = mem_load(
                            si, w.maddr[mi], w.mspread[mi], mr, t
                        )
                        n_mem += 1
                        n_txn += mr
                        mi += 1
                        e[7] = mi
                        issued += 1
                        per_sm_issued[si] += 1
                        last_t = t
                        if rec_on:
                            rec_bbv[w.bb[pc]] += 1
                            rec_left -= 1
                            if rec_left == 0:
                                rec_bbv = rec_flush(t + 1, rec_unit)
                                rec_left = rec_unit
                        pc += 1
                        if pc < e[6]:
                            e[3] = pc
                            e[5] = w.pos[mi] if mi < w.m else e[6] - 1
                            if lrr:
                                e[1] = seq_counter
                                seq_counter += 1
                            e[0] = done
                            nxt_append(e)
                            if done < nxtmin:
                                nxtmin = done
                        else:
                            tb = w.tb
                            tb.live -= 1
                            if tb.live == 0:
                                nxtmins[si] = nxtmin
                                retire_tb(tb, si, t + 1)
                                nxtmin = nxtmins[si]
                        t += 1
                        continue
                    # Final (non-memory) instruction: retiring the
                    # block's last live warp mutates global dispatch
                    # state (a barrier).
                    tb = w.tb
                    if (barrier_all or tb.live == 1) and not first:
                        eh = event_heap
                        if eh and eh[0][0] <= t:
                            push(eh, (t, si))
                            n_pushes += 1
                            break
                    first = False
                    ri += 1
                    issued += 1
                    per_sm_issued[si] += 1
                    last_t = t
                    if rec_on:
                        rec_bbv[w.bb[pc]] += 1
                        rec_left -= 1
                        if rec_left == 0:
                            rec_bbv = rec_flush(t + 1, rec_unit)
                            rec_left = rec_unit
                    tb.live -= 1
                    if tb.live == 0:
                        nxtmins[si] = nxtmin
                        retire_tb(tb, si, t + 1)
                        nxtmin = nxtmins[si]
                    t += 1
                    continue
                # ---- non-memory, non-final instruction ---------------
                if barrier_all and not first:
                    eh = event_heap
                    if eh and eh[0][0] <= t:
                        push(eh, (t, si))
                        n_pushes += 1
                        break
                done = t + e[4][pc]
                pc1 = pc + 1
                first = False
                ri += 1
                # Segment extension: bounded by the SM's next-ready
                # entry — minimum over both pool halves — and, when
                # hooks observe the global order, the next global event.
                if ri < rlen:
                    bound = rnd[ri][0]
                    if nxtmin < bound:
                        bound = nxtmin
                else:
                    bound = nxtmin  # _INF when nothing is queued
                if barrier_all and event_heap:
                    e2 = event_heap[0][0]
                    if e2 < bound:
                        bound = e2
                if done < bound:
                    w = e[2]
                    if w.batchable:
                        cum = w.cum
                        # The stop pc caps the batch: memory ops and the
                        # final instruction always take their own slot
                        # (they are barriers with their own defer rules).
                        limit = e[5]
                        base = cum[pc]
                        idx = pc1
                        if idx < limit:
                            idx = bisect(cum, base + bound - t, idx + 1, limit)
                        u = idx - pc
                        if u >= 2:
                            n_seg_hits += 1
                            n_seg_insts += u
                            last_t = t + cum[idx - 1] - base
                            done = t + cum[idx] - base
                            issued += u
                            per_sm_issued[si] += u
                            if rec_on:
                                bb = w.bb
                                j = pc
                                while j < idx:
                                    take = idx - j
                                    if take > rec_left:
                                        take = rec_left
                                    if take < _BINCOUNT_MIN:
                                        for b in bb[j:j + take]:
                                            rec_bbv[b] += 1
                                    else:
                                        # Amortized over >= _BINCOUNT_MIN
                                        # instructions; the vectorized
                                        # tally beats the scalar loop
                                        # despite the temporary.
                                        # lint: disable=HOT002
                                        rec_bbv += np.bincount(
                                            w.bb_np[j:j + take],
                                            minlength=rec_nbb,
                                        )
                                    rec_left -= take
                                    j += take
                                    if rec_left == 0:
                                        rec_bbv = rec_flush(
                                            t + cum[j - 1] - base + 1, rec_unit
                                        )
                                        rec_left = rec_unit
                            if lrr:
                                # One fresh sequence number per notional
                                # re-queue within the batch.
                                seq_counter += u
                                e[1] = seq_counter - 1
                            e[3] = idx
                            e[0] = done
                            nxt_append(e)
                            if done < nxtmin:
                                nxtmin = done
                            t = last_t + 1
                            continue
                # Single non-final issue (covers degenerate zero-stall
                # traces, whose raw ``done = t + stall`` is exact).
                issued += 1
                per_sm_issued[si] += 1
                last_t = t
                if rec_on:
                    rec_bbv[e[2].bb[pc]] += 1
                    rec_left -= 1
                    if rec_left == 0:
                        rec_bbv = rec_flush(t + 1, rec_unit)
                        rec_left = rec_unit
                e[3] = pc1
                if lrr:
                    e[1] = seq_counter
                    seq_counter += 1
                e[0] = done
                nxt_append(e)
                if done < nxtmin:
                    nxtmin = done
                t += 1

            ris[si] = ri
            nxtmins[si] = nxtmin
            if last_t >= 0:
                per_sm_last[si] = last_t
                if last_t > wall:
                    wall = last_t

        wall += 1  # the last issue occupies its cycle
        if has_sampler:
            sampler.finalize(wall, issued)
        if rec_on:
            rec.finalize(wall, rec.unit_insts - rec_left)

        counters = SimCounters(
            events_popped=n_events,
            heap_pushes=n_pushes,
            segment_hits=n_seg_hits,
            segment_insts=n_seg_insts,
            interning_hits=intern_hits,
            interning_misses=intern_misses,
            rounds_sorted=n_rounds,
            mem_insts=n_mem,
            mem_txns=n_txn,
            mem_batches=mem.batches - mb0,
            mem_dedup_txns=mem.dedup_txns - md0,
            mem_batch_l1_hits=mem.batch_l1_hits - m1h0,
            mem_batch_l2_hits=mem.batch_l2_hits - m2h0,
            block_regenerations=launch.regenerations - regen0,
        )
        return LaunchResult(
            launch_id=launch.launch_id,
            issued_warp_insts=issued,
            wall_cycles=wall,
            per_sm_issued=per_sm_issued,
            per_sm_busy_cycles=[last + 1 for last in per_sm_last],
            skipped_warp_insts=sampler.skipped_warp_insts if has_sampler else 0,
            extra_cycles=sampler.extra_cycles if has_sampler else 0.0,
            mem_stats=self.mem.stats(),
            counters=counters,
        )

    # ------------------------------------------------------------------
    # Reference engine: the original per-instruction loop, kept as the
    # equivalence oracle for the compact engine.
    # ------------------------------------------------------------------

    def _run_launch_reference(
        self,
        launch: LaunchTrace,
        sampler: DispatchSampler | None,
        recorder: FixedUnitRecorder | None,
        reset_memory: bool,
    ) -> LaunchResult:
        cfg = self.config
        if reset_memory:
            self.mem.reset()
        num_sms = cfg.num_sms
        occ = cfg.sm_occupancy(launch.warps_per_block)
        num_blocks = launch.num_blocks

        wheaps: list[list] = [[] for _ in range(num_sms)]
        resident = [0] * num_sms
        per_sm_issued = [0] * num_sms
        per_sm_last = [-1] * num_sms

        # Dispatch bookkeeping (mutated by closures below).
        next_tb = 0
        dispatch_free = 0  # the global scheduler issues one block at a time
        seq_counter = 0
        specified_tb = -1
        unit_t0 = 0
        unit_i0 = 0
        issued = 0

        get_block = launch.block
        has_sampler = sampler is not None

        def dispatch_to(si: int, now: int) -> bool:
            """Dispatch the next non-skipped thread block to SM ``si``;
            return False when the launch is exhausted."""
            nonlocal next_tb, dispatch_free, seq_counter
            nonlocal specified_tb, unit_t0, unit_i0
            while next_tb < num_blocks:
                tb_id = next_tb
                next_tb += 1
                if has_sampler and not sampler.on_dispatch(tb_id, now, issued):
                    continue  # fast-forwarded; sampler did the accounting
                # The global scheduler issues one block every few cycles,
                # and each block's warps launch back to back: dispatch is
                # serialized, which also keeps warps from running
                # phase-locked (as they would if everything started at
                # cycle 0 of the initial fill).
                start = dispatch_free if dispatch_free > now else now
                dispatch_free = start + 4
                block: BlockTrace = get_block(tb_id)
                tbst = _TBState(tb_id, len(block.warps))
                wh = wheaps[si]
                for stagger, wt in enumerate(block.warps):
                    heappush(
                        wh,
                        (start + 2 * stagger, seq_counter, _LegacyWarpState(wt, tbst)),
                    )
                    seq_counter += 1
                resident[si] += 1
                if has_sampler and specified_tb < 0:
                    specified_tb = tb_id
                    unit_t0 = now
                    unit_i0 = issued
                    sampler.on_unit_start(now)
                return True
            return False

        def retire_tb(tb: _TBState, si: int, now: int) -> None:
            nonlocal specified_tb
            resident[si] -= 1
            if has_sampler:
                if tb.tb_id == specified_tb:
                    specified_tb = -1
                    sampler.on_unit_complete(
                        issued - unit_i0, max(1, now - unit_t0), now, issued
                    )
                sampler.on_retire(tb.tb_id, now, issued)
            while resident[si] < occ:
                if not dispatch_to(si, now):
                    break

        # Initial greedy fill: thread blocks go to SMs round-robin.
        for _slot in range(occ):
            for si in range(num_sms):
                if not dispatch_to(si, 0):
                    break

        event_heap: list = []
        for si in range(num_sms):
            if wheaps[si]:
                heappush(event_heap, (0, si))

        # Hot-loop local bindings.
        mem_load = self.mem.load
        pop, push = heappop, heappush
        lrr = cfg.scheduler == "lrr"
        rec = recorder
        rec_on = rec is not None
        if rec_on:
            rec_bbv = rec.cur_bbv
            rec_left = rec.unit_insts
        wall = 0

        while event_heap:
            t, si = pop(event_heap)
            wh = wheaps[si]
            if not wh:
                continue
            r, seq, w = pop(wh)
            if r > t:
                # Composition changed since this slot was scheduled.
                push(wh, (r, seq, w))
                push(event_heap, (r, si))
                continue
            pc = w.pc
            mr = w.memreq[pc]
            if mr:
                done = mem_load(si, w.addr[pc], w.spread[pc], mr, t)
            else:
                done = t + w.stall[pc]
            issued += 1
            per_sm_issued[si] += 1
            per_sm_last[si] = t
            if t > wall:
                wall = t
            if rec_on:
                rec_bbv[w.bb[pc]] += 1
                rec_left -= 1
                if rec_left == 0:
                    rec.flush(t + 1, rec.unit_insts)
                    rec_bbv = rec.cur_bbv
                    rec_left = rec.unit_insts
            pc += 1
            if pc < w.n:
                w.pc = pc
                if lrr:
                    # Loose round-robin: re-queue with a fresh sequence
                    # number so ready warps are served least-recently-
                    # issued first.
                    seq = seq_counter
                    seq_counter += 1
                push(wh, (done, seq, w))
            else:
                tb = w.tb
                tb.live -= 1
                if tb.live == 0:
                    retire_tb(tb, si, t + 1)
            if wh:
                nt = wh[0][0]
                tp1 = t + 1
                push(event_heap, (nt if nt > tp1 else tp1, si))

        wall += 1  # the last issue occupies its cycle
        if has_sampler:
            sampler.finalize(wall, issued)
        if rec_on:
            rec.finalize(wall, rec.unit_insts - rec_left)

        return LaunchResult(
            launch_id=launch.launch_id,
            issued_warp_insts=issued,
            wall_cycles=wall,
            per_sm_issued=per_sm_issued,
            per_sm_busy_cycles=[last + 1 for last in per_sm_last],
            skipped_warp_insts=sampler.skipped_warp_insts if has_sampler else 0,
            extra_cycles=sampler.extra_cycles if has_sampler else 0.0,
            mem_stats=self.mem.stats(),
        )


__all__ = [
    "GPUSimulator",
    "LaunchResult",
    "FixedUnitRecorder",
    "UnitRecord",
    "SimCounters",
]
