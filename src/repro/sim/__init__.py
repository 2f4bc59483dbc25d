"""Cycle-approximate GPGPU timing simulator (the Macsim substitute).

An event-driven multi-SM model: a global event heap orders SM issue
slots; each SM issues one warp instruction per cycle from its
earliest-ready resident warp (in-order, scoreboarded — Table V); memory
instructions traverse per-SM L1s, a shared L2 and banked DRAM with
open-row and queueing behaviour, which produces the *variable* stall
latencies the paper's model calls ``M``.

The memory subsystem has two front ends: the batched fast path
(``MemoryHierarchy``, the default) and the per-transaction reference
implementation (``ReferenceMemoryHierarchy``) kept as the equivalence
oracle.  Both produce bit-identical timing, cache/DRAM state and
statistics (property-tested in ``tests/test_sim_memory_fastpath.py``).
Select one via ``make_memory(config, front_end)`` or
``GPUSimulator(..., mem_front_end=...)``.

The simulator exposes the hooks TBPoint's intra-launch sampling needs:
a dispatch-time skip decision and sampling-unit tracking where a unit is
the lifetime of a *specified* thread block (Section IV-B2).

Parallelism is launch-level only: the execution engine fans
representative launches out to worker processes, each keeping one warm
simulator (``repro.sim.worker``), and results stay exact.  Splitting
one launch across a sharded L2 or SM groups was measured and rejected
(DESIGN.md §12).
"""

from repro.sim.caches import LRUCache
from repro.sim.dram import DRAMModel
from repro.sim.memory import (
    MEMORY_FRONT_ENDS,
    MemoryHierarchy,
    ReferenceMemoryHierarchy,
    make_memory,
)
from repro.sim.gpu import (
    FixedUnitRecorder,
    GPUSimulator,
    LaunchResult,
    SimCounters,
    UnitRecord,
)
from repro.sim.worker import get_simulator, init_worker

__all__ = [
    "LRUCache",
    "DRAMModel",
    "MemoryHierarchy",
    "ReferenceMemoryHierarchy",
    "MEMORY_FRONT_ENDS",
    "make_memory",
    "GPUSimulator",
    "LaunchResult",
    "SimCounters",
    "FixedUnitRecorder",
    "UnitRecord",
    "init_worker",
    "get_simulator",
]
