"""Span recorder that wraps the program's public entry points from outside.

Nothing in ``src/`` changes: :class:`Tracer` replaces each entry point in
the module namespaces its callers look it up in (``repro.core.pipeline``
for the functions ``run_tbpoint`` calls, ``repro.serve.jobs`` for the
daemon's job body, class attributes for methods) and restores them on
:meth:`Tracer.uninstall`.  The wrapped ``run_tbpoint``/``run_full``
therefore execute the program's own call sequence; the wrappers only
take timestamps and read return values.

Spans are kept in memory (name, start, end, parent, thread, thread CPU
time) and written at the end as Chrome trace-event JSON (``ph: "X"``),
viewable in Perfetto.  A layer's self time is its span's thread CPU time
minus that of its child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import threading
import time
import weakref
from collections import defaultdict

#: Span names, one per layer boundary.  The per-layer metric prefix is
#: the part before the first dot.
GET_WORKLOAD = "workloads.get_workload"
BLOCK_SYNTH = "workloads.block_synthesize"
PROFILE = "profiler.profile_kernel"
CACHED_PROFILE = "exec.cached_profile"
PLAN = "core.plan_inter_launch"
EPOCHS = "core.build_epochs"
REGIONS = "core.identify_regions"
COMPOSE = "core.compose_kernel_estimate"
RUN_TBPOINT = "core.run_tbpoint"
RUN_LAUNCH = "sim.run_launch"
RUN_FULL = "baselines.run_full"

#: (span name, attribute name, module namespaces that hold a reference).
_FUNCTION_TARGETS = (
    (GET_WORKLOAD, "get_workload",
     ("repro", "repro.workloads", "repro.workloads.registry", "repro.serve.jobs")),
    (PROFILE, "profile_kernel",
     ("repro", "repro.profiler", "repro.profiler.functional",
      "repro.exec.cache", "repro.serve.jobs")),
    (CACHED_PROFILE, "cached_profile",
     ("repro.exec", "repro.exec.cache", "repro.core.pipeline")),
    (PLAN, "plan_inter_launch", ("repro.core.interlaunch", "repro.core.pipeline")),
    (EPOCHS, "build_epochs", ("repro.core.epochs", "repro.core.pipeline")),
    (REGIONS, "identify_regions", ("repro.core.regions", "repro.core.pipeline")),
    (COMPOSE, "compose_kernel_estimate",
     ("repro.core.estimates", "repro.core.pipeline")),
    (RUN_TBPOINT, "run_tbpoint", ("repro", "repro.core", "repro.core.pipeline")),
    (RUN_FULL, "run_full", ("repro", "repro.baselines", "repro.baselines.full")),
)


@dataclasses.dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    tid: int
    #: Thread CPU seconds between start and end.
    cpu: float


class Tracer:
    """In-memory span recorder plus the counts read at the same
    boundaries (what ran, what hit, what was simulated)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.launch_results: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple:
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, time.perf_counter(), time.thread_time()

    def _close(self, name: str, opened: tuple, keep: bool = True) -> None:
        cpu_end = time.thread_time()
        end = time.perf_counter()
        self._stack().pop()
        if keep:
            sid, parent, start, cpu_start = opened
            span = Span(sid, name, start, end, parent, threading.get_ident(),
                        cpu_end - cpu_start)
            with self._lock:
                self.spans.append(span)

    def _wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, opened)
            if on_result is not None:
                with tracer._lock:
                    on_result(result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Counts read from return values (called under the lock)
    # ------------------------------------------------------------------
    def _on_plan(self, plan) -> None:
        self.counts["core.clusters"] += plan.num_clusters
        self.counts["core.simulated_launches"] += len(plan.simulated_launches)

    def _on_regions(self, table) -> None:
        self.counts["core.regions"] += table.num_regions

    def _on_compose(self, estimate) -> None:
        total = estimate.total_warp_insts
        self.counts["core.composed_insts"] += total
        self.counts["core.skipped_insts"] += total - estimate.simulated_insts

    def _on_launch(self, result) -> None:
        self.launch_results.append(result)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        import importlib

        from repro.sim.gpu import GPUSimulator
        from repro.trace.launch import LaunchTrace

        hooks = {PLAN: self._on_plan, REGIONS: self._on_regions,
                 COMPOSE: self._on_compose}
        for name, attr, modules in _FUNCTION_TARGETS:
            original = getattr(importlib.import_module(modules[-1]), attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for module_name in modules:
                module = importlib.import_module(module_name)
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)

        self._patch(GPUSimulator, "run_launch",
                    self._wrap(RUN_LAUNCH, GPUSimulator.run_launch,
                               self._on_launch))
        self._patch(LaunchTrace, "block", self._wrap_block(LaunchTrace.block))
        return self

    def _wrap_block(self, block):
        """``LaunchTrace.block`` keeps a span only for calls that
        synthesized the block (memo hits are not synthesis).  A call
        synthesizes iff the launch's ``regenerations`` counter moved or
        the block was never returned for this launch before."""
        tracer = self
        seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

        @functools.wraps(block)
        def wrapper(launch, tb_id):
            regen0 = launch.regenerations
            opened = tracer._open()
            keep = False
            try:
                result = block(launch, tb_id)
                with tracer._lock:
                    flags = seen.get(launch)
                    if flags is None:
                        flags = seen[launch] = bytearray(launch.num_blocks)
                    first = not flags[tb_id]
                    flags[tb_id] = 1
                regen = launch.regenerations - regen0
                keep = first or regen > 0
                if keep:
                    with tracer._lock:
                        tracer.counts["workloads.blocks_synthesized"] += 1
                        tracer.counts["workloads.block_regenerations"] += regen
            finally:
                tracer._close(BLOCK_SYNTH, opened, keep=keep)
            return result

        return wrapper

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def _self_by_span(self) -> dict[int, float]:
        """Thread CPU seconds per span id, direct child spans excluded.

        CPU rather than wall time, so that the serve daemon's two compute
        threads, which take turns holding the interpreter lock, do not
        each count the other's turns."""
        own = {s.sid: s.cpu for s in self.spans}
        for span in self.spans:
            if span.parent in own:
                own[span.parent] -= span.cpu
        return own

    def layer_metrics(self, cpu_s: float) -> dict[str, float]:
        """Per-layer self times and counts of everything recorded, plus
        the part of ``cpu_s`` (process CPU seconds of the traced work)
        that no layer span accounts for."""
        own = self._self_by_span()
        by_id = {s.sid: s for s in self.spans}
        self_s: dict[str, float] = defaultdict(float)
        for span in self.spans:
            self_s[span.name] += own[span.sid]

        cached_calls = [s.sid for s in self.spans if s.name == CACHED_PROFILE]
        profiled_under = {s.parent for s in self.spans if s.name == PROFILE}
        hits = sum(1 for sid in cached_calls if sid not in profiled_under)

        full_launch_s = 0.0
        full_launches = 0
        for span in self.spans:
            parent = by_id.get(span.parent)
            if span.name == RUN_LAUNCH and parent is not None and parent.name == RUN_FULL:
                full_launch_s += own[span.sid]
                full_launches += 1
        full_s = sum(s.cpu for s in self.spans if s.name == RUN_FULL)

        sim = _aggregate_launches(self.launch_results)
        synthesized = self.counts["workloads.blocks_synthesized"]
        regenerations = self.counts["workloads.block_regenerations"]
        composed = self.counts["core.composed_insts"]
        out = {
            "workloads.synth_s": self_s[BLOCK_SYNTH],
            "workloads.blocks_synthesized": synthesized,
            "workloads.block_regenerations": regenerations,
            "workloads.regen_ratio": regenerations / synthesized if synthesized else 0.0,
            "profiler.profile_s": self_s[PROFILE],
            "exec.cached_profile_s": self_s[CACHED_PROFILE],
            "exec.profile_cache_hit_rate": hits / len(cached_calls) if cached_calls else 0.0,
            "core.plan_s": self_s[PLAN],
            "core.regions_s": self_s[EPOCHS] + self_s[REGIONS],
            "core.compose_s": self_s[COMPOSE],
            "core.clusters": self.counts["core.clusters"],
            "core.simulated_launches": self.counts["core.simulated_launches"],
            "core.regions": self.counts["core.regions"],
            "core.skip_frac": self.counts["core.skipped_insts"] / composed if composed else 0.0,
            "sim.run_launch_s": self_s[RUN_LAUNCH],
            "sim.warp_insts_per_s": (
                sim["sim.issued_warp_insts"] / self_s[RUN_LAUNCH]
                if self_s[RUN_LAUNCH] else 0.0),
            **sim,
            "baselines.full_launches": full_launches,
            "baselines.full_sim_share": full_launch_s / full_s if full_s else 0.0,
        }
        attributed = sum(self_s[name] for name in _ATTRIBUTED)
        out["trace.unattributed_s"] = cpu_s - attributed
        return out

    def write_chrome_trace(self, path: str, origin: float | None = None) -> None:
        """Chrome trace-event JSON: complete events in microseconds,
        the parent span id in ``args`` so nesting survives export."""
        t0 = origin if origin is not None else min(
            (s.start for s in self.spans), default=0.0)
        tids: dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: (s.start, s.sid)):
            tid = tids.setdefault(span.tid, len(tids) + 1)
            events.append({
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - t0) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": os.getpid(),
                "tid": tid,
                "args": {"id": span.sid, "parent": span.parent},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


#: Spans whose self time some per-layer metric reports; the rest of the
#: CPU time (entry-point glue, the benchmark's loop, the daemon's event
#: loop) is unattributed.
_ATTRIBUTED = (BLOCK_SYNTH, PROFILE, CACHED_PROFILE, PLAN, EPOCHS, REGIONS,
               COMPOSE, RUN_LAUNCH)


def _aggregate_launches(results: list) -> dict[str, float]:
    """Simulated statistics summed over every ``run_launch`` result.

    ``mem_stats`` and ``counters`` are read as plain dicts so the keys a
    front end or counter set adds or drops never break the benchmark.
    Hit rates are weighted by the accesses that reach each level: L1 by
    memory transactions, L2 by L1 misses, DRAM row hits by requests."""
    issued = skipped = cycles = events = 0
    l1_acc = l1_hit = l2_acc = l2_hit = dram = row_hit = 0.0
    # Serve threads append in completion order; sum in a fixed order so
    # the floating-point totals repeat exactly.
    ordered = sorted(results, key=lambda r: (
        r.launch_id, r.issued_warp_insts, r.wall_cycles, r.skipped_warp_insts))
    for r in ordered:
        issued += r.issued_warp_insts
        skipped += r.skipped_warp_insts
        cycles += r.wall_cycles
        counters = dataclasses.asdict(r.counters) if r.counters is not None else {}
        events += counters.get("events_popped", 0)
        stats = dict(r.mem_stats)
        txns = counters.get("mem_txns", 0)
        l1_rate = float(stats.get("l1_hit_rate", 0.0))
        l1_acc += txns
        l1_hit += txns * l1_rate
        misses = txns * (1.0 - l1_rate)
        l2_acc += misses
        l2_hit += misses * float(stats.get("l2_hit_rate", 0.0))
        requests = int(stats.get("dram_requests", 0))
        dram += requests
        row_hit += requests * float(stats.get("dram_row_hit_rate", 0.0))
    return {
        "sim.issued_warp_insts": issued,
        "sim.skipped_warp_insts": skipped,
        "sim.cycles": cycles,
        "sim.l1_hit_rate": l1_hit / l1_acc if l1_acc else 0.0,
        "sim.l2_hit_rate": l2_hit / l2_acc if l2_acc else 0.0,
        "sim.dram_requests": dram,
        "sim.dram_row_hit_rate": row_hit / dram if dram else 0.0,
        "sim.events_per_inst": events / issued if issued else 0.0,
    }
