"""cold-regular: cold TBPoint, warm TBPoint and full simulation of lbm and stream.

The timed window opens with the reference of each kernel: one
``run_tbpoint`` and one ``run_full`` with ``jobs=1, use_cache=False``.
Every later result is checked bit for bit against it.  ``run_full``
never reads the profile cache, so the reference ``run_full`` is the same
call as a timed one and counts as a ``full_s`` sample.

Then units of work from ``ROUND`` run in turn until ``--seconds`` have
passed (at least one whole round).  A ``tbpoint`` unit makes a fresh
profile-cache directory and calls ``get_workload`` + ``run_tbpoint(jobs=1)``
once on the empty cache (cold), then ``WARM_CALLS`` times with the
profile served from the cache (warm).  A ``full`` unit calls
``get_workload`` + ``run_full(jobs=1)``.  The cache must miss on each cold
call and hit on each warm call.

Each (kernel, step) reports its fastest call of the run.  On a shared
host, slow spells of seconds to minutes lengthen every call in them, so
the fastest of several calls spread over the run repeats from run to
run far better than their median.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field

import repro
from repro import ExecutionConfig, ProfileCache

from common import SCALE, Run, interpreter_setup_s, median, peak_rss_mb_self
from servemix import SERVE_LAYER
from tracer import Tracer

KERNELS = ("lbm", "stream")

#: Warm calls after each cold ``run_tbpoint`` on the same cache directory.
WARM_CALLS = 3

#: One round of (kernel, unit).  The reference and one round give lbm,
#: whose calls are the long ones, three cold calls, nine warm calls and
#: two ``run_full`` calls, spread over the run; stream's short units
#: fill the gaps.
ROUND = (("lbm", "tbpoint"), ("stream", "tbpoint"), ("lbm", "full"),
         ("lbm", "tbpoint"), ("stream", "full"), ("stream", "tbpoint"),
         ("lbm", "tbpoint"))

STEPS = ("cold", "warm", "full")

NO_CACHE = ExecutionConfig(jobs=1, use_cache=False)


@dataclass(frozen=True)
class Outcome:
    """What must repeat exactly: estimate, sample size and full-run totals."""

    tbp_ipc: float
    tbp_sample: float
    full_ipc: float
    full_insts: int
    full_cycles: int


def _build(name: str, seed: int):
    # Looked up on the module at call time, so a tracer's wrapper applies.
    return repro.get_workload(name, scale=SCALE, seed=seed)


@dataclass
class Samples:
    #: (kernel, step) -> host seconds per call.
    seconds: dict = field(default_factory=lambda: defaultdict(list))
    failures: list = field(default_factory=list)
    attempted: int = 0

    def call(self, name: str, step: str, fn, check) -> None:
        """Time ``fn()``; an exception or a failed ``check`` counts as a
        failure, never aborts the run."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            self.failures.append(f"{name} {step}: {exc!r}")
            return
        self.seconds[name, step].append(time.perf_counter() - t0)
        self.failures.extend(check(result))


def reference(name: str, seed: int, samples: Samples | None = None) -> Outcome:
    tbp = repro.run_tbpoint(_build(name, seed), exec_config=NO_CACHE)
    t0 = time.perf_counter()
    full = repro.run_full(_build(name, seed), exec_config=NO_CACHE)
    if samples is not None:
        samples.seconds[name, "full"].append(time.perf_counter() - t0)
    return Outcome(tbp.overall_ipc, tbp.sample_size, full.overall_ipc,
                   full.total_warp_insts, full.total_cycles)


def unit(run: Run, refs: dict, samples: Samples, name: str, kind: str) -> None:
    """One ``tbpoint`` or ``full`` unit of ``ROUND`` (see the module doc)."""
    seed = run.seed
    ref = refs[name]
    if kind == "full":
        samples.call(name, "full",
                     lambda: repro.run_full(_build(name, seed), exec_config=NO_CACHE),
                     lambda r: _check_full(name, r, ref))
        return
    cache_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=run.work)
    config = ExecutionConfig(jobs=1, cache_dir=cache_dir)
    try:
        # Call i has seen i cache hits: the cold call's miss, then hits.
        for i in range(1 + WARM_CALLS):
            step = "warm" if i else "cold"
            samples.call(
                name, step,
                lambda: repro.run_tbpoint(_build(name, seed), exec_config=config),
                lambda r: _check_tbpoint(name, step, r, ref, cache_dir, (i, 1)))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def one_round(run: Run, refs: dict, samples: Samples) -> float:
    """Every unit of ``ROUND`` once; returns its wall seconds."""
    wall0 = time.perf_counter()
    for name, kind in ROUND:
        unit(run, refs, samples, name, kind)
    return time.perf_counter() - wall0


def _check_full(name: str, result, ref: Outcome) -> list:
    got = (result.overall_ipc, result.total_warp_insts, result.total_cycles)
    want = (ref.full_ipc, ref.full_insts, ref.full_cycles)
    return [] if got == want else [f"{name} full: {got} != reference {want}"]


def _check_tbpoint(name: str, step: str, result, ref: Outcome, cache_dir: str,
                   expected: tuple) -> list:
    bad = []
    got = (result.overall_ipc, result.sample_size)
    want = (ref.tbp_ipc, ref.tbp_sample)
    if got != want:
        bad.append(f"{name} {step}: {got} != reference {want}")
    info = ProfileCache(cache_dir).info()
    if (info["hits"], info["misses"]) != expected:
        bad.append(f"{name} {step}: profile cache hits/misses "
                   f"{info['hits']}/{info['misses']}, expected {expected}")
    return bad


def _end_to_end(samples: Samples, setup_s: float) -> dict:
    """Each (kernel, step) counts with its fastest call.  The serve-shaped
    metrics treat those six fastest calls as the requests."""
    best = {key: min(values) for key, values in samples.seconds.items()}
    step_s = {step: sum(best[k, step] for k in KERNELS) for step in STEPS}
    new = [best[k, step] for k in KERNELS for step in ("cold", "full")]
    return {
        "setup_s": setup_s,
        "tbpoint_cold_s": step_s["cold"],
        "tbpoint_warm_s": step_s["warm"],
        "full_s": step_s["full"],
        "reduction_x": step_s["full"] / step_s["cold"],
        "peak_rss_mb": peak_rss_mb_self(),
        "serve_req_per_s": len(best) / sum(best.values()),
        "serve_new_p50_ms": median(new) * 1e3,
        "serve_tail_ms": max(best.values()) * 1e3,
    }


def _accuracy(refs: dict) -> dict:
    errors = [abs(r.tbp_ipc - r.full_ipc) / r.full_ipc * 100 for r in refs.values()]
    simulated = sum(r.tbp_sample * r.full_insts for r in refs.values())
    total = sum(r.full_insts for r in refs.values())
    return {
        "ipc_error_pct": sum(errors) / len(errors),
        "sample_size_pct": simulated / total * 100,
    }


def _report(run: Run, refs: dict, samples: Samples) -> None:
    for failure in samples.failures:
        run.note(f"FAILED {failure}")
    for k in KERNELS:
        ref = refs[k]
        cold, warm, full = (samples.seconds[k, step] for step in STEPS)
        err = abs(ref.tbp_ipc - ref.full_ipc) / ref.full_ipc * 100
        run.note(f"{k}: cold {_fmt(cold)} warm {_fmt(warm)} full {_fmt(full)} "
                 f"reduction {min(full) / min(cold):.2f}x "
                 f"ipc_error {err:.4f}% sample {ref.tbp_sample * 100:.4f}%")


def _fmt(values: list) -> str:
    return "/".join(f"{v:.3f}" for v in values) + "s"


def run_batch(run: Run) -> tuple[int, int, dict]:
    """Returns (attempted, failed, metrics)."""
    if run.trace:
        return _traced(run, {k: reference(k, run.seed) for k in KERNELS})
    setup_s = interpreter_setup_s(run)
    samples = Samples()
    start = time.perf_counter()
    refs = {k: reference(k, run.seed, samples) for k in KERNELS}
    done = 0
    while done < len(ROUND) or time.perf_counter() - start < run.seconds:
        unit(run, refs, samples, *ROUND[done % len(ROUND)])
        done += 1
    run.note(f"references + {done} unit(s) in {time.perf_counter() - start:.2f}s")
    _report(run, refs, samples)
    return samples.attempted, len(samples.failures), _end_to_end(samples, setup_s)


def _traced(run: Run, refs: dict) -> tuple[int, int, dict]:
    """One untraced and one traced round; per-layer metrics from the
    traced one, overhead from the difference of their walls."""
    samples = Samples()
    plain_s = one_round(run, refs, samples)
    warm_ms = [s * 1e3 for k in KERNELS for s in samples.seconds[k, "warm"]]
    tracer = Tracer()
    origin = time.perf_counter()
    cpu0 = time.process_time()
    with tracer:
        traced_s = one_round(run, refs, samples)
    cpu_s = time.process_time() - cpu0
    run.out.mkdir(parents=True, exist_ok=True)
    path = run.out / f"trace-{run.workload}-{run.seed}.json"
    tracer.write_chrome_trace(str(path), origin)
    run.note(f"chrome trace: {path.relative_to(run.root)} "
             f"({len(tracer.spans)} spans)")
    for failure in samples.failures:
        run.note(f"FAILED {failure}")

    metrics = tracer.layer_metrics(cpu_s)
    metrics["trace.overhead_s"] = traced_s - plain_s
    # Warm calls are the batch repeats, timed in the untraced pass.
    metrics["serve_repeat_p50_ms"] = median(warm_ms)
    metrics.update(_accuracy(refs))
    # The serve layer is bypassed: the batch calls go straight to the library.
    metrics.update(dict.fromkeys(SERVE_LAYER, 0))
    run.note(f"untraced wall {plain_s:.3f}s, traced wall {traced_s:.3f}s")
    return samples.attempted, len(samples.failures), metrics
