"""serve-mix: a ``repro serve --journal`` daemon under a closed-loop client.

One client process (this one) holds two connections, each a closed loop
(next request only after the previous answer), and the two advance in
step: a barrier before each template step.  Both connections play the
same fixed template of ``tbpoint`` and ``simulate`` requests over stream,
spmv and hotspot, each at its own seeded workload seed and launches, so
the two never share a content key, a resident trace or a profile: the
daemon's counters are then the same on every run.  Every key is repeated
at least once after its first answer (journal replay), and each
connection opens with one pipelined duplicate of its first request
(coalesced onto the in-flight computation).  After the schedule, each
connection re-sends its tbpoint keys, all answered from the journal by
then, in one pipelined burst (``replay_burst``).

Every served payload must equal ``direct_payload`` for its request,
computed after the timed window.
"""

from __future__ import annotations

import json
import random
import select
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.serve import (
    ServeClient,
    ServeError,
    direct_payload,
    normalize_request,
    payloads_equal,
    request_key,
)
from repro.workloads import get_workload

from common import SCALE, SETUP_SAMPLES, Run, median, peak_rss_mb_pid, tail

CLIENTS = 2
STREAM_SIMS = 4
SPMV_SIMS = 4
#: Extra replays of each tbpoint key beyond the one every key gets.
TBPOINT_EXTRA_REPEATS = 3
#: After the schedule, each connection's tbpoint keys are re-sent this
#: often in one pipelined burst (see ``replay_burst``).
REPLAY_BURST = 20

#: ServeCounters fields reported as per-layer metrics, read by name from
#: the ``stats`` payload (absent fields read as 0).
SERVE_COUNTERS = (
    "journal_hits", "coalesced_hits", "sims_run", "tbpoint_runs",
    "profile_computed", "profile_memory_hits", "profile_disk_hits",
    "kernel_warm_hits", "engine_warm_acquisitions", "block_regenerations",
    "max_queue_depth", "shed_requests", "errors",
)
SERVE_LAYER = (
    "serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms",
    *(f"serve.{name}" for name in SERVE_COUNTERS),
    "serve.replay_ratio",
)

#: The schedule is played at least this often per run, each time on a
#: fresh daemon; each request counts with its fastest latency.
MIN_PLAYTHROUGHS = 3

START_TIMEOUT_S = 60.0
#: Longest a connection waits for the other at a template step.
STEP_TIMEOUT_S = 120.0


@dataclass
class Request:
    kind: str
    params: dict
    #: Send a second copy before reading the first answer.
    duplicate: bool = False


@dataclass
class Answer:
    client: int
    kind: str
    key: str
    params: dict
    new: bool
    coalesced: bool
    latency_s: float
    payload: dict | None = None
    error: str | None = None


def _shape() -> list[tuple]:
    """The per-connection request template, identical for every seed and
    both connections: (kind, kernel, launch slot or None, duplicate).
    Both connections play it in step, so their computations overlap the
    same way on every run.  Every key is replayed at least once after its
    first answer; tbpoint keys ``TBPOINT_EXTRA_REPEATS`` more times."""
    rng = random.Random("serve-mix shape")
    first = ("tbpoint", "spmv", None)
    new = [("tbpoint", "stream", None), ("tbpoint", "hotspot", None),
           ("simulate", "hotspot", 0)]
    new += [("simulate", "stream", ("stream", i)) for i in range(STREAM_SIMS)]
    new += [("simulate", "spmv", ("spmv", i)) for i in range(SPMV_SIMS)]
    rng.shuffle(new)
    seq = [(*first, True)] + [(*r, False) for r in new]
    repeats = [first] + new
    repeats += [r for r in [first] + new if r[0] == "tbpoint"] * TBPOINT_EXTRA_REPEATS
    rng.shuffle(repeats)
    for r in repeats:
        first_at = next(i for i, s in enumerate(seq) if s[:3] == r)
        seq.insert(rng.randint(first_at + 1, len(seq)), (*r, False))
    return seq


def schedule(seed: int) -> list[list[Request]]:
    """Per-connection request lists.  The seed picks the inputs (each
    connection's workload seed and the launches it simulates); the shape
    of the lists is fixed."""
    rng = random.Random(seed)
    workload_seeds = rng.sample(range(1, 1 << 20), CLIENTS)
    out = []
    for wseed in workload_seeds:
        counts = {k: get_workload(k, scale=SCALE, seed=wseed).num_launches
                  for k in ("stream", "spmv")}
        picks = {"stream": rng.sample(range(counts["stream"]), STREAM_SIMS),
                 "spmv": rng.sample(range(counts["spmv"]), SPMV_SIMS)}
        seq = []
        for kind, kernel, slot, duplicate in _shape():
            params = {"kernel": kernel, "scale": SCALE, "seed": wseed}
            if kind == "simulate":
                params["launch"] = slot if slot == 0 else picks[slot[0]][slot[1]]
            seq.append(Request(kind, params, duplicate))
        out.append(seq)
    return out


# ----------------------------------------------------------------------
# Daemon lifecycle
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` subprocess on an ephemeral localhost port."""

    def __init__(self, run: Run, name: str, traced: bool = False):
        self.cache_dir = run.work / name
        self.cache_dir.mkdir(parents=True)
        self.trace_out = run.work / f"{name}-trace.json" if traced else None
        serve_args = ["--cache-dir", str(self.cache_dir), "serve", "--journal",
                      "--host", "127.0.0.1", "--port", "0"]
        if traced:
            run.out.mkdir(parents=True, exist_ok=True)
            chrome = run.out / f"trace-{run.workload}-{run.seed}.json"
            cmd = [sys.executable, str(Path(__file__).with_name("traced_daemon.py")),
                   str(self.trace_out), str(chrome), *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        self.stderr = open(run.work / f"{name}.stderr", "w")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=run.root, stdout=subprocess.PIPE, stderr=self.stderr,
            text=True, env=run.child_env(TBPOINT_CACHE_DIR=str(self.cache_dir)))
        try:
            self.port = self._read_port()
            with ServeClient(host="127.0.0.1", port=self.port) as client:
                client.ping()
        except BaseException:
            self.kill()
            raise
        #: Spawn to first answered ping.
        self.setup_s = time.monotonic() - t0

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("serving on "):
            raise RuntimeError(f"daemon did not start: {line!r}")
        return int(line.split()[2].rsplit(":", 1)[1])

    def stop(self) -> None:
        try:
            with ServeClient(host="127.0.0.1", port=self.port) as client:
                client.shutdown()
            self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


# ----------------------------------------------------------------------
# One playthrough
# ----------------------------------------------------------------------
@dataclass
class Playthrough:
    answers: list = field(default_factory=list)
    wall_s: float = 0.0
    stats: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    setup_s: float = 0.0
    layer: dict = field(default_factory=dict)
    #: Per connection, the answers of its ``replay_burst``.
    burst: list = field(default_factory=list)


def _client(idx: int, port: int, requests: list, sink: list,
            step: threading.Barrier) -> None:
    seen: set = set()
    try:
        with ServeClient(host="127.0.0.1", port=port, retry_connect=False) as client:
            for r in requests:
                step.wait(STEP_TIMEOUT_S)
                _send(idx, client, r, seen, sink)
    except BaseException:
        # Never leave the other connection waiting.  Only on failure: the
        # other may not have woken from the last step yet.
        step.abort()
        raise


def _send(idx: int, client: ServeClient, r: Request, seen: set, sink: list) -> None:
    """One closed-loop step: send (twice if ``r.duplicate``), wait for
    every answer, record each with its latency from the first send."""
    key = request_key(normalize_request(r.kind, r.params))
    new = key not in seen
    seen.add(key)
    t0 = time.perf_counter()
    rids = [client.submit(r.kind, r.params)]
    if r.duplicate:
        rids.append(client.submit(r.kind, r.params))
    for n, rid in enumerate(rids):
        answer = Answer(idx, r.kind, key, r.params, new and n == 0, n == 1, 0.0)
        try:
            answer.payload = client.drain(rid)
        except ServeError as exc:
            answer.error = str(exc)
        answer.latency_s = time.perf_counter() - t0
        sink.append(answer)


def replay_burst(idx: int, port: int, requests: list) -> list:
    """A re-run of a connection's tbpoint requests, all in the journal by
    now: each key sent ``REPLAY_BURST`` times, all pipelined, then every
    answer read.  Each answer's latency is the burst's wall over its size,
    so the wake-ups of a sub-millisecond round trip are shared out."""
    keys = {request_key(normalize_request(r.kind, r.params)): r.params
            for r in requests if r.kind == "tbpoint"}
    burst = list(keys.items()) * REPLAY_BURST
    answers = []
    with ServeClient(host="127.0.0.1", port=port, retry_connect=False) as client:
        t0 = time.perf_counter()
        rids = [client.submit("tbpoint", params) for _, params in burst]
        for (key, params), rid in zip(burst, rids):
            answer = Answer(idx, "tbpoint", key, params, False, False, 0.0)
            try:
                answer.payload = client.drain(rid)
            except ServeError as exc:
                answer.error = str(exc)
            answers.append(answer)
        per_request = (time.perf_counter() - t0) / len(burst)
    for answer in answers:
        answer.latency_s = per_request
    return answers


def playthrough(run: Run, plan: list, name: str, traced: bool = False) -> Playthrough:
    daemon = Daemon(run, name, traced)
    result = Playthrough(setup_s=daemon.setup_s)
    try:
        sinks = [[] for _ in plan]
        step = threading.Barrier(len(plan))
        threads = [threading.Thread(target=_client,
                                    args=(i, daemon.port, reqs, sinks[i], step))
                   for i, reqs in enumerate(plan)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        result.wall_s = time.perf_counter() - t0
        result.answers = [a for sink in sinks for a in sink]
        result.burst = [replay_burst(i, daemon.port, reqs) for i, reqs in enumerate(plan)]
        with ServeClient(host="127.0.0.1", port=daemon.port) as client:
            result.stats = client.stats()
        result.peak_rss_mb = peak_rss_mb_pid(daemon.proc.pid)
        daemon.stop()
    finally:
        daemon.kill()
    expected = sum(len(reqs) + sum(r.duplicate for r in reqs) for reqs in plan)
    if len(result.answers) != expected:
        raise RuntimeError(f"{len(result.answers)} answers for {expected} requests")
    if daemon.trace_out is not None:
        result.layer = json.loads(daemon.trace_out.read_text())
    shutil.rmtree(daemon.cache_dir, ignore_errors=True)
    return result


def extra_setup_samples(run: Run, count: int) -> list[float]:
    samples = []
    for i in range(count):
        daemon = Daemon(run, f"setup-{i}")
        samples.append(daemon.setup_s)
        daemon.stop()
        shutil.rmtree(daemon.cache_dir, ignore_errors=True)
    return samples


# ----------------------------------------------------------------------
# Checking and metrics
# ----------------------------------------------------------------------
def check(runs: list, oracle: dict) -> list[str]:
    """Compare every answer with ``direct_payload``; fills ``oracle``
    (key -> payload) for keys not yet computed.  Returns failures."""
    answers = [a for pt in runs
               for a in pt.answers + [a for burst in pt.burst for a in burst]]
    todo = {a.key: normalize_request(a.kind, a.params) for a in answers
            if a.error is None and a.key not in oracle}
    # After the timed window, so the oracle may use every CPU: the two
    # connections' keys take about the same time.
    with ProcessPoolExecutor(max_workers=CLIENTS) as pool:
        oracle.update(zip(todo, pool.map(direct_payload, todo.values())))
    failures = []
    for a in answers:
        if a.error is not None:
            failures.append(f"client {a.client} {a.kind} {a.params}: {a.error}")
        elif not payloads_equal(a.payload, oracle[a.key]):
            failures.append(f"client {a.client} {a.kind} {a.params}: "
                            "payload differs from direct_payload")
    return failures


def _counters(pt: Playthrough) -> dict:
    counters = pt.stats.get("counters", {})
    return {name: counters.get(name, 0) for name in SERVE_COUNTERS}


def serve_layer(pt: Playthrough) -> dict:
    queue = pt.stats.get("queue", {})
    counters = _counters(pt)
    repeats = sum(1 for a in pt.answers if not a.new) + sum(map(len, pt.burst))
    return {
        "serve.queue_wait_p50_ms": float(queue.get("p50_ms", 0.0)),
        "serve.queue_wait_p99_ms": float(queue.get("p99_ms", 0.0)),
        **{f"serve.{k}": v for k, v in counters.items()},
        "serve.replay_ratio":
            (counters["journal_hits"] + counters["coalesced_hits"]) / repeats,
    }


def _best_answers(pts: list) -> list:
    """Every playthrough sends the same requests in the same order; one
    answer per request, with the fastest latency any playthrough saw."""
    positions: dict = {}
    for pt in pts:
        for client in range(CLIENTS):
            mine = [a for a in pt.answers if a.client == client]
            for i, a in enumerate(mine):
                positions.setdefault((client, i), []).append(a)
    return [min(same, key=lambda a: a.latency_s) for same in positions.values()]


def _end_to_end(run: Run, pts: list, setup: list) -> dict:
    """Each request counts with its fastest latency over the playthroughs
    (see ``_best_answers``).  A slow spell of the shared host lengthens
    every request in it, so the fastest of several repeats from run to run
    far better than a median pooled over all of them."""
    answers = _best_answers(pts)
    new = [a.latency_s for a in answers if a.new]
    # Per connection: first-time tbpoint latency summed over the three
    # kernels, the serve analogue of the batch sum.
    tbp_new = [sum(a.latency_s for a in answers
                   if a.client == c and a.new and a.kind == "tbpoint")
               for c in range(CLIENTS)]

    def hotspot(kind):
        return median([a.latency_s for a in answers if a.new and a.kind == kind
                       and a.params["kernel"] == "hotspot"])

    tail_s, label, n = tail([a.latency_s for a in answers])
    run.note(f"serve_tail_ms is the {label} of {n} requests")
    return {
        "setup_s": median(setup),
        "tbpoint_cold_s": median(tbp_new),
        # Per connection, the fastest playthrough's burst.
        "tbpoint_warm_s": median([min(pt.burst[c][0].latency_s for pt in pts)
                                  for c in range(CLIENTS)]),
        "full_s": hotspot("simulate"),
        "reduction_x": hotspot("simulate") / hotspot("tbpoint"),
        "peak_rss_mb": median([pt.peak_rss_mb for pt in pts]),
        "serve_req_per_s": len(answers) / min(pt.wall_s for pt in pts),
        "serve_new_p50_ms": median(new) * 1e3,
        "serve_tail_ms": tail_s * 1e3,
    }


def repeat_p50_ms(pt: Playthrough) -> float:
    """Median latency of requests whose key was sent before (journal
    replay or coalescing).  Sub-millisecond and too noisy on a shared
    host for a bound, so it is a per-layer metric, from the untraced
    playthrough."""
    return median([a.latency_s for a in pt.answers if not a.new]) * 1e3


def _accuracy(answers: list) -> dict:
    """Mean sample size of the distinct tbpoint answers; IPC error of each
    connection's hotspot estimate against its single-launch full
    simulation."""
    sample = {a.key: a.payload["sample_size"] for a in answers
              if a.kind == "tbpoint" and a.payload}
    hotspot = {}
    for a in answers:
        if a.params["kernel"] == "hotspot" and a.payload:
            field_name = "overall_ipc" if a.kind == "tbpoint" else "machine_ipc"
            hotspot.setdefault(a.params["seed"], {})[a.kind] = a.payload[field_name]
    errors = [abs(h["tbpoint"] - h["simulate"]) / h["simulate"] * 100
              for h in hotspot.values()]
    return {
        "ipc_error_pct": sum(errors) / len(errors),
        "sample_size_pct": sum(sample.values()) / len(sample) * 100,
    }


def run_serve_mix(run: Run) -> tuple[int, int, dict]:
    plan = schedule(run.seed)
    requests = sum(len(reqs) for reqs in plan)
    run.note(f"schedule: {CLIENTS} connections, {requests} requests "
             f"(+{sum(r.duplicate for reqs in plan for r in reqs)} pipelined duplicates)")
    pts = []
    if run.trace:
        pts.append(playthrough(run, plan, "plain"))
        pts.append(playthrough(run, plan, "traced", traced=True))
    else:
        start = time.perf_counter()
        while len(pts) < MIN_PLAYTHROUGHS or time.perf_counter() - start < run.seconds:
            pts.append(playthrough(run, plan, f"play-{len(pts)}"))
    oracle: dict = {}
    failures = check(pts, oracle)
    for failure in failures:
        run.note(f"FAILED {failure}")
    attempted = sum(len(pt.answers) + sum(map(len, pt.burst)) for pt in pts)
    counters = [_counters(pt) for pt in pts]
    if any(c != counters[0] for c in counters):
        run.note(f"NOTE serve counters differ between playthroughs: {counters}")
    run.note(f"{len(pts)} playthrough(s), walls "
             + ", ".join(f"{pt.wall_s:.2f}s" for pt in pts)
             + f"; {len(oracle)} distinct keys checked")

    if not run.trace:
        setup = [pt.setup_s for pt in pts]
        setup += extra_setup_samples(run, SETUP_SAMPLES - len(setup))
        return attempted, len(failures), _end_to_end(run, pts, setup)
    plain, traced = pts
    metrics = dict(traced.layer)
    metrics["serve_repeat_p50_ms"] = repeat_p50_ms(plain)
    metrics.update(serve_layer(traced))
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics.update(_accuracy(traced.answers))
    run.note(f"untraced wall {plain.wall_s:.3f}s, traced wall {traced.wall_s:.3f}s")
    trace_file = run.out / f"trace-{run.workload}-{run.seed}.json"
    run.note(f"chrome trace: {trace_file.relative_to(run.root)}")
    return attempted, len(failures), metrics
