"""Helpers shared by the workloads: statistics, set-up timing, host record."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Every workload runs the program at this thread-block scale.
SCALE = 0.125

#: Fresh interpreters (or daemons) started per run for ``setup_s``.
SETUP_SAMPLES = 7

#: Tail percentiles tried, highest first; the first with at least
#: ``TAIL_BEYOND`` samples above it is reported.
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.8, 0.75, 0.5)
TAIL_BEYOND = 10


class Run:
    """One invocation: where it may read and write, and what it was asked."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.out = root / ".perfbench_out"
        #: Lines printed before the result object (human-readable report).
        self.notes: list[str] = []

    def note(self, line: str) -> None:
        self.notes.append(line)

    def child_env(self, **extra: str) -> dict[str, str]:
        """Environment for child processes: the checkout's ``src`` first
        on the import path, the profile cache inside the work dir."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p)
        env.update(extra)
        return env


def median(values) -> float:
    return float(statistics.median(values))


def nearest_rank(sorted_values: list[float], q: float) -> float:
    idx = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def tail(latencies: list[float]) -> tuple[float, str, int]:
    """Latency at the highest ladder percentile with at least
    ``TAIL_BEYOND`` samples beyond it; the maximum when there are too few
    samples for any.  Returns (value, percentile label, sample count)."""
    values = sorted(latencies)
    n = len(values)
    for q in TAIL_LADDER:
        if n * (1.0 - q) >= TAIL_BEYOND:
            return nearest_rank(values, q), f"p{q * 100:g}", n
    return values[-1], "max", n


def interpreter_setup_s(run: Run) -> float:
    """Median seconds from spawning a fresh interpreter to ``import repro``
    done, timed on the shared monotonic clock."""
    code = "import time, repro; print(repr(time.monotonic()))"
    env = run.child_env()
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=run.root, capture_output=True, text=True,
                              timeout=60, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return median(samples)


def source_digest(root: Path) -> str:
    """BLAKE2b of every file under ``src/`` (path and bytes, sorted), so a
    result names the code it measured even where no git metadata exists."""
    h = hashlib.blake2b(digest_size=12)
    src = root / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def host_record(run: Run) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "sched_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "scale": SCALE,
        "seed": run.seed,
        "seconds": run.seconds,
        "git_commit": git_commit(run.root),
        "src_digest": source_digest(run.root),
    }


def peak_rss_mb_self() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
