"""End-to-end benchmark of the TBPoint reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-regular --seed 1 --seconds 10 --trace 0

Workloads: ``cold-regular`` (lbm + stream) and ``serve-mix`` (a
``repro serve --journal`` daemon); see ``perfbench/README.md``.  ``--trace 0`` prints every end-to-end metric
of ``BENCHMARK.json``; ``--trace 1`` runs one untraced and one traced
pass and prints every per-layer metric, writing the spans as Chrome
trace-event JSON under ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` of the current directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

WORKLOADS = ("cold-regular", "serve-mix")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return _fail(f"no program source at {src / 'repro'}; run from a checkout root")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(src))

    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        return _fail(f"imported repro from {repro.__file__}, not from {src}")

    from common import Run, host_record

    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    run.work.mkdir(parents=True)
    # Nothing may read or write the user's ~/.cache/tbpoint.
    os.environ["TBPOINT_CACHE_DIR"] = str(run.work / "default-cache")
    try:
        if args.workload == "serve-mix":
            from servemix import run_serve_mix

            attempted, failed, metrics = run_serve_mix(run)
        else:
            from batch import run_batch

            attempted, failed, metrics = run_batch(run)
        host = host_record(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    if args.trace:
        metrics["error_rate"] = failed / attempted
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(units):
        return _fail(f"metric set mismatch: missing {sorted(set(units) - set(metrics))}, "
                     f"unexpected {sorted(set(metrics) - set(units))}")

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "host": host,
        "notes": run.notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    run.out.mkdir(parents=True, exist_ok=True)
    (run.out / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print("host: " + json.dumps(host, sort_keys=True))
    for line in run.notes:
        print(line)
    for name in units:
        print(f"  {name:34s} {metrics[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
