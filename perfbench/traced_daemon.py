"""Run ``repro`` (normally ``serve``) with the benchmark's tracer installed.

Usage: ``python3 perfbench/traced_daemon.py METRICS.json TRACE.json <repro args>``

After the command returns (a ``serve`` daemon returns once drained), the
per-layer metrics go to METRICS.json and the spans to TRACE.json as
Chrome trace-event JSON.  Unattributed time is the process CPU time from
installing the tracer to the command's return that no layer span covers.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    metrics_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from repro._cli import main as repro_main

    tracer = Tracer().install()
    cpu0 = time.process_time()
    try:
        rc = repro_main(argv)
    finally:
        tracer.uninstall()
    with open(metrics_path, "w") as fh:
        json.dump(tracer.layer_metrics(time.process_time() - cpu0), fh)
    tracer.write_chrome_trace(trace_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
