"""The benchmark's own daemon launcher (a separate process).

Usage: ``python3 perfbench/daemon_main.py --cpu N --trace 0|1``

Starts an :class:`repro.service.OptimizationDaemon` over a serial
:class:`repro.service.BatchOptimizer` with ``serve_cold``'s spec,
prints ``{"url": ...}`` as one JSON line, and serves until its standard
input closes. It then drains, and prints one JSON line with its peak
resident set size and, with ``--trace 1``, every span it recorded.

The daemon runs in its own process so it never shares the load
generator's interpreter lock, and ``--cpu`` pins it to a CPU the load
generator does not use.

With ``--trace 1`` the calls into each layer are wrapped from here, not
inside the program: the HTTP handler entry points, the daemon's
``submit``/``job_status``/``report_json``, the optimizer's
``optimize_fleet``, the result store, the analytic trace backend and the
optimizer passes (both re-registered under their own names).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: ``serve_cold``'s optimizer spec: the ``BENCH_service_throughput``
#: fleet's analytic spec. Jobs carry it and the daemon's optimizer
#: defaults to it.
SERVE_SPEC_FIELDS = {"iterations": 1, "backend": "analytic",
                     "trace_duration": 1.0, "trace_warmup": 0.25}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cpu", type=int, default=-1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Pin before any thread starts: threads inherit the affinity.
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})
    sys.path.insert(0, str(HERE.parent / "src"))

    from repro.core.spec import OptimizeSpec
    from repro.service import BatchOptimizer, OptimizationDaemon
    from repro.service.store import InMemoryStore

    store = InMemoryStore()
    tracer = None
    if args.trace:
        from spans import Tracer, TracedStore
        tracer = Tracer(prefix="d")
        store = TracedStore(store, tracer)
    optimizer = BatchOptimizer(executor="serial",
                               spec=OptimizeSpec(**SERVE_SPEC_FIELDS),
                               store=store)
    daemon = OptimizationDaemon(optimizer)
    if tracer is not None:
        _instrument(daemon, optimizer, tracer)
    daemon.start()
    print(json.dumps({"url": daemon.url}), flush=True)
    sys.stdin.read()  # serve until the load generator closes our stdin
    daemon.close(wait=True)
    out = {"peak_rss_mb":
           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        out["spans"] = tracer.spans
    print(json.dumps(out), flush=True)
    return 0


def _instrument(daemon, optimizer, tracer) -> None:
    from repro.core.passes import register_pass, resolve_pass
    from repro.core.spec import DEFAULT_PASSES
    from repro.runtime.backends import register_backend, resolve_backend
    from repro.service import daemon as daemon_module

    from spans import TracedBackend, TracedPass, route

    register_backend(TracedBackend(resolve_backend("analytic"), tracer),
                     replace=True)
    for name in DEFAULT_PASSES:
        register_pass(TracedPass(resolve_pass(name), tracer), replace=True)

    def handled(method):
        def traced(handler):
            span = tracer.open("daemon.handle:" + route(handler.path))
            try:
                return method(handler)
            finally:
                tracer.close(span)
        return traced

    handler_class = daemon_module._DaemonHandler
    handler_class.do_GET = handled(handler_class.do_GET)
    handler_class.do_POST = handled(handler_class.do_POST)

    daemon.submit = tracer.wrap("daemon.submit", daemon.submit)
    daemon.job_status = tracer.wrap("daemon.job_status", daemon.job_status)
    daemon.report_json = tracer.wrap("daemon.report_json",
                                     daemon.report_json)
    optimizer.optimize_fleet = tracer.wrap("batch.optimize_fleet",
                                           optimizer.optimize_fleet)


if __name__ == "__main__":
    sys.exit(main())
